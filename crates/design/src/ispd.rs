//! ISPD2007/2008 global-routing contest `.gr` benchmark importer.
//!
//! The `.gr` format is the lingua franca of academic global routers
//! (FastRoute, NTHU-Route, MaizeRouter, …):
//!
//! ```text
//! grid <x> <y> <layers>
//! vertical capacity   <c1> ... <cL>
//! horizontal capacity <c1> ... <cL>
//! minimum width       <w1> ... <wL>
//! minimum spacing     <s1> ... <sL>
//! via spacing         <v1> ... <vL>
//! <llx> <lly> <tile_width> <tile_height>
//! num net <n>
//! <name> <id> <pins> <min_width>
//! <x> <y> <layer>
//! ...
//! <adjustments>
//! <x1> <y1> <l1> <x2> <y2> <l2> <new_capacity>
//! ```
//!
//! Mapping to this crate's model (documented approximations):
//!
//! * file layer `k` (1-based) becomes our layer `k` and our layer 0 stays
//!   the unroutable pin layer, so the grid gains one layer;
//! * per-layer capacities convert from wiring units to *tracks* by dividing
//!   by `minimum width + minimum spacing` of the layer;
//! * pin physical coordinates map to G-cells through the tile geometry and
//!   clamp to the grid; pin layers map to the pin layer 0 (the contest
//!   pins are all on layer 1);
//! * capacity adjustments become single-cell [`Blockage`]s with the factor
//!   `new / original` on the affected layer.

use fastgr_grid::{Point2, Rect};

use crate::error::ParseDesignError;
use crate::format::{is_capacity, next_parsed, reserve_for};
use crate::net::{Blockage, Design, Net, NetId, Pin};

/// Internal line cursor with 1-based positions for error messages.
struct Cursor<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines().enumerate(),
        }
    }

    /// Next non-empty line.
    fn next(&mut self, expected: &'static str) -> Result<(usize, &'a str), ParseDesignError> {
        for (no, line) in self.lines.by_ref() {
            let t = line.trim();
            if !t.is_empty() {
                return Ok((no + 1, t));
            }
        }
        Err(ParseDesignError::UnexpectedEof { expected })
    }

    /// Next non-empty line if any.
    fn try_next(&mut self) -> Option<(usize, &'a str)> {
        for (no, line) in self.lines.by_ref() {
            let t = line.trim();
            if !t.is_empty() {
                return Some((no + 1, t));
            }
        }
        None
    }
}

fn bad(line_no: usize, expected: &'static str, content: &str) -> ParseDesignError {
    ParseDesignError::BadLine {
        line_no,
        expected,
        content: content.to_owned(),
    }
}

/// Parses the numeric tail of a line after `skip` leading words.
fn numbers(line: &str, skip: usize) -> Vec<f64> {
    line.split_whitespace()
        .skip(skip)
        .filter_map(|t| t.parse().ok())
        .collect()
}

impl Design {
    /// Imports an ISPD2007/2008 contest `.gr` benchmark.
    ///
    /// `name` labels the resulting design. See the module docs for the
    /// mapping and its approximations.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDesignError`] naming the first offending line on
    /// malformed input.
    pub fn from_ispd2008(name: impl Into<String>, text: &str) -> Result<Design, ParseDesignError> {
        let mut cur = Cursor::new(text);

        // grid X Y L
        let (no, line) = cur.next("grid line")?;
        let mut it = line.split_whitespace();
        if it.next() != Some("grid") {
            return Err(bad(no, "grid <x> <y> <layers>", line));
        }
        let gx: u16 =
            next_parsed(&mut it).ok_or_else(|| bad(no, "grid x: an integer in 0..=65535", line))?;
        let gy: u16 =
            next_parsed(&mut it).ok_or_else(|| bad(no, "grid y: an integer in 0..=65535", line))?;
        let file_layers: usize = next_parsed(&mut it)
            .ok_or_else(|| bad(no, "grid layers: a non-negative integer", line))?;
        if it.next().is_some() {
            return Err(bad(no, "grid <x> <y> <layers>", line));
        }
        if gx < 2 || gy < 2 || file_layers == 0 || file_layers > 254 {
            return Err(ParseDesignError::Invalid {
                line_no: no,
                reason: format!("unusable grid {gx}x{gy} with {file_layers} layers"),
            });
        }

        // Capacity / width / spacing headers.
        let mut expect_vec =
            |head: &'static str, words: usize| -> Result<Vec<f64>, ParseDesignError> {
                let (no, line) = cur.next(head)?;
                if !line.starts_with(head.split(' ').next().unwrap_or(head)) {
                    return Err(bad(no, head, line));
                }
                let v = numbers(line, words);
                if v.len() != file_layers || !v.iter().all(|&x| is_capacity(x)) {
                    return Err(bad(no, head, line));
                }
                Ok(v)
            };
        let vertical = expect_vec("vertical capacity", 2)?;
        let horizontal = expect_vec("horizontal capacity", 2)?;
        let min_width = expect_vec("minimum width", 2)?;
        let min_spacing = expect_vec("minimum spacing", 2)?;
        let _via_spacing = expect_vec("via spacing", 2)?;

        // Tile geometry.
        let (no, line) = cur.next("tile geometry line")?;
        let geo = numbers(line, 0);
        if geo.len() != 4 {
            return Err(bad(no, "<llx> <lly> <tile_w> <tile_h>", line));
        }
        let (llx, lly, tile_w, tile_h) = (geo[0], geo[1], geo[2], geo[3]);
        if !geo.iter().all(|v| v.is_finite()) || tile_w <= 0.0 || tile_h <= 0.0 {
            return Err(ParseDesignError::Invalid {
                line_no: no,
                reason: "tile geometry must be finite, tile dimensions positive".to_owned(),
            });
        }

        // Per-layer track capacities; our layer k = file layer k, plus the
        // pin layer 0 with zero capacity.
        let mut layer_caps = vec![0.0f64; file_layers + 1];
        let mut original_caps = vec![0.0f64; file_layers + 1];
        for k in 0..file_layers {
            let pitch = (min_width[k] + min_spacing[k]).max(1.0);
            // Our alternating-direction model routes layer k+1 in one
            // direction; take whichever capacity the file grants there
            // (contest layers are single-direction: one of the two is 0).
            let units = vertical[k].max(horizontal[k]);
            layer_caps[k + 1] = units / pitch;
            original_caps[k + 1] = units / pitch;
        }
        let layers = (file_layers + 1) as u8;

        // num net N
        let (no, line) = cur.next("`num net` line")?;
        let mut it = line.split_whitespace();
        if (it.next(), it.next()) != (Some("num"), Some("net")) {
            return Err(bad(no, "num net <count>", line));
        }
        let net_count: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad(no, "num net <count>", line))?;

        let to_cell = |px: f64, py: f64| -> Point2 {
            let cx = ((px - llx) / tile_w).floor().clamp(0.0, gx as f64 - 1.0);
            let cy = ((py - lly) / tile_h).floor().clamp(0.0, gy as f64 - 1.0);
            Point2::new(cx as u16, cy as u16)
        };

        let mut nets = Vec::with_capacity(reserve_for(net_count));
        for _ in 0..net_count {
            let (no, line) = cur.next("net header")?;
            let mut it = line.split_whitespace();
            let net_name = it
                .next()
                .ok_or_else(|| bad(no, "<name> <id> <pins>", line))?
                .to_owned();
            let _id = it.next();
            let pin_count: usize = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad(no, "<name> <id> <pins> [min-width]", line))?;
            if pin_count == 0 {
                return Err(ParseDesignError::Invalid {
                    line_no: no,
                    reason: format!("net {net_name} declares zero pins"),
                });
            }
            let mut pins = Vec::with_capacity(reserve_for(pin_count));
            for _ in 0..pin_count {
                let (no, line) = cur.next("pin line")?;
                let v = numbers(line, 0);
                if v.len() < 2 {
                    return Err(bad(no, "<x> <y> [layer]", line));
                }
                // Contest pins sit on layer 1; our pins live on layer 0.
                pins.push(Pin::new(to_cell(v[0], v[1]), 0));
            }
            nets.push(Net::new(NetId(nets.len() as u32), net_name, pins));
        }

        // Capacity adjustments (optional tail).
        let mut blockages = Vec::new();
        if let Some((no, line)) = cur.try_next() {
            let count: usize = line
                .split_whitespace()
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad(no, "<adjustment count>", line))?;
            for _ in 0..count {
                let (no, line) = cur.next("capacity adjustment")?;
                let v = numbers(line, 0);
                if v.len() != 7 {
                    return Err(bad(no, "<x1> <y1> <l1> <x2> <y2> <l2> <capacity>", line));
                }
                let (x1, y1, l1) = (v[0] as u16, v[1] as u16, v[2] as usize);
                let (x2, y2, _l2) = (v[3] as u16, v[4] as u16, v[5] as usize);
                if l1 == 0 || l1 > file_layers || x1.max(x2) >= gx || y1.max(y2) >= gy {
                    return Err(ParseDesignError::Invalid {
                        line_no: no,
                        reason: "capacity adjustment outside the grid".to_owned(),
                    });
                }
                if !is_capacity(v[6]) {
                    let reason = format!("adjusted capacity {} is not finite and >= 0", v[6]);
                    return Err(ParseDesignError::Invalid {
                        line_no: no,
                        reason,
                    });
                }
                let layer = l1 as u8; // our layer index (file layer k -> k)
                let pitch = (min_width[l1 - 1] + min_spacing[l1 - 1]).max(1.0);
                let new_tracks = v[6] / pitch;
                let original = original_caps[l1];
                let factor = if original > 0.0 {
                    (new_tracks / original).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                // The adjustment names the edge between two adjacent cells;
                // our blockage covers the edge's lower endpoint.
                blockages.push(Blockage {
                    layer,
                    region: Rect::new(
                        Point2::new(x1.min(x2), y1.min(y2)),
                        Point2::new(x1.min(x2), y1.min(y2)),
                    ),
                    factor,
                });
            }
        }

        let avg_cap = layer_caps.iter().skip(1).sum::<f64>() / file_layers as f64;
        Ok(Design::new(name, gx, gy, layers, avg_cap, blockages, nets)
            .with_layer_capacities(layer_caps))
    }
}

/// A tiny hand-written ISPD2008-style benchmark (test fixture).
#[cfg(test)]
pub(crate) const SAMPLE: &str = "grid 4 4 2
vertical capacity 0 20
horizontal capacity 20 0
minimum width 1 1
minimum spacing 1 1
via spacing 1 1
0 0 10 10
num net 2
netA 0 2 1
5 5 1
35 25 1
netB 1 3 1
5 35 1
15 35 1
35 35 1
1
1 1 1 2 1 1 10
";

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_grid::CostParams;

    #[test]
    fn parses_the_sample() {
        let d = Design::from_ispd2008("sample", SAMPLE).expect("valid ispd text");
        assert_eq!(d.width(), 4);
        assert_eq!(d.height(), 4);
        assert_eq!(d.layers(), 3); // 2 file layers + pin layer
        assert_eq!(d.nets().len(), 2);
        // Capacity: 20 units / (1 width + 1 spacing) = 10 tracks.
        assert_eq!(d.layer_capacities(), &[0.0, 10.0, 10.0]);
        // Pin (5, 5) -> cell (0, 0); (35, 25) -> cell (3, 2).
        assert_eq!(d.nets()[0].pins()[0].position, Point2::new(0, 0));
        assert_eq!(d.nets()[0].pins()[1].position, Point2::new(3, 2));
        // One adjustment: factor 10/20 wiring units = 5/10 tracks = 0.5.
        assert_eq!(d.blockages().len(), 1);
        assert!((d.blockages()[0].factor - 0.5).abs() < 1e-9);
    }

    #[test]
    fn imported_design_builds_a_graph() {
        let d = Design::from_ispd2008("sample", SAMPLE).expect("valid");
        let g = d.build_graph(CostParams::default()).expect("valid dims");
        // M1 horizontal capacity 10 tracks, scaled by the adjustment at (1,1).
        assert_eq!(g.wire_capacity(1, Point2::new(0, 0)), Some(10.0));
        assert_eq!(g.wire_capacity(1, Point2::new(1, 1)), Some(5.0));
        // M2 vertical.
        assert_eq!(g.wire_capacity(2, Point2::new(0, 0)), Some(10.0));
    }

    #[test]
    fn rejects_missing_header() {
        assert!(matches!(
            Design::from_ispd2008("x", "hello world\n"),
            Err(ParseDesignError::BadLine { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_grid_line() {
        // One case per grid field: out of range, negative, fractional.
        for (grid_line, field) in [
            ("grid 65537 4 2", "grid x"),
            ("grid 4 -3 2", "grid y"),
            ("grid 4 4 2.5", "grid layers"),
        ] {
            let text = SAMPLE.replacen("grid 4 4 2", grid_line, 1);
            match Design::from_ispd2008("x", &text) {
                Err(ParseDesignError::BadLine {
                    line_no: 1,
                    expected,
                    content,
                }) => {
                    assert!(expected.starts_with(field), "{grid_line}: {expected}");
                    assert_eq!(content, grid_line);
                }
                other => panic!("{grid_line}: expected a bad {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_wrong_capacity_arity() {
        let text = "grid 4 4 2\nvertical capacity 0\n";
        assert!(Design::from_ispd2008("x", text).is_err());
    }

    #[test]
    fn rejects_truncated_nets() {
        let text = "grid 4 4 2\n\
            vertical capacity 0 20\nhorizontal capacity 20 0\n\
            minimum width 1 1\nminimum spacing 1 1\nvia spacing 1 1\n\
            0 0 10 10\nnum net 1\nnetA 0 2 1\n5 5 1\n";
        assert!(matches!(
            Design::from_ispd2008("x", text),
            Err(ParseDesignError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn out_of_grid_pins_clamp() {
        let text = "grid 4 4 2\n\
            vertical capacity 0 20\nhorizontal capacity 20 0\n\
            minimum width 1 1\nminimum spacing 1 1\nvia spacing 1 1\n\
            0 0 10 10\nnum net 1\nnetA 0 2 1\n-5 -5 1\n999 999 1\n";
        let d = Design::from_ispd2008("x", text).expect("clamps");
        assert_eq!(d.nets()[0].pins()[0].position, Point2::new(0, 0));
        assert_eq!(d.nets()[0].pins()[1].position, Point2::new(3, 3));
    }

    #[test]
    fn imported_design_routes_end_to_end() {
        // The importer's output must be routable by the full router.
        let d = Design::from_ispd2008("sample", SAMPLE).expect("valid");
        // (Routing itself is exercised in the facade integration tests; at
        // this crate level we check the graph + netlist invariants.)
        assert!(d.nets().iter().all(|n| n.pin_count() >= 2));
        assert_eq!(d.pin_count(), 5);
    }

    #[test]
    fn rejects_huge_counts_without_reserving() {
        for (from, to) in [
            ("num net 2", "num net 18446744073709551615"),
            ("num net 2", "num net 100000000000"),
            ("netA 0 2 1", "netA 0 18446744073709551615 1"),
        ] {
            let text = SAMPLE.replacen(from, to, 1);
            assert!(Design::from_ispd2008("x", &text).is_err(), "{to}");
        }
    }

    #[test]
    fn rejects_non_finite_or_negative_capacities() {
        for (from, to) in [
            ("vertical capacity 0 20", "vertical capacity 0 nan"),
            ("horizontal capacity 20 0", "horizontal capacity -20 0"),
            ("1 1 1 2 1 1 10", "1 1 1 2 1 1 inf"),
        ] {
            let text = SAMPLE.replacen(from, to, 1);
            assert!(Design::from_ispd2008("x", &text).is_err(), "{to}");
        }
    }
}
