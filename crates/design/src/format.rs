//! Plain-text design interchange format.
//!
//! A minimal line-oriented format so designs can be dumped, diffed and
//! reloaded without external parsers:
//!
//! ```text
//! fastgr 1
//! design <name> <width> <height> <layers> <capacity>
//! blockage <layer> <x0> <y0> <x1> <y1> <factor>
//! net <name> <pin-count>
//! pin <x> <y> <layer>
//! ...
//! end
//! ```

use std::fmt::Write as _;
use std::str::FromStr;

use fastgr_grid::{Point2, Rect};

use crate::error::ParseDesignError;
use crate::net::{Blockage, Design, Net, NetId, Pin};

/// Parses the next whitespace-separated token as a `T`. `None` if the token
/// is missing or does not parse; for an integer `T` that includes fractions,
/// negative values and values outside `T`'s range.
pub(crate) fn next_parsed<'a, T: FromStr>(it: &mut impl Iterator<Item = &'a str>) -> Option<T> {
    it.next()?.parse().ok()
}

/// Initial capacity for `count` items a file declares: capped, since the
/// count is untrusted; a larger count grows as its lines actually arrive.
pub(crate) fn reserve_for(count: usize) -> usize {
    count.min(1 << 10)
}

/// Whether `v` is a usable capacity or capacity factor (`nan` and `inf`
/// parse as `f64`, but are not).
pub(crate) fn is_capacity(v: f64) -> bool {
    v.is_finite() && v >= 0.0
}

impl Design {
    /// Serialises the design to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fastgr 1");
        let _ = writeln!(
            out,
            "design {} {} {} {} {}",
            self.name(),
            self.width(),
            self.height(),
            self.layers(),
            self.capacity()
        );
        if !self.layer_capacities().is_empty() {
            let caps: Vec<String> = self
                .layer_capacities()
                .iter()
                .map(|c| c.to_string())
                .collect();
            let _ = writeln!(out, "layercap {}", caps.join(" "));
        }
        for b in self.blockages() {
            let _ = writeln!(
                out,
                "blockage {} {} {} {} {} {}",
                b.layer, b.region.lo.x, b.region.lo.y, b.region.hi.x, b.region.hi.y, b.factor
            );
        }
        for net in self.nets() {
            let _ = writeln!(out, "net {} {}", net.name(), net.pin_count());
            for pin in net.pins() {
                let _ = writeln!(
                    out,
                    "pin {} {} {}",
                    pin.position.x, pin.position.y, pin.layer
                );
            }
        }
        let _ = writeln!(out, "end");
        out
    }

    /// Parses a design from the text format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDesignError`] describing the first offending line on
    /// malformed input, including pins outside the declared grid.
    pub fn from_text(text: &str) -> Result<Design, ParseDesignError> {
        let mut lines = text.lines().enumerate();

        let (_, header) = lines
            .next()
            .ok_or(ParseDesignError::UnexpectedEof { expected: "header" })?;
        if header.trim() != "fastgr 1" {
            return Err(ParseDesignError::BadHeader {
                line: header.to_owned(),
            });
        }

        let (no, design_line) = lines.next().ok_or(ParseDesignError::UnexpectedEof {
            expected: "design line",
        })?;
        let mut it = design_line.split_whitespace();
        let bad =
            |line_no: usize, expected: &'static str, content: &str| ParseDesignError::BadLine {
                line_no: line_no + 1,
                expected,
                content: content.to_owned(),
            };
        if it.next() != Some("design") {
            return Err(bad(no, "design line", design_line));
        }
        let name = it
            .next()
            .ok_or_else(|| bad(no, "design name", design_line))?
            .to_owned();
        let width: u16 = next_parsed(&mut it)
            .ok_or_else(|| bad(no, "width: an integer in 0..=65535", design_line))?;
        let height: u16 = next_parsed(&mut it)
            .ok_or_else(|| bad(no, "height: an integer in 0..=65535", design_line))?;
        let layers: u8 = next_parsed(&mut it)
            .ok_or_else(|| bad(no, "layers: an integer in 0..=255", design_line))?;
        let capacity: f64 = next_parsed(&mut it)
            .filter(|&c| is_capacity(c))
            .ok_or_else(|| bad(no, "capacity: a finite non-negative number", design_line))?;

        let mut blockages = Vec::new();
        let mut nets: Vec<Net> = Vec::new();
        let mut layer_capacities: Vec<f64> = Vec::new();
        let mut saw_end = false;

        while let Some((no, line)) = lines.next() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            match it.next() {
                Some("layercap") => {
                    let caps: Vec<f64> = it.map(|t| t.parse().unwrap_or(f64::NAN)).collect();
                    if caps.len() != layers as usize || !caps.iter().all(|&c| is_capacity(c)) {
                        return Err(bad(
                            no,
                            "layercap <c0> .. <cL-1>, each finite and non-negative",
                            line,
                        ));
                    }
                    layer_capacities = caps;
                }
                Some("blockage") => {
                    let vals: Vec<f64> = it.map(|t| t.parse().unwrap_or(f64::NAN)).collect();
                    if vals.len() != 6 || vals.iter().any(|v| v.is_nan()) {
                        return Err(bad(
                            no,
                            "blockage <layer> <x0> <y0> <x1> <y1> <factor>",
                            line,
                        ));
                    }
                    if !(0.0..layers as f64).contains(&vals[0]) || !is_capacity(vals[5]) {
                        return Err(ParseDesignError::Invalid {
                            line_no: no + 1,
                            reason: format!(
                                "a blockage needs a layer below {layers} and a finite \
                                 non-negative factor"
                            ),
                        });
                    }
                    blockages.push(Blockage {
                        layer: vals[0] as u8,
                        region: Rect::new(
                            Point2::new(vals[1] as u16, vals[2] as u16),
                            Point2::new(vals[3] as u16, vals[4] as u16),
                        ),
                        factor: vals[5],
                    });
                }
                Some("net") => {
                    let net_name = it
                        .next()
                        .ok_or_else(|| bad(no, "net <name> <pin-count>", line))?
                        .to_owned();
                    let count: usize = it
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad(no, "net <name> <pin-count>", line))?;
                    if count == 0 {
                        return Err(ParseDesignError::Invalid {
                            line_no: no + 1,
                            reason: format!("net {net_name} declares zero pins"),
                        });
                    }
                    let mut pins = Vec::with_capacity(reserve_for(count));
                    for _ in 0..count {
                        let (pno, pline) = lines.next().ok_or(ParseDesignError::UnexpectedEof {
                            expected: "pin line",
                        })?;
                        let mut pit = pline.split_whitespace();
                        if pit.next() != Some("pin") {
                            return Err(bad(pno, "pin <x> <y> <layer>", pline));
                        }
                        let vals: Vec<u32> = pit.map(|t| t.parse().unwrap_or(u32::MAX)).collect();
                        if vals.len() != 3 || vals.contains(&u32::MAX) {
                            return Err(bad(pno, "pin <x> <y> <layer>", pline));
                        }
                        let (x, y, l) = (vals[0], vals[1], vals[2]);
                        if x >= width as u32 || y >= height as u32 || l >= layers as u32 {
                            return Err(ParseDesignError::Invalid {
                                line_no: pno + 1,
                                reason: format!(
                                    "pin ({x}, {y}, M{l}) outside the {width}x{height}x{layers} grid"
                                ),
                            });
                        }
                        pins.push(Pin::new(Point2::new(x as u16, y as u16), l as u8));
                    }
                    nets.push(Net::new(NetId(nets.len() as u32), net_name, pins));
                }
                Some("end") => {
                    saw_end = true;
                    break;
                }
                _ => return Err(bad(no, "layercap, blockage, net, or end", line)),
            }
        }

        if !saw_end {
            return Err(ParseDesignError::UnexpectedEof { expected: "`end`" });
        }
        let design = Design::new(name, width, height, layers, capacity, blockages, nets);
        Ok(if layer_capacities.is_empty() {
            design
        } else {
            design.with_layer_capacities(layer_capacities)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::Generator;

    #[test]
    fn round_trip_preserves_design() {
        let d = Generator::tiny(5).generate();
        let text = d.to_text();
        let back = Design::from_text(&text).expect("valid text");
        assert_eq!(d, back);
    }

    #[test]
    fn layer_capacities_round_trip() {
        let d = Generator::tiny(5).generate();
        let layers = d.layers() as usize;
        let d = d.with_layer_capacities((0..layers).map(|l| l as f64).collect());
        let back = Design::from_text(&d.to_text()).expect("valid text");
        assert_eq!(d, back);
    }

    #[test]
    fn rejects_bad_layercap_count() {
        let text = "fastgr 1\ndesign d 8 8 4 2\nlayercap 1 2\nend\n";
        assert!(matches!(
            Design::from_text(text),
            Err(ParseDesignError::BadLine { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_design_header() {
        // One case per grid field: out of range, negative, fractional.
        for (design_line, field) in [
            ("design x 65537 16 5 8", "width"),
            ("design x 16 -3 5 8", "height"),
            ("design x 16 16 5.5 8", "layers"),
        ] {
            let text = format!("fastgr 1\n{design_line}\nend\n");
            match Design::from_text(&text) {
                Err(ParseDesignError::BadLine {
                    line_no: 2,
                    expected,
                    content,
                }) => {
                    assert!(expected.starts_with(field), "{design_line}: {expected}");
                    assert_eq!(content, design_line);
                }
                other => panic!("{design_line}: expected a bad {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            Design::from_text("nope\n"),
            Err(ParseDesignError::BadHeader { .. })
        ));
    }

    #[test]
    fn rejects_truncated_pins() {
        let text = "fastgr 1\ndesign d 8 8 4 2\nnet a 2\npin 0 0 0\n";
        assert!(matches!(
            Design::from_text(text),
            Err(ParseDesignError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn rejects_missing_end() {
        let text = "fastgr 1\ndesign d 8 8 4 2\nnet a 1\npin 0 0 0\n";
        assert!(matches!(
            Design::from_text(text),
            Err(ParseDesignError::UnexpectedEof { expected: "`end`" })
        ));
    }

    #[test]
    fn rejects_out_of_grid_pin() {
        let text = "fastgr 1\ndesign d 8 8 4 2\nnet a 1\npin 9 0 0\nend\n";
        match Design::from_text(text) {
            Err(ParseDesignError::Invalid { line_no, reason }) => {
                assert_eq!(line_no, 4);
                assert!(reason.contains("outside"));
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn rejects_zero_pin_net() {
        let text = "fastgr 1\ndesign d 8 8 4 2\nnet a 0\nend\n";
        assert!(matches!(
            Design::from_text(text),
            Err(ParseDesignError::Invalid { .. })
        ));
    }

    #[test]
    fn rejects_garbage_record() {
        let text = "fastgr 1\ndesign d 8 8 4 2\nwat 1 2 3\nend\n";
        assert!(matches!(
            Design::from_text(text),
            Err(ParseDesignError::BadLine { .. })
        ));
    }

    #[test]
    fn empty_lines_are_tolerated() {
        let text = "fastgr 1\ndesign d 8 8 4 2\n\nnet a 1\npin 0 0 0\n\nend\n";
        assert!(Design::from_text(text).is_ok());
    }

    /// The line a malformed `text` is rejected at.
    fn error_line(text: &str) -> usize {
        match Design::from_text(text) {
            Err(ParseDesignError::BadLine { line_no, .. })
            | Err(ParseDesignError::Invalid { line_no, .. }) => line_no,
            other => panic!("expected a line error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_huge_pin_counts_without_reserving() {
        // `usize::MAX` pins overflowed the reservation; 1e11 aborted the
        // process trying to allocate 600 GB.
        for count in ["18446744073709551615", "100000000000"] {
            let text = format!("fastgr 1\ndesign d 8 8 4 2\nnet n0 {count}\npin 0 0 0\nend\n");
            assert_eq!(error_line(&text), 5, "{count}");
        }
    }

    #[test]
    fn rejects_blockage_layer_outside_the_grid() {
        let text = "fastgr 1\ndesign d 8 8 4 2\nblockage 9 0 0 7 7 0.5\nend\n";
        assert_eq!(error_line(text), 3);
    }

    #[test]
    fn rejects_non_finite_or_negative_capacities() {
        for line in ["design d 8 8 4 nan", "design d 8 8 4 -1"] {
            assert_eq!(error_line(&format!("fastgr 1\n{line}\nend\n")), 2, "{line}");
        }
        for line in [
            "layercap 0 2 inf 2",
            "layercap 0 -2 2 2",
            "blockage 1 0 0 7 7 inf",
        ] {
            let text = format!("fastgr 1\ndesign d 8 8 4 2\n{line}\nend\n");
            assert_eq!(error_line(&text), 3, "{line}");
        }
    }
}
