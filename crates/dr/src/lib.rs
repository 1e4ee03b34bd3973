//! A Dr.CU-substitute detailed router for evaluating routing guides.
//!
//! The paper's Table X feeds every global router's guides into Dr. CU (the
//! paper's reference \[4\])
//! and compares detailed-routing quality. Dr. CU itself is a large C++
//! system; this crate substitutes a deliberately simple but *real*
//! guide-constrained track assigner that preserves the property Table X
//! depends on: detailed-routing quality is a monotone function of how
//! congested the guides are (see `DESIGN.md` §4).
//!
//! The model: every G-cell expands into a `k x k` fine grid (`k = 3` by
//! default, i.e. three routing tracks per G-cell per layer). Nets are
//! processed in ascending-HPWL order; each global-routing wire picks the
//! least-occupied track inside its G-cell corridor; overlaps that cannot be
//! avoided become **shorts**, parallel runs on adjacent tracks of different
//! nets become **spacing violations**, and track changes between adjacent
//! segments of one net add jog wirelength and vias.
//!
//! # Example
//!
//! ```
//! use fastgr_design::Generator;
//! use fastgr_dr::DetailedRouter;
//! use fastgr_grid::{Point2, Route, Segment};
//!
//! let design = Generator::tiny(5).generate();
//! let mut routes = vec![Route::new(); design.nets().len()];
//! let mut wire = Route::new();
//! wire.push_segment(Segment::new(1, Point2::new(0, 2), Point2::new(8, 2)));
//! routes[0] = wire;
//! let out = DetailedRouter::default().route(&design, &routes);
//! assert_eq!(out.wirelength, 8 * 3); // fine grid is 3x the G-cell grid
//! assert_eq!(out.shorts, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use fastgr_design::Design;
use fastgr_grid::{Direction, Route};

/// Configuration of the detailed router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrConfig {
    /// Fine cells (tracks) per G-cell side; 3 matches typical track counts
    /// per G-cell at the scaled grid resolution.
    pub tracks_per_gcell: u8,
    /// Refinement iterations: after the initial assignment, nets involved
    /// in shorts are ripped up and re-assigned against the now-known
    /// occupancy (Dr. CU's iterative flow, reduced to track re-assignment).
    pub refine_iterations: u8,
}

impl Default for DrConfig {
    fn default() -> Self {
        Self {
            tracks_per_gcell: 3,
            refine_iterations: 1,
        }
    }
}

/// Detailed-routing quality metrics (the Table X columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrOutcome {
    /// Routed wirelength in fine-grid units.
    pub wirelength: u64,
    /// Number of vias (global vias plus track-change jog vias).
    pub vias: u64,
    /// Number of shorts (fine cells occupied by more than one net).
    pub shorts: u64,
    /// Number of spacing violations (adjacent-track parallel-run cell
    /// pairs between different nets).
    pub spacing_violations: u64,
}

impl fmt::Display for DrOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dr: wl {} / vias {} / shorts {} / spacing {}",
            self.wirelength, self.vias, self.shorts, self.spacing_violations
        )
    }
}

/// One fine-grid layer plane of net occupancy (`u32::MAX` = free).
#[derive(Debug, Clone)]
struct Plane {
    w: usize,
    cells: Vec<u32>,
}

const FREE: u32 = u32::MAX;

impl Plane {
    fn new(w: usize, h: usize) -> Self {
        Self {
            w,
            cells: vec![FREE; w * h],
        }
    }

    fn get(&self, x: usize, y: usize) -> u32 {
        self.cells[y * self.w + x]
    }

    fn set(&mut self, x: usize, y: usize, net: u32) {
        self.cells[y * self.w + x] = net;
    }
}

/// The guide-constrained fine-grid track assigner. See the crate docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetailedRouter {
    config: DrConfig,
}

impl DetailedRouter {
    /// Creates a detailed router with the given configuration.
    pub fn new(config: DrConfig) -> Self {
        Self { config }
    }

    /// Performs detailed routing of `routes` (one per net, indexed by net
    /// id) and returns the quality metrics.
    ///
    /// # Panics
    ///
    /// Panics if `routes.len()` differs from the design's net count.
    pub fn route(&self, design: &Design, routes: &[Route]) -> DrOutcome {
        assert_eq!(routes.len(), design.nets().len(), "one route per net");
        let k = self.config.tracks_per_gcell as usize;
        let fw = design.width() as usize * k;
        let fh = design.height() as usize * k;
        let layers = design.layers() as usize;
        let mut planes: Vec<Plane> = (0..layers).map(|_| Plane::new(fw, fh)).collect();

        // Net order: ascending HPWL, ties by id (mirrors the GR ordering).
        let mut order: Vec<u32> = (0..routes.len() as u32).collect();
        order.sort_by_key(|&i| (design.nets()[i as usize].hpwl(), i));

        // Initial assignment.
        let mut per_net = vec![NetAssignment::default(); routes.len()];
        for &net_id in &order {
            per_net[net_id as usize] =
                self.assign_net(&mut planes, net_id, &routes[net_id as usize]);
        }

        // Refinement: rip up shorted nets and re-assign against the full
        // occupancy picture (Dr. CU's iterative improvement, reduced to
        // track re-assignment).
        for _ in 0..self.config.refine_iterations {
            let shorted: Vec<u32> = order
                .iter()
                .copied()
                .filter(|&id| per_net[id as usize].shorts > 0)
                .collect();
            if shorted.is_empty() {
                break;
            }
            for &net_id in &shorted {
                Self::unassign_net(&mut planes, &per_net[net_id as usize]);
                per_net[net_id as usize] =
                    self.assign_net(&mut planes, net_id, &routes[net_id as usize]);
            }
        }

        // Aggregate.
        let mut out = DrOutcome::default();
        for (net_id, a) in per_net.iter().enumerate() {
            out.wirelength += a.wirelength;
            out.vias += a.vias + routes[net_id].via_count();
            out.shorts += a.shorts;
        }

        // Spacing violations: different nets on laterally adjacent tracks.
        for (l, plane) in planes.iter().enumerate() {
            let horizontal = Direction::of_layer(l as u8) == Direction::Horizontal;
            for y in 0..fh {
                for x in 0..fw {
                    let a = plane.get(x, y);
                    if a == FREE {
                        continue;
                    }
                    // Only check the positive cross direction (count each
                    // adjacent pair once).
                    let (nx, ny) = if horizontal { (x, y + 1) } else { (x + 1, y) };
                    if nx < fw && ny < fh {
                        let b = plane.get(nx, ny);
                        if b != FREE && b != a {
                            out.spacing_violations += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// Assigns one net's wires to fine tracks, committing its occupancy and
    /// recording it for a potential later rip-up.
    fn assign_net(&self, planes: &mut [Plane], net_id: u32, route: &Route) -> NetAssignment {
        let k = self.config.tracks_per_gcell as usize;
        let mut a = NetAssignment::default();
        let mut prev_track: Option<usize> = None;
        for seg in route.segments() {
            let layer = seg.layer as usize;
            let horizontal = Direction::of_layer(seg.layer) == Direction::Horizontal;
            // Fine extent along the running direction (centre to centre).
            let (c0, c1, cross_gcell) = if horizontal {
                (
                    seg.from.x as usize * k + k / 2,
                    seg.to.x as usize * k + k / 2,
                    seg.from.y as usize,
                )
            } else {
                (
                    seg.from.y as usize * k + k / 2,
                    seg.to.y as usize * k + k / 2,
                    seg.from.x as usize,
                )
            };
            // Candidate tracks within the G-cell corridor, centre first.
            let base = cross_gcell * k;
            let mut candidates: Vec<usize> = vec![base + k / 2];
            for d in 1..=k / 2 {
                if k / 2 >= d {
                    candidates.push(base + k / 2 - d);
                }
                if k / 2 + d < k {
                    candidates.push(base + k / 2 + d);
                }
            }
            // Pick the track with the least foreign occupancy.
            let occupancy = |track: usize| -> u64 {
                (c0..=c1)
                    .filter(|&c| {
                        let (x, y) = if horizontal { (c, track) } else { (track, c) };
                        let owner = planes[layer].get(x, y);
                        owner != FREE && owner != net_id
                    })
                    .count() as u64
            };
            let track = candidates
                .iter()
                .copied()
                .min_by_key(|&t| occupancy(t))
                .expect("k >= 1");

            // Commit the wire: overlaps become shorts. Cells already owned
            // by a foreign net stay with that owner so a later rip-up of
            // this net cannot erase someone else's wire.
            let mut owned = Vec::with_capacity(c1 - c0 + 1);
            for c in c0..=c1 {
                let (x, y) = if horizontal { (c, track) } else { (track, c) };
                let owner = planes[layer].get(x, y);
                if owner != FREE && owner != net_id {
                    a.shorts += 1;
                } else {
                    planes[layer].set(x, y, net_id);
                    owned.push((layer, x, y));
                }
            }
            a.cells.extend(owned);
            a.wirelength += (c1 - c0) as u64;

            // Track-change jog relative to the previous segment of the
            // same net: adds jog wirelength and one via.
            if let Some(prev) = prev_track {
                let jog = prev.abs_diff(track) as u64;
                if jog > 0 {
                    a.wirelength += jog;
                    a.vias += 1;
                }
            }
            prev_track = Some(track);
        }
        a
    }

    /// Removes a net's committed occupancy.
    fn unassign_net(planes: &mut [Plane], a: &NetAssignment) {
        for &(layer, x, y) in &a.cells {
            planes[layer].set(x, y, FREE);
        }
    }
}

/// One net's fine-grid assignment record.
#[derive(Debug, Clone, Default)]
struct NetAssignment {
    cells: Vec<(usize, usize, usize)>,
    wirelength: u64,
    vias: u64,
    shorts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_design::{Generator, GeneratorParams};
    use fastgr_grid::{Point2, Segment, Via};

    fn tiny_design(capacity: f64, seed: u64) -> Design {
        Generator::new(GeneratorParams {
            name: "dr-test".into(),
            width: 16,
            height: 16,
            layers: 5,
            num_nets: 120,
            capacity,
            hotspots: 2,
            hotspot_affinity: 0.5,
            blockages: 1,
            seed,
        })
        .generate()
    }

    fn empty_routes(design: &Design) -> Vec<Route> {
        vec![Route::new(); design.nets().len()]
    }

    #[test]
    fn empty_routes_have_clean_metrics() {
        let design = tiny_design(8.0, 1);
        let out = DetailedRouter::default().route(&design, &empty_routes(&design));
        assert_eq!(out, DrOutcome::default());
    }

    #[test]
    fn disjoint_wires_cause_no_violations() {
        let design = tiny_design(8.0, 1);
        let mut routes = empty_routes(&design);
        let mut r0 = Route::new();
        r0.push_segment(Segment::new(1, Point2::new(0, 2), Point2::new(8, 2)));
        routes[0] = r0;
        let mut r1 = Route::new();
        r1.push_segment(Segment::new(1, Point2::new(0, 10), Point2::new(8, 10)));
        routes[1] = r1;
        let out = DetailedRouter::default().route(&design, &routes);
        assert_eq!(out.shorts, 0);
        assert_eq!(out.spacing_violations, 0);
        assert_eq!(out.wirelength, 2 * 8 * 3);
    }

    #[test]
    fn overloaded_corridor_produces_shorts() {
        let design = tiny_design(8.0, 1);
        let mut routes = empty_routes(&design);
        // Five nets through the same G-cell row on the same layer: only 3
        // tracks exist, so at least two nets must overlap.
        for slot in routes.iter_mut().take(5) {
            let mut r = Route::new();
            r.push_segment(Segment::new(1, Point2::new(0, 5), Point2::new(10, 5)));
            *slot = r;
        }
        let out = DetailedRouter::default().route(&design, &routes);
        assert!(out.shorts > 0, "expected shorts, got {out}");
        assert!(out.spacing_violations > 0);
    }

    #[test]
    fn three_nets_fill_tracks_without_shorts() {
        let design = tiny_design(8.0, 1);
        let mut routes = empty_routes(&design);
        for slot in routes.iter_mut().take(3) {
            let mut r = Route::new();
            r.push_segment(Segment::new(1, Point2::new(0, 5), Point2::new(10, 5)));
            *slot = r;
        }
        let out = DetailedRouter::default().route(&design, &routes);
        assert_eq!(out.shorts, 0, "3 tracks fit 3 nets");
        // Parallel adjacent tracks: spacing violations are expected.
        assert!(out.spacing_violations > 0);
    }

    #[test]
    fn vias_count_global_vias_plus_jogs() {
        let design = tiny_design(8.0, 1);
        let mut routes = empty_routes(&design);
        let mut r = Route::new();
        r.push_segment(Segment::new(1, Point2::new(0, 5), Point2::new(5, 5)));
        r.push_via(Via::new(Point2::new(5, 5), 1, 2));
        r.push_segment(Segment::new(2, Point2::new(5, 5), Point2::new(5, 9)));
        routes[0] = r;
        let out = DetailedRouter::default().route(&design, &routes);
        assert!(out.vias >= 1);
    }

    #[test]
    fn refinement_reduces_or_preserves_shorts() {
        let design = tiny_design(8.0, 2);
        let mut routes = empty_routes(&design);
        // Four nets squeezed through one corridor plus side corridors: the
        // first pass shorts, refinement can re-balance.
        for slot in routes.iter_mut().take(4) {
            let mut r = Route::new();
            r.push_segment(Segment::new(1, Point2::new(0, 5), Point2::new(10, 5)));
            *slot = r;
        }
        let zero = DetailedRouter::new(DrConfig {
            tracks_per_gcell: 3,
            refine_iterations: 0,
        })
        .route(&design, &routes);
        let refined = DetailedRouter::new(DrConfig {
            tracks_per_gcell: 3,
            refine_iterations: 2,
        })
        .route(&design, &routes);
        assert!(
            refined.shorts <= zero.shorts,
            "refined {refined} vs raw {zero}"
        );
    }

    #[test]
    fn rip_up_never_erases_foreign_wires() {
        // A net overlapping another must not remove the other's occupancy
        // when re-assigned: total shorts must stay consistent across
        // refinement iterations (no panic, no negative accounting).
        let design = tiny_design(8.0, 3);
        let mut routes = empty_routes(&design);
        for slot in routes.iter_mut().take(6) {
            let mut r = Route::new();
            r.push_segment(Segment::new(1, Point2::new(0, 7), Point2::new(12, 7)));
            *slot = r;
        }
        for iters in [0u8, 1, 3] {
            let out = DetailedRouter::new(DrConfig {
                tracks_per_gcell: 3,
                refine_iterations: iters,
            })
            .route(&design, &routes);
            // 6 nets into 3 tracks: at least 3 nets' worth of overlap.
            assert!(out.shorts > 0);
            assert!(out.wirelength >= 6 * 12 * 3);
        }
    }

    #[test]
    fn worse_guides_give_worse_detailed_quality() {
        use fastgr_core::{Router, RouterConfig};
        // Same design, two guide qualities: pattern-only routing leaves
        // more overflow than routing with rip-up-and-reroute, so its
        // detailed solution must have at least as many shorts. The DR
        // track count matches the GR capacity (3) so the comparison is
        // apples to apples.
        let design = tiny_design(3.0, 7);
        let mut pattern_only = RouterConfig::cugr();
        pattern_only.rrr_iterations = 0;
        let rough = Router::new(pattern_only).run(&design).expect("ok");
        let refined = Router::new(RouterConfig::cugr()).run(&design).expect("ok");
        assert!(refined.metrics.shorts <= rough.metrics.shorts);
        let dr = DetailedRouter::new(DrConfig {
            tracks_per_gcell: 3,
            ..DrConfig::default()
        });
        let dr_rough = dr.route(&design, &rough.routes);
        let dr_refined = dr.route(&design, &refined.routes);
        assert!(
            dr_refined.shorts <= dr_rough.shorts,
            "refined {dr_refined} vs rough {dr_rough}"
        );
    }
}
