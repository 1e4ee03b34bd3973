//! Pre-routing congestion estimation: the RUDY density map the
//! congestion-aware edge shifting of the planning stage consumes.

use fastgr_design::Design;

/// RUDY (Rectangular Uniform wire DensitY) congestion estimate: each net
/// spreads `hpwl / area` demand uniformly over its bounding box. Needs no
/// routing at all, which makes it the standard pre-routing estimator — and
/// the density signal the congestion-aware edge shifting of the planning
/// stage consumes.
///
/// Returns a row-major `height x width` density map.
///
/// # Example
///
/// ```
/// use fastgr_core::rudy_map;
/// use fastgr_design::Generator;
///
/// let design = Generator::tiny(5).generate();
/// let rudy = rudy_map(&design);
/// assert_eq!(rudy.len(), 16 * 16);
/// assert!(rudy.iter().sum::<f64>() > 0.0);
/// ```
pub fn rudy_map(design: &Design) -> Vec<f64> {
    let (w, h) = (design.width() as usize, design.height() as usize);
    let mut density = vec![0.0f64; w * h];
    for net in design.nets() {
        let bbox = net.bounding_box();
        let hpwl = net.hpwl() as f64;
        if hpwl == 0.0 {
            continue;
        }
        let share = hpwl / bbox.area() as f64;
        for y in bbox.lo.y..=bbox.hi.y {
            for x in bbox.lo.x..=bbox.hi.x {
                density[y as usize * w + x as usize] += share;
            }
        }
    }
    density
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rudy_concentrates_where_nets_overlap() {
        use fastgr_design::{Net, NetId, Pin};
        use fastgr_grid::Point2;
        // Two nets overlapping at (4..6, 4..6); a third far away.
        let nets = vec![
            Net::new(
                NetId(0),
                "a",
                vec![
                    Pin::new(Point2::new(2, 4), 0),
                    Pin::new(Point2::new(6, 6), 0),
                ],
            ),
            Net::new(
                NetId(1),
                "b",
                vec![
                    Pin::new(Point2::new(4, 2), 0),
                    Pin::new(Point2::new(6, 6), 0),
                ],
            ),
            Net::new(
                NetId(2),
                "c",
                vec![
                    Pin::new(Point2::new(12, 12), 0),
                    Pin::new(Point2::new(14, 14), 0),
                ],
            ),
        ];
        let design = fastgr_design::Design::new("t", 16, 16, 5, 4.0, vec![], nets);
        let rudy = rudy_map(&design);
        let at = |x: usize, y: usize| rudy[y * 16 + x];
        assert!(at(5, 5) > at(13, 13), "overlap region must be denser");
        assert_eq!(at(0, 15), 0.0);
    }
}
