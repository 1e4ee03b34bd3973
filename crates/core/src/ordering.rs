//! Internet net-ordering schemes (paper Section II-E / Table IV).

use std::fmt;

use fastgr_design::Net;

/// The six net-sorting schemes evaluated in Table V of the paper.
///
/// Ties break on the net id, so every scheme yields a deterministic total
/// order. The paper concludes that **ascending bounding-box half-perimeter**
/// gives the best runtime and quality overall, which is the default used by
/// every FastGR preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum SortingScheme {
    /// Ascending number of pins.
    PinsAscending,
    /// Descending number of pins.
    PinsDescending,
    /// Ascending bounding-box half-perimeter (HPWL) — the paper's choice.
    #[default]
    HpwlAscending,
    /// Descending bounding-box half-perimeter.
    HpwlDescending,
    /// Ascending bounding-box area.
    AreaAscending,
    /// Descending bounding-box area.
    AreaDescending,
}

impl SortingScheme {
    /// All six schemes in Table IV order.
    pub const ALL: [SortingScheme; 6] = [
        SortingScheme::PinsAscending,
        SortingScheme::PinsDescending,
        SortingScheme::HpwlAscending,
        SortingScheme::HpwlDescending,
        SortingScheme::AreaAscending,
        SortingScheme::AreaDescending,
    ];

    /// The sort key of `net` under this scheme (ascending order; descending
    /// schemes negate internally).
    fn key(&self, net: &Net) -> i64 {
        let v = match self {
            SortingScheme::PinsAscending | SortingScheme::PinsDescending => net.pin_count() as i64,
            SortingScheme::HpwlAscending | SortingScheme::HpwlDescending => net.hpwl() as i64,
            SortingScheme::AreaAscending | SortingScheme::AreaDescending => {
                net.bounding_box().area() as i64
            }
        };
        match self {
            SortingScheme::PinsDescending
            | SortingScheme::HpwlDescending
            | SortingScheme::AreaDescending => -v,
            _ => v,
        }
    }

    /// Returns the ids (dense indices) of `nets` sorted under this scheme.
    ///
    /// # Example
    ///
    /// ```
    /// use fastgr_core::SortingScheme;
    /// use fastgr_design::{Net, NetId, Pin};
    /// use fastgr_grid::Point2;
    ///
    /// let nets = vec![
    ///     Net::new(NetId(0), "big", vec![
    ///         Pin::new(Point2::new(0, 0), 0), Pin::new(Point2::new(9, 9), 0)]),
    ///     Net::new(NetId(1), "small", vec![
    ///         Pin::new(Point2::new(0, 0), 0), Pin::new(Point2::new(1, 1), 0)]),
    /// ];
    /// assert_eq!(SortingScheme::HpwlAscending.sorted_ids(&nets), vec![1, 0]);
    /// assert_eq!(SortingScheme::HpwlDescending.sorted_ids(&nets), vec![0, 1]);
    /// ```
    pub fn sorted_ids(&self, nets: &[Net]) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..nets.len() as u32).collect();
        self.sort_subset(&mut ids, nets);
        ids
    }

    /// Sorts an arbitrary subset of net ids (used by the RRR stage, which
    /// only re-sorts the violating nets).
    ///
    /// Each net's key (a walk over its pins) is computed once, not once per
    /// comparison.
    pub fn sort_subset(&self, ids: &mut [u32], nets: &[Net]) {
        ids.sort_by_cached_key(|&i| (self.key(&nets[i as usize]), i));
    }
}

impl fmt::Display for SortingScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SortingScheme::PinsAscending => "pins-asc",
            SortingScheme::PinsDescending => "pins-desc",
            SortingScheme::HpwlAscending => "hpwl-asc",
            SortingScheme::HpwlDescending => "hpwl-desc",
            SortingScheme::AreaAscending => "area-asc",
            SortingScheme::AreaDescending => "area-desc",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgr_design::{NetId, Pin};
    use fastgr_grid::Point2;

    fn net(id: u32, pins: &[(u16, u16)]) -> Net {
        Net::new(
            NetId(id),
            format!("n{id}"),
            pins.iter()
                .map(|&(x, y)| Pin::new(Point2::new(x, y), 0))
                .collect(),
        )
    }

    fn sample() -> Vec<Net> {
        vec![
            net(0, &[(0, 0), (3, 3), (1, 1)]), // 3 pins, hpwl 6, area 16
            net(1, &[(0, 0), (9, 0)]),         // 2 pins, hpwl 9, area 10
            net(2, &[(0, 0), (2, 2), (1, 0), (0, 2)]), // 4 pins, hpwl 4, area 9
        ]
    }

    #[test]
    fn pins_orders_by_fanout() {
        let nets = sample();
        assert_eq!(
            SortingScheme::PinsAscending.sorted_ids(&nets),
            vec![1, 0, 2]
        );
        assert_eq!(
            SortingScheme::PinsDescending.sorted_ids(&nets),
            vec![2, 0, 1]
        );
    }

    #[test]
    fn hpwl_orders_by_half_perimeter() {
        let nets = sample();
        assert_eq!(
            SortingScheme::HpwlAscending.sorted_ids(&nets),
            vec![2, 0, 1]
        );
        assert_eq!(
            SortingScheme::HpwlDescending.sorted_ids(&nets),
            vec![1, 0, 2]
        );
    }

    #[test]
    fn area_orders_by_bbox_area() {
        let nets = sample();
        assert_eq!(
            SortingScheme::AreaAscending.sorted_ids(&nets),
            vec![2, 1, 0]
        );
        assert_eq!(
            SortingScheme::AreaDescending.sorted_ids(&nets),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn ties_break_on_id_for_determinism() {
        let nets = vec![net(0, &[(0, 0), (1, 1)]), net(1, &[(5, 5), (6, 6)])];
        for scheme in SortingScheme::ALL {
            let ids = scheme.sorted_ids(&nets);
            assert_eq!(ids, vec![0, 1], "scheme {scheme}");
        }
    }

    #[test]
    fn sort_subset_matches_full_sort_restriction() {
        let nets = sample();
        let mut subset = vec![1u32, 2];
        SortingScheme::HpwlAscending.sort_subset(&mut subset, &nets);
        assert_eq!(subset, vec![2, 1]);
    }

    /// The cached-key sort yields exactly the order of the per-comparison
    /// key sort it replaced, on nets with many tied keys.
    #[test]
    fn cached_keys_match_per_comparison_sort() {
        let mut state = 7u32;
        let mut next = move || {
            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            (state >> 16) as u16 % 12
        };
        let nets: Vec<Net> = (0..200)
            .map(|id| {
                let pins: Vec<(u16, u16)> = (0..2 + next() % 4).map(|_| (next(), next())).collect();
                net(id, &pins)
            })
            .collect();
        let subset: Vec<u32> = (0..200).rev().step_by(3).collect();
        for scheme in SortingScheme::ALL {
            let per_comparison = |ids: &mut [u32]| {
                ids.sort_by(|&a, &b| {
                    (scheme.key(&nets[a as usize]), a).cmp(&(scheme.key(&nets[b as usize]), b))
                })
            };
            let mut expect: Vec<u32> = (0..200).collect();
            per_comparison(&mut expect);
            assert_eq!(scheme.sorted_ids(&nets), expect, "scheme {scheme}");

            let (mut got, mut expect) = (subset.clone(), subset.clone());
            scheme.sort_subset(&mut got, &nets);
            per_comparison(&mut expect);
            assert_eq!(got, expect, "scheme {scheme} subset");
        }
    }

    #[test]
    fn default_is_the_papers_choice() {
        assert_eq!(SortingScheme::default(), SortingScheme::HpwlAscending);
    }
}
