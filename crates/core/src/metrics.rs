//! Solution-quality metrics and the paper's score function (Eq. 15).

use std::fmt;

/// Quality of one global-routing solution.
///
/// # Example
///
/// ```
/// use fastgr_core::QualityMetrics;
///
/// let m = QualityMetrics { wirelength: 1000, vias: 200, shorts: 3.0 };
/// // s = 0.5*1000 + 4*200 + 500*3 = 2800
/// assert_eq!(m.score(), 2800.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QualityMetrics {
    /// Total wirelength `W` in G-cell edge units.
    pub wirelength: u64,
    /// Total number of vias `V`.
    pub vias: u64,
    /// Number of shorts `S` (overflowing track units).
    pub shorts: f64,
}

impl QualityMetrics {
    /// The score `s = αW + βV + γS` with the paper's weights `α = 0.5`,
    /// `β = 4`, `γ = 500`, chosen "considering the order of magnitude of
    /// different metrics" (Section IV-C).
    pub fn score(&self) -> f64 {
        const ALPHA: f64 = 0.5;
        const BETA: f64 = 4.0;
        const GAMMA: f64 = 500.0;
        ALPHA * self.wirelength as f64 + BETA * self.vias as f64 + GAMMA * self.shorts
    }
}

impl fmt::Display for QualityMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wl {} / vias {} / shorts {:.1} / score {:.1}",
            self.wirelength,
            self.vias,
            self.shorts,
            self.score()
        )
    }
}

/// Per-layer usage breakdown of a routing solution.
///
/// # Example
///
/// ```
/// use fastgr_core::LayerUsage;
/// use fastgr_grid::{Point2, Route, Segment, Via};
///
/// let mut r = Route::new();
/// r.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(4, 0)));
/// r.push_via(Via::new(Point2::new(4, 0), 1, 3));
/// let usage = LayerUsage::from_routes(5, std::slice::from_ref(&r));
/// assert_eq!(usage.wirelength(1), 4);
/// assert_eq!(usage.vias_from(1), 1); // hop M1 -> M2
/// assert_eq!(usage.vias_from(2), 1); // hop M2 -> M3
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LayerUsage {
    wirelength: Vec<u64>,
    vias: Vec<u64>,
}

impl LayerUsage {
    /// Computes the per-layer breakdown of `routes` on a grid with
    /// `layers` metal layers.
    ///
    /// # Panics
    ///
    /// Panics if a route references a layer `>= layers`.
    pub fn from_routes(layers: u8, routes: &[fastgr_grid::Route]) -> Self {
        let mut wirelength = vec![0u64; layers as usize];
        let mut vias = vec![0u64; layers as usize];
        for route in routes {
            for s in route.segments() {
                wirelength[s.layer as usize] += s.length() as u64;
            }
            for v in route.vias() {
                for hop in v.lo..v.hi {
                    vias[hop as usize] += 1;
                }
            }
        }
        Self { wirelength, vias }
    }

    /// Wirelength routed on layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn wirelength(&self, l: u8) -> u64 {
        self.wirelength[l as usize]
    }

    /// Vias crossing the boundary from layer `l` to `l + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn vias_from(&self, l: u8) -> u64 {
        self.vias[l as usize]
    }

    /// Total wirelength across layers.
    pub fn total_wirelength(&self) -> u64 {
        self.wirelength.iter().sum()
    }

    /// Total vias across boundaries.
    pub fn total_vias(&self) -> u64 {
        self.vias.iter().sum()
    }
}

impl fmt::Display for LayerUsage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (l, wl) in self.wirelength.iter().enumerate() {
            if l > 0 {
                write!(f, ", ")?;
            }
            write!(f, "M{l}: {wl}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_match_paper() {
        let unit = |wirelength, vias, shorts| {
            QualityMetrics {
                wirelength,
                vias,
                shorts,
            }
            .score()
        };
        assert_eq!(
            (unit(1, 0, 0.0), unit(0, 1, 0.0), unit(0, 0, 1.0)),
            (0.5, 4.0, 500.0)
        );
    }

    #[test]
    fn score_is_linear_in_each_metric() {
        let base = QualityMetrics {
            wirelength: 100,
            vias: 10,
            shorts: 1.0,
        };
        let more_wl = QualityMetrics {
            wirelength: 102,
            ..base
        };
        let more_vias = QualityMetrics { vias: 11, ..base };
        let more_shorts = QualityMetrics {
            shorts: 2.0,
            ..base
        };
        assert_eq!(more_wl.score() - base.score(), 1.0);
        assert_eq!(more_vias.score() - base.score(), 4.0);
        assert_eq!(more_shorts.score() - base.score(), 500.0);
    }

    #[test]
    fn layer_usage_totals_match_route_metrics() {
        use fastgr_grid::{Point2, Route, Segment, Via};
        let mut a = Route::new();
        a.push_segment(Segment::new(1, Point2::new(0, 0), Point2::new(3, 0)));
        a.push_via(Via::new(Point2::new(3, 0), 0, 2));
        let mut b = Route::new();
        b.push_segment(Segment::new(2, Point2::new(3, 0), Point2::new(3, 5)));
        let routes = vec![a.clone(), b.clone()];
        let usage = LayerUsage::from_routes(4, &routes);
        assert_eq!(usage.total_wirelength(), a.wirelength() + b.wirelength());
        assert_eq!(usage.total_vias(), a.via_count() + b.via_count());
        assert_eq!(usage.wirelength(1), 3);
        assert_eq!(usage.wirelength(2), 5);
        assert_eq!(usage.vias_from(0), 1);
        assert_eq!(usage.vias_from(1), 1);
        assert_eq!(usage.vias_from(3), 0);
        assert!(usage.to_string().contains("M1: 3"));
    }

    #[test]
    fn display_includes_score() {
        let m = QualityMetrics {
            wirelength: 10,
            vias: 1,
            shorts: 0.0,
        };
        assert!(m.to_string().contains("score 9.0"));
    }
}
