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
    fn display_includes_score() {
        let m = QualityMetrics {
            wirelength: 10,
            vias: 1,
            shorts: 0.0,
        };
        assert!(m.to_string().contains("score 9.0"));
    }
}
