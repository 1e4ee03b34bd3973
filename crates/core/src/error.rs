//! Error type of the FastGR router.

use std::error::Error;
use std::fmt;

use fastgr_grid::GridError;
use fastgr_maze::MazeError;

/// Errors reported by the FastGR router.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RouteError {
    /// The design's grid could not be built or mutated.
    Grid(GridError),
    /// Maze routing failed. The rip-up-and-reroute stage keeps such a
    /// net's old route and counts it as `rrr.unrouted` instead of
    /// returning this error.
    Maze(MazeError),
    /// The design has too few metal layers for 3-D pattern routing (at
    /// least one routable layer per direction is required, i.e. 3 layers
    /// counting the pin layer).
    TooFewLayers {
        /// Number of layers in the design.
        layers: u8,
    },
    /// A net admits no finite-cost pattern (should not occur on designs
    /// with both routing directions available).
    NoFinitePattern {
        /// The dense id of the offending net.
        net: u32,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Grid(e) => write!(f, "grid error: {e}"),
            RouteError::Maze(e) => write!(f, "maze routing error: {e}"),
            RouteError::TooFewLayers { layers } => write!(
                f,
                "design has {layers} layers but 3-D pattern routing needs at least 3"
            ),
            RouteError::NoFinitePattern { net } => {
                write!(f, "net n{net} admits no finite-cost routing pattern")
            }
        }
    }
}

impl Error for RouteError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RouteError::Grid(e) => Some(e),
            RouteError::Maze(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GridError> for RouteError {
    fn from(e: GridError) -> Self {
        RouteError::Grid(e)
    }
}

impl From<MazeError> for RouteError {
    fn from(e: MazeError) -> Self {
        RouteError::Maze(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sources() {
        let e = RouteError::from(MazeError::EmptyNet);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("maze"));
    }

    #[test]
    fn grid_variant_wraps_source() {
        let grid_err = GridError::InvalidDimensions {
            width: 0,
            height: 0,
            layers: 0,
        };
        let e = RouteError::from(grid_err.clone());
        assert_eq!(e, RouteError::Grid(grid_err.clone()));
        let source = e.source().expect("grid errors carry a source");
        assert_eq!(source.to_string(), grid_err.to_string());
        assert!(e.to_string().contains("grid error"));
    }

    #[test]
    fn question_mark_converts_both_sources() {
        // `?` must lift stage errors without manual mapping.
        fn from_grid() -> Result<(), RouteError> {
            Err(GridError::InvalidDimensions {
                width: 1,
                height: 1,
                layers: 1,
            })?
        }
        fn from_maze() -> Result<(), RouteError> {
            Err(MazeError::EmptyNet)?
        }
        assert!(matches!(from_grid(), Err(RouteError::Grid(_))));
        assert!(matches!(from_maze(), Err(RouteError::Maze(_))));
    }

    #[test]
    fn leaf_variants_have_no_source() {
        assert!(RouteError::TooFewLayers { layers: 2 }.source().is_none());
        assert!(RouteError::NoFinitePattern { net: 7 }.source().is_none());
    }

    #[test]
    fn layer_error_mentions_requirement() {
        let e = RouteError::TooFewLayers { layers: 2 };
        assert!(e.to_string().contains("at least 3"));
    }
}
