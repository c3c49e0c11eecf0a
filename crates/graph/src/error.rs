//! Error types for graph searches.

use std::error::Error;
use std::fmt;

use oarsmt_geom::GridPoint;

/// Errors produced by graph searches over a Hanan grid.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// No obstacle-avoiding path leads from the sources to any target.
    Unreachable {
        /// The search origin (one representative source).
        from: GridPoint,
    },
    /// A search was started from a blocked (obstacle) vertex.
    BlockedSource(GridPoint),
    /// A search was given an empty source or target set.
    EmptyTerminalSet,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Unreachable { from } => {
                write!(f, "no obstacle-avoiding path from {from} to any target")
            }
            GraphError::BlockedSource(p) => {
                write!(f, "search source {p} is blocked by an obstacle")
            }
            GraphError::EmptyTerminalSet => write!(f, "empty terminal set"),
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::Unreachable {
            from: GridPoint::new(0, 0, 0),
        };
        assert!(e.to_string().contains("no obstacle-avoiding path"));
        assert!(GraphError::EmptyTerminalSet.to_string().contains("empty"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
