//! Error types for routers.

use std::error::Error;
use std::fmt;

use oarsmt_geom::GridPoint;
use oarsmt_graph::GraphError;

/// Errors produced while constructing routing trees.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RouteError {
    /// Fewer than two terminals were supplied.
    TooFewTerminals(usize),
    /// A terminal is blocked by an obstacle.
    BlockedTerminal(GridPoint),
    /// Two terminals cannot be connected without crossing an obstacle.
    Disconnected {
        /// A terminal in the reachable component.
        reached: GridPoint,
    },
    /// An underlying graph search failed.
    Search(GraphError),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::TooFewTerminals(n) => {
                write!(f, "routing needs at least 2 terminals, got {n}")
            }
            RouteError::BlockedTerminal(p) => {
                write!(f, "terminal {p} is blocked by an obstacle")
            }
            RouteError::Disconnected { reached } => write!(
                f,
                "terminals are not all reachable from {reached} without crossing obstacles"
            ),
            RouteError::Search(e) => write!(f, "graph search failed: {e}"),
        }
    }
}

impl Error for RouteError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RouteError::Search(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for RouteError {
    fn from(e: GraphError) -> Self {
        match e {
            GraphError::BlockedSource(p) => RouteError::BlockedTerminal(p),
            GraphError::Unreachable { from } => RouteError::Disconnected { reached: from },
            other => RouteError::Search(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_errors_convert_to_route_errors() {
        let p = GridPoint::new(1, 2, 0);
        assert_eq!(
            RouteError::from(GraphError::BlockedSource(p)),
            RouteError::BlockedTerminal(p)
        );
        assert_eq!(
            RouteError::from(GraphError::Unreachable { from: p }),
            RouteError::Disconnected { reached: p }
        );
        assert_eq!(
            RouteError::from(GraphError::EmptyTerminalSet),
            RouteError::Search(GraphError::EmptyTerminalSet)
        );
    }

    #[test]
    fn display_and_source() {
        let e = RouteError::Search(GraphError::EmptyTerminalSet);
        assert!(e.to_string().contains("graph search failed"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&RouteError::TooFewTerminals(1)).is_none());
    }
}
