//! A small line-oriented text format for routing cases, so layouts can be
//! saved, shared and re-run from the command line.
//!
//! ```text
//! # comments and blank lines are ignored
//! hanan H V M
//! via COST
//! xcosts C0 C1 ... C(H-2)
//! ycosts C0 C1 ... C(V-2)
//! pin H V M
//! obstacle H V M
//! ```
//!
//! `xcosts`/`ycosts` are optional (default: unit costs). Coordinates are
//! grid indices.

use std::fmt::Write as _;
use std::str::FromStr;

use crate::coord::GridPoint;
use crate::error::GeomError;
use crate::hanan::{HananGraph, VertexKind};

/// Serializes a Hanan graph (with pins and obstacles) to the text format.
pub fn write_case(graph: &HananGraph) -> String {
    let (h, v, m) = graph.dims();
    let mut out = String::new();
    let _ = writeln!(out, "hanan {h} {v} {m}");
    let _ = writeln!(out, "via {}", graph.via_cost());
    let _ = write!(out, "xcosts");
    for c in graph.x_costs() {
        let _ = write!(out, " {c}");
    }
    out.push('\n');
    let _ = write!(out, "ycosts");
    for c in graph.y_costs() {
        let _ = write!(out, " {c}");
    }
    out.push('\n');
    for &p in graph.pins() {
        let _ = writeln!(out, "pin {} {} {}", p.h, p.v, p.m);
    }
    for idx in 0..graph.len() {
        if graph.kind_at(idx) == VertexKind::Obstacle {
            let p = graph.point(idx);
            let _ = writeln!(out, "obstacle {} {} {}", p.h, p.v, p.m);
        }
    }
    out
}

/// Errors produced while parsing the text format.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseCaseError {
    /// A line could not be parsed (1-based line number and message).
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The header (`hanan H V M`) is missing or appears after other lines.
    MissingHeader,
    /// The parsed geometry is invalid.
    Geometry(GeomError),
}

impl std::fmt::Display for ParseCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseCaseError::Syntax { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ParseCaseError::MissingHeader => write!(f, "missing `hanan H V M` header"),
            ParseCaseError::Geometry(e) => write!(f, "invalid geometry: {e}"),
        }
    }
}

impl std::error::Error for ParseCaseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseCaseError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeomError> for ParseCaseError {
    fn from(e: GeomError) -> Self {
        ParseCaseError::Geometry(e)
    }
}

fn parse_nums<T: FromStr>(
    parts: &[&str],
    line: usize,
    what: &str,
) -> Result<Vec<T>, ParseCaseError> {
    parts
        .iter()
        .map(|s| {
            s.parse::<T>().map_err(|_| ParseCaseError::Syntax {
                line,
                message: format!("bad {what}: {s}"),
            })
        })
        .collect()
}

/// Parses the text format back into a Hanan graph.
///
/// # Errors
///
/// See [`ParseCaseError`].
pub fn parse_case(text: &str) -> Result<HananGraph, ParseCaseError> {
    let mut dims: Option<(usize, usize, usize)> = None;
    let mut via: f64 = 3.0;
    let mut xcosts: Option<Vec<f64>> = None;
    let mut ycosts: Option<Vec<f64>> = None;
    let mut pins: Vec<GridPoint> = Vec::new();
    let mut obstacles: Vec<GridPoint> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-empty line has a first token");
        let rest: Vec<&str> = parts.collect();
        match keyword {
            "hanan" => {
                let nums: Vec<usize> = parse_nums(&rest, line_no, "dimension")?;
                if nums.len() != 3 {
                    return Err(ParseCaseError::Syntax {
                        line: line_no,
                        message: "expected `hanan H V M`".into(),
                    });
                }
                dims = Some((nums[0], nums[1], nums[2]));
            }
            "via" => {
                let nums: Vec<f64> = parse_nums(&rest, line_no, "via cost")?;
                via = *nums.first().ok_or(ParseCaseError::Syntax {
                    line: line_no,
                    message: "expected `via COST`".into(),
                })?;
            }
            "xcosts" => xcosts = Some(parse_nums(&rest, line_no, "x cost")?),
            "ycosts" => ycosts = Some(parse_nums(&rest, line_no, "y cost")?),
            "pin" | "obstacle" => {
                let nums: Vec<usize> = parse_nums(&rest, line_no, "coordinate")?;
                if nums.len() != 3 {
                    return Err(ParseCaseError::Syntax {
                        line: line_no,
                        message: format!("expected `{keyword} H V M`"),
                    });
                }
                let p = GridPoint::new(nums[0], nums[1], nums[2]);
                if keyword == "pin" {
                    pins.push(p);
                } else {
                    obstacles.push(p);
                }
            }
            other => {
                return Err(ParseCaseError::Syntax {
                    line: line_no,
                    message: format!("unknown keyword `{other}`"),
                })
            }
        }
    }

    let (h, v, m) = dims.ok_or(ParseCaseError::MissingHeader)?;
    // Before the default cost vectors: their length follows the header.
    HananGraph::vertex_count(h, v, m)?;
    let xcosts = xcosts.unwrap_or_else(|| vec![1.0; h.saturating_sub(1)]);
    let ycosts = ycosts.unwrap_or_else(|| vec![1.0; v.saturating_sub(1)]);
    let mut graph = HananGraph::with_costs(h, v, m, xcosts, ycosts, via)?;
    for p in obstacles {
        graph.add_obstacle_vertex(p)?;
    }
    for p in pins {
        graph.add_pin(p)?;
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HananGraph {
        let mut g =
            HananGraph::with_costs(4, 3, 2, vec![1.0, 5.0, 2.0], vec![3.0, 4.0], 3.5).unwrap();
        g.add_obstacle_vertex(GridPoint::new(1, 1, 0)).unwrap();
        g.add_obstacle_vertex(GridPoint::new(2, 2, 1)).unwrap();
        g.add_pin(GridPoint::new(0, 0, 0)).unwrap();
        g.add_pin(GridPoint::new(3, 2, 0)).unwrap();
        g
    }

    #[test]
    fn round_trips_exactly() {
        let g = sample();
        let text = write_case(&g);
        let back = parse_case(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a case\n\nhanan 3 3 1\n# pins below\npin 0 0 0\npin 2 2 0\n";
        let g = parse_case(text).unwrap();
        assert_eq!(g.dims(), (3, 3, 1));
        assert_eq!(g.pins().len(), 2);
        // Default costs are units.
        assert_eq!(g.x_costs(), &[1.0, 1.0]);
    }

    #[test]
    fn missing_header_is_an_error() {
        assert_eq!(
            parse_case("pin 0 0 0\n"),
            Err(ParseCaseError::MissingHeader)
        );
    }

    #[test]
    fn bad_tokens_report_the_line() {
        let err = parse_case("hanan 3 3 1\npin a b c\n").unwrap_err();
        assert!(matches!(err, ParseCaseError::Syntax { line: 2, .. }));
        let err = parse_case("hanan 3 3\n").unwrap_err();
        assert!(matches!(err, ParseCaseError::Syntax { line: 1, .. }));
        let err = parse_case("hanan 3 3 1\nwires 1 2\n").unwrap_err();
        assert!(matches!(err, ParseCaseError::Syntax { line: 2, .. }));
    }

    #[test]
    fn geometry_errors_propagate() {
        // Pin on an obstacle.
        let err = parse_case("hanan 3 3 1\nobstacle 0 0 0\npin 0 0 0\n").unwrap_err();
        assert!(matches!(err, ParseCaseError::Geometry(_)));
        // Out-of-bounds pin.
        let err = parse_case("hanan 3 3 1\npin 9 9 9\n").unwrap_err();
        assert!(matches!(err, ParseCaseError::Geometry(_)));
    }

    #[test]
    fn overflowing_dimensions_are_a_typed_error() {
        // h · v · m overflows usize; rejected before any allocation.
        let err = parse_case("hanan 18446744073709551615 2 1\n").unwrap_err();
        assert_eq!(
            err,
            ParseCaseError::Geometry(GeomError::TooLarge {
                dims: (usize::MAX, 2, 1)
            })
        );
    }

    #[test]
    fn dimensions_past_u32_indices_are_a_typed_error() {
        // Just past the MAX_VERTICES limit, at u32::MAX and past it; the
        // default x costs of these headers would take 5.7–32 GiB.
        for (text, dims) in [
            ("hanan 715827883 1 1\n", (715827883, 1, 1)),
            ("hanan 4294967295 1 1\n", (4294967295, 1, 1)),
            ("hanan 65536 65536 1\n", (65536, 65536, 1)),
        ] {
            let err = parse_case(text).unwrap_err();
            assert_eq!(
                err,
                ParseCaseError::Geometry(GeomError::TooLarge { dims }),
                "{text}"
            );
        }
    }

    #[test]
    fn wrong_cost_count_is_a_geometry_error() {
        let err = parse_case("hanan 3 3 1\nxcosts 1\n").unwrap_err();
        assert!(matches!(err, ParseCaseError::Geometry(_)));
    }
}
