//! Labelled `(x, y)` data series and multi-series figures.
//!
//! Every figure in the paper is a family of curves over a shared x-axis
//! (`q`, `Δ`, grid size, or latency). [`Series`] holds one labelled curve,
//! [`Figure`] a set of curves plus axis labels, with CSV and fixed-width
//! text rendering so the experiment drivers can print exactly the rows the
//! paper plots.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One `(x, y)` observation, optionally with a confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Abscissa (e.g. the `q` parameter).
    pub x: f64,
    /// Ordinate (e.g. joules per update).
    pub y: f64,
    /// Symmetric error half-width around `y` (0 when not estimated).
    pub err: f64,
}

impl Point {
    /// Creates a point with no error estimate.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y, err: 0.0 }
    }

    /// Creates a point with a symmetric error half-width.
    #[must_use]
    pub fn with_err(x: f64, y: f64, err: f64) -> Self {
        Self { x, y, err }
    }
}

/// A labelled curve: what the paper legend calls e.g. `PBBF-0.5` or `PSM`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points in x order.
    pub points: Vec<Point>,
}

impl Series {
    /// Creates an empty series with the given legend label.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point without an error estimate.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(Point::new(x, y));
    }

    /// Appends a point with a symmetric error half-width.
    pub fn push_with_err(&mut self, x: f64, y: f64, err: f64) {
        self.points.push(Point::with_err(x, y, err));
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The `y` value at the given `x`, if a point with that exact abscissa
    /// exists (within `1e-9` tolerance).
    #[must_use]
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.x - x).abs() < 1e-9)
            .map(|p| p.y)
    }

    /// Whether the `y` values are non-decreasing in `x` within `tol`.
    #[must_use]
    pub fn is_non_decreasing(&self, tol: f64) -> bool {
        self.points.windows(2).all(|w| w[1].y >= w[0].y - tol)
    }

    /// Whether the `y` values are non-increasing in `x` within `tol`.
    #[must_use]
    pub fn is_non_increasing(&self, tol: f64) -> bool {
        self.points.windows(2).all(|w| w[1].y <= w[0].y + tol)
    }
}

/// A figure: several series over a common pair of axes.
///
/// # Examples
///
/// ```
/// use pbbf_metrics::{Figure, Series};
///
/// let mut s = Series::new("PSM");
/// s.push(0.0, 0.3);
/// s.push(1.0, 0.3);
/// let fig = Figure::new("Figure 8", "q", "Joules/update", vec![s]);
/// let csv = fig.to_csv();
/// assert!(csv.starts_with("q,"));
/// assert!(fig.render_text().contains("PSM"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Figure title, e.g. `"Figure 13: Average energy consumption"`.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates a figure from its parts.
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        series: Vec<Series>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series,
        }
    }

    /// Looks up a series by legend label.
    #[must_use]
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// The sorted union of all x values across series (within `1e-9` dedup).
    #[must_use]
    pub fn x_values(&self) -> Vec<f64> {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.x))
            .collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        xs
    }

    /// Renders the figure as CSV: one column per series, one row per x.
    ///
    /// Cells where a series has no point at that x are left empty.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", csv_escape(&self.x_label));
        for s in &self.series {
            let _ = write!(out, ",{}", csv_escape(&s.label));
        }
        out.push('\n');
        for x in self.x_values() {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, ",{y}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the figure as an aligned plain-text table, one row per x
    /// value — "the same rows the paper plots".
    #[must_use]
    pub fn render_text(&self) -> String {
        let xs = self.x_values();
        let mut cols: Vec<Vec<String>> = Vec::new();
        let mut head = vec![self.x_label.clone()];
        head.extend(self.series.iter().map(|s| s.label.clone()));

        let mut first = vec![];
        for x in &xs {
            first.push(format!("{x:.4}"));
        }
        cols.push(first);
        for s in &self.series {
            let mut col = Vec::new();
            for x in &xs {
                col.push(match s.y_at(*x) {
                    Some(y) => format!("{y:.4}"),
                    None => "-".to_string(),
                });
            }
            cols.push(col);
        }

        let widths: Vec<usize> = head
            .iter()
            .enumerate()
            .map(|(i, h)| {
                cols[i]
                    .iter()
                    .map(String::len)
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();

        let mut out = String::new();
        let _ = writeln!(out, "# {} (y = {})", self.title, self.y_label);
        for (h, w) in head.iter().zip(&widths) {
            let _ = write!(out, "{h:>w$}  ", w = *w);
        }
        out.push('\n');
        for r in 0..xs.len() {
            for (c, w) in cols.iter().zip(&widths) {
                let _ = write!(out, "{:>w$}  ", c[r], w = *w);
            }
            out.push('\n');
        }
        out
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fig() -> Figure {
        let mut a = Series::new("PSM");
        a.push(0.0, 10.0);
        a.push(0.5, 10.0);
        a.push(1.0, 10.0);
        let mut b = Series::new("PBBF-0.5");
        b.push(0.0, 20.0);
        b.push(1.0, 4.0);
        Figure::new("Fig", "q", "latency (s)", vec![a, b])
    }

    #[test]
    fn x_values_union_sorted_dedup() {
        let fig = sample_fig();
        assert_eq!(fig.x_values(), vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn csv_has_header_and_gaps() {
        let fig = sample_fig();
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "q,PSM,PBBF-0.5");
        assert_eq!(lines[1], "0,10,20");
        // PBBF-0.5 has no point at x = 0.5 -> empty cell.
        assert_eq!(lines[2], "0.5,10,");
        assert_eq!(lines[3], "1,10,4");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("a\"b"), "\"a\"\"b\"");
        assert_eq!(csv_escape("plain"), "plain");
    }

    #[test]
    fn render_text_contains_all_labels() {
        let fig = sample_fig();
        let text = fig.render_text();
        assert!(text.contains("PSM"));
        assert!(text.contains("PBBF-0.5"));
        assert!(text.contains("latency (s)"));
        // Missing cell renders as '-'.
        assert!(text.contains('-'));
    }

    #[test]
    fn y_at_exact_match_only() {
        let fig = sample_fig();
        let s = fig.series_named("PBBF-0.5").unwrap();
        assert_eq!(s.y_at(0.0), Some(20.0));
        assert_eq!(s.y_at(0.5), None);
    }

    #[test]
    fn monotonicity_checks() {
        let fig = sample_fig();
        assert!(fig.series_named("PSM").unwrap().is_non_decreasing(0.0));
        assert!(fig.series_named("PSM").unwrap().is_non_increasing(0.0));
        assert!(fig.series_named("PBBF-0.5").unwrap().is_non_increasing(0.0));
        assert!(!fig.series_named("PBBF-0.5").unwrap().is_non_decreasing(0.0));
    }

    #[test]
    fn serde_round_trip() {
        let fig = sample_fig();
        let json = serde_json::to_string(&fig).unwrap();
        let back: Figure = serde_json::from_str(&json).unwrap();
        assert_eq!(fig, back);
    }
}
