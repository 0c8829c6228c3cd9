//! Plain-text report formatting for the figure sections.

use std::fmt::Write as _;

/// A simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch — a bug in the experiment binary.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    let _ = write!(out, "{:<w$}", c, w = widths[i]);
                } else {
                    let _ = write!(out, "  {:>w$}", c, w = widths[i]);
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Formats a ratio as `1.23x`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a percentage as `+3.4%`.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Formats bytes as MB with one decimal.
pub fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Geometric mean of a slice (skips non-finite values).
pub fn geomean(xs: &[f64]) -> f64 {
    let vals: Vec<f64> = xs
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    if vals.is_empty() {
        return f64::NAN;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.00x".into()]);
        t.row(vec!["longer-name".into(), "10.00x".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].contains("10.00x"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn stats_helpers() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert_eq!(ratio(1.5), "1.50x");
        assert_eq!(pct(0.021), "+2.1%");
        assert_eq!(mb(1024 * 1024), "1.0");
    }
}
