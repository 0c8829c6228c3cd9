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

/// A figure-style comparison grid on top of [`Table`]: columns are fixed
/// up front (typically [`crate::RuntimeKind::label`] strings), rows
/// appear in first-touch order, and cells are set by `(row, column)` key
/// through the shared formatters below — so every experiment binary
/// normalizes and prints its results the same way.
#[derive(Debug)]
pub struct SpeedupTable {
    corner: String,
    cols: Vec<String>,
    rows: Vec<String>,
    cells: std::collections::HashMap<(String, String), String>,
}

impl SpeedupTable {
    /// Creates a grid with a row-label header (`corner`) and the value
    /// columns in display order.
    pub fn new(corner: &str, cols: &[&str]) -> Self {
        SpeedupTable {
            corner: corner.to_string(),
            cols: cols.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            cells: std::collections::HashMap::new(),
        }
    }

    /// Sets a preformatted cell.
    ///
    /// # Panics
    ///
    /// Panics if `col` is not one of the declared columns — a bug in the
    /// experiment binary, like [`Table::row`]'s arity check.
    pub fn set(&mut self, row: &str, col: &str, text: impl Into<String>) {
        assert!(
            self.cols.iter().any(|c| c == col),
            "unknown column {col:?} (have {:?})",
            self.cols
        );
        if !self.rows.iter().any(|r| r == row) {
            self.rows.push(row.to_string());
        }
        self.cells
            .insert((row.to_string(), col.to_string()), text.into());
    }

    /// Sets a speedup cell (`1.23x`).
    pub fn ratio(&mut self, row: &str, col: &str, x: f64) {
        self.set(row, col, ratio(x));
    }

    /// Sets a normalized-runtime cell (`1.02`, baseline = 1.00).
    pub fn norm(&mut self, row: &str, col: &str, x: f64) {
        self.set(row, col, format!("{x:.2}"));
    }

    /// Sets a signed-percentage cell (`+3.4%`).
    pub fn pct(&mut self, row: &str, col: &str, x: f64) {
        self.set(row, col, pct(x));
    }

    /// Sets a megabyte cell from a byte count.
    pub fn mb(&mut self, row: &str, col: &str, bytes: u64) {
        self.set(row, col, mb(bytes));
    }

    /// Sets an integer-count cell.
    pub fn count(&mut self, row: &str, col: &str, n: u64) {
        self.set(row, col, n.to_string());
    }

    /// Renders the grid through [`Table`] (unset cells are blank).
    pub fn render(&self) -> String {
        let mut header = vec![self.corner.as_str()];
        header.extend(self.cols.iter().map(String::as_str));
        let mut table = Table::new(&header);
        for row in &self.rows {
            let mut cells = vec![row.clone()];
            for col in &self.cols {
                cells.push(
                    self.cells
                        .get(&(row.clone(), col.clone()))
                        .cloned()
                        .unwrap_or_default(),
                );
            }
            table.row(cells);
        }
        table.render()
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
    fn speedup_table_matches_equivalent_table() {
        let mut st = SpeedupTable::new("workload", &["manual", "tmi-protect"]);
        st.ratio("histogram", "manual", 1.8);
        st.ratio("histogram", "tmi-protect", 1.29);
        st.set("lreg", "manual", "broken");
        st.norm("lreg", "tmi-protect", 1.0161);

        let mut t = Table::new(&["workload", "manual", "tmi-protect"]);
        t.row(vec!["histogram".into(), "1.80x".into(), "1.29x".into()]);
        t.row(vec!["lreg".into(), "broken".into(), "1.02".into()]);
        assert_eq!(st.render(), t.render());
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn speedup_table_rejects_unknown_columns() {
        let mut st = SpeedupTable::new("workload", &["manual"]);
        st.set("histogram", "laser", "1.00x");
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
