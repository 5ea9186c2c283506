//! Table rendering and JSON emission for the experiment binaries.

use std::fmt::Write as _;

/// A simple fixed-width table: header + rows of equal arity.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity differs from the header.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let n_cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}");
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (n_cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Formats a float score vector compactly.
pub fn fmt_scores(scores: &[f64]) -> String {
    let cells: Vec<String> = scores.iter().map(|s| format!("{s:.4}")).collect();
    format!("[{}]", cells.join(", "))
}

/// Formats seconds human-readably.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{:.0}ms", s * 1000.0)
    }
}

/// Formats a ratio (a speedup) to two significant digits: `0.27x`, `1.3x`,
/// `13x`, `130x`.
pub fn fmt_ratio(r: f64) -> String {
    if !(r.is_finite() && r > 0.0) {
        return format!("{r}x");
    }
    let scale = 10f64.powi(r.log10().floor() as i32 - 1);
    let rounded = (r / scale).round() * scale;
    let decimals = (1 - rounded.log10().floor() as i32).max(0) as usize;
    format!("{rounded:.decimals$}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]).row(vec!["longer-name", "2.5"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("longer-name"));
        // Columns align.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        Table::new(vec!["a", "b"]).row(vec!["x"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_scores(&[0.5, 0.25]), "[0.5000, 0.2500]");
        assert_eq!(fmt_seconds(0.0421), "42ms");
        assert_eq!(fmt_seconds(3.24), "3.2s");
        assert_eq!(fmt_seconds(312.0), "312s");
        assert_eq!(fmt_ratio(0.27), "0.27x");
        assert_eq!(fmt_ratio(0.2749), "0.27x");
        assert_eq!(fmt_ratio(1.34), "1.3x");
        assert_eq!(fmt_ratio(9.96), "10x");
        assert_eq!(fmt_ratio(13.4), "13x");
        assert_eq!(fmt_ratio(134.0), "130x");
        assert_eq!(fmt_ratio(0.0), "0x");
    }
}
