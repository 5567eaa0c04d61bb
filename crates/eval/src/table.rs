//! Plain-text table rendering for experiment output.
//!
//! The experiment harness prints the same rows/series the paper's tables and
//! figures report; this module keeps that output aligned and readable in a
//! terminal and in EXPERIMENTS.md code blocks.

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (cells are already formatted strings).
    ///
    /// # Panics
    /// Panics when the cell count differs from the header count.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            line.push_str(&format!("{:<w$}", h, w = widths[i] + 2));
        }
        out.push_str(line.trim_end());
        out.push('\n');
        let total: usize = widths.iter().map(|w| w + 2).sum::<usize>();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            let mut line = String::new();
            for i in 0..ncols {
                line.push_str(&format!("{:<w$}", row[i], w = widths[i] + 2));
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 4 significant decimals (experiment convention).
pub fn fmt_f(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Formats an optional metric (`--` when undefined).
pub fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => fmt_f(x),
        None => "--".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["name", "auc"]);
        t.add_row(vec!["frequent-directions".into(), "0.99".into()]);
        t.add_row(vec!["exact".into(), "1.0".into()]);
        let s = t.render();
        assert!(s.contains("== T =="));
        let lines: Vec<&str> = s.lines().collect();
        // Column "auc" starts at the same offset in each data row.
        let header_pos = lines[1].find("auc").unwrap();
        assert_eq!(lines[3].find("0.99"), Some(header_pos));
        assert_eq!(lines[4].find("1.0"), Some(header_pos));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn wrong_cell_count_rejected() {
        let mut t = Table::new("T", &["a", "b"]);
        t.add_row(vec!["x".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_f(0.123456), "0.1235");
        assert_eq!(fmt_secs(0.0000005), "0.5µs");
        assert_eq!(fmt_secs(0.5), "500.0ms");
        assert_eq!(fmt_secs(2.0), "2.00s");
        assert_eq!(fmt_opt(None), "--");
        assert_eq!(fmt_opt(Some(1.0)), "1.0000");
    }
}
