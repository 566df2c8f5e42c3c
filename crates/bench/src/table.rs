//! Minimal fixed-width table formatter for the `experiments` binary output.

/// A simple text table with a header row, aligned columns and an optional
/// note printed under the rows.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    note: String,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            note: String::new(),
        }
    }

    /// Sets the note printed under the rows.
    pub fn set_note(&mut self, note: &str) {
        self.note = note.to_string();
    }

    /// Appends a data row (must have the same arity as the header).
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row arity must match header");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        if !self.note.is_empty() {
            out.push_str(&self.note);
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["Graph", "Time (s)"]);
        t.add_row(vec!["NA".into(), "0.33".into()]);
        t.add_row(vec!["ORKUT".into(), "884.20".into()]);
        let text = t.render();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("Graph"));
        assert!(text.contains("ORKUT"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic]
    fn mismatched_row_arity_panics() {
        let mut t = Table::new("Demo", &["A", "B"]);
        t.add_row(vec!["only one".into()]);
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new("X", &["c"]);
        t.add_row(vec!["1".into()]);
        assert_eq!(t.to_string(), t.render());
    }
}
