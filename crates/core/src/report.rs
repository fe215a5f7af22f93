//! Plain-text table rendering for the exhibit-regeneration harness —
//! the reports are meant to be laid side by side with the 1992 slides.

use std::fmt;

/// A simple monospace table: the first column left-aligned, the rest
/// right-aligned.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    /// Indices of rows to print after a separator (e.g. totals).
    footer_from: Option<usize>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            footer_from: None,
        }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row width");
        self.rows.push(cells.to_vec());
        self
    }

    /// Everything added after this call prints below a separator line.
    pub fn begin_footer(&mut self) -> &mut Table {
        self.footer_from = Some(self.rows.len());
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            (0..ncols)
                .map(|i| {
                    let c = &cells[i];
                    if i == 0 {
                        format!(" {c:<width$} ", width = widths[i])
                    } else {
                        format!(" {c:>width$} ", width = widths[i])
                    }
                })
                .collect::<Vec<_>>()
                .join("|")
        };
        writeln!(f, "{}", self.title)?;
        writeln!(f, "{sep}")?;
        writeln!(f, "{}", fmt_row(&self.headers))?;
        writeln!(f, "{sep}")?;
        for (i, row) in self.rows.iter().enumerate() {
            if self.footer_from == Some(i) {
                writeln!(f, "{sep}")?;
            }
            writeln!(f, "{}", fmt_row(row))?;
        }
        writeln!(f, "{sep}")
    }
}

/// Format a float with `d` decimals (report convenience).
pub fn fnum(x: f64, d: usize) -> String {
    format!("{x:.d$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Table {
        fn row_strs(&mut self, cells: &[&str]) -> &mut Table {
            self.row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        }
    }

    #[test]
    fn renders_headers_rows_and_footer() {
        let mut t = Table::new("Demo", &["Name", "Value"]);
        t.row_strs(&["alpha", "1.0"]);
        t.row_strs(&["beta", "20.5"]);
        t.begin_footer();
        t.row_strs(&["Total", "21.5"]);
        let s = t.to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("alpha"));
        // Footer separated: at least 4 separator lines (top, header, footer, bottom).
        assert!(s.matches("---").count() >= 4);
        // Right-aligned values share a column edge.
        let lines: Vec<&str> = s.lines().filter(|l| l.contains('|')).collect();
        let c1 = lines[1].find("1.0").unwrap() + 3;
        let c2 = lines[2].find("20.5").unwrap() + 4;
        assert_eq!(c1, c2, "right alignment");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_rejected() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row_strs(&["only one"]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(13.0, 1), "13.0");
    }
}
