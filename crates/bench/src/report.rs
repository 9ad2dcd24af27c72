//! Minimal fixed-width table rendering for experiment reports.

use std::fmt;

/// A printable experiment report: a title, column headers, and rows of
/// stringified cells.
#[derive(Debug, Clone)]
pub struct Report {
    /// Report title (e.g. `"Figure 4: restricted-view cardinality"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row must match `headers.len()`).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
    /// Printed at the start of every line; [`WALL_CLOCK_MARK`] for a
    /// table of timings, empty otherwise.
    pub line_prefix: &'static str,
}

/// Starts every line of a report whose numbers are wall-clock times, so
/// a comparison against pinned output can skip them
/// (`grep -v '^~'`).
pub const WALL_CLOCK_MARK: &str = "~ ";

impl Report {
    /// Starts a report.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Report {
        Report {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            line_prefix: "",
        }
    }

    /// Marks the report as wall-clock: not reproducible run to run.
    pub fn wall_clock(mut self) -> Report {
        self.line_prefix = WALL_CLOCK_MARK;
        self
    }

    /// Appends a row (panics on arity mismatch — reports are
    /// programmer-constructed).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "report row arity mismatch");
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// A cell from anything displayable.
    pub fn cell(v: impl fmt::Display) -> String {
        v.to_string()
    }

    /// A numeric cell with fixed precision.
    pub fn num(v: f64) -> String {
        if v.abs() >= 1000.0 {
            format!("{v:.0}")
        } else {
            format!("{v:.2}")
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let p = self.line_prefix;
        writeln!(f, "{p}== {} ==", self.title)?;
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
            .collect();
        writeln!(f, "{p}{}", header.join("  "))?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{p}{}", "-".repeat(total))?;
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            writeln!(f, "{p}{}", line.join("  "))?;
        }
        for n in &self.notes {
            writeln!(f, "{p}  note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut r = Report::new("T", &["a", "bbbb"]);
        r.row(vec!["1".into(), "2".into()]);
        r.row(vec!["100".into(), "2000000".into()]);
        r.note("shape holds");
        let s = r.to_string();
        assert!(s.contains("== T =="));
        assert!(s.contains("note: shape holds"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[1].len(), lines[3].len(), "aligned columns");
    }

    #[test]
    fn wall_clock_report_marks_every_line() {
        let mut r = Report::new("T", &["us"]).wall_clock();
        r.row(vec!["17".into()]);
        r.note("varies");
        assert!(r
            .to_string()
            .lines()
            .all(|l| l.starts_with(WALL_CLOCK_MARK)));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut r = Report::new("T", &["a"]);
        r.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn num_formatting() {
        assert_eq!(Report::num(4.51159), "4.51");
        assert_eq!(Report::num(123456.7), "123457");
    }
}
