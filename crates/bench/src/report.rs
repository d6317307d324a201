//! Markdown/CSV table emission for experiment results.

use std::io::Write;

/// `git describe --always --dirty` of the working directory (a
/// `-dirty` suffix marks uncommitted changes), or `unknown`. Committed
/// `BENCH_*.json` reports record it as their provenance.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A simple result table: title, column headers, string rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table caption, printed as a markdown heading.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the cell count does not match the header count.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Renders as a github-flavoured markdown table with aligned pipes.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&dashes, &widths));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the markdown rendering to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
        println!();
    }

    /// Renders as CSV (headers + rows, comma-separated, quotes around
    /// cells containing commas).
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Appends the CSV rendering to a file (creating it if needed),
    /// prefixed by a `# title` comment line.
    pub fn write_csv(&self, path: &str) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "# {}", self.title)?;
        file.write_all(self.to_csv().as_bytes())
    }
}

/// Formats a duration in seconds with adaptive precision.
pub fn fmt_secs(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.1}us", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{seconds:.3}s")
    }
}

/// Formats a speedup factor.
pub fn fmt_speedup(factor: f64) -> String {
    format!("{factor:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.push(vec!["a".into(), "1".into()]);
        t.push(vec!["longer".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("### demo"));
        assert!(md.contains("| name   | value |"));
        assert!(md.contains("| longer | 2     |"));
    }

    #[test]
    fn csv_rendering_with_quotes() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"x,y\",plain\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_secs(0.0000005), "0.5us");
        assert_eq!(fmt_secs(0.005), "5.00ms");
        assert_eq!(fmt_secs(2.5), "2.500s");
        assert_eq!(fmt_speedup(3.14511), "3.15x");
    }

    #[test]
    fn csv_file_roundtrip() {
        let path = std::env::temp_dir().join("gve-bench-report-test.csv");
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        let mut t = Table::new("demo", &["a"]);
        t.push(vec!["1".into()]);
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("# demo"));
        assert!(content.contains("a\n1\n"));
        let _ = std::fs::remove_file(&path);
    }
}
