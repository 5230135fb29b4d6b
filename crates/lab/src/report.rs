//! Markdown report assembly for experiment outputs.

use std::fmt::Write as _;
use std::path::Path;

/// A markdown report: a title, prose paragraphs, tables and series dumps.
///
/// # Example
///
/// ```
/// let mut r = lab::Report::new("demo", "Demo experiment");
/// r.paragraph("One line of context.");
/// r.table(&["x", "y"], vec![vec!["1".into(), "2".into()]]);
/// assert!(r.to_markdown().contains("| x | y |"));
/// ```
#[derive(Debug, Clone)]
pub struct Report {
    name: String,
    title: String,
    sections: Vec<String>,
    /// Structured copies of every series block, for CSV export.
    series_data: Vec<SeriesBlock>,
}

/// A structured series block: `(slug, headers, rows)`.
pub type SeriesBlock = (String, Vec<String>, Vec<Vec<String>>);

impl Report {
    /// Creates an empty report; `name` becomes the output file stem.
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        Report {
            name: name.into(),
            title: title.into(),
            sections: Vec::new(),
            series_data: Vec::new(),
        }
    }

    /// The file stem used by [`Report::write_to_dir`].
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a prose paragraph.
    pub fn paragraph(&mut self, text: impl Into<String>) {
        self.sections.push(text.into());
    }

    /// Appends a subsection heading.
    pub fn heading(&mut self, text: impl Into<String>) {
        self.sections.push(format!("## {}", text.into()));
    }

    /// Appends a markdown table.
    pub fn table(&mut self, headers: &[&str], rows: Vec<Vec<String>>) {
        let mut s = String::new();
        let _ = writeln!(s, "| {} |", headers.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        for row in rows {
            let _ = writeln!(s, "| {} |", row.join(" | "));
        }
        self.sections.push(s);
    }

    /// Appends a CSV-style series block (fenced in the markdown, and also
    /// exported as a standalone `.csv` by [`Report::write_to_dir`]).
    pub fn series(&mut self, caption: &str, headers: &[&str], rows: Vec<Vec<String>>) {
        let mut s = String::new();
        let _ = writeln!(s, "{caption}");
        let _ = writeln!(s, "```csv");
        let _ = writeln!(s, "{}", headers.join(","));
        for row in &rows {
            let _ = writeln!(s, "{}", row.join(","));
        }
        let _ = writeln!(s, "```");
        self.sections.push(s);
        let slug = format!("{}_s{}", self.name, self.series_data.len() + 1);
        self.series_data.push((
            slug,
            headers
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows,
        ));
    }

    /// The structured series blocks collected so far: `(slug, headers,
    /// rows)`.
    pub fn series_data(&self) -> &[SeriesBlock] {
        &self.series_data
    }

    /// Renders every series block exactly as [`Report::write_to_dir`]
    /// exports it: `(file stem, CSV content)` pairs.
    pub fn csv_exports(&self) -> Vec<(String, String)> {
        self.series_data
            .iter()
            .map(|(slug, headers, rows)| {
                let mut out = String::new();
                let _ = writeln!(out, "{}", headers.join(","));
                for row in rows {
                    let _ = writeln!(out, "{}", row.join(","));
                }
                (slug.clone(), out)
            })
            .collect()
    }

    /// Renders the whole report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("# {}\n\n", self.title);
        for s in &self.sections {
            out.push_str(s);
            out.push_str("\n\n");
        }
        out
    }

    /// Writes the report to `<dir>/<name>.md` plus one
    /// `<dir>/csv/<name>_sN.csv` per series block (plot-ready).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_dir(&self, dir: impl AsRef<Path>) -> std::io::Result<std::path::PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.md", self.name));
        std::fs::write(&path, self.to_markdown())?;
        let exports = self.csv_exports();
        if !exports.is_empty() {
            let csv_dir = dir.join("csv");
            std::fs::create_dir_all(&csv_dir)?;
            for (slug, content) in exports {
                std::fs::write(csv_dir.join(format!("{slug}.csv")), content)?;
            }
        }
        Ok(path)
    }
}

/// Formats a float with the given number of decimals (helper for table
/// cells).
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_tables_and_series() {
        let mut r = Report::new("t", "Title");
        r.heading("Head");
        r.paragraph("para");
        r.table(&["a", "b"], vec![vec!["1".into(), "2".into()]]);
        r.series("s", &["x"], vec![vec!["9".into()]]);
        let md = r.to_markdown();
        assert!(md.starts_with("# Title"));
        assert!(md.contains("## Head"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("```csv"));
        assert!(md.contains("9"));
    }

    #[test]
    fn writes_markdown_and_csvs_to_disk() {
        #[expect(
            clippy::disallowed_methods,
            reason = "test harness: a scratch directory, not simulation input"
        )]
        let dir = std::env::temp_dir().join("grunt-lab-test");
        let mut r = Report::new("unit", "U");
        r.series("s", &["x", "y"], vec![vec!["1".into(), "2".into()]]);
        let path = r.write_to_dir(&dir).expect("write");
        assert!(path.exists());
        let csv = dir.join("csv").join("unit_s1.csv");
        assert!(csv.exists());
        let content = std::fs::read_to_string(&csv).expect("read");
        assert_eq!(content, "x,y\n1,2\n");
        std::fs::remove_file(path).ok();
        std::fs::remove_file(csv).ok();
        assert_eq!(r.series_data().len(), 1);
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.2345, 2), "1.23");
        assert_eq!(fmt(10.0, 0), "10");
    }
}
