//! Terminal tables and JSON artifacts for the artifact runner.

use dinar_tensor::json::ToJson;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory the artifact runner writes every artifact to.
pub const RESULTS_DIR: &str = "bench-results";

/// Writes a [`ToJson`] result as pretty JSON under
/// [`RESULTS_DIR`]`/<name>.json`, creating the directory if needed.
///
/// # Errors
///
/// Returns an I/O error.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = Path::new(RESULTS_DIR);
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, value.to_json().dump_pretty())?;
    Ok(path)
}

/// Renders a simple aligned table to a string.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
    }
    out
}

/// Formats a float as a fixed-precision percentage cell.
pub fn pct(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats bytes as mebibytes.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(t.contains("long-name"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        table(&["a", "b"], &[vec!["only-one".into()]]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(61.23456), "61.2");
        assert_eq!(mib(1024 * 1024 * 3 / 2), "1.50");
    }
}
