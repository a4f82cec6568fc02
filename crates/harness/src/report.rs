//! Plain-text table rendering and CSV output.
//!
//! Kept dependency-free on purpose (the approved crate set contains no serialisation
//! helper for CSV/JSON); the experiment binary writes these tables to stdout and to
//! `target/experiments/<id>.csv`.

use std::fmt::Write as _;
use std::path::Path;

/// A simple named table: one header row plus data rows of strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (e.g. `"Fig. 9 — throughput vs n"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each row has exactly `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
    /// Indices of the columns whose every cell must read positive (see [`Table::gate`]).
    gated: Vec<usize>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: impl IntoIterator<Item = impl ToString>) -> Self {
        Self {
            title: title.into(),
            headers: headers.into_iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            gated: Vec::new(),
        }
    }

    /// Declares the columns, by exact header, whose every cell must start with a
    /// positive number: the table's own CI gate, judged by [`Table::gate_failures`].
    ///
    /// # Panics
    ///
    /// Panics if the table has no column named `header`, so a renamed column cannot
    /// leave its gate checking nothing.
    pub fn gate(mut self, headers: &[&str]) -> Self {
        for header in headers {
            let column = self
                .headers
                .iter()
                .position(|h| h == header)
                .unwrap_or_else(|| panic!("gated column {header:?} is not a header of {:?}", self.title));
            self.gated.push(column);
        }
        self
    }

    /// One message per cell of a gated column that does not start with a positive
    /// number. Only the leading number is parsed, so a stall annotation
    /// (`"0.00 [AwaitingReady]"`) still fails and a `-` cell counts as zero.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for &column in &self.gated {
            for (index, row) in self.rows.iter().enumerate() {
                let cell = &row[column];
                let value: f64 = cell
                    .split_whitespace()
                    .next()
                    .and_then(|prefix| prefix.parse().ok())
                    .unwrap_or(0.0);
                if value <= 0.0 {
                    failures.push(format!(
                        "column {:?} row {} ({}={}) has cell {cell:?}",
                        self.headers[column],
                        index + 1,
                        self.headers[0],
                        row[0]
                    ));
                }
            }
        }
        failures
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header length.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row length must match header length"
        );
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, width) in cells.iter().zip(widths) {
                let _ = write!(line, " {cell:width$} |");
            }
            line
        };
        let _ = writeln!(out, "{}", render_row(&self.headers, &widths));
        let mut separator = String::from("|");
        for width in &widths {
            let _ = write!(separator, "{}|", "-".repeat(width + 2));
        }
        let _ = writeln!(out, "{separator}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV rendering to `directory/<file_stem>.csv`, creating the directory
    /// if needed.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from creating the directory or writing the file.
    pub fn write_csv(&self, directory: &Path, file_stem: &str) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(directory)?;
        let path = directory.join(format!("{file_stem}.csv"));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }

    /// Renders the table as a JSON object `{"title", "headers", "rows"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"title\":{},\"headers\":[", json_string(&self.title));
        let _ = write!(
            out,
            "{}",
            self.headers.iter().map(|h| json_string(h)).collect::<Vec<_>>().join(",")
        );
        let _ = write!(out, "],\"rows\":[");
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                format!(
                    "[{}]",
                    row.iter().map(|c| json_string(c)).collect::<Vec<_>>().join(",")
                )
            })
            .collect();
        let _ = write!(out, "{}]}}", rows.join(","));
        out
    }
}

/// Escapes a string as a JSON string literal (dependency-free; the approved crate set
/// contains no JSON serialiser).
pub fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One entry of the machine-readable benchmark trajectory written by the `experiments`
/// binary's `--bench-json` flag.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Experiment id (e.g. `"fig9"`).
    pub id: String,
    /// Wall-clock seconds the experiment took to run.
    pub wall_clock_secs: f64,
    /// Simulation events executed per wall-clock second over this experiment — the
    /// engine-speed figure (as opposed to the protocol-throughput columns inside the
    /// table). `0.0` when the experiment ran no simulation (the analytical tables).
    pub events_per_sec: f64,
    /// The process's peak resident set (bytes) over this experiment: the
    /// `experiments` binary calls [`reset_peak_rss`] before each one. Where the reset
    /// is unavailable, and in documents recorded before PR 12, it is the running
    /// maximum over the experiments so far.
    pub peak_memory_bytes: u64,
    /// The result table (throughput columns included).
    pub table: Table,
}

/// Renders a benchmark run (profile + per-experiment wall clock, engine events/sec,
/// peak RSS and tables) as the `BENCH_*.json` trajectory document
/// (schema `leopard-bench/v2`; v1 lacked the two engine-speed fields).
pub fn bench_records_to_json(profile: &str, records: &[BenchRecord]) -> String {
    let total: f64 = records.iter().map(|r| r.wall_clock_secs).sum();
    let entries: Vec<String> = records
        .iter()
        .map(|record| {
            format!(
                "    {{\"id\":{},\"wall_clock_secs\":{:.3},\"events_per_sec\":{:.0},\"peak_memory_bytes\":{},\"table\":{}}}",
                json_string(&record.id),
                record.wall_clock_secs,
                record.events_per_sec,
                record.peak_memory_bytes,
                record.table.to_json()
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"leopard-bench/v2\",\n  \"profile\": {},\n  \"total_wall_clock_secs\": {:.3},\n  \"experiments\": [\n{}\n  ]\n}}\n",
        json_string(profile),
        total,
        entries.join(",\n")
    )
}

/// The process's peak resident set size in bytes (`VmHWM` from `/proc/self/status`).
/// Monotone since the process started or [`reset_peak_rss`] last succeeded. Returns 0
/// where procfs is unavailable (non-Linux), so callers can gate on a zero rather than
/// an `Option`.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Resets the mark [`peak_rss_bytes`] reads to the current resident set size, so a
/// process that measures several things in a row reports a peak for each of them
/// rather than the running maximum. Writing `5` to `/proc/self/clear_refs` does that
/// on Linux ≥ 4.0; anywhere else the write fails and the mark stays process-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_text_and_csv() {
        let mut table = Table::new("demo", &["n", "throughput"]);
        table.push_row(vec!["4".into(), "100.0".into()]);
        table.push_row(vec!["16".into(), "99.5".into()]);
        let text = table.to_text();
        assert!(text.contains("## demo"));
        assert!(text.contains("| 4 "));
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("n,throughput"));
    }

    #[test]
    fn csv_escapes_special_characters() {
        let mut table = Table::new("t", &["a"]);
        table.push_row(vec!["x,y".into()]);
        table.push_row(vec!["say \"hi\"".into()]);
        let csv = table.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn mismatched_row_length_panics() {
        let mut table = Table::new("t", &["a", "b"]);
        table.push_row(vec!["only one".into()]);
    }

    #[test]
    fn gate_counts_zero_annotated_and_dash_cells_in_gated_columns_only() {
        let mut table = Table::new("t", &["n", "Leopard (Kreqs/s)", "HotStuff (Kreqs/s)"]);
        table.push_row(vec!["4".into(), "129.57".into(), "0.00".into()]);
        table.push_row(vec!["8".into(), "0.00".into(), "0.00".into()]);
        table.push_row(vec!["16".into(), "0.00 [AwaitingReady]".into(), "-".into()]);
        table.push_row(vec!["32".into(), "-".into(), "1.00".into()]);
        assert!(table.gate_failures().is_empty(), "an ungated table fails nothing");
        let table = table.gate(&["Leopard (Kreqs/s)"]);
        assert_eq!(
            table.gate_failures(),
            [
                r#"column "Leopard (Kreqs/s)" row 2 (n=8) has cell "0.00""#,
                r#"column "Leopard (Kreqs/s)" row 3 (n=16) has cell "0.00 [AwaitingReady]""#,
                r#"column "Leopard (Kreqs/s)" row 4 (n=32) has cell "-""#,
            ]
        );
    }

    #[test]
    #[should_panic(expected = "gated column \"Leopard\" is not a header")]
    fn gating_an_unknown_header_panics_naming_it() {
        let _ = Table::new("t", &["n", "Leopard (Kreqs/s)"]).gate(&["Leopard"]);
    }

    #[test]
    fn csv_writing_creates_file() {
        let dir = std::env::temp_dir().join("leopard-harness-test");
        let mut table = Table::new("t", &["a"]);
        table.push_row(vec!["1".into()]);
        let path = table.write_csv(&dir, "unit").unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn bench_json_document_shape() {
        let mut table = Table::new("demo", &["n", "throughput"]);
        table.push_row(vec!["4".into(), "100.0".into()]);
        let records = vec![BenchRecord {
            id: "fig9".into(),
            wall_clock_secs: 1.25,
            events_per_sec: 1_234_567.8,
            peak_memory_bytes: 42 * 1024 * 1024,
            table,
        }];
        let json = bench_records_to_json("quick", &records);
        assert!(json.contains("\"schema\": \"leopard-bench/v2\""));
        assert!(json.contains("\"profile\": \"quick\""));
        assert!(json.contains("\"id\":\"fig9\""));
        assert!(json.contains("\"wall_clock_secs\":1.250"));
        assert!(json.contains("\"events_per_sec\":1234568"));
        assert!(json.contains("\"peak_memory_bytes\":44040192"));
        assert!(json.contains("\"rows\":[[\"4\",\"100.0\"]]"));
        assert!(json.contains("\"total_wall_clock_secs\": 1.250"));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            // A running test process has at least a page resident.
            assert!(rss > 4096, "peak RSS {rss}");
        }
        // Resetting never fails loudly and leaves a mark to read.
        reset_peak_rss();
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes() > 4096);
        }
    }
}
