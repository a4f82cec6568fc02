//! Folding the repo's `BENCH_PR*.json` documents into one trajectory table.
//!
//! Every PR records the machine-readable output of the `experiments` binary
//! (`--bench-json`, schema `leopard-bench/v1` or `/v2` — see
//! [`crate::report::bench_records_to_json`]) as a `BENCH_PR<k>_*.json` file at the
//! repo root. Each file answers "how fast was the suite at PR k", but the question
//! the files exist for — "is the engine getting faster or slower over the life of
//! the repo" — needs them side by side. The `bench-trajectory` subcommand of the
//! `experiments` binary calls [`fold_document`] over every `BENCH_PR*.json` it
//! finds and writes the resulting markdown table to `BENCH_TRAJECTORY.md`.
//!
//! The fold is schema-tolerant: v1 files (PR 2–5) predate the engine-speed fields,
//! so their events/sec and peak-RSS cells render as `-` instead of failing the fold.
//! The parser below is a ~hundred-line recursive-descent JSON reader — the workspace
//! deliberately has no serde dependency, and the input is machine-written by
//! [`crate::report::bench_records_to_json`], so full JSON generality is not needed
//! (it still handles escapes, nested containers and scientific notation, and rejects
//! malformed input with a line-free error rather than panicking).
//!
//! The same reader backs the table diff (`experiments --against <file>`): a fresh run's
//! tables against a recorded document's, cell by cell ([`parse_recorded`],
//! [`diff_run`]), skipping the [`HOST_COLUMNS`] that time or size the host.

use crate::report::Table;
use std::fmt::Write as _;

/// A parsed JSON value. Numbers are kept as `f64` — the bench documents contain
/// nothing that needs more than 53 bits of precision.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (the bench documents have no duplicate keys).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document. Errors are descriptive strings with a byte offset.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match escape {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // The bench writer never emits surrogate pairs; map a
                            // lone surrogate to the replacement character.
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged: find the
                    // char boundary via the original str slice.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.pos))?;
                    let c = rest.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// One folded `BENCH_PR*.json` document.
#[derive(Debug, Clone)]
pub struct TrajectoryRow {
    /// PR number parsed from the `BENCH_PR<k>_…` filename (rows sort by it).
    pub pr: u32,
    /// The source filename.
    pub file: String,
    /// The document's `profile` field (`"quick"` / `"full"`).
    pub profile: String,
    /// The document's schema tag.
    pub schema: String,
    /// `total_wall_clock_secs` of the run.
    pub wall_secs: f64,
    /// Number of experiments in the document.
    pub experiments: usize,
    /// Wall-time-weighted mean engine events/sec over the experiments that ran a
    /// simulation (`None` for v1 documents, which lack the field).
    pub events_per_sec: Option<f64>,
    /// Peak RSS over the whole run, bytes (`None` for v1 documents).
    pub peak_memory_bytes: Option<u64>,
}

/// Folds one `BENCH_PR*.json` document into a [`TrajectoryRow`].
pub fn fold_document(file: &str, content: &str) -> Result<TrajectoryRow, String> {
    let pr = file
        .strip_prefix("BENCH_PR")
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse::<u32>().ok())
        .ok_or_else(|| format!("{file}: not a BENCH_PR<k>_*.json filename"))?;
    let doc = parse_json(content).map_err(|e| format!("{file}: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let profile = doc
        .get("profile")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let wall_secs = doc
        .get("total_wall_clock_secs")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{file}: missing total_wall_clock_secs"))?;
    let experiments = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{file}: missing experiments array"))?;

    // Engine speed over the whole document: each v2 entry records its own
    // events/sec; the suite-level figure is the wall-time-weighted mean over the
    // entries that actually ran events (total events / total simulating wall).
    let mut sim_wall = 0.0f64;
    let mut events = 0.0f64;
    let mut peak: Option<u64> = None;
    for entry in experiments {
        let wall = entry.get("wall_clock_secs").and_then(Json::as_f64).unwrap_or(0.0);
        if let Some(eps) = entry.get("events_per_sec").and_then(Json::as_f64) {
            if eps > 0.0 {
                sim_wall += wall;
                events += eps * wall;
            }
        }
        if let Some(bytes) = entry.get("peak_memory_bytes").and_then(Json::as_f64) {
            let bytes = bytes as u64;
            peak = Some(peak.map_or(bytes, |p| p.max(bytes)));
        }
    }
    Ok(TrajectoryRow {
        pr,
        file: file.to_string(),
        profile,
        schema,
        wall_secs,
        experiments: experiments.len(),
        events_per_sec: (sim_wall > 0.0).then(|| events / sim_wall),
        peak_memory_bytes: peak,
    })
}

/// Renders the folded rows as the `BENCH_TRAJECTORY.md` document. Rows are sorted
/// by PR number, quick profile before full, so the leftmost column reads as the
/// repo's history.
pub fn render_trajectory(mut rows: Vec<TrajectoryRow>) -> String {
    rows.sort_by(|a, b| {
        (a.pr, a.profile != "quick", a.file.as_str()).cmp(&(b.pr, b.profile != "quick", b.file.as_str()))
    });
    let mut out = String::new();
    out.push_str("# Benchmark trajectory\n\n");
    out.push_str(
        "Folded from every `BENCH_PR*.json` at the repo root by\n\
         `cargo run -p leopard-bench --release --bin experiments -- bench-trajectory`.\n\
         Regenerate after recording a new `BENCH_PR*.json`; do not edit by hand.\n\n\
         The engine column is the wall-time-weighted mean events/sec over the\n\
         experiments that ran a simulation — total events divided by total\n\
         simulating wall time, *not* a mean of per-experiment rates. Schema-v1\n\
         documents (PR 2–5) predate the engine-speed fields, so those cells read\n\
         `-`. Numbers from different PRs were recorded on that PR's reference\n\
         machine; treat cross-PR deltas as indicative, and run\n\
         `benchmark/run.sh --twice` for a same-machine comparison (see\n\
         `EXPERIMENTS.md`). The experiments column counts ids: a wall-clock\n\
         drop that comes with a drop in the count (25 → 22 when three ids that\n\
         recomputed other ids' rows went) is not an engine change.\n\n",
    );
    out.push_str("| PR | file | profile | wall (s) | engine (Mev/s) | peak RSS (MB) | experiments |\n");
    out.push_str("|----|------|---------|----------|----------------|---------------|-------------|\n");
    for row in &rows {
        let engine = row
            .events_per_sec
            .map_or("-".to_string(), |eps| format!("{:.2}", eps / 1e6));
        let rss = row
            .peak_memory_bytes
            .map_or("-".to_string(), |bytes| format!("{:.0}", bytes as f64 / 1e6));
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.1} | {} | {} | {} |",
            row.pr, row.file, row.profile, row.wall_secs, engine, rss, row.experiments
        );
    }
    out
}

/// The columns that time or size the host rather than the simulation: wall clock,
/// engine rate, peak RSS and the chaos engine's rate. A table diff skips them.
pub const HOST_COLUMNS: [&str; 4] = ["wall (s)", "engine (Mev/s)", "peak RSS (MB)", "schedules/sec"];

/// The tables of a recorded `BENCH_PR*.json` document, for [`diff_run`].
#[derive(Debug)]
pub struct RecordedRun {
    /// The document's `profile` field (`"quick"` / `"full"`).
    pub profile: String,
    /// `(experiment id, table)` in document order.
    pub tables: Vec<(String, Table)>,
}

/// Reads the tables out of a recorded bench document (schema v1 or v2).
pub fn parse_recorded(content: &str) -> Result<RecordedRun, String> {
    let doc = parse_json(content)?;
    let profile = doc.get("profile").and_then(Json::as_str).unwrap_or("?").to_string();
    let experiments = doc
        .get("experiments")
        .and_then(Json::as_arr)
        .ok_or("missing experiments array")?;
    let strings = |value: Option<&Json>| -> Result<Vec<String>, String> {
        value
            .and_then(Json::as_arr)
            .ok_or("a table lacks its headers or a row")?
            .iter()
            .map(|cell| cell.as_str().map(str::to_string).ok_or_else(|| "a non-string cell".to_string()))
            .collect()
    };
    let mut tables = Vec::with_capacity(experiments.len());
    for entry in experiments {
        let id = entry.get("id").and_then(Json::as_str).ok_or("an experiment without an id")?;
        let json = entry.get("table").ok_or_else(|| format!("{id}: no table"))?;
        let title = json.get("title").and_then(Json::as_str).unwrap_or_default();
        let mut table = Table::new(title, strings(json.get("headers"))?);
        for row in json.get("rows").and_then(Json::as_arr).ok_or_else(|| format!("{id}: no rows"))? {
            let row = strings(Some(row))?;
            if row.len() != table.headers.len() {
                return Err(format!("{id}: a row of {} cells under {} headers", row.len(), table.headers.len()));
            }
            table.push_row(row);
        }
        tables.push((id.to_string(), table));
    }
    Ok(RecordedRun { profile, tables })
}

/// Diffs a fresh run's tables against a recorded run: one line per difference, a
/// changed cell as `id / row / column: old → new`. Host columns are skipped. An id
/// the recorded run lacks is a difference; a recorded id the run did not select is
/// not. Rows are matched by their label (their fewest leading non-host cells that tell
/// the rows apart), columns by header.
pub fn diff_run(recorded: &RecordedRun, profile: &str, tables: &[(&str, &Table)]) -> Vec<String> {
    let mut out = Vec::new();
    if recorded.profile != profile {
        out.push(format!("profile: {} → {profile}", recorded.profile));
    }
    for &(id, new) in tables {
        match recorded.tables.iter().find(|(recorded_id, _)| recorded_id == id) {
            Some((_, old)) => diff_tables(id, old, new, &mut out),
            None => out.push(format!("{id}: not in the recorded run")),
        }
    }
    out
}

fn diff_tables(id: &str, old: &Table, new: &Table, out: &mut Vec<String>) {
    if old.title != new.title {
        out.push(format!("{id} / title: {} → {}", old.title, new.title));
    }
    let is_host = |header: &str| HOST_COLUMNS.contains(&header);
    let column = |table: &Table, header: &str| table.headers.iter().position(|h| h == header);
    for header in old.headers.iter().filter(|h| !is_host(h) && column(new, h).is_none()) {
        out.push(format!("{id} / column {header}: removed"));
    }
    // (new index, old index) of every non-host column both tables have.
    let mut shared = Vec::new();
    for (at, header) in new.headers.iter().enumerate().filter(|(_, h)| !is_host(h)) {
        match column(old, header) {
            Some(was) => shared.push((at, was)),
            None => out.push(format!("{id} / column {header}: added")),
        }
    }
    let (old_labels, new_labels) = row_labels(old, new);
    for (label, row) in new_labels.iter().zip(&new.rows) {
        let Some(was) = old_labels.iter().position(|l| l == label) else {
            out.push(format!("{id} / {label}: row added"));
            continue;
        };
        for &(at, from) in &shared {
            let (before, after) = (&old.rows[was][from], &row[at]);
            if before != after {
                out.push(format!("{id} / {label} / {}: {before} → {after}", new.headers[at]));
            }
        }
    }
    for label in old_labels.iter().filter(|l| !new_labels.contains(l)) {
        out.push(format!("{id} / {label}: row removed"));
    }
}

/// Names each row of both tables by its leading non-host cells, joined with ` · `:
/// the fewest leading cells that tell every row of each table apart (rows that no
/// prefix tells apart get a `#k` suffix from their second occurrence on). Both
/// tables use the same prefix length, so an unchanged row keeps its label.
fn row_labels(old: &Table, new: &Table) -> (Vec<String>, Vec<String>) {
    // Each row's label at `width` leading non-host cells, and whether all differ.
    let labels = |table: &Table, width: usize| -> (Vec<String>, bool) {
        let keys: Vec<usize> = (0..table.headers.len())
            .filter(|&c| !HOST_COLUMNS.contains(&table.headers[c].as_str()))
            .take(width)
            .collect();
        let bases: Vec<String> = table
            .rows
            .iter()
            .map(|row| keys.iter().map(|&c| row[c].as_str()).collect::<Vec<_>>().join(" · "))
            .collect();
        let mut unique = true;
        let labels = bases
            .iter()
            .enumerate()
            .map(|(i, base)| match bases[..i].iter().filter(|b| *b == base).count() {
                0 => base.clone(),
                seen => {
                    unique = false;
                    format!("{base} #{}", seen + 1)
                }
            })
            .collect();
        (labels, unique)
    };
    let widest = old.headers.len().max(new.headers.len()).max(1);
    let width = (1..=widest)
        .find(|&width| labels(old, width).1 && labels(new, width).1)
        .unwrap_or(1);
    (labels(old, width).0, labels(new, width).0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_writer_output() {
        let json = crate::report::bench_records_to_json(
            "quick",
            &[crate::report::BenchRecord {
                id: "fig9".to_string(),
                wall_clock_secs: 1.5,
                events_per_sec: 2.0e6,
                peak_memory_bytes: 100_000_000,
                table: {
                    let mut t = crate::report::Table::new("T — \"quoted\"", &["a", "b"]);
                    t.push_row(vec!["1".to_string(), "x / y".to_string()]);
                    t
                },
            }],
        );
        let doc = parse_json(&json).expect("writer output parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("leopard-bench/v2"));
        let experiments = doc.get("experiments").and_then(Json::as_arr).unwrap();
        assert_eq!(experiments.len(), 1);
        assert_eq!(
            experiments[0].get("table").and_then(|t| t.get("title")).and_then(Json::as_str),
            Some("T — \"quoted\"")
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1, 2,]").is_err());
        assert!(parse_json("{\"a\": 1} extra").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn folds_v1_and_v2_documents() {
        let v2 = r#"{"schema":"leopard-bench/v2","profile":"quick","total_wall_clock_secs":10.0,
            "experiments":[
                {"id":"a","wall_clock_secs":4.0,"events_per_sec":1000000,"peak_memory_bytes":50000000,"table":{"title":"t","headers":[],"rows":[]}},
                {"id":"b","wall_clock_secs":1.0,"events_per_sec":6000000,"peak_memory_bytes":80000000,"table":{"title":"t","headers":[],"rows":[]}},
                {"id":"tab","wall_clock_secs":0.0,"events_per_sec":0,"peak_memory_bytes":10000000,"table":{"title":"t","headers":[],"rows":[]}}
            ]}"#;
        let row = fold_document("BENCH_PR8_quick.json", v2).expect("v2 folds");
        assert_eq!(row.pr, 8);
        assert_eq!(row.experiments, 3);
        // (4 s · 1 Mev/s + 1 s · 6 Mev/s) / 5 s = 2 Mev/s — weighted, zero-eps
        // analytical entries excluded.
        assert_eq!(row.events_per_sec, Some(2.0e6));
        assert_eq!(row.peak_memory_bytes, Some(80_000_000));

        let v1 = r#"{"schema":"leopard-bench/v1","profile":"quick","total_wall_clock_secs":1.7,
            "experiments":[{"id":"fig9","wall_clock_secs":0.8,"table":{"title":"t","headers":[],"rows":[]}}]}"#;
        let row = fold_document("BENCH_PR2_quick.json", v1).expect("v1 folds");
        assert_eq!(row.pr, 2);
        assert_eq!(row.events_per_sec, None);
        assert_eq!(row.peak_memory_bytes, None);

        assert!(fold_document("NOT_A_BENCH.json", v1).is_err());
    }

    #[test]
    fn renders_sorted_markdown() {
        let rows = vec![
            fold_document(
                "BENCH_PR10_quick.json",
                r#"{"schema":"leopard-bench/v2","profile":"quick","total_wall_clock_secs":9.0,
                    "experiments":[{"id":"a","wall_clock_secs":1.0,"events_per_sec":1500000,"peak_memory_bytes":1000000,"table":{"title":"t","headers":[],"rows":[]}}]}"#,
            )
            .unwrap(),
            fold_document(
                "BENCH_PR2_quick.json",
                r#"{"schema":"leopard-bench/v1","profile":"quick","total_wall_clock_secs":1.7,"experiments":[]}"#,
            )
            .unwrap(),
        ];
        let md = render_trajectory(rows);
        let pr2 = md.find("BENCH_PR2_quick.json").expect("PR 2 row present");
        let pr10 = md.find("BENCH_PR10_quick.json").expect("PR 10 row present");
        assert!(pr2 < pr10, "rows sort numerically by PR, not lexically");
        assert!(md.contains("| 1.50 |"), "events/sec rendered in Mev/s:\n{md}");
        assert!(md.contains("| - | - |"), "v1 rows render dashes");
    }

    /// The diff matches rows by their shortest telling prefix and columns by header,
    /// names each changed cell, added and removed row, and ignores host columns.
    #[test]
    fn the_table_diff_names_every_change_but_the_host_columns() {
        let table = |rows: &[[&str; 4]]| {
            let mut table = Table::new("T", ["n", "stragglers", "Kreqs/s", "wall (s)"]);
            for row in rows {
                table.push_row(row.iter().map(|cell| cell.to_string()).collect());
            }
            table
        };
        let old = table(&[["8", "0%", "130.0", "0.5"], ["8", "10%", "120.0", "0.6"], ["16", "0%", "129.0", "0.7"]]);
        let json = crate::report::bench_records_to_json(
            "quick",
            &[crate::report::BenchRecord {
                id: "fig9geo".to_string(),
                wall_clock_secs: 1.8,
                events_per_sec: 2.0e6,
                peak_memory_bytes: 100_000_000,
                table: old,
            }],
        );
        let recorded = parse_recorded(&json).expect("writer output parses");

        let slower = table(&[["8", "0%", "130.0", "0.9"], ["8", "10%", "120.0", "1.2"], ["16", "0%", "129.0", "0.1"]]);
        assert!(diff_run(&recorded, "quick", &[("fig9geo", &slower)]).is_empty());

        let changed = table(&[["8", "0%", "130.0", "0.5"], ["8", "10%", "121.5", "0.6"], ["32", "0%", "128.0", "0.7"]]);
        assert_eq!(
            diff_run(&recorded, "quick", &[("fig9geo", &changed), ("tab1", &slower)]),
            vec![
                "fig9geo / 8 · 10% / Kreqs/s: 120.0 → 121.5",
                "fig9geo / 32 · 0%: row added",
                "fig9geo / 16 · 0%: row removed",
                "tab1: not in the recorded run",
            ]
        );
        assert_eq!(diff_run(&recorded, "full", &[]), vec!["profile: quick → full"]);

        let mut renamed = Table::new("T", ["n", "stragglers", "Kreqs/s (steady)", "wall (s)"]);
        renamed.push_row(vec!["8".into(), "0%".into(), "130.0".into(), "0.5".into()]);
        let lines = diff_run(&recorded, "quick", &[("fig9geo", &renamed)]);
        assert_eq!(&lines[..2], ["fig9geo / column Kreqs/s: removed", "fig9geo / column Kreqs/s (steady): added"]);
    }

    /// Rows no prefix tells apart are numbered from their second occurrence on.
    #[test]
    fn identical_rows_are_numbered() {
        let mut table = Table::new("T", ["role", "bytes"]);
        for _ in 0..3 {
            table.push_row(vec!["leader".into(), "10".into()]);
        }
        let (old, new) = row_labels(&table, &table);
        assert_eq!(old, ["leader", "leader #2", "leader #3"]);
        assert_eq!(old, new);
    }
}
