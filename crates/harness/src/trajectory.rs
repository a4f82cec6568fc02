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
}
