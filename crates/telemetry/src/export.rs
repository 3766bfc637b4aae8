//! Structured run exports: a dependency-free JSON value tree and a
//! JSON-lines artifact writer.
//!
//! Every experiment bin emits one `BENCH_<name>.jsonl` file — one JSON
//! object per line, each line a self-describing record (`"record"` key names
//! its kind) — so perf can be tracked and diffed across PRs with ordinary
//! text tooling. The output directory is `$NETCHAIN_ARTIFACT_DIR` when set,
//! else the current directory.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use crate::hist::Quantiles;
use crate::journal::Journal;
use crate::trace::{
    ip_to_string, path_to_string, Evidence, EvidenceOp, HopRole, HopStamp, PacketTrace,
    TraceSummary,
};

/// A JSON value. The repo builds without serde (offline, no new deps), so
/// this mirrors the hand-rolled rendering already used by
/// `netchain-experiments::series`, but as a reusable tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (covers every counter in the repo).
    U64(u64),
    /// Floating point; non-finite values render as `null`.
    F64(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Parses JSON text back into a [`Json`] tree (the inverse of
    /// [`Json::render`]). Accepts standard JSON: the bench gate uses this to
    /// read committed `BENCH_*.json` baselines without pulling in serde.
    ///
    /// Number mapping mirrors the enum: non-negative integers that fit a
    /// `u64` become [`Json::U64`]; everything else (fractions, exponents,
    /// negatives) becomes [`Json::F64`].
    ///
    /// Arrays and objects nested more than 128 levels deep are an error, so
    /// hostile input cannot overflow the parser's stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Navigates a dotted key path with optional array indices, e.g.
    /// `"latency[0].quantiles.p99_ns"`. Returns `None` when any step is
    /// missing or the shape does not match.
    pub fn get(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for part in path.split('.') {
            if part.is_empty() {
                return None;
            }
            let (key, indices) = match part.find('[') {
                Some(b) => (&part[..b], &part[b..]),
                None => (part, ""),
            };
            if !key.is_empty() {
                match cur {
                    Json::Obj(pairs) => {
                        cur = &pairs.iter().find(|(k, _)| k == key)?.1;
                    }
                    _ => return None,
                }
            }
            for idx in indices.split_terminator(']') {
                let idx: usize = idx.strip_prefix('[')?.parse().ok()?;
                match cur {
                    Json::Arr(items) => cur = items.get(idx)?,
                    _ => return None,
                }
            }
        }
        Some(cur)
    }

    /// The value as a number, unifying [`Json::U64`] and [`Json::F64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an exact `u64`. Unlike [`Json::as_f64`] this never
    /// rounds: trace IDs routinely exceed 2^53 and would lose their low
    /// bits through a double. Integral non-negative floats in the exact
    /// range still convert (a lenient producer may have written `3.0`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::F64(v) if *v >= 0.0 && *v <= (1u64 << 53) as f64 && v.fract() == 0.0 => {
                Some(*v as u64)
            }
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

    /// Renders to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
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
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every artifact
/// this crate writes nests a handful of levels; the bound keeps the
/// recursive-descent parser's stack use small on any input.
const MAX_JSON_DEPTH: usize = 128;

/// Recursive-descent JSON reader over raw bytes. Errors carry the byte
/// offset so a malformed bench file points at itself.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                nested
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
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
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs don't occur in bench files;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input came from a &str
                    // and `pos` only ever advances by whole chars, so the
                    // suffix is valid UTF-8.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("bad utf-8")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if !float && !text.starts_with('-') {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

impl From<Quantiles> for Json {
    fn from(q: Quantiles) -> Json {
        Json::obj(vec![
            ("count", Json::U64(q.count)),
            ("mean_ns", Json::F64(q.mean_ns)),
            ("min_ns", Json::U64(q.min_ns)),
            ("p50_ns", Json::U64(q.p50_ns)),
            ("p90_ns", Json::U64(q.p90_ns)),
            ("p99_ns", Json::U64(q.p99_ns)),
            ("p999_ns", Json::U64(q.p999_ns)),
            ("max_ns", Json::U64(q.max_ns)),
        ])
    }
}

impl From<&Journal> for Json {
    fn from(j: &Journal) -> Json {
        Json::obj(vec![
            (
                "instants",
                Json::Arr(
                    j.instants()
                        .iter()
                        .map(|i| {
                            Json::obj(vec![
                                ("name", Json::str(&i.name)),
                                ("at_ns", Json::U64(i.at_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    j.spans()
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::str(&s.name)),
                                ("start_ns", Json::U64(s.start_ns)),
                                ("end_ns", s.end_ns.map(Json::U64).unwrap_or(Json::Null)),
                                (
                                    "duration_ns",
                                    s.duration_ns().map(Json::U64).unwrap_or(Json::Null),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl From<&TraceSummary> for Json {
    fn from(s: &TraceSummary) -> Json {
        Json::obj(vec![
            ("traces", Json::U64(s.traces as u64)),
            (
                "paths",
                Json::Arr(
                    s.paths
                        .iter()
                        .map(|(p, n)| {
                            Json::obj(vec![
                                ("path", Json::str(path_to_string(p))),
                                ("count", Json::U64(*n as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "transitions",
                Json::Arr(
                    s.transitions
                        .iter()
                        .map(|t| {
                            Json::obj(vec![
                                ("from", Json::str(ip_to_string(t.from_ip))),
                                ("to", Json::str(ip_to_string(t.to_ip))),
                                ("latency", Json::from(t.quantiles())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Version of the per-trace JSONL record format.
///
/// * **1** — hops are bare `(ip, at_ns)` pairs (pre-evidence producers).
/// * **2** — hops may carry an evidence payload (`op`, `role`, `ok`,
///   `key_fp`, `session`, `seq`).
///
/// [`trace_from_json`] accepts 1 and 2 (a missing `schema` field reads as 1)
/// and rejects anything higher, so old artifacts stay decodable and future
/// bumps fail loudly instead of mis-parsing.
pub const TRACE_SCHEMA: u64 = 2;

/// Renders one [`PacketTrace`] as the fields of a `"trace"` JSONL record
/// (schema [`TRACE_SCHEMA`]). Pass straight to [`ArtifactWriter::record`].
pub fn trace_record_fields(t: &PacketTrace) -> Vec<(&'static str, Json)> {
    let hops = t
        .hops
        .iter()
        .map(|h| {
            let mut pairs = vec![
                ("ip", Json::U64(u64::from(h.hop_ip))),
                ("at_ns", Json::U64(h.at_ns)),
            ];
            if let Some(ev) = &h.evidence {
                pairs.push(("op", Json::str(ev.op.label())));
                pairs.push(("role", Json::str(ev.role.label())));
                pairs.push(("ok", Json::Bool(ev.ok)));
                pairs.push(("key_fp", Json::U64(u64::from(ev.key_fp))));
                pairs.push(("session", Json::U64(ev.session)));
                pairs.push(("seq", Json::U64(ev.seq)));
            }
            Json::obj(pairs)
        })
        .collect();
    vec![
        ("schema", Json::U64(TRACE_SCHEMA)),
        ("id", Json::U64(t.id)),
        ("hops", Json::Arr(hops)),
    ]
}

/// Decodes a `"trace"` record object back into a [`PacketTrace`].
///
/// Schema 1 records (or records with no `schema` field) decode with
/// `evidence: None` on every hop; schema 2 records restore the evidence
/// payload; higher schemas are rejected with an error naming the version so
/// consumers can count and skip them instead of panicking.
pub fn trace_from_json(rec: &Json) -> Result<PacketTrace, String> {
    let schema = rec.get("schema").and_then(Json::as_u64).unwrap_or(1);
    if schema > TRACE_SCHEMA {
        return Err(format!(
            "unsupported trace schema {schema} (this decoder understands <= {TRACE_SCHEMA})"
        ));
    }
    let id = rec
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("trace record has no numeric 'id'")?;
    let Some(Json::Arr(hops)) = rec.get("hops") else {
        return Err("trace record has no 'hops' array".to_string());
    };
    let mut out = Vec::with_capacity(hops.len());
    for h in hops {
        let ip = h
            .get("ip")
            .and_then(Json::as_u64)
            .ok_or("hop has no numeric 'ip'")? as u32;
        let at_ns = h
            .get("at_ns")
            .and_then(Json::as_u64)
            .ok_or("hop has no numeric 'at_ns'")?;
        let evidence = if schema >= 2 {
            match (h.get("role").and_then(Json::as_str), h.get("op")) {
                (Some(role_label), Some(op)) => {
                    let role = HopRole::from_label(role_label)
                        .ok_or_else(|| format!("unknown hop role '{role_label}'"))?;
                    Some(Evidence {
                        op: EvidenceOp::from_label(op.as_str().unwrap_or("other")),
                        role,
                        ok: matches!(h.get("ok"), Some(Json::Bool(true))),
                        key_fp: h.get("key_fp").and_then(Json::as_u64).unwrap_or(0) as u32,
                        session: h.get("session").and_then(Json::as_u64).unwrap_or(0),
                        seq: h.get("seq").and_then(Json::as_u64).unwrap_or(0),
                    })
                }
                _ => None,
            }
        } else {
            None
        };
        out.push(HopStamp {
            hop_ip: ip,
            at_ns,
            evidence,
        });
    }
    Ok(PacketTrace { id, hops: out })
}

/// Reconstructs a [`Journal`] from its [`Json`] form (the inverse of
/// `From<&Journal>`), so offline consumers can recover failover/repair spans
/// from `"spans"` records.
pub fn journal_from_json(doc: &Json) -> Journal {
    let mut journal = Journal::new();
    if let Some(Json::Arr(instants)) = doc.get("instants") {
        for i in instants {
            if let (Some(name), Some(at)) = (
                i.get("name").and_then(Json::as_str),
                i.get("at_ns").and_then(Json::as_u64),
            ) {
                journal.instant(name, at);
            }
        }
    }
    if let Some(Json::Arr(spans)) = doc.get("spans") {
        for s in spans {
            if let (Some(name), Some(start)) = (
                s.get("name").and_then(Json::as_str),
                s.get("start_ns").and_then(Json::as_u64),
            ) {
                match s.get("end_ns").and_then(Json::as_u64) {
                    Some(end) => journal.span(name, start, end),
                    None => {
                        journal.begin(name, start);
                    }
                }
            }
        }
    }
    journal
}

/// Where artifacts land: `$NETCHAIN_ARTIFACT_DIR` if set, else the current
/// directory.
pub fn artifact_dir() -> PathBuf {
    std::env::var_os("NETCHAIN_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Accumulates JSON-lines records for one run and writes them as
/// `BENCH_<name>.jsonl`.
#[derive(Debug)]
pub struct ArtifactWriter {
    name: String,
    records: Vec<Json>,
}

impl ArtifactWriter {
    /// Starts an artifact named `name` (file: `BENCH_<name>.jsonl`).
    pub fn new(name: impl Into<String>) -> Self {
        ArtifactWriter {
            name: name.into(),
            records: Vec::new(),
        }
    }

    /// Appends one record. By convention the object carries a `"record"` key
    /// naming its kind (`"summary"`, `"latency"`, `"spans"`, `"hops"`, ...).
    pub fn record(&mut self, kind: &str, mut fields: Vec<(&str, Json)>) {
        fields.insert(0, ("record", Json::str(kind)));
        self.records.push(Json::obj(fields));
    }

    /// Number of records queued.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records were queued.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders all records as JSON-lines text.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }

    /// Writes `BENCH_<name>.jsonl` into [`artifact_dir`], returning the
    /// path. Errors are reported, not fatal: a read-only filesystem must
    /// not fail an experiment run.
    pub fn write(&self) -> Option<PathBuf> {
        let path = artifact_dir().join(format!("BENCH_{}.jsonl", self.name));
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&path)?;
            f.write_all(self.to_jsonl().as_bytes())
        };
        match write() {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: could not write artifact {}: {e}", path.display());
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;

    #[test]
    fn json_rendering() {
        let j = Json::obj(vec![
            ("n", Json::U64(3)),
            ("rate", Json::F64(1.5)),
            ("name", Json::str("a \"b\"\n")),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"n":3,"rate":1.5,"name":"a \"b\"\n","flag":true,"none":null,"xs":[1,2]}"#
        );
        assert_eq!(Json::F64(f64::NAN).render(), "null");
    }

    #[test]
    fn json_parse_round_trips_render() {
        let j = Json::obj(vec![
            ("n", Json::U64(3)),
            ("rate", Json::F64(1.5)),
            ("name", Json::str("a \"b\"\n\t\\")),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "xs",
                Json::Arr(vec![Json::U64(1), Json::Obj(vec![]), Json::Arr(vec![])]),
            ),
        ]);
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
    }

    #[test]
    fn json_parse_number_mapping_and_whitespace() {
        let j = Json::parse(" { \"a\" : -2.5e3 , \"b\" : 42, \"c\": 0.5 } ").unwrap();
        assert_eq!(j.get("a"), Some(&Json::F64(-2500.0)));
        assert_eq!(j.get("b"), Some(&Json::U64(42)));
        assert_eq!(j.get("c"), Some(&Json::F64(0.5)));
        // u64 overflow falls back to float rather than erroring.
        let big = Json::parse("99999999999999999999999").unwrap();
        assert_eq!(big, Json::F64(1e23));
        // \u escapes decode.
        assert_eq!(
            Json::parse("\"a\\u0041b\"").unwrap(),
            Json::Str("aAb".to_string())
        );
    }

    #[test]
    fn json_parse_rejects_malformed_input() {
        for bad in ["{", "[1,", "\"unterminated", "{\"a\" 1}", "1 2", "nul", ""] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad}");
        }
    }

    #[test]
    fn json_parse_bounds_nesting_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Hostile depth on a small stack must be an error, not an abort.
        let hostile = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| Json::parse(&"[".repeat(200_000)).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(hostile);
    }

    #[test]
    fn json_get_navigates_paths_with_indices() {
        let j = Json::parse(
            r#"{"latency":[{"quantiles":{"p99_ns":7}},{"quantiles":{"p99_ns":9}}],"grid":[[1,2],[3,4]]}"#,
        )
        .unwrap();
        assert_eq!(j.get("latency[0].quantiles.p99_ns"), Some(&Json::U64(7)));
        assert_eq!(j.get("latency[1].quantiles.p99_ns"), Some(&Json::U64(9)));
        assert_eq!(j.get("grid[1][0]"), Some(&Json::U64(3)));
        assert_eq!(j.get("latency[2].quantiles"), None);
        assert_eq!(j.get("missing"), None);
        assert_eq!(j.get("latency.quantiles"), None); // array, not object
        assert_eq!(
            j.get("latency[0].quantiles.p99_ns").unwrap().as_f64(),
            Some(7.0)
        );
    }

    #[test]
    fn json_parse_reads_the_committed_bench_shape() {
        // The exact shape bench_gate consumes from BENCH_net.json.
        let text = r#"{"experiment":"net_scale","capacity":{"burst_vs_single_speedup":0.87},"latency":[{"abandoned":0}]}"#;
        let j = Json::parse(text).unwrap();
        assert_eq!(j.get("experiment").unwrap().as_str(), Some("net_scale"));
        assert_eq!(
            j.get("capacity.burst_vs_single_speedup").unwrap().as_f64(),
            Some(0.87)
        );
        assert_eq!(j.get("latency[0].abandoned").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn quantiles_to_json_has_all_percentiles() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let j = Json::from(h.snapshot().quantiles());
        let text = j.render();
        for key in ["\"p50_ns\"", "\"p99_ns\"", "\"p999_ns\"", "\"count\":1000"] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }

    #[test]
    fn journal_to_json() {
        let mut j = Journal::new();
        j.instant("kill", 10);
        j.span("repair", 20, 50);
        let text = Json::from(&j).render();
        assert!(text.contains("\"name\":\"kill\""));
        assert!(text.contains("\"duration_ns\":30"));
    }

    #[test]
    fn trace_records_round_trip_with_evidence() {
        let trace = PacketTrace {
            id: 42,
            hops: vec![
                HopStamp::plain(1, 100),
                HopStamp {
                    hop_ip: 2,
                    at_ns: 200,
                    evidence: Some(Evidence {
                        op: EvidenceOp::Write,
                        role: HopRole::Head,
                        ok: true,
                        key_fp: 0xdead_beef,
                        session: 3,
                        seq: 9,
                    }),
                },
            ],
        };
        let rec = Json::obj(trace_record_fields(&trace));
        let parsed = trace_from_json(&Json::parse(&rec.render()).unwrap()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn trace_decoder_accepts_schema_one_and_rejects_future_schemas() {
        // A schema-1 record (no schema field, bare hops) still decodes.
        let v1 =
            Json::parse(r#"{"id":7,"hops":[{"ip":1,"at_ns":10},{"ip":2,"at_ns":20}]}"#).unwrap();
        let t = trace_from_json(&v1).unwrap();
        assert_eq!(t.id, 7);
        assert!(t.hops.iter().all(|h| h.evidence.is_none()));
        // Evidence fields present but schema says 1: evidence is ignored
        // (a v1 decoder contract — those fields did not exist).
        let v1_extra = Json::parse(
            r#"{"schema":1,"id":7,"hops":[{"ip":1,"at_ns":10,"role":"head","op":"write"}]}"#,
        )
        .unwrap();
        assert!(trace_from_json(&v1_extra).unwrap().hops[0]
            .evidence
            .is_none());
        // A future schema is rejected with the version named, not mis-read.
        let v9 = Json::parse(r#"{"schema":9,"id":7,"hops":[]}"#).unwrap();
        let err = trace_from_json(&v9).unwrap_err();
        assert!(err.contains("schema 9"), "{err}");
    }

    #[test]
    fn journal_round_trips_through_json() {
        let mut j = Journal::new();
        j.instant("killed", 10);
        j.span("repair", 20, 50);
        j.begin("open-phase", 60);
        let back = journal_from_json(&Json::parse(&Json::from(&j).render()).unwrap());
        assert_eq!(back.instants(), j.instants());
        assert_eq!(back.spans(), j.spans());
    }

    #[test]
    fn artifact_writer_emits_one_record_per_line() {
        let mut w = ArtifactWriter::new("test");
        assert!(w.is_empty());
        w.record("summary", vec![("ops", Json::U64(10))]);
        w.record("latency", vec![("p50_ns", Json::U64(100))]);
        assert_eq!(w.len(), 2);
        let text = w.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"record":"summary""#));
        assert!(lines[1].starts_with(r#"{"record":"latency""#));
    }

    #[test]
    fn artifact_writes_to_env_dir() {
        let dir =
            std::env::temp_dir().join(format!("netchain-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("NETCHAIN_ARTIFACT_DIR", &dir);
        let mut w = ArtifactWriter::new("env-test");
        w.record("summary", vec![("x", Json::U64(1))]);
        let path = w.write().unwrap();
        std::env::remove_var("NETCHAIN_ARTIFACT_DIR");
        assert!(path.starts_with(&dir));
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, "{\"record\":\"summary\",\"x\":1}\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
