//! Self-validating schema for qobs JSONL traces, mirroring
//! `bench::schema` for the `BENCH_*.json` emitters: the contract a
//! trace must satisfy lives next to the code that writes it, and CI
//! replays every emitted trace through [`validate_trace`].
//!
//! A valid trace is a sequence of flat JSON object lines where:
//!
//! - the first line is a `meta` line carrying `schema_version` (equal to
//!   [`crate::SCHEMA_VERSION`]) and a recognised `level`;
//! - every line's `type` is one of `meta`, `span`, `counter`,
//!   `histogram`, `event`;
//! - `span` lines carry `name`, a unique `id`, `thread`, `start_us`,
//!   `elapsed_us`, and (for nested spans) a `parent` referencing another
//!   span id in the trace;
//! - `counter` lines carry `name` and `value`;
//! - `histogram` lines carry `name`, `count`, `sum_us`, `max_us`;
//! - `event` lines carry `name` and `thread`.

use crate::json::{self, ParsedObj};

/// Per-kind line counts for a validated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Total line count.
    pub lines: usize,
    /// `meta` lines.
    pub meta: usize,
    /// `span` lines.
    pub spans: usize,
    /// `counter` lines.
    pub counters: usize,
    /// `histogram` lines.
    pub histograms: usize,
    /// `event` lines.
    pub events: usize,
}

/// Validate a full JSONL trace. Returns per-kind line counts on
/// success and a message naming the first offending line on failure.
///
/// ```
/// let trace = "\
/// {\"type\":\"meta\",\"schema_version\":1,\"level\":\"full\"}\n\
/// {\"type\":\"counter\",\"name\":\"qsim.kernel.diag1\",\"value\":4}\n";
/// let summary = qobs::schema::validate_trace(trace).unwrap();
/// assert_eq!(summary.counters, 1);
/// assert!(qobs::schema::validate_trace("{\"type\":\"counter\"}\n").is_err());
/// ```
pub fn validate_trace(text: &str) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();
    let mut span_ids: Vec<u64> = Vec::new();
    let mut parents: Vec<(usize, u64)> = Vec::new();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            return Err(format!("line {lineno}: blank line in trace"));
        }
        let obj = json::parse_line(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let kind = obj
            .get_str("type")
            .ok_or_else(|| format!("line {lineno}: missing string \"type\" field"))?;
        if summary.lines == 0 && kind != "meta" {
            return Err(format!(
                "line 1: trace must start with a meta line, found type {kind:?}"
            ));
        }
        summary.lines += 1;
        match kind {
            "meta" => {
                validate_meta(&obj).map_err(|e| format!("line {lineno}: {e}"))?;
                summary.meta += 1;
            }
            "span" => {
                let id = validate_span(&obj).map_err(|e| format!("line {lineno}: {e}"))?;
                if span_ids.contains(&id) {
                    return Err(format!("line {lineno}: duplicate span id {id}"));
                }
                span_ids.push(id);
                if let Some(parent) = obj.get_u64("parent") {
                    parents.push((lineno, parent));
                }
                summary.spans += 1;
            }
            "counter" => {
                require_name(&obj).map_err(|e| format!("line {lineno}: {e}"))?;
                require_u64(&obj, "value").map_err(|e| format!("line {lineno}: {e}"))?;
                summary.counters += 1;
            }
            "histogram" => {
                require_name(&obj).map_err(|e| format!("line {lineno}: {e}"))?;
                for key in ["count", "sum_us", "max_us"] {
                    require_u64(&obj, key).map_err(|e| format!("line {lineno}: {e}"))?;
                }
                summary.histograms += 1;
            }
            "event" => {
                require_name(&obj).map_err(|e| format!("line {lineno}: {e}"))?;
                require_u64(&obj, "thread").map_err(|e| format!("line {lineno}: {e}"))?;
                summary.events += 1;
            }
            other => {
                return Err(format!("line {lineno}: unknown line type {other:?}"));
            }
        }
    }

    if summary.lines == 0 {
        return Err("empty trace (no lines)".to_string());
    }
    for (lineno, parent) in parents {
        if !span_ids.contains(&parent) {
            return Err(format!(
                "line {lineno}: span parent {parent} does not match any span id in the trace"
            ));
        }
    }
    Ok(summary)
}

fn validate_meta(obj: &ParsedObj) -> Result<(), String> {
    let version = require_u64(obj, "schema_version")?;
    if version != crate::SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {}",
            crate::SCHEMA_VERSION
        ));
    }
    let level = obj
        .get_str("level")
        .ok_or_else(|| "meta line missing string \"level\"".to_string())?;
    if !matches!(level, "off" | "counters" | "spans" | "full") {
        return Err(format!("meta level {level:?} is not a recognised level"));
    }
    // The CLI records the resolved worker count; when present it must be
    // a positive integer so determinism investigations can trust it.
    if obj.get("qsim_workers").is_some() {
        let workers = require_u64(obj, "qsim_workers")?;
        if workers == 0 {
            return Err("meta qsim_workers must be >= 1".to_string());
        }
    }
    Ok(())
}

fn validate_span(obj: &ParsedObj) -> Result<u64, String> {
    require_name(obj)?;
    let id = require_u64(obj, "id")?;
    if id == 0 {
        return Err("span id must be >= 1".to_string());
    }
    require_u64(obj, "thread")?;
    require_u64(obj, "start_us")?;
    require_u64(obj, "elapsed_us")?;
    Ok(id)
}

fn require_name(obj: &ParsedObj) -> Result<(), String> {
    match obj.get_str("name") {
        Some(name) if !name.is_empty() => Ok(()),
        Some(_) => Err("empty \"name\" field".to_string()),
        None => Err("missing string \"name\" field".to_string()),
    }
}

fn require_u64(obj: &ParsedObj, key: &str) -> Result<u64, String> {
    obj.get_u64(key)
        .ok_or_else(|| format!("missing or non-integer \"{key}\" field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const META: &str = r#"{"type":"meta","schema_version":1,"level":"full","qsim_workers":4}"#;

    fn trace(lines: &[&str]) -> String {
        let mut out = String::new();
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    #[test]
    fn accepts_full_example() {
        let t = trace(&[
            META,
            r#"{"type":"span","name":"verify.tier","id":2,"parent":1,"thread":0,"start_us":10,"elapsed_us":5,"tier":"zx","outcome":"decided"}"#,
            r#"{"type":"span","name":"verify.check","id":1,"thread":0,"start_us":0,"elapsed_us":20}"#,
            r#"{"type":"event","name":"batch.tmp_swept","thread":1,"path":"job.tmp"}"#,
            r#"{"type":"counter","name":"qsim.kernel.mat1","value":12}"#,
            r#"{"type":"histogram","name":"qverify.tier.zx.elapsed_us","count":1,"sum_us":5,"max_us":5}"#,
        ]);
        let s = validate_trace(&t).unwrap();
        assert_eq!(
            s,
            TraceSummary {
                lines: 6,
                meta: 1,
                spans: 2,
                counters: 1,
                histograms: 1,
                events: 1,
            }
        );
    }

    #[test]
    fn rejects_missing_meta_head() {
        let t = trace(&[r#"{"type":"counter","name":"x","value":1}"#]);
        assert!(validate_trace(&t).unwrap_err().contains("meta"));
    }

    #[test]
    fn rejects_empty_trace() {
        assert!(validate_trace("").is_err());
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let t = trace(&[r#"{"type":"meta","schema_version":2,"level":"full"}"#]);
        assert!(validate_trace(&t).unwrap_err().contains("schema_version"));
    }

    #[test]
    fn rejects_bad_level_and_zero_workers() {
        let t = trace(&[r#"{"type":"meta","schema_version":1,"level":"loud"}"#]);
        assert!(validate_trace(&t).unwrap_err().contains("level"));
        let t = trace(&[r#"{"type":"meta","schema_version":1,"level":"full","qsim_workers":0}"#]);
        assert!(validate_trace(&t).unwrap_err().contains("qsim_workers"));
    }

    #[test]
    fn rejects_dangling_parent_and_duplicate_id() {
        let t = trace(&[
            META,
            r#"{"type":"span","name":"a","id":5,"parent":9,"thread":0,"start_us":0,"elapsed_us":1}"#,
        ]);
        assert!(validate_trace(&t).unwrap_err().contains("parent"));
        let t = trace(&[
            META,
            r#"{"type":"span","name":"a","id":5,"thread":0,"start_us":0,"elapsed_us":1}"#,
            r#"{"type":"span","name":"b","id":5,"thread":0,"start_us":0,"elapsed_us":1}"#,
        ]);
        assert!(validate_trace(&t)
            .unwrap_err()
            .contains("duplicate span id"));
    }

    #[test]
    fn rejects_malformed_lines() {
        let t = trace(&[META, r#"{"type":"counter","name":"x","value":1.5}"#]);
        assert!(validate_trace(&t).unwrap_err().contains("value"));
        let t = trace(&[META, r#"{"type":"mystery","name":"x"}"#]);
        assert!(validate_trace(&t)
            .unwrap_err()
            .contains("unknown line type"));
        let t = trace(&[META, "not json"]);
        assert!(validate_trace(&t).is_err());
        let t = format!("{META}\n\n");
        assert!(validate_trace(&t).unwrap_err().contains("blank"));
    }
}
