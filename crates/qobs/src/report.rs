//! Trace summarization: turns a validated JSONL trace into the
//! per-stage/per-tier text table behind `tetrislock report`.

use crate::json;
use crate::schema;
use std::collections::BTreeMap;

#[derive(Default)]
struct SpanAgg {
    calls: u64,
    total_us: u64,
    max_us: u64,
    decided: bool,
}

/// Validate `text` as a qobs trace and render a human-readable summary:
/// run metadata, per-stage span aggregates (spans carrying a `tier` or
/// `stage` attribute are broken out per value, as `verify.tier[zx]` or
/// `job.stage[verify]`, with the deciding tier marked), counters,
/// histograms, and event counts.
///
/// Returns the schema validation error unchanged when the trace is
/// invalid, so callers get validation for free.
pub fn summarize(text: &str) -> Result<String, String> {
    let summary = schema::validate_trace(text)?;

    let mut meta_lines: Vec<String> = Vec::new();
    let mut spans: BTreeMap<String, SpanAgg> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut histograms: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    let mut events: BTreeMap<String, u64> = BTreeMap::new();

    for line in text.lines() {
        // validate_trace already proved every line parses.
        let obj = json::parse_line(line).map_err(|e| e.to_string())?;
        match obj.get_str("type") {
            Some("meta") => {
                let mut parts: Vec<String> = Vec::new();
                for (key, value) in obj.fields() {
                    if key == "type" {
                        continue;
                    }
                    let rendered = match value {
                        json::Value::Str(s) => s.clone(),
                        json::Value::Num(n) => format!("{n}"),
                        json::Value::Bool(b) => format!("{b}"),
                        json::Value::Null => "null".to_string(),
                    };
                    parts.push(format!("{key}={rendered}"));
                }
                meta_lines.push(parts.join(" "));
            }
            Some("span") => {
                let name = obj.get_str("name").unwrap_or("?");
                let key = match obj.get_str("tier").or_else(|| obj.get_str("stage")) {
                    Some(part) => format!("{name}[{part}]"),
                    None => name.to_string(),
                };
                let agg = spans.entry(key).or_default();
                let elapsed = obj.get_u64("elapsed_us").unwrap_or(0);
                agg.calls += 1;
                agg.total_us += elapsed;
                agg.max_us = agg.max_us.max(elapsed);
                if obj.get_str("outcome") == Some("decided") {
                    agg.decided = true;
                }
            }
            Some("counter") => {
                let name = obj.get_str("name").unwrap_or("?").to_string();
                let value = obj.get_u64("value").unwrap_or(0);
                // Repeated flushes re-emit cumulative totals; keep the last.
                counters.insert(name, value);
            }
            Some("histogram") => {
                let name = obj.get_str("name").unwrap_or("?").to_string();
                histograms.insert(
                    name,
                    (
                        obj.get_u64("count").unwrap_or(0),
                        obj.get_u64("sum_us").unwrap_or(0),
                        obj.get_u64("max_us").unwrap_or(0),
                    ),
                );
            }
            Some("event") => {
                let name = obj.get_str("name").unwrap_or("?").to_string();
                *events.entry(name).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "trace: {} lines ({} spans, {} counters, {} histograms, {} events)\n",
        summary.lines, summary.spans, summary.counters, summary.histograms, summary.events
    ));
    for meta in &meta_lines {
        out.push_str(&format!("meta: {meta}\n"));
    }

    if !spans.is_empty() {
        // Widest key first so the table aligns.
        let mut rows: Vec<(&String, &SpanAgg)> = spans.iter().collect();
        rows.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0).max(5);
        out.push_str(&format!(
            "\nstages (by total time)\n  {:<width$}  {:>6}  {:>12}  {:>12}  {:>12}\n",
            "stage", "calls", "total_ms", "mean_ms", "max_ms"
        ));
        for (key, agg) in rows {
            let mean_us = agg.total_us as f64 / agg.calls.max(1) as f64;
            out.push_str(&format!(
                "  {:<width$}  {:>6}  {:>12.3}  {:>12.3}  {:>12.3}{}\n",
                key,
                agg.calls,
                agg.total_us as f64 / 1e3,
                mean_us / 1e3,
                agg.max_us as f64 / 1e3,
                if agg.decided { "  <- decided" } else { "" }
            ));
        }
    }

    if !counters.is_empty() {
        let width = counters.keys().map(String::len).max().unwrap_or(0).max(7);
        out.push_str(&format!(
            "\ncounters\n  {:<width$}  {:>12}\n",
            "counter", "value"
        ));
        for (name, value) in &counters {
            out.push_str(&format!("  {name:<width$}  {value:>12}\n"));
        }
    }

    if !histograms.is_empty() {
        let width = histograms.keys().map(String::len).max().unwrap_or(0).max(9);
        out.push_str(&format!(
            "\nhistograms\n  {:<width$}  {:>8}  {:>12}  {:>12}\n",
            "histogram", "count", "mean_ms", "max_ms"
        ));
        for (name, (count, sum_us, max_us)) in &histograms {
            let mean_us = *sum_us as f64 / (*count).max(1) as f64;
            out.push_str(&format!(
                "  {:<width$}  {:>8}  {:>12.3}  {:>12.3}\n",
                name,
                count,
                mean_us / 1e3,
                *max_us as f64 / 1e3,
            ));
        }
    }

    if !events.is_empty() {
        let width = events.keys().map(String::len).max().unwrap_or(0).max(5);
        out.push_str(&format!(
            "\nevents\n  {:<width$}  {:>8}\n",
            "event", "count"
        ));
        for (name, count) in &events {
            out.push_str(&format!("  {name:<width$}  {count:>8}\n"));
        }
    }

    Ok(out)
}

/// Renders a serve-daemon `status.json` (one flat JSON object of type
/// `serve_status`; schema in `docs/observability.md`) as a
/// human-readable health card for `tetrislock report --serve`.
///
/// Returns an error for non-JSON input or an object of the wrong type,
/// so pointing `--serve` at a trace file fails loudly instead of
/// rendering garbage.
pub fn render_serve_status(text: &str) -> Result<String, String> {
    let line = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| "empty status file".to_string())?;
    let obj = json::parse_line(line)?;
    match obj.get_str("type") {
        Some("serve_status") => {}
        Some(other) => return Err(format!("not a serve status file (type={other})")),
        None => return Err("not a serve status file (no type field)".to_string()),
    }
    let num = |key: &str| obj.get_u64(key).unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "serve status (schema v{})\n",
        num("schema_version")
    ));
    out.push_str(&format!(
        "  state: {}\n",
        if obj.get_bool("draining") == Some(true) {
            "draining"
        } else {
            "running"
        }
    ));
    out.push_str(&format!("  workers:     {:>8}\n", num("workers")));
    out.push_str(&format!("  queue depth: {:>8}\n", num("queue_depth")));
    out.push_str(&format!("  in flight:   {:>8}\n", num("in_flight")));
    out.push_str(&format!("  admitted:    {:>8}\n", num("admitted")));
    out.push_str(&format!("  completed:   {:>8}\n", num("completed")));
    out.push_str(&format!("  quarantined: {:>8}\n", num("quarantined")));
    out.push_str(&format!("  cancelled:   {:>8}\n", num("cancelled")));
    out.push_str(&format!("  retries:     {:>8}\n", num("retries")));
    out.push_str(&format!("  polls:       {:>8}\n", num("polls")));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_tier_breakout_and_deciding_marker() {
        let trace = "\
{\"type\":\"meta\",\"schema_version\":1,\"level\":\"full\",\"command\":\"verify\",\"qsim_workers\":4}\n\
{\"type\":\"span\",\"name\":\"verify.tier\",\"id\":2,\"parent\":1,\"thread\":0,\"start_us\":0,\"elapsed_us\":50,\"tier\":\"tableau\",\"outcome\":\"fell_through\"}\n\
{\"type\":\"span\",\"name\":\"verify.tier\",\"id\":3,\"parent\":1,\"thread\":0,\"start_us\":60,\"elapsed_us\":400,\"tier\":\"zx\",\"outcome\":\"decided\"}\n\
{\"type\":\"span\",\"name\":\"verify.check\",\"id\":1,\"thread\":0,\"start_us\":0,\"elapsed_us\":500}\n\
{\"type\":\"counter\",\"name\":\"qsim.kernel.mat1\",\"value\":9}\n\
{\"type\":\"histogram\",\"name\":\"qverify.tier.zx.elapsed_us\",\"count\":1,\"sum_us\":400,\"max_us\":400}\n\
{\"type\":\"event\",\"name\":\"batch.tmp_swept\",\"thread\":0}\n";
        let report = summarize(trace).unwrap();
        assert!(report.contains("verify.tier[zx]"), "{report}");
        assert!(report.contains("verify.tier[tableau]"), "{report}");
        assert!(report.contains("<- decided"), "{report}");
        assert!(report.contains("qsim.kernel.mat1"), "{report}");
        assert!(report.contains("command=verify"), "{report}");
        assert!(report.contains("qsim_workers=4"), "{report}");
        assert!(report.contains("batch.tmp_swept"), "{report}");
        // The deciding marker must sit on the zx row, not the tableau one.
        let zx_row = report
            .lines()
            .find(|l| l.contains("verify.tier[zx]"))
            .unwrap();
        assert!(zx_row.contains("<- decided"), "{report}");
        let tableau_row = report
            .lines()
            .find(|l| l.contains("verify.tier[tableau]"))
            .unwrap();
        assert!(!tableau_row.contains("<- decided"), "{report}");
    }

    #[test]
    fn breaks_job_stages_out_by_stage() {
        let trace = "\
{\"type\":\"meta\",\"schema_version\":1,\"level\":\"spans\"}\n\
{\"type\":\"span\",\"name\":\"job.stage\",\"id\":1,\"thread\":0,\"start_us\":0,\"elapsed_us\":30,\"job\":\"rd53\",\"stage\":\"compile_left\",\"step\":2}\n\
{\"type\":\"span\",\"name\":\"job.stage\",\"id\":2,\"thread\":0,\"start_us\":40,\"elapsed_us\":900,\"job\":\"rd53\",\"stage\":\"verify\",\"step\":5}\n\
{\"type\":\"span\",\"name\":\"job.stage\",\"id\":3,\"thread\":0,\"start_us\":950,\"elapsed_us\":700,\"job\":\"rd73\",\"stage\":\"verify\",\"step\":5}\n";
        let report = summarize(trace).unwrap();
        let row = |key: &str| {
            report
                .lines()
                .find(|l| l.split_whitespace().next() == Some(key))
                .unwrap_or_else(|| panic!("no {key} row in:\n{report}"))
        };
        let verify: Vec<&str> = row("job.stage[verify]").split_whitespace().collect();
        assert_eq!(verify[1..3], ["2", "1.600"], "{report}");
        assert!(row("job.stage[compile_left]").contains("0.030"), "{report}");
        assert!(!report.contains("job.stage "), "{report}");
    }

    #[test]
    fn propagates_validation_errors() {
        assert!(summarize("").is_err());
        assert!(summarize("{\"type\":\"span\"}\n").is_err());
    }

    #[test]
    fn renders_serve_status_card() {
        let status = "{\"type\":\"serve_status\",\"schema_version\":1,\"workers\":4,\
\"queue_depth\":2,\"in_flight\":1,\"admitted\":9,\"completed\":6,\"quarantined\":1,\
\"cancelled\":1,\"retries\":3,\"polls\":120,\"draining\":false}\n";
        let card = render_serve_status(status).unwrap();
        assert!(card.contains("state: running"), "{card}");
        assert!(card.contains("queue depth"), "{card}");
        assert!(
            card.lines()
                .any(|l| l.contains("completed") && l.ends_with('6')),
            "{card}"
        );

        let draining = status.replace("\"draining\":false", "\"draining\":true");
        assert!(render_serve_status(&draining)
            .unwrap()
            .contains("state: draining"));
    }

    #[test]
    fn serve_status_rejects_wrong_input() {
        assert!(render_serve_status("").is_err());
        assert!(render_serve_status("not json").is_err());
        assert!(render_serve_status("{\"type\":\"meta\",\"schema_version\":1}").is_err());
    }

    #[test]
    fn keeps_last_counter_value_across_flushes() {
        let trace = "\
{\"type\":\"meta\",\"schema_version\":1,\"level\":\"counters\"}\n\
{\"type\":\"counter\",\"name\":\"c\",\"value\":3}\n\
{\"type\":\"counter\",\"name\":\"c\",\"value\":8}\n";
        let report = summarize(trace).unwrap();
        let row = report.lines().find(|l| l.trim().starts_with("c ")).unwrap();
        assert!(row.trim().ends_with('8'), "{report}");
    }
}
