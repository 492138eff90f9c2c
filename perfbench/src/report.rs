//! The result line, and the metric declarations it must agree with.
//!
//! `END_TO_END` and `PER_LAYER` mirror the `end_to_end` and `per_layer`
//! lists of `BENCHMARK.json`. Before printing, the benchmark checks that
//! every name is well formed, that the file declares exactly these
//! names, and that the run measured every metric of its mode; a run that
//! fails any check prints no result.

use std::collections::BTreeSet;
use std::fmt::Write;

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("submit_p50_us", "us"),
    ("read_p50_us", "us"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does
/// not exercise reports `0`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.compile_ms", "ms"),
    ("serve.proto_ns", "ns"),
    ("serve.server_latency_mean_us", "us"),
    ("serve.wire_overhead_us", "us"),
    ("serve.commit_latency_mean_us", "us"),
    ("serve.conflicts", "count"),
    ("serve.acks_per_group_fsync", "ratio"),
    ("runtime.step_us.hire", "us"),
    ("runtime.step_us.fire", "us"),
    ("runtime.step_us.fire_refused", "us"),
    ("runtime.step_us.closure", "us"),
    ("runtime.step_us.closure_refused", "us"),
    ("runtime.step_us.show", "us"),
    ("runtime.attempts_per_step", "ratio"),
    ("runtime.phase_share.permissions", "share"),
    ("runtime.phase_share.valuation", "share"),
    ("runtime.phase_share.monitor_advance", "share"),
    ("temporal.monitor_hit_share", "share"),
    ("temporal.scan_fallbacks_per_event", "ratio"),
    ("vm.exec_per_event", "ratio"),
    ("vm.delta_per_event", "ratio"),
    ("valuation.recomputed", "count"),
    ("store.wal_bytes_per_event", "B"),
    ("store.fsyncs_per_event", "ratio"),
    ("store.fsync_mean_us", "us"),
    ("repl.apply_us_per_record", "us"),
    ("repl.records_per_poll", "ratio"),
    ("repl.catchup_records_per_s", "1/s"),
    ("client.submit_p99_us", "us"),
    ("client.read_p99_us", "us"),
    ("client.gen_lag_p99_us", "us"),
    ("client.failed_share", "share"),
    ("trace_overhead.events_per_s", "1/s"),
    ("trace_overhead.submit_p50_us", "us"),
    ("trace_overhead.read_p50_us", "us"),
];

/// A metric name: `[A-Za-z0-9_.-]+`, at most 64 bytes, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The `"name"` values inside the array that follows `"<key>"` in
/// `BENCHMARK.json`. A deliberately small reader: the file is ours and
/// its arrays hold flat objects only.
pub fn declared_names(benchmark_json: &str, key: &str) -> Result<Vec<String>, String> {
    let quoted = format!("\"{key}\"");
    let at = benchmark_json
        .find(&quoted)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}`"))?;
    let rest = &benchmark_json[at + quoted.len()..];
    let open = rest
        .find('[')
        .ok_or_else(|| format!("`{key}` is not an array"))?;
    let close = rest[open..]
        .find(']')
        .ok_or_else(|| format!("`{key}` array is not closed"))?;
    let mut body = &rest[open + 1..open + close];
    let mut names = Vec::new();
    while let Some(i) = body.find("\"name\"") {
        body = &body[i + "\"name\"".len()..];
        let start = body
            .find('"')
            .ok_or_else(|| format!("`{key}`: name without a value"))?;
        let len = body[start + 1..]
            .find('"')
            .ok_or_else(|| format!("`{key}`: unterminated name"))?;
        names.push(body[start + 1..start + 1 + len].to_string());
        body = &body[start + 1 + len + 1..];
    }
    Ok(names)
}

/// Checks the declarations against each other and against the file.
pub fn check_declarations(benchmark_json: &str) -> Result<(), String> {
    for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let mut seen = BTreeSet::new();
        for (name, _) in ours {
            if !valid_name(name) {
                return Err(format!("metric name `{name}` is malformed"));
            }
            if !seen.insert(*name) {
                return Err(format!("metric `{name}` is declared twice"));
            }
        }
        let theirs: BTreeSet<String> = declared_names(benchmark_json, key)?.into_iter().collect();
        let ours: BTreeSet<String> = seen.into_iter().map(str::to_string).collect();
        if theirs != ours {
            return Err(format!(
                "BENCHMARK.json `{key}` declares {theirs:?}, the benchmark measures {ours:?}"
            ));
        }
    }
    Ok(())
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (requests sent, or script lines run).
    pub attempted: u64,
    /// Wrong answers, missing answers and transport errors.
    pub failed: u64,
    /// Failed checks that are not per-operation (e.g. a follower that
    /// diverged from its primary).
    pub problems: Vec<String>,
    /// Conditions of the run, printed next to the result.
    pub info: Vec<(&'static str, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Renders the final line with the metrics of `declared`, failing
    /// if any is missing or not a finite number.
    pub fn render(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in declared.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is {value}"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                troll_obs::json_str(name),
                troll_obs::json_str(unit)
            )
            .expect("write to String");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.problems.is_empty() && self.attempted > 0,
            self.attempted,
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed() {
        assert!(valid_name("serve.proto_ns"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(".x"));
        assert!(!valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_what_is_measured() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        check_declarations(&text).expect("declarations agree");
    }

    #[test]
    fn render_requires_every_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("a", 1.5);
        assert!(r.render(&[("a", "s"), ("b", "s")]).is_err());
        r.set("b", 2.0);
        let line = r.render(&[("a", "s"), ("b", "s")]).expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
