//! The `animate_wide` workload: no server, just the engine.
//!
//! Departments hire [`MEMBERS`] persons, attempt a `closure` that the
//! quantified permission refuses, fire everyone, then close. With more
//! members than the monitor cache holds per instance, `fire(P)` falls
//! back to the history scan, and `closure` always scans.

use crate::gen::Rng;
use crate::oracle::Verdict;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, percentile, ratio, RssProbe};
use crate::{compile_ms, Args};
use std::time::{Duration, Instant};
use troll_runtime::script;
use troll_runtime::{ObjectBase, SharedModel};

/// Members per department; above the monitor cache's per-instance
/// capacity of 128 entries.
pub const MEMBERS: usize = 512;
/// `show`s of the members once everyone is hired: reads of one size,
/// so their percentiles do not jump between sizes.
const SHOWS: usize = 8;
/// Set-ups before the timed phase. One more follows every department
/// of the timed phase, outside the department's own timing; `setup_s` is
/// the median of all of them. Spreading them over the run keeps a slow
/// spell of the host from setting the whole run's figure.
const SETUPS_BEFORE: usize = 50;
/// Every this many departments is checked line by line against a
/// replay with the monitor cache off.
const DIFF_EVERY: usize = 8;
/// Timed lines run when `rss_mb` is read.
const RSS_AT: u64 = 40_000;
/// The department the phase profiler runs, apart from the timed ones.
const PROFILED_DEPT: usize = 99_999;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Birth,
    Hire,
    Fire,
    ClosureRefused,
    Closure,
    Show,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Birth => "birth",
            Kind::Hire => "hire",
            Kind::Fire => "fire",
            Kind::ClosureRefused => "closure_refused",
            Kind::Closure => "closure",
            Kind::Show => "show",
        }
    }
}

/// One department's script, seeded.
fn department(seed: u64, k: usize) -> Vec<(Kind, String)> {
    let mut rng = Rng::derive(seed, 1_000_000 + k as u64);
    let name = format!("d{k:05}");
    let dept = format!("|DEPT|(\"{name}\")");
    let mut persons: Vec<u32> = Vec::with_capacity(MEMBERS);
    while persons.len() < MEMBERS {
        let p = rng.below(1 << 24) as u32;
        if !persons.contains(&p) {
            persons.push(p);
        }
    }
    let mut lines = vec![(
        Kind::Birth,
        format!(
            "birth DEPT (\"{name}\") establishment (date({},{},{}))",
            1980 + rng.below(20),
            1 + rng.below(12),
            1 + rng.below(28)
        ),
    )];
    for p in &persons {
        lines.push((Kind::Hire, format!("exec {dept} hire (|PERSON|(\"q{p}\"))")));
    }
    for _ in 0..SHOWS {
        lines.push((Kind::Show, format!("show {dept} employees")));
    }
    lines.push((Kind::ClosureRefused, format!("exec {dept} closure ()")));
    // fire in a different, seeded order
    for i in (1..persons.len()).rev() {
        persons.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for p in &persons {
        lines.push((Kind::Fire, format!("exec {dept} fire (|PERSON|(\"q{p}\"))")));
    }
    lines.push((Kind::Closure, format!("exec {dept} closure ()")));
    lines
}

/// What the answer to a line of `kind` must look like, regardless of
/// the department's contents.
fn plausible(kind: Kind, line: &str, answer: &Result<String, String>) -> bool {
    match (kind, answer) {
        (Kind::Birth, Ok(text)) => {
            let name = line.split('"').nth(1).unwrap_or("");
            *text == format!("born DEPT(\"{name}\")")
        }
        (Kind::Hire | Kind::Fire | Kind::Closure, Ok(text)) => text == "executed 1 event(s)",
        (Kind::ClosureRefused, Err(_)) => true,
        (Kind::Show, Ok(text)) => text.contains(".employees = "),
        _ => false,
    }
}

fn run_line(base: &mut ObjectBase, line: &str) -> Result<String, String> {
    script::run_command(base, line).map(|o| o.to_string())
}

/// Engine time of each event line and each `show` of one department,
/// and the time its lines took together.
#[derive(Default)]
struct Dept {
    writes: Vec<u64>,
    reads: Vec<u64>,
    secs: f64,
}

/// Measurements of one timed span. Every department is the same amount
/// of work, so the span reports medians over departments: a burst of
/// outside interference spoils a few departments, not the result.
#[derive(Default)]
struct Sample {
    depts: Vec<Dept>,
}

impl Sample {
    /// Event lines per second.
    fn rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .depts
            .iter()
            .map(|d| ratio(d.writes.len() as f64, d.secs))
            .collect();
        median(&rates)
    }

    /// Median over departments of each one's percentile `p` of its
    /// event lines, in µs.
    fn write_us(&self, p: f64) -> f64 {
        let per_dept: Vec<f64> = self
            .depts
            .iter()
            .map(|d| percentile(&mut d.writes.clone(), p))
            .collect();
        median(&per_dept) / 1000.0
    }

    /// Percentile `p` over all event lines, or all `show`s, in µs. A
    /// department holds too few `show`s for a percentile of its own.
    fn overall_us(&self, reads: bool, p: f64) -> f64 {
        let mut all: Vec<u64> = self
            .depts
            .iter()
            .flat_map(|d| if reads { &d.reads } else { &d.writes }.iter().copied())
            .collect();
        percentile(&mut all, p) / 1000.0
    }

    fn lines(&self) -> usize {
        self.depts.iter().map(|d| d.writes.len()).sum()
    }
}

struct Run<'a> {
    model: &'a SharedModel,
    base: ObjectBase,
    seed: u64,
    next_dept: usize,
    attempted: u64,
    failed: u64,
    examples: Vec<String>,
    setup_s: Vec<f64>,
}

/// Compiles the spec and builds a world: the workload's set-up, timed.
fn set_up() -> Result<(SharedModel, ObjectBase, f64), String> {
    let t0 = Instant::now();
    let model = crate::shared_model()?;
    let base = model.spawn().map_err(|e| e.to_string())?;
    Ok((model, base, t0.elapsed().as_secs_f64()))
}

impl Run<'_> {
    /// Runs whole departments until `until`, timing every line.
    fn span(
        &mut self,
        until: Instant,
        mut trace: Option<(&mut Spans, &mut Verdict)>,
        rss: Option<&RssProbe>,
    ) -> Result<Sample, String> {
        let mut sample = Sample::default();
        while Instant::now() < until {
            let k = self.next_dept;
            self.next_dept += 1;
            let lines = department(self.seed, k);
            let mut answers = Vec::with_capacity(lines.len());
            let mut dept = Dept::default();
            let start = Instant::now();
            for (kind, line) in &lines {
                let t0 = Instant::now();
                let answer = run_line(&mut self.base, line);
                let t1 = Instant::now();
                let ns = (t1 - t0).as_nanos() as u64;
                if *kind == Kind::Show {
                    dept.reads.push(ns);
                } else {
                    dept.writes.push(ns);
                }
                if let Some((spans, verdict)) = trace.as_mut() {
                    spans.record("engine", 0, t0, t1);
                    verdict.step_ns.entry(kind.label()).or_default().push(ns);
                }
                self.attempted += 1;
                if let Some(rss) = rss {
                    rss.tick();
                }
                if !plausible(*kind, line, &answer) {
                    self.fail(format!("`{line}` answered {answer:?}"));
                }
                answers.push(answer);
            }
            dept.secs = start.elapsed().as_secs_f64();
            sample.depts.push(dept);
            self.setup_s.push(set_up()?.2);
            if k.is_multiple_of(DIFF_EVERY) {
                self.differential(&lines, &answers)?;
            }
        }
        Ok(sample)
    }

    /// Replays a department on a fresh world with the monitor cache off
    /// (every check by history scan) and compares answers byte for byte.
    fn differential(
        &mut self,
        lines: &[(Kind, String)],
        answers: &[Result<String, String>],
    ) -> Result<(), String> {
        let mut oracle = self.model.spawn().map_err(|e| e.to_string())?;
        oracle.set_monitor_cache_enabled(false);
        for ((_, line), got) in lines.iter().zip(answers) {
            let want = run_line(&mut oracle, line);
            if *got != want {
                self.fail(format!(
                    "`{line}` answered {got:?}, a scan-only replay {want:?}"
                ));
            }
        }
        Ok(())
    }

    fn fail(&mut self, example: String) {
        self.failed += 1;
        if self.examples.len() < 3 {
            self.examples.push(example);
        }
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    report.note("members_per_department", MEMBERS);

    // set-up: compile the spec and build a world, several times over
    let mut setup_s = Vec::new();
    for _ in 1..SETUPS_BEFORE {
        setup_s.push(set_up()?.2);
    }
    let (model, base, secs) = set_up()?;
    setup_s.push(secs);

    let mut run = Run {
        model: &model,
        base,
        seed: args.seed,
        next_dept: 0,
        attempted: 0,
        failed: 0,
        examples: Vec::new(),
        setup_s,
    };
    // warm-up: one department, untimed
    run.span(Instant::now(), None, None)?;

    let global = troll_obs::global();
    let vm_before = (
        global.counter("vm.exec").get(),
        global.counter("vm.delta_execs").get(),
    );
    let halves = if args.trace { 2 } else { 1 };
    let span = Duration::from_secs_f64(args.seconds as f64 / halves as f64);
    let rss = RssProbe::new(RSS_AT);
    let plain = run.span(Instant::now() + span, None, Some(&rss))?;
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch, 1);
    let mut verdict = Verdict::default();
    let traced = if args.trace {
        Some(run.span(
            Instant::now() + span,
            Some((&mut spans, &mut verdict)),
            None,
        )?)
    } else {
        None
    };
    let vm_after = (
        global.counter("vm.exec").get(),
        global.counter("vm.delta_execs").get(),
    );
    report.set("setup_s", median(&run.setup_s));

    report.attempted = run.attempted;
    report.failed = run.failed;
    for example in &run.examples {
        eprintln!("perfbench: wrong answer: {example}");
    }
    report.note("departments", run.next_dept);
    report.note("timed_lines", plain.lines());

    report.set("rss_mb", rss.mb()?);
    report.set("events_per_s", plain.rate());
    report.set("submit_p50_us", plain.write_us(50.0));
    report.set("read_p50_us", plain.overall_us(true, 50.0));
    report.set("client.submit_p99_us", plain.overall_us(false, 99.0));
    report.set("client.read_p99_us", plain.overall_us(true, 99.0));

    // per-layer: the engine's own counters over everything this world ran
    let events = plain.lines() + traced.as_ref().map_or(0, Sample::lines);
    report.set("lang.compile_ms", compile_ms()?);
    verdict.absorb(&run.base);
    verdict.report_engine(report);
    report.set(
        "temporal.scan_fallbacks_per_event",
        ratio(
            verdict.monitor_fallbacks as f64,
            run.base.step_attempts() as f64,
        ),
    );
    report.set(
        "vm.exec_per_event",
        ratio((vm_after.0 - vm_before.0) as f64, events as f64),
    );
    report.set(
        "vm.delta_per_event",
        ratio((vm_after.1 - vm_before.1) as f64, events as f64),
    );
    let profile = {
        let mut base = model.spawn().map_err(|e| e.to_string())?;
        base.set_profiling(true);
        for (_, line) in department(args.seed, PROFILED_DEPT) {
            let _ = run_line(&mut base, &line);
        }
        base.metrics().snapshot()
    };
    for (name, phase) in [
        ("runtime.phase_share.permissions", "permissions"),
        ("runtime.phase_share.valuation", "valuation"),
        ("runtime.phase_share.monitor_advance", "monitor_advance"),
    ] {
        report.set(
            name,
            crate::oracle::phase_share(std::slice::from_ref(&profile), phase),
        );
    }
    // no server, store or follower in this workload
    for name in [
        "serve.proto_ns",
        "serve.server_latency_mean_us",
        "serve.wire_overhead_us",
        "serve.commit_latency_mean_us",
        "serve.conflicts",
        "serve.acks_per_group_fsync",
        "store.wal_bytes_per_event",
        "store.fsyncs_per_event",
        "store.fsync_mean_us",
        "repl.apply_us_per_record",
        "repl.records_per_poll",
        "repl.catchup_records_per_s",
        "client.gen_lag_p99_us",
    ] {
        report.set(name, 0.0);
    }
    report.set(
        "client.failed_share",
        ratio(run.failed as f64, run.attempted as f64),
    );
    match traced {
        Some(t) => {
            report.set("trace_overhead.events_per_s", t.rate() - plain.rate());
            report.set(
                "trace_overhead.submit_p50_us",
                t.write_us(50.0) - plain.write_us(50.0),
            );
            report.set(
                "trace_overhead.read_p50_us",
                t.overall_us(true, 50.0) - plain.overall_us(true, 50.0),
            );
            crate::write_spans(args, vec![spans])?;
        }
        None => {
            for name in [
                "trace_overhead.events_per_s",
                "trace_overhead.submit_p50_us",
                "trace_overhead.read_p50_us",
            ] {
                report.set(name, 0.0);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn department_script_is_seeded_and_answers_check() {
        assert_eq!(department(5, 3), department(5, 3));
        assert_ne!(department(5, 3), department(6, 3));
        let model = crate::shared_model().expect("model");
        let mut base = model.spawn().expect("world");
        for (kind, line) in department(5, 0) {
            let answer = run_line(&mut base, &line);
            assert!(plausible(kind, &line, &answer), "{line}: {answer:?}");
            if kind == Kind::Show {
                assert!(!plausible(Kind::Show, &line, &Ok(String::new())));
            }
        }
        assert!(base.monitor_cache_stats().fallbacks > 0);
    }
}
