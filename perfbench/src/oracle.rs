//! The answer oracle: a served world must answer exactly as a sequential
//! `troll animate` of the same lines would.
//!
//! Every request a world received is logged with the answer that came
//! back. After the run the log is replayed through
//! [`script::run_command`] on a fresh [`ObjectBase`], and each expected
//! answer is compared with the logged one byte for byte.

use crate::gen::{script_line, Op};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{percentile, ratio};
use std::collections::BTreeMap;
use std::time::Instant;
use troll_obs::MetricsSnapshot;
use troll_runtime::script;
use troll_runtime::{ObjectBase, SharedModel};
use troll_serve::Response;

/// One request and the answer it got (`None`: no answer arrived).
#[derive(Debug, Clone)]
pub struct Entry {
    pub op: Op,
    pub resp: Option<Response>,
}

/// Everything one world was sent, in send order.
#[derive(Debug, Clone)]
pub struct WorldLog {
    pub world: String,
    pub entries: Vec<Entry>,
}

impl WorldLog {
    pub fn new(world: String) -> WorldLog {
        WorldLog {
            world,
            entries: Vec::new(),
        }
    }
}

/// The answer a sequential animation gives to `op`.
pub fn expected(base: &mut ObjectBase, world: &str, op: &Op) -> Response {
    match op {
        Op::Open => Response::Ok(format!("opened {world}")),
        _ => match script::run_command(base, &script_line(world, op)) {
            Ok(outcome) => Response::Ok(outcome.to_string()),
            Err(e) => Response::Err(e),
        },
    }
}

/// Totals of a replay over many worlds.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Answers that differ from the oracle's.
    pub wrong: u64,
    /// Requests that never got an answer.
    pub missing: u64,
    /// The first few differences, for the log.
    pub examples: Vec<String>,
    /// Write requests replayed.
    pub writes: u64,
    /// Committed steps and step attempts of the replayed worlds.
    pub steps: u64,
    pub attempts: u64,
    /// Monitor-cache hits and scan fallbacks of the replayed worlds.
    pub monitor_hits: u64,
    pub monitor_fallbacks: u64,
    /// `valuation.recomputed` summed over the replayed worlds.
    pub recomputed: u64,
    /// Engine time per request kind, when timing was asked for.
    pub step_ns: BTreeMap<&'static str, Vec<u64>>,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.wrong + self.missing
    }

    /// Replays one world's log on a fresh world from `model`, returning
    /// the replayed world. With `spans`, every line is timed and
    /// recorded as a `replay` span.
    pub fn replay(
        &mut self,
        model: &SharedModel,
        log: &WorldLog,
        mut spans: Option<&mut Spans>,
    ) -> Result<ObjectBase, String> {
        let mut base = model.spawn().map_err(|e| e.to_string())?;
        for entry in &log.entries {
            let t0 = Instant::now();
            let want = expected(&mut base, &log.world, &entry.op);
            if let Some(spans) = spans.as_deref_mut() {
                let t1 = Instant::now();
                self.step_ns
                    .entry(entry.op.kind())
                    .or_default()
                    .push((t1 - t0).as_nanos() as u64);
                spans.record("replay", 0, t0, t1);
            }
            if entry.op.is_write() {
                self.writes += 1;
            }
            match &entry.resp {
                None => self.missing += 1,
                Some(got) if *got == want => {}
                Some(got) => {
                    self.wrong += 1;
                    if self.examples.len() < 3 {
                        self.examples.push(format!(
                            "world {} `{}`: got {got:?}, expected {want:?}",
                            log.world,
                            script_line(&log.world, &entry.op)
                        ));
                    }
                }
            }
        }
        self.absorb(&base);
        Ok(base)
    }

    /// Adds a world's engine counters to the totals.
    pub fn absorb(&mut self, base: &ObjectBase) {
        self.steps += base.steps_executed() as u64;
        self.attempts += base.step_attempts();
        let stats = base.monitor_cache_stats();
        self.monitor_hits += stats.hits;
        self.monitor_fallbacks += stats.fallbacks;
        self.recomputed += base.metrics().counter("valuation.recomputed").get();
    }

    /// Sets the `runtime`, `temporal` and `valuation` per-layer metrics.
    pub fn report_engine(&mut self, report: &mut Report) {
        for (name, kind) in STEP_KINDS {
            let samples = self.step_ns.entry(kind).or_default();
            report.set(name, percentile(samples, 50.0) / 1000.0);
        }
        report.set(
            "runtime.attempts_per_step",
            ratio(self.attempts as f64, self.steps as f64),
        );
        report.set(
            "temporal.monitor_hit_share",
            ratio(
                self.monitor_hits as f64,
                (self.monitor_hits + self.monitor_fallbacks) as f64,
            ),
        );
        report.set(
            "temporal.scan_fallbacks_per_event",
            ratio(self.monitor_fallbacks as f64, self.writes as f64),
        );
        report.set("valuation.recomputed", self.recomputed as f64);
    }
}

/// The `runtime.step_us.*` metrics and the request kinds they time.
const STEP_KINDS: [(&str, &str); 6] = [
    ("runtime.step_us.hire", "hire"),
    ("runtime.step_us.fire", "fire"),
    ("runtime.step_us.fire_refused", "fire_refused"),
    ("runtime.step_us.closure", "closure"),
    ("runtime.step_us.closure_refused", "closure_refused"),
    ("runtime.step_us.show", "show"),
];

/// Replays `log` with the phase profiler on and returns the world's
/// metrics, whose `step.phase.*.self_ns` histograms partition step time.
pub fn profile(model: &SharedModel, log: &WorldLog) -> Result<MetricsSnapshot, String> {
    let mut base = model.spawn().map_err(|e| e.to_string())?;
    base.set_profiling(true);
    for entry in &log.entries {
        expected(&mut base, &log.world, &entry.op);
    }
    Ok(base.metrics().snapshot())
}

/// Share of profiled step self-time spent in phase `label`.
pub fn phase_share(profiles: &[MetricsSnapshot], label: &str) -> f64 {
    let (mut part, mut whole) = (0u64, 0u64);
    for snap in profiles {
        for (name, h) in &snap.histograms {
            let Some(phase) = name
                .strip_prefix("step.phase.")
                .and_then(|n| n.strip_suffix(".self_ns"))
            else {
                continue;
            };
            whole += h.sum_ns;
            if phase == label {
                part += h.sum_ns;
            }
        }
    }
    ratio(part as f64, whole as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{world_id, ChurnGen};

    fn model() -> SharedModel {
        let parsed = troll_lang::parse(crate::SPEC).expect("spec parses");
        SharedModel::new(troll_lang::analyze(&parsed).expect("spec analyzes"))
    }

    /// A log answered by a sequential animation of the same lines.
    fn honest_log(seed: u64) -> WorldLog {
        let model = model();
        let mut base = model.spawn().expect("world");
        let world = world_id(0);
        let mut gen = ChurnGen::new(seed, 0);
        let mut ops = vec![Op::Open, gen.birth()];
        ops.extend((0..300).map(|_| gen.next_write()));
        ops.push(Op::Read(crate::gen::Attr::Employees));
        let mut log = WorldLog::new(world.clone());
        for op in ops {
            let resp = expected(&mut base, &world, &op);
            log.entries.push(Entry {
                op,
                resp: Some(resp),
            });
        }
        log
    }

    #[test]
    fn honest_answers_pass() {
        let log = honest_log(11);
        assert!(log
            .entries
            .iter()
            .any(|e| matches!(e.resp, Some(Response::Err(_)))));
        let mut v = Verdict::default();
        v.replay(&model(), &log, None).expect("replay");
        assert_eq!(v.failed(), 0, "{:?}", v.examples);
        assert!(v.monitor_hits > 0);
    }

    #[test]
    fn tampered_answer_is_caught() {
        let mut log = honest_log(11);
        let last = log.entries.len() - 1;
        if let Some(Response::Ok(text)) = &mut log.entries[last].resp {
            text.push(' ');
        }
        log.entries[5].resp = Some(Response::Err("refused".to_string()));
        log.entries[6].resp = None;
        let mut v = Verdict::default();
        v.replay(&model(), &log, None).expect("replay");
        assert_eq!(v.wrong, 2);
        assert_eq!(v.missing, 1);
    }
}
