//! Sharded parallel world execution with deterministic replay.
//!
//! The paper's object communities are explicitly concurrent: local event
//! streams are independent except where event calling (`>>`)
//! synchronizes them (§3.4, §4). [`WorldShards`] exploits that
//! structure. Instances are partitioned across `N` shards by a hash of
//! their [`ObjectId`]; each batch of externally addressed events is
//!
//! 1. **routed** into per-shard inboxes (batch order preserved),
//! 2. **speculated** in parallel — every shard worker prepares its
//!    events against the *frozen* pre-batch [`ObjectBase`] (the borrow
//!    checker enforces immutability: workers share `&ObjectBase`),
//!    recording each committed-state observation in a read set whose
//!    state roots are O(1) `StateMap` snapshots,
//! 3. **committed sequentially in batch order** — a speculation is
//!    applied verbatim if its read set is still valid (checked with the
//!    `ptr_eq` fast path against the set of instances dirtied by
//!    earlier commits in the same batch); otherwise it conflicts and is
//!    re-executed on the spot against the up-to-date base.
//!
//! Cross-shard event calling needs no extra machinery: speculation sees
//! the whole frozen world, so a step that calls into another shard's
//! instance simply records that instance in its read/write set and
//! conflicts (then retries sequentially) when an earlier commit touched
//! it. The commit order is the batch order, independent of shard count
//! and thread scheduling — sharded execution is observationally equal
//! to single-threaded execution, which the replay-equality tests assert
//! instance by instance.
//!
//! Observability: `shard.commits`, `shard.conflicts` and
//! `shard.inbox_depth` counters plus the `shard.commit_latency_ns` and
//! `shard.speculation_latency_ns` histograms live in the base's
//! [`Metrics`] registry, so `troll animate --stats` surfaces them
//! alongside the step counters. The latency histograms are kept
//! *disjoint* from `step.latency_ns` — a conflicted re-run's envelope
//! is recorded by the nested [`ObjectBase::execute`] and subtracted
//! from its commit sample, and speculation windows get their own
//! histogram — so the phase profiler's accounted-for footer
//! ([`troll_obs::phase_table`]) stays honest on sharded runs.

use crate::base::{ObjectBase, PreparedStep, ReadSet, ReadTracker, StepReport};
use crate::monitor_cache::MonitorCache;
use crate::Result;
use std::collections::BTreeSet;
use std::time::Instant;
use troll_data::{ObjectId, Value};
use troll_obs::{Counter, Histogram, ObsEvent, Phase};
use troll_process::EventKind;

/// One externally addressed event in a batch: the sharded counterpart
/// of the `(id, event, args)` triple taken by [`ObjectBase::execute`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEvent {
    /// Target instance (also selects the shard).
    pub id: ObjectId,
    /// Event name (context class is resolved like `execute` does).
    pub event: String,
    /// Actual arguments.
    pub args: Vec<Value>,
}

impl BatchEvent {
    /// Convenience constructor.
    pub fn new(id: ObjectId, event: impl Into<String>, args: Vec<Value>) -> Self {
        BatchEvent {
            id,
            event: event.into(),
            args,
        }
    }
}

/// A sharded parallel executor over an [`ObjectBase`]; see the module
/// docs for the speculation/commit protocol.
#[derive(Debug)]
pub struct WorldShards {
    base: ObjectBase,
    shards: usize,
    commits: Counter,
    conflicts: Counter,
    inbox_depth: Counter,
    commit_latency: Histogram,
    speculation_latency: Histogram,
}

/// What one shard worker produced for one batch event: the prepared
/// step (or its deterministic refusal) plus everything it read.
struct Speculation {
    outcome: Result<PreparedStep>,
    reads: ReadSet,
}

impl Speculation {
    /// Whether every observation the speculation made still holds after
    /// the commits so far. `dirty` is the set of instances written by
    /// earlier commits in this batch; `lifecycle` the classes whose
    /// population may have changed (`None` in the set meaning "could be
    /// any class" is modeled by [`LifecycleDirt::Global`]).
    fn valid(
        &self,
        base: &ObjectBase,
        dirty: &BTreeSet<ObjectId>,
        lifecycle: &LifecycleDirt,
    ) -> bool {
        if lifecycle.affects(&self.reads.populations) {
            return false;
        }
        if let Ok(prepared) = &self.outcome {
            // writes must serialize: any overlap with an earlier commit
            // invalidates the prepared trace append outright
            if prepared.write_ids().any(|id| dirty.contains(id)) {
                return false;
            }
        }
        for (id, mark) in &self.reads.targets {
            if !dirty.contains(id) {
                continue;
            }
            let unchanged = match (mark, base.instance(id)) {
                (Some(m), Some(inst)) => m.matches(inst),
                (None, None) => true,
                _ => false,
            };
            if !unchanged {
                return false;
            }
        }
        for (id, observed) in &self.reads.states {
            if !dirty.contains(id) {
                continue;
            }
            let unchanged = match (observed, base.instance(id)) {
                (Some(o), Some(inst)) => o.ptr_eq(&inst.state),
                (None, None) => true,
                _ => false,
            };
            if !unchanged {
                return false;
            }
        }
        true
    }
}

/// Which class populations earlier commits in the batch may have
/// changed (births/deaths, including role phases).
#[derive(Debug, Default)]
struct LifecycleDirt {
    /// A base-class death occurred: role memberships of unknown classes
    /// may have lapsed, so every population read is suspect.
    global: bool,
    classes: BTreeSet<String>,
}

impl LifecycleDirt {
    fn affects(&self, populations: &BTreeSet<String>) -> bool {
        if populations.is_empty() {
            return false;
        }
        self.global || populations.iter().any(|c| self.classes.contains(c))
    }
}

impl WorldShards {
    /// Creates a sharded executor over a fresh [`ObjectBase`] for the
    /// model.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ObjectBase::new`].
    pub fn new(model: troll_lang::SystemModel, shards: usize) -> Result<Self> {
        Ok(Self::from_base(ObjectBase::new(model)?, shards))
    }

    /// Wraps an existing base. `shards` is clamped to at least 1.
    pub fn from_base(base: ObjectBase, shards: usize) -> Self {
        let metrics = base.metrics();
        let commits = metrics.counter("shard.commits");
        let conflicts = metrics.counter("shard.conflicts");
        let inbox_depth = metrics.counter("shard.inbox_depth");
        let commit_latency = metrics.histogram("shard.commit_latency_ns");
        let speculation_latency = metrics.histogram("shard.speculation_latency_ns");
        WorldShards {
            base,
            shards: shards.max(1),
            commits,
            conflicts,
            inbox_depth,
            commit_latency,
            speculation_latency,
        }
    }

    /// Number of shards (and speculation worker threads per batch).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The underlying object base (for reads: attributes, views,
    /// populations, metrics…).
    pub fn base(&self) -> &ObjectBase {
        &self.base
    }

    /// Mutable access to the base for the sequential operations that
    /// interleave with batches (ticks, view calls, observer setup).
    pub fn base_mut(&mut self) -> &mut ObjectBase {
        &mut self.base
    }

    /// Unwraps back into the plain object base.
    pub fn into_base(self) -> ObjectBase {
        self.base
    }

    /// The shard an instance lives on: a deterministic FNV-1a hash of
    /// its identity, mod the shard count.
    pub fn shard_of(&self, id: &ObjectId) -> usize {
        (fnv1a(&id.to_string()) % self.shards as u64) as usize
    }

    /// Executes one event sequentially, outside any batch — identical
    /// to [`ObjectBase::execute`].
    ///
    /// # Errors
    ///
    /// See [`RuntimeError`]; the base is unchanged on `Err`.
    pub fn execute(&mut self, id: &ObjectId, event: &str, args: Vec<Value>) -> Result<StepReport> {
        self.base.execute(id, event, args)
    }

    /// Executes a batch of events: parallel speculation across the
    /// shards, then deterministic sequential commit in batch order (see
    /// the module docs). Returns one result per event, in batch order —
    /// exactly the results a single-threaded loop of
    /// [`ObjectBase::execute`] calls would produce.
    pub fn run_batch(&mut self, batch: Vec<BatchEvent>) -> Vec<Result<StepReport>> {
        let n = batch.len();
        if n == 0 {
            return Vec::new();
        }

        // Causal span ids: one per submitted event, stable across
        // speculation, conflict re-runs and commit. Commits happen in
        // batch order and each event consumes exactly one step attempt
        // (unless rejected before an attempt is allocated), so spans are
        // preassigned from the attempt counter at batch start; the
        // `SpanClosed` event links each span to the attempt it actually
        // resolved to.
        let span_base = self.base.step_attempts();

        // route into per-shard inboxes (batch indices, order preserved)
        let mut inboxes: Vec<Vec<usize>> = vec![Vec::new(); self.shards];
        for (i, ev) in batch.iter().enumerate() {
            let shard = self.shard_of(&ev.id);
            inboxes[shard].push(i);
            self.inbox_depth.inc();
            self.base.emit(|| ObsEvent::EventRouted {
                span: span_base + i as u64,
                shard,
                batch_index: i,
                initial: format!("{}.{}", ev.id, ev.event),
            });
        }

        // parallel speculation against the frozen pre-batch base
        let mut slots: Vec<Option<Speculation>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        {
            let base = &self.base;
            let batch = &batch;
            // Speculation work runs under the base's phase profiler on
            // the worker threads; this histogram records the matching
            // envelopes so the profiler footer can account for that
            // time (see `troll_obs::phase_table`'s denominator).
            let spec_latency = &self.speculation_latency;
            std::thread::scope(|scope| {
                let handles: Vec<_> = inboxes
                    .iter()
                    .enumerate()
                    .filter(|(_, inbox)| !inbox.is_empty())
                    .map(|(shard, inbox)| {
                        scope.spawn(move || {
                            inbox
                                .iter()
                                .map(|&i| {
                                    let span = span_base + i as u64;
                                    base.emit(|| ObsEvent::SpeculationStarted { span, shard });
                                    let start = Instant::now();
                                    let spec = speculate(base, &batch[i]);
                                    let nanos = start.elapsed().as_nanos() as u64;
                                    spec_latency.record_ns(nanos);
                                    base.emit(|| ObsEvent::SpeculationFinished {
                                        span,
                                        shard,
                                        ok: spec.outcome.is_ok(),
                                        nanos,
                                    });
                                    (i, spec)
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for handle in handles {
                    // a panicking worker (ruled out by the de-panicked
                    // engine, but cheap to tolerate) forfeits its
                    // speculations: those events re-execute sequentially
                    if let Ok(results) = handle.join() {
                        for (i, spec) in results {
                            slots[i] = Some(spec);
                        }
                    }
                }
            });
        }

        // deterministic sequential commit in batch order
        let mut dirty: BTreeSet<ObjectId> = BTreeSet::new();
        let mut lifecycle = LifecycleDirt::default();
        let mut results = Vec::with_capacity(n);
        for (i, ev) in batch.into_iter().enumerate() {
            let start = Instant::now();
            let span = span_base + i as u64;
            let speculation = slots[i].take();
            let attempts_before = self.base.step_attempts();
            // A conflicted re-run goes through `ObjectBase::execute`,
            // which records its own envelope in `step.latency_ns` — so
            // its duration must be subtracted from this commit's sample
            // or the profiler footer would count it in both histograms
            // and the accounted-for share would read artificially low.
            let mut rerun_ns = 0u64;
            // The envelope pseudo-phase brackets the commit window so
            // its glue (validation, lifecycle bookkeeping) is
            // attributed; the conflict path's nested execute opens its
            // own envelope, which subtracts as a child like any phase.
            let envelope = self.base.phase(Phase::Envelope);
            let result = match speculation {
                Some(spec) if spec.valid(&self.base, &dirty, &lifecycle) => match spec.outcome {
                    Ok(prepared) => {
                        self.commits.inc();
                        Ok(self.base.commit_speculated(prepared))
                    }
                    Err(error) => {
                        // a refusal/violation whose reads still hold is
                        // the deterministic outcome — no retry needed
                        self.commits.inc();
                        self.base.record_speculated_rollback(&error);
                        Err(error)
                    }
                },
                other => {
                    self.conflicts.inc();
                    self.base.emit(|| ObsEvent::SpeculationConflict {
                        span,
                        reason: if other.is_some() {
                            "read or lifecycle overlap with earlier commit in batch".to_string()
                        } else {
                            "speculation lost (worker did not report)".to_string()
                        },
                    });
                    let rerun_start = Instant::now();
                    let rerun = self.base.execute(&ev.id, &ev.event, ev.args);
                    rerun_ns = rerun_start.elapsed().as_nanos() as u64;
                    rerun
                }
            };
            // link the span to the attempt it consumed (none when the
            // event was rejected before an attempt was allocated, e.g.
            // an unknown event name)
            self.base.emit(|| ObsEvent::SpanClosed {
                span,
                step: (self.base.step_attempts() > attempts_before).then_some(attempts_before),
                outcome: match &result {
                    Ok(_) => "committed".to_string(),
                    Err(_) if self.base.step_attempts() > attempts_before => {
                        "rolled_back".to_string()
                    }
                    Err(_) => "rejected".to_string(),
                },
            });
            if let Ok(report) = &result {
                for occ in &report.occurrences {
                    dirty.insert(occ.id.clone());
                    match lifecycle_kind(self.base.model(), &occ.ctx_class, &occ.event) {
                        Some(EventKind::Birth) => {
                            lifecycle.classes.insert(occ.ctx_class.clone());
                        }
                        Some(EventKind::Death) => {
                            // a role death only empties that role class;
                            // a base death also lapses every role the
                            // object played, classes unknown here
                            let is_role = self
                                .base
                                .model()
                                .class(&occ.ctx_class)
                                .is_some_and(|c| c.view.is_some());
                            if is_role {
                                lifecycle.classes.insert(occ.ctx_class.clone());
                            } else {
                                lifecycle.global = true;
                            }
                        }
                        _ => {}
                    }
                }
            }
            drop(envelope);
            self.commit_latency
                .record_ns((start.elapsed().as_nanos() as u64).saturating_sub(rerun_ns));
            results.push(result);
        }
        results
    }
}

/// Prepares one batch event against the frozen base, tracking reads.
/// The scratch monitor cache is disabled, so every permission and
/// constraint check takes the scan path — which the monitor-cache
/// safety argument guarantees is semantically identical. The committed
/// (enabled) cache is fed only at commit time, in deterministic order.
fn speculate(base: &ObjectBase, ev: &BatchEvent) -> Speculation {
    // bracket the speculation window like a step envelope, so profiled
    // worker-thread time is attributed (its phases subtract as children)
    let _envelope = base.phase(Phase::Envelope);
    let tracker = ReadTracker::default();
    let mut scratch = MonitorCache::default();
    scratch.set_enabled(false);
    let outcome = base.prepare_event(
        &ev.id,
        &ev.event,
        ev.args.clone(),
        &mut scratch,
        Some(&tracker),
    );
    Speculation {
        outcome,
        reads: tracker.into_set(),
    }
}

/// The event's kind in its context class, if the model knows it.
fn lifecycle_kind(
    model: &troll_lang::SystemModel,
    ctx_class: &str,
    event: &str,
) -> Option<EventKind> {
    model
        .class(ctx_class)?
        .template
        .signature()
        .events()
        .kind_of(event)
}

fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeError;
    use troll_data::{Date, Money};

    /// The paper's §4 running example (same shape as the base tests),
    /// including a quantified permission (a sliced monitor at commit, a
    /// scan during speculation) and a global
    /// interaction that calls across instances — and therefore across
    /// shards.
    const COMPANY: &str = r#"
object class PERSON
  identification name: string;
  template
    attributes
      Salary: money;
    events
      birth create(money);
      become_manager;
      ChangeSalary(money);
      death die;
    valuation
      variables m: money;
      [create(m)] Salary = m;
      [ChangeSalary(m)] Salary = m;
end object class PERSON;

object class MANAGER
  view of PERSON;
  template
    attributes OfficialCar: string;
    events
      birth PERSON.become_manager;
      assign_official_car(string);
      death retire_from_management;
    valuation
      variables c: string;
      [become_manager] OfficialCar = "none";
      [assign_official_car(c)] OfficialCar = c;
    constraints
      static Salary >= 5000.00;
end object class MANAGER;

object class DEPT
  identification id: string;
  template
    attributes
      est_date: date;
      manager: |PERSON|;
      employees: set(|PERSON|);
      hired_ever: set(|PERSON|);
    events
      birth establishment(date);
      death closure;
      new_manager(|PERSON|);
      hire(|PERSON|);
      fire(|PERSON|);
    valuation
      variables P: |PERSON|; d: date;
      [establishment(d)] est_date = d;
      [establishment(d)] employees = {};
      [establishment(d)] hired_ever = {};
      [new_manager(P)] manager = P;
      [hire(P)] employees = insert(P, employees);
      [hire(P)] hired_ever = insert(P, hired_ever);
      [fire(P)] employees = remove(P, employees);
    permissions
      variables P: |PERSON|;
      { sometime(after(hire(P))) } fire(P);
      { for all(P in hired_ever : sometime(after(fire(P)))) } closure;
end object class DEPT;

global interactions
  variables P: |PERSON|; D: |DEPT|;
  DEPT(D).new_manager(P) >> PERSON(P).become_manager;
end global interactions;
"#;

    fn company() -> ObjectBase {
        let model =
            troll_lang::analyze(&troll_lang::parse(COMPANY).expect("parse")).expect("analyze");
        ObjectBase::new(model).unwrap()
    }

    fn person_id(name: &str) -> ObjectId {
        ObjectId::new("PERSON", vec![Value::from(name)])
    }

    fn dept_id(name: &str) -> ObjectId {
        ObjectId::new("DEPT", vec![Value::from(name)])
    }

    fn birth_person(name: &str, salary: i64) -> BatchEvent {
        BatchEvent::new(
            person_id(name),
            "create",
            vec![Value::Money(Money::from_major(salary))],
        )
    }

    fn birth_dept(name: &str) -> BatchEvent {
        BatchEvent::new(
            dept_id(name),
            "establishment",
            vec![Value::Date(Date::new(1991, 10, 16).unwrap())],
        )
    }

    fn ev(id: ObjectId, event: &str, args: Vec<Value>) -> BatchEvent {
        BatchEvent::new(id, event, args)
    }

    /// A workload mixing independent per-dept traffic with deliberate
    /// conflicts (repeated events on one dept, cross-shard calling via
    /// `new_manager >> become_manager`, a death racing a later event on
    /// the same instance) and deterministic refusals.
    fn workload() -> Vec<Vec<BatchEvent>> {
        let depts = ["Toys", "Shoes", "Books", "Tools"];
        let mut batches = Vec::new();
        let mut births: Vec<BatchEvent> = depts.iter().map(|d| birth_dept(d)).collect();
        for i in 0..8 {
            births.push(birth_person(&format!("p{i}"), 6000 + i));
        }
        batches.push(births);

        let mut traffic = Vec::new();
        for (d, dept) in depts.iter().enumerate() {
            for i in 0..2 {
                let p = Value::Id(person_id(&format!("p{}", 2 * d + i)));
                // two hires on the same dept in one batch: the second
                // must conflict (same write target) and retry
                traffic.push(ev(dept_id(dept), "hire", vec![p]));
            }
        }
        // cross-shard synchronous calling: DEPT event calls PERSON event
        traffic.push(ev(
            dept_id("Toys"),
            "new_manager",
            vec![Value::Id(person_id("p0"))],
        ));
        // deterministic refusal: fire someone never hired
        traffic.push(ev(
            dept_id("Shoes"),
            "fire",
            vec![Value::Id(person_id("p7"))],
        ));
        // quantified permission: refused while staff hired
        traffic.push(ev(dept_id("Books"), "closure", vec![]));
        batches.push(traffic);

        let finale = vec![
            // fire someone actually hired (permission scans history)
            ev(dept_id("Toys"), "fire", vec![Value::Id(person_id("p0"))]),
            // death racing a later event on the same instance in one batch
            ev(person_id("p5"), "die", vec![]),
            ev(
                person_id("p5"),
                "ChangeSalary",
                vec![Value::Money(Money::from_major(9000))],
            ),
            // double birth: second must be refused deterministically
            birth_dept("Toys"),
        ];
        batches.push(finale);
        batches
    }

    fn run_sequential(batches: &[Vec<BatchEvent>]) -> (ObjectBase, Vec<Vec<Result<StepReport>>>) {
        let mut ob = company();
        let results = batches
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .map(|e| ob.execute(&e.id, &e.event, e.args.clone()))
                    .collect()
            })
            .collect();
        (ob, results)
    }

    fn run_sharded(
        batches: &[Vec<BatchEvent>],
        shards: usize,
    ) -> (WorldShards, Vec<Vec<Result<StepReport>>>) {
        let mut ws = company().into_shards(shards);
        let results = batches
            .iter()
            .map(|batch| ws.run_batch(batch.clone()))
            .collect();
        (ws, results)
    }

    fn assert_worlds_equal(a: &ObjectBase, b: &ObjectBase) {
        let left: Vec<_> = a.instances().collect();
        let right: Vec<_> = b.instances().collect();
        assert_eq!(left.len(), right.len(), "instance count diverged");
        for (x, y) in left.iter().zip(&right) {
            assert_eq!(x, y, "instance {} diverged", y.id());
        }
    }

    /// The tentpole's acceptance test: for every shard count, the
    /// sharded trace is observationally equal to the single-threaded
    /// oracle — per-event `StepReport`s/errors and, per instance,
    /// attribute states, traces, life-cycle flags and role states.
    #[test]
    fn replay_equality_with_single_threaded_oracle() {
        let batches = workload();
        let (oracle, oracle_results) = run_sequential(&batches);
        for shards in [1, 2, 4, 8] {
            let (ws, results) = run_sharded(&batches, shards);
            assert_eq!(
                results, oracle_results,
                "results diverged at {shards} shards"
            );
            assert_worlds_equal(ws.base(), &oracle);
            assert_eq!(ws.base().steps_executed(), oracle.steps_executed());
        }
    }

    /// The workload's same-instance races must exercise the conflict
    /// retry path, and every event must land exactly once as either a
    /// speculative commit or a conflict retry.
    #[test]
    fn conflicts_are_detected_and_retried() {
        let batches = workload();
        let total: usize = batches.iter().map(Vec::len).sum();
        let (ws, _) = run_sharded(&batches, 4);
        let snapshot = ws.base().metrics().snapshot();
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let commits = counter("shard.commits");
        let conflicts = counter("shard.conflicts");
        assert!(conflicts > 0, "workload must force conflict retries");
        assert!(commits > 0, "independent traffic must commit speculatively");
        assert_eq!(commits + conflicts, total as u64);
        assert_eq!(counter("shard.inbox_depth"), total as u64);
    }

    /// Cross-shard event calling: `new_manager` on a DEPT synchronously
    /// calls `become_manager` on a PERSON in a different shard, and the
    /// MANAGER role materializes with its constraint checked.
    #[test]
    fn cross_shard_calling_activates_roles() {
        let mut ws = company().into_shards(8);
        let results = ws.run_batch(vec![birth_dept("Toys"), birth_person("ada", 9000)]);
        assert!(results.iter().all(|r| r.is_ok()));
        let report = ws
            .run_batch(vec![ev(
                dept_id("Toys"),
                "new_manager",
                vec![Value::Id(person_id("ada"))],
            )])
            .remove(0)
            .unwrap();
        assert!(report.occurred("become_manager"));
        let ada = ws.base().instance(&person_id("ada")).unwrap();
        assert!(ada.has_role("MANAGER"));
        assert_eq!(
            ada.role_attribute("MANAGER", "OfficialCar"),
            Some(&Value::from("none"))
        );
    }

    /// An empty batch is a no-op; a refusal validated as deterministic
    /// still counts as a rolled-back step, like the sequential engine.
    #[test]
    fn refusals_roll_back_like_sequential_steps() {
        let mut ws = company().into_shards(2);
        assert!(ws.run_batch(Vec::new()).is_empty());
        ws.run_batch(vec![birth_dept("Toys")]);
        let res = ws.run_batch(vec![ev(
            dept_id("Toys"),
            "fire",
            vec![Value::Id(person_id("ghost"))],
        )]);
        assert!(matches!(res[0], Err(RuntimeError::NotPermitted { .. })));
        let snapshot = ws.base().metrics().snapshot();
        assert_eq!(snapshot.counters.get("steps.rolled_back").copied(), Some(1));
    }

    /// Phase self-times must account for ≥ 90 % of the recorded latency
    /// envelopes on a profiled *sharded* run with conflicts — the
    /// regression this guards: conflicted re-runs used to land in both
    /// `step.latency_ns` and `shard.commit_latency_ns` while
    /// speculation phases had no envelope at all, reading ~64 % on the
    /// old accounting and ~180 % once re-runs were subtracted alone.
    #[test]
    fn sharded_profile_accounting_covers_the_envelopes() {
        let batches = workload();
        let mut ws = company().into_shards(4);
        ws.base_mut().set_profiling(true);
        for b in &batches {
            ws.run_batch(b.clone());
        }
        let snap = ws.base().metrics().snapshot();
        let mut denom = 0u64;
        for name in [
            "step.latency_ns",
            "shard.commit_latency_ns",
            "shard.speculation_latency_ns",
        ] {
            if let Some(h) = snap.histograms.get(name) {
                denom += h.sum_ns;
            }
        }
        let accounted: u64 = snap
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("step.phase."))
            .map(|(_, h)| h.sum_ns)
            .sum();
        let ratio = accounted as f64 / denom as f64;
        assert!(
            (0.90..=1.02).contains(&ratio),
            "sharded accounted share out of range: {accounted} / {denom} = {ratio:.3}"
        );
    }

    /// Shard assignment is deterministic and actually spreads load.
    #[test]
    fn sharding_distributes_instances() {
        let ws = company().into_shards(8);
        let mut used = BTreeSet::new();
        for i in 0..32 {
            let id = person_id(&format!("p{i}"));
            assert_eq!(ws.shard_of(&id), ws.shard_of(&id));
            used.insert(ws.shard_of(&id));
        }
        assert!(used.len() > 1, "32 ids must not all hash to one shard");
    }
}
