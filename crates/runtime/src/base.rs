//! The object base: instance store and event execution engine.

use crate::compiled::{CompiledCall, CompiledClass, CompiledModel};
use crate::env::{self, World};
use crate::instance::{Instance, RoleState};
use crate::monitor_cache::{
    recorded_state_vars, CheckKind, CheckRef, FallbackReason, MonitorCache, MonitorCacheStats,
    Verdict, MAX_ENTRIES_PER_INSTANCE,
};
use crate::persist::{InstanceDump, StepSink};
use crate::{Result, RuntimeError};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use troll_data::{ObjectId, StateMap, Value};
use troll_lang::{ClassModel, ConstraintKind, EventTarget, SystemModel};
use troll_obs::{
    CheckPath, Counter, Histogram, Metrics, NoopObserver, ObsEvent, Observer, Phase, PhaseGuard,
    StepProfiler,
};
use troll_process::EventKind;
use troll_temporal::{EventOccurrence, Step, Trace};
use troll_vm::Lowering;

/// Upper bound on the closure of one step's occurrence set — a backstop
/// against unbounded mutual event calling.
const MAX_OCCURRENCES: usize = 10_000;

/// One event occurrence scheduled within a step: instance, context class
/// (the creation class or a role class), event name and actual argument
/// values.
#[derive(Debug, Clone, PartialEq)]
pub struct Occurrence {
    /// The instance the event occurs on.
    pub id: ObjectId,
    /// Context class: the instance's class, or one of its role classes.
    pub ctx_class: String,
    /// Event name.
    pub event: String,
    /// Actual arguments.
    pub args: Vec<Value>,
}

impl std::fmt::Display for Occurrence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}].{}(", self.id, self.ctx_class, self.event)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// The committed result of one step: every event that occurred
/// (synchronously), in application order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepReport {
    /// Occurrences in application order.
    pub occurrences: Vec<Occurrence>,
}

impl StepReport {
    /// Whether an event with the given name occurred anywhere in the
    /// step.
    pub fn occurred(&self, event: &str) -> bool {
        self.occurrences.iter().any(|o| o.event == event)
    }
}

/// In-step working copy of one instance.
#[derive(Debug, Clone)]
struct Working {
    class: String,
    state: StateMap,
    roles: BTreeMap<String, RoleState>,
    alive: bool,
    born: bool,
    existed_before: bool,
    new_events: Vec<EventOccurrence>,
    new_role_events: BTreeMap<String, Vec<EventOccurrence>>,
}

/// A fully checked but uncommitted step: the output of
/// [`ObjectBase::prepare_step`], consumed by
/// [`ObjectBase::commit_prepared`]. The split is the rollback
/// boundary: a step that fails while being prepared has mutated
/// nothing.
#[derive(Debug)]
struct PreparedStep {
    /// The externally requested occurrences, before closure under event
    /// calling — what a durable log records (replay re-runs the engine).
    initial: Vec<Occurrence>,
    occurrences: Vec<Occurrence>,
    working: BTreeMap<ObjectId, Working>,
    alias_snapshots: BTreeMap<ObjectId, StateMap>,
}

/// Resolved handles into the object base's [`Metrics`] registry — one
/// relaxed atomic increment per signal on the hot path, no name lookup.
#[derive(Debug, Clone)]
pub(crate) struct RuntimeCounters {
    pub(crate) steps_committed: Counter,
    pub(crate) steps_rolled_back: Counter,
    pub(crate) events_occurred: Counter,
    pub(crate) permissions_granted: Counter,
    pub(crate) permissions_refused: Counter,
    pub(crate) permissions_monitored: Counter,
    pub(crate) permissions_scan: Counter,
    pub(crate) constraints_checked: Counter,
    pub(crate) constraints_violated: Counter,
    pub(crate) valuation_updates: Counter,
    pub(crate) valuation_delta_applied: Counter,
    pub(crate) valuation_recomputed: Counter,
    pub(crate) view_calls: Counter,
    pub(crate) view_derived_calls: Counter,
}

impl RuntimeCounters {
    fn new(metrics: &Metrics) -> Self {
        RuntimeCounters {
            steps_committed: metrics.counter("steps.committed"),
            steps_rolled_back: metrics.counter("steps.rolled_back"),
            events_occurred: metrics.counter("events.occurred"),
            permissions_granted: metrics.counter("permissions.granted"),
            permissions_refused: metrics.counter("permissions.refused"),
            permissions_monitored: metrics.counter("permissions.path.monitored"),
            permissions_scan: metrics.counter("permissions.path.scan"),
            constraints_checked: metrics.counter("constraints.checked"),
            constraints_violated: metrics.counter("constraints.violated"),
            valuation_updates: metrics.counter("valuation.updates"),
            valuation_delta_applied: metrics.counter("valuation.delta_applied"),
            valuation_recomputed: metrics.counter("valuation.recomputed"),
            view_calls: metrics.counter("views.calls"),
            view_derived_calls: metrics.counter("views.derived_calls"),
        }
    }
}

/// The object base: all instances of an analyzed specification, plus the
/// execution engine (see the crate docs for the semantics).
#[derive(Debug)]
pub struct ObjectBase {
    model: SystemModel,
    /// Every hot-path rule term, lowered at build time under the
    /// model's [`Lowering`].
    compiled: Arc<CompiledModel>,
    instances: BTreeMap<ObjectId, Instance>,
    steps_executed: usize,
    monitor_cache: MonitorCache,
    metrics: Metrics,
    counters: RuntimeCounters,
    step_latency: Histogram,
    observer: Arc<dyn Observer>,
    /// Cached `observer.enabled()` — instrumentation skips event
    /// construction entirely when false, so the default (noop) cost is
    /// one predicted branch per signal.
    observing: bool,
    /// Sequence number of step *attempts* (committed and rolled back).
    step_seq: u64,
    /// Durable-log hook: observes every committed step (see `persist`).
    step_sink: Option<Box<dyn StepSink>>,
    /// Phase-level self-time profiler over this base's metrics registry
    /// (`step.phase.*.self_ns` histograms).
    profiler: StepProfiler,
    /// Cached profiling switch — mirrors the `observing` discipline:
    /// when false, every phase site costs one predicted branch.
    profiling: bool,
}

/// A specification compiled once and shared by many worlds.
///
/// [`ObjectBase::new`] compiles the model's rules to bytecode as part
/// of construction; a server hosting a thousand independent worlds of
/// the same specification should pay that cost once. `SharedModel`
/// holds the analyzed model plus its compiled rules behind an `Arc`,
/// and [`SharedModel::spawn`] mints fresh, fully independent worlds
/// that share the immutable compiled ruleset.
///
/// The [`Lowering`] is fixed here, once per model: every world spawned
/// from it runs the same engine configuration.
#[derive(Debug, Clone)]
pub struct SharedModel {
    model: SystemModel,
    compiled: Arc<CompiledModel>,
}

impl SharedModel {
    /// Compiles the model once, for the shipped engine
    /// ([`Lowering::Delta`]).
    pub fn new(model: SystemModel) -> Self {
        SharedModel::with_lowering(model, Lowering::Delta)
    }

    /// Compiles the model once under `lowering`. The oracle lowerings
    /// ([`Lowering::Recompute`], [`Lowering::TreeWalk`]) give worlds
    /// whose answers must equal the shipped engine's — the differential
    /// baselines, built side by side in one process.
    pub fn with_lowering(model: SystemModel, lowering: Lowering) -> Self {
        let compiled = Arc::new(CompiledModel::new(&model, lowering));
        SharedModel { model, compiled }
    }

    /// The analyzed model.
    pub fn model(&self) -> &SystemModel {
        &self.model
    }

    /// A fresh world sharing the compiled rules.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ObjectBase::new`].
    pub fn spawn(&self) -> Result<ObjectBase> {
        ObjectBase::with_compiled(self.model.clone(), Arc::clone(&self.compiled))
    }
}

impl ObjectBase {
    /// Creates an object base for the model. Singleton `object`
    /// declarations get their instance registered immediately; a
    /// singleton whose class has **no birth events** is born on the spot
    /// (the paper's `TheCompany` needs no explicit creation, while
    /// `emp_rel` is born by `CreateEmpRel`).
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; returns `Result` for future
    /// model-level validation.
    pub fn new(model: SystemModel) -> Result<Self> {
        let compiled = Arc::new(CompiledModel::new(&model, Lowering::Delta));
        Self::with_compiled(model, compiled)
    }

    /// Like [`ObjectBase::new`] but sharing an already-compiled rule
    /// set (see [`SharedModel`]) — a process hosting a thousand worlds
    /// of the same specification compiles it once, not a thousand
    /// times.
    pub(crate) fn with_compiled(model: SystemModel, compiled: Arc<CompiledModel>) -> Result<Self> {
        let mut instances = BTreeMap::new();
        for (name, class) in &model.classes {
            if class.singleton {
                let id = ObjectId::new(name.clone(), vec![]);
                let mut inst = Instance::new(id.clone(), name.clone());
                let has_birth = class
                    .template
                    .signature()
                    .events()
                    .birth_events()
                    .next()
                    .is_some();
                if !has_birth {
                    inst.born = true;
                    inst.alive = true;
                    // attributes start as the undefined observation,
                    // exactly as a birth event would leave unvaluated ones
                    for attr in class.template.signature().attributes() {
                        if !attr.derived {
                            inst.state.insert(attr.name.clone(), Value::Undefined);
                        }
                    }
                    for (object, alias) in &class.inheriting {
                        if model.class(object).is_some_and(|c| c.singleton) {
                            inst.state.insert(
                                alias.clone(),
                                Value::Id(ObjectId::new(object.clone(), vec![])),
                            );
                        }
                    }
                    inst.trace
                        .push(Step::with_state(vec![], inst.state.clone()));
                }
                instances.insert(id, inst);
            }
        }
        let metrics = Metrics::new();
        let counters = RuntimeCounters::new(&metrics);
        let monitor_cache = MonitorCache::new(&metrics, compiled.lowering());
        let step_latency = metrics.histogram("step.latency_ns");
        let profiler = StepProfiler::new(&metrics);
        Ok(ObjectBase {
            model,
            compiled,
            instances,
            steps_executed: 0,
            monitor_cache,
            metrics,
            counters,
            step_latency,
            observer: Arc::new(NoopObserver),
            observing: false,
            step_seq: 0,
            step_sink: None,
            profiler,
            profiling: false,
        })
    }

    /// The object base's metrics registry: step/permission/constraint
    /// counters, monitor-cache counters (`monitor_cache.*`) and the
    /// step-latency histogram (`step.latency_ns`). Counters are
    /// cumulative over the base's lifetime; snapshot around a workload
    /// and diff to scope it.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Attaches an observer to the execution engine. The observer
    /// receives span enter/exit around every step plus the typed
    /// [`ObsEvent`] stream; see [`troll_obs`] for the built-in sinks.
    /// [`NoopObserver`] (the default) reports itself disabled, which
    /// turns every instrumentation point back into a single branch.
    pub fn set_observer(&mut self, observer: Arc<dyn Observer>) {
        self.observing = observer.enabled();
        self.observer = observer;
    }

    /// The currently attached observer (the [`NoopObserver`] default
    /// unless [`ObjectBase::set_observer`] was called).
    pub fn observer(&self) -> &Arc<dyn Observer> {
        &self.observer
    }

    /// Emits an event without constructing it unless an enabled
    /// observer is attached.
    #[inline]
    pub(crate) fn emit(&self, make: impl FnOnce() -> ObsEvent) {
        if self.observing {
            self.observer.on_event(&make());
        }
    }

    /// Enables or disables the phase-level step profiler (disabled by
    /// default). Enabled, every step records per-phase self-times into
    /// `step.phase.*.self_ns` histograms (see [`troll_obs::phase_table`]
    /// for the report); disabled, each phase site costs one predicted
    /// branch, like the observer instrumentation.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Whether phase-level profiling is enabled.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// Opens a profiling phase when profiling is enabled. The guard is
    /// an `Option` so the disabled path is a branch and a no-op drop.
    #[inline]
    pub(crate) fn phase(&self, phase: Phase) -> Option<PhaseGuard> {
        if self.profiling {
            Some(self.profiler.enter(phase))
        } else {
            None
        }
    }

    /// The compiled rules of a model class (see [`CompiledModel::class`]).
    pub(crate) fn compiled_class(&self, name: &str) -> &CompiledClass {
        self.compiled.class(name)
    }

    /// Resolved metric handles, shared with the view layer.
    pub(crate) fn counters(&self) -> &RuntimeCounters {
        &self.counters
    }

    /// The underlying model.
    pub fn model(&self) -> &SystemModel {
        &self.model
    }

    /// Enables or disables the incremental monitor cache (enabled by
    /// default). With the cache off, every permission and constraint
    /// check runs the reference history-scan evaluator — useful as a
    /// differential-testing oracle and for measuring the cache's win.
    /// Disabling drops all cached monitor state; re-enabling rebuilds
    /// it lazily from committed traces.
    pub fn set_monitor_cache_enabled(&mut self, enabled: bool) {
        self.monitor_cache.set_enabled(enabled);
    }

    /// Whether the incremental monitor cache is active.
    pub fn monitor_cache_enabled(&self) -> bool {
        self.monitor_cache.enabled()
    }

    /// Counters of the incremental monitor cache: hits (checks answered
    /// by a monitor), misses (entries created), fallbacks (checks
    /// answered by the scan evaluator) and invalidations.
    pub fn monitor_cache_stats(&self) -> MonitorCacheStats {
        self.monitor_cache.stats()
    }

    /// Number of committed steps.
    pub fn steps_executed(&self) -> usize {
        self.steps_executed
    }

    /// Sequence number of step *attempts* (committed **and** rolled
    /// back) — the observer's step numbering. Recovery restores the
    /// committed count exactly; refused attempts are not logged, so a
    /// recovered base's attempt numbering restarts from the snapshot.
    pub fn step_attempts(&self) -> u64 {
        self.step_seq
    }

    // ----- durability hooks (see `troll-store`) ---------------------

    /// Attaches a step sink: it is called once per committed step, in
    /// commit order. Replaces any previously attached sink.
    pub fn set_step_sink(&mut self, sink: Box<dyn StepSink>) {
        self.step_sink = Some(sink);
    }

    /// Detaches and returns the attached step sink, if any.
    pub fn take_step_sink(&mut self) -> Option<Box<dyn StepSink>> {
        self.step_sink.take()
    }

    /// Deep dump of every instance (alive or dead), in identity order —
    /// the world half of a snapshot. Cheap: state maps and traces share
    /// their persistent structure with the live world.
    pub fn dump_instances(&self) -> Vec<InstanceDump> {
        self.instances.values().map(InstanceDump::of).collect()
    }

    /// Rebuilds an object base from a snapshot: the model, a full
    /// instance dump and the step counters. The monitor cache starts
    /// cold and re-seeds itself from the restored traces on first use
    /// (a cache miss replays the committed history).
    ///
    /// # Errors
    ///
    /// Propagates [`ObjectBase::new`] errors.
    pub fn restore(
        model: SystemModel,
        instances: Vec<InstanceDump>,
        steps_executed: u64,
        step_attempts: u64,
    ) -> Result<Self> {
        let mut base = ObjectBase::new(model)?;
        base.instances = instances
            .into_iter()
            .map(|d| (d.id.clone(), d.into_instance()))
            .collect();
        base.steps_executed = steps_executed as usize;
        base.step_seq = step_attempts;
        Ok(base)
    }

    /// Re-executes one logged step from its initial occurrence(s) — the
    /// WAL replay entry point. Runs the full engine (closure under event
    /// calling, permissions, valuation, constraints), exactly like the
    /// original execution did.
    ///
    /// # Errors
    ///
    /// Fails if the step no longer executes — on a log produced by this
    /// engine that indicates corruption or a model mismatch.
    pub fn replay_step(&mut self, initial: Vec<Occurrence>) -> Result<StepReport> {
        self.execute_step(initial)
    }

    /// Looks up an instance.
    pub fn instance(&self, id: &ObjectId) -> Option<&Instance> {
        self.instances.get(id)
    }

    /// Iterates over every instance — alive or dead — in identity
    /// order. Useful for whole-world comparisons.
    pub fn instances(&self) -> impl Iterator<Item = &Instance> {
        self.instances.values()
    }

    /// The singleton instance id of a singleton object class.
    pub fn singleton(&self, class: &str) -> Option<ObjectId> {
        let c = self.model.class(class)?;
        if c.singleton {
            Some(ObjectId::new(class.to_string(), vec![]))
        } else {
            None
        }
    }

    /// Identities of the alive members of a class — the implicit class
    /// object's `members` attribute (§3). Includes objects whose active
    /// roles match the class (a MANAGER-class query returns the persons
    /// currently in the manager phase).
    pub fn population(&self, class: &str) -> Vec<ObjectId> {
        let mut out = Vec::new();
        for (id, inst) in &self.instances {
            if !inst.is_alive() {
                continue;
            }
            if inst.class() == class || inst.has_role(class) {
                out.push(id.clone());
            }
        }
        out
    }

    /// The implicit class object's `card` attribute.
    pub fn class_card(&self, class: &str) -> usize {
        self.population(class).len()
    }

    /// Reads an attribute, computing it if derived.
    ///
    /// # Errors
    ///
    /// Fails on unknown instances/attributes or failing derivations.
    pub fn attribute(&self, id: &ObjectId, name: &str) -> Result<Value> {
        let inst = self
            .instances
            .get(id)
            .ok_or_else(|| RuntimeError::UnknownInstance(id.to_string()))?;
        let class = self
            .model
            .class(inst.class())
            .ok_or_else(|| RuntimeError::UnknownClass(inst.class().to_string()))?;
        if let Some(v) = inst.stored_attribute(name) {
            return Ok(v.clone());
        }
        if class.derivation.iter().any(|d| d.attribute == name) {
            let tuple = env::instance_tuple(&Committed(self), id, 0)?;
            return tuple
                .field(name)
                .cloned()
                .ok_or_else(|| RuntimeError::UnknownAttribute {
                    class: inst.class().to_string(),
                    attribute: name.to_string(),
                });
        }
        Err(RuntimeError::UnknownAttribute {
            class: inst.class().to_string(),
            attribute: name.to_string(),
        })
    }

    /// Reads a **parameterized attribute** (the paper's
    /// `IncomeInYear(integer): money`): evaluates the family's
    /// derivation rule with the binders bound to `args`.
    ///
    /// # Errors
    ///
    /// Fails on unknown instances/attribute families, wrong argument
    /// counts, or failing derivations.
    pub fn attribute_with_args(
        &self,
        id: &ObjectId,
        name: &str,
        args: Vec<Value>,
    ) -> Result<Value> {
        let inst = self
            .instances
            .get(id)
            .ok_or_else(|| RuntimeError::UnknownInstance(id.to_string()))?;
        let class = self
            .model
            .class(inst.class())
            .ok_or_else(|| RuntimeError::UnknownClass(inst.class().to_string()))?;
        let (family_idx, family) = class
            .param_attributes
            .iter()
            .enumerate()
            .find(|(_, p)| p.name == name)
            .ok_or_else(|| RuntimeError::UnknownAttribute {
                class: inst.class().to_string(),
                attribute: name.to_string(),
            })?;
        if family.binders.len() != args.len() {
            return Err(RuntimeError::ArityMismatch {
                event: name.to_string(),
                expected: family.binders.len(),
                found: args.len(),
            });
        }
        let params: BTreeMap<String, Value> = family.binders.iter().cloned().zip(args).collect();
        let compiled = &self.compiled_class(inst.class()).param_attrs[family_idx];
        let world = Committed(self);
        let env = env::build_env(&world, id, class, &inst.state, &params, &compiled.needed)?;
        Ok(compiled.value.eval(&env)?)
    }

    /// Reads a role-local attribute of an active (or past) role.
    ///
    /// # Errors
    ///
    /// Fails if the instance or role attribute is unknown.
    pub fn role_attribute(&self, id: &ObjectId, role: &str, name: &str) -> Result<Value> {
        let inst = self
            .instances
            .get(id)
            .ok_or_else(|| RuntimeError::UnknownInstance(id.to_string()))?;
        inst.role_attribute(role, name)
            .cloned()
            .ok_or_else(|| RuntimeError::UnknownAttribute {
                class: role.to_string(),
                attribute: name.to_string(),
            })
    }

    /// Births a new instance of `class` identified by `key`, via the
    /// given birth event. Returns the new identity.
    ///
    /// # Errors
    ///
    /// Fails if the identity is taken, the event is not a birth event,
    /// a permission forbids it, or a constraint fails afterwards.
    pub fn birth(
        &mut self,
        class: &str,
        key: Vec<Value>,
        event: &str,
        args: Vec<Value>,
    ) -> Result<ObjectId> {
        let id = ObjectId::new(class.to_string(), key);
        self.execute(&id, event, args)?;
        Ok(id)
    }

    /// Executes an event on an instance (creating it if the event is a
    /// birth event of the identity's class), together with everything it
    /// calls, as one synchronous step. Rolls back entirely on any error.
    ///
    /// # Errors
    ///
    /// See [`RuntimeError`]; the object base is unchanged on `Err`.
    pub fn execute(&mut self, id: &ObjectId, event: &str, args: Vec<Value>) -> Result<StepReport> {
        let ctx_class = self.resolve_context(id, event)?;
        let initial = Occurrence {
            id: id.clone(),
            ctx_class,
            event: event.to_string(),
            args,
        };
        self.execute_step(vec![initial])
    }

    /// Checks the liveness obligations of an instance over its recorded
    /// trace — the §4 "liveness requirements (goals to be achieved by
    /// the object in an active way)". Future operators (`eventually`,
    /// `henceforth`) read the recorded remainder, so obligations are
    /// meaningfully *discharged* only on completed (dead) objects;
    /// auditing a live object reports the obligations' status so far.
    ///
    /// Returns `(formula, discharged)` pairs in declaration order.
    ///
    /// # Errors
    ///
    /// Fails on unknown instances or formula evaluation errors.
    pub fn check_obligations(&self, id: &ObjectId) -> Result<Vec<(String, bool)>> {
        let inst = self
            .instances
            .get(id)
            .ok_or_else(|| RuntimeError::UnknownInstance(id.to_string()))?;
        let class = self
            .model
            .class(inst.class())
            .ok_or_else(|| RuntimeError::UnknownClass(inst.class().to_string()))?;
        let mut out = Vec::with_capacity(class.obligations.len());
        for obligation in &class.obligations {
            let mut needed = BTreeSet::new();
            env::formula_needed_vars(obligation, &mut needed);
            let world = Committed(self);
            let env = env::build_env(&world, id, class, &inst.state, &BTreeMap::new(), &needed)?;
            // obligations are judged from the object's birth position
            let discharged = if inst.trace.is_empty() {
                false
            } else {
                troll_temporal::eval_at(obligation, &inst.trace, 0, &env)?
            };
            out.push((obligation.to_string(), discharged));
        }
        Ok(out)
    }

    /// Whether every obligation of the instance is discharged.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ObjectBase::check_obligations`].
    pub fn obligations_discharged(&self, id: &ObjectId) -> Result<bool> {
        Ok(self.check_obligations(id)?.iter().all(|(_, ok)| *ok))
    }

    /// Fires every permitted `active` event (arity 0) across all alive
    /// instances — one scheduling round for self-initiated behaviour
    /// such as system clocks. Returns the committed reports.
    ///
    /// # Errors
    ///
    /// Internal evaluation errors propagate; permission refusals and
    /// constraint violations simply skip that event.
    pub fn tick(&mut self) -> Result<Vec<StepReport>> {
        let mut candidates = Vec::new();
        for (id, inst) in &self.instances {
            if !inst.is_alive() {
                continue;
            }
            let class = match self.model.class(inst.class()) {
                Some(c) => c,
                None => continue,
            };
            for ev in class.template.signature().events().active_events() {
                if ev.arity == 0 {
                    candidates.push((id.clone(), ev.name.clone()));
                }
            }
        }
        let mut reports = Vec::new();
        for (id, event) in candidates {
            match self.execute(&id, &event, vec![]) {
                Ok(report) => reports.push(report),
                Err(RuntimeError::NotPermitted { .. })
                | Err(RuntimeError::ConstraintViolated { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(reports)
    }

    /// Resolves which class an event belongs to: the instance's creation
    /// class, or a role class of it.
    fn resolve_context(&self, id: &ObjectId, event: &str) -> Result<String> {
        let base_class_name = match self.instances.get(id) {
            Some(inst) => inst.class().to_string(),
            None => id.class().to_string(),
        };
        let class = self
            .model
            .class(&base_class_name)
            .ok_or_else(|| RuntimeError::UnknownClass(base_class_name.clone()))?;
        if class.template.signature().has_event(event) {
            return Ok(base_class_name);
        }
        // search role classes (views of this class)
        for (name, candidate) in &self.model.classes {
            if let Some((base, _)) = &candidate.view {
                if base == &base_class_name && candidate.template.signature().has_event(event) {
                    return Ok(name.clone());
                }
            }
        }
        Err(RuntimeError::UnknownEvent {
            class: base_class_name,
            event: event.to_string(),
        })
    }

    // ----- the step engine ------------------------------------------

    fn execute_step(&mut self, initial: Vec<Occurrence>) -> Result<StepReport> {
        let seq = self.step_seq;
        self.step_seq += 1;
        if self.observing {
            self.observer.span_enter("step");
            if let Some(first) = initial.first() {
                self.observer.on_event(&ObsEvent::StepStarted {
                    step: seq,
                    initial: first.to_string(),
                });
            }
        }
        let start = Instant::now();
        // The envelope phase wraps everything between the two latency
        // timer reads, so its self-time is exactly the step cost no
        // narrower phase claims.
        let envelope = self.phase(Phase::Envelope);
        // The cache is moved out for the duration of the step so the
        // `&self` phases below can update it; it is restored on every
        // path, including errors (whose transactions never feed it).
        let mut cache = std::mem::take(&mut self.monitor_cache);
        let result = self.execute_step_with(initial, &mut cache);
        self.monitor_cache = cache;
        drop(envelope);
        let nanos = start.elapsed().as_nanos() as u64;
        self.step_latency.record_ns(nanos);
        match &result {
            Ok(report) => {
                self.counters.steps_committed.inc();
                self.counters
                    .events_occurred
                    .add(report.occurrences.len() as u64);
                self.emit(|| ObsEvent::StepCommitted {
                    step: seq,
                    occurrences: report.occurrences.len(),
                    nanos,
                });
            }
            Err(e) => {
                self.counters.steps_rolled_back.inc();
                self.emit(|| ObsEvent::StepRolledBack {
                    step: seq,
                    reason: e.to_string(),
                    nanos,
                });
            }
        }
        if self.observing {
            self.observer.span_exit("step", nanos);
        }
        result
    }

    fn execute_step_with(
        &mut self,
        initial: Vec<Occurrence>,
        cache: &mut MonitorCache,
    ) -> Result<StepReport> {
        let prepared = self.prepare_step(initial, cache)?;
        Ok(self.commit_prepared(prepared, cache))
    }

    /// The read-only half of a step: closes the occurrence set under
    /// event calling, applies every occurrence to a working set
    /// (life-cycle, permissions, valuation) and checks constraints —
    /// everything short of mutating the instance store.
    fn prepare_step(
        &self,
        initial: Vec<Occurrence>,
        cache: &mut MonitorCache,
    ) -> Result<PreparedStep> {
        let occurrences = {
            let _closure = self.phase(Phase::Closure);
            self.close_over_calls(initial.clone())?
        };
        let mut working: BTreeMap<ObjectId, Working> = BTreeMap::new();

        for occ in &occurrences {
            self.apply_occurrence(occ, &mut working, cache)?;
        }

        // constraints on post-states
        {
            let _constraints = self.phase(Phase::Constraints);
            for (id, w) in &working {
                self.check_constraints(id, w, &working, cache)?;
            }
        }

        // trace snapshots record alias/component entries materialized as
        // instance tuples, so temporal formulas can observe e.g.
        // `clk.now` at historical positions (the observation the object
        // had at that time); only classes that *have* aliases need this
        // pre-pass (it reads the overlay immutably) — everything else
        // snapshots at commit time by sharing the working state's root
        let mut alias_snapshots: BTreeMap<ObjectId, StateMap> = BTreeMap::new();
        {
            let _prepass = self.phase(Phase::AliasPrepass);
            for (id, w) in &working {
                if let Some(class) = self.model.class(&w.class) {
                    if !class.inheriting.is_empty() || !class.components.is_empty() {
                        let overlay = Overlay {
                            base: self,
                            working: &working,
                        };
                        let snapshot = env::materialize_aliases(&overlay, class, &w.state)?;
                        alias_snapshots.insert(id.clone(), snapshot);
                    }
                }
            }
        }

        Ok(PreparedStep {
            initial,
            occurrences,
            working,
            alias_snapshots,
        })
    }

    /// The write half of a step: moves the prepared working states into
    /// the instance store and feeds the committed steps to the monitor
    /// cache. Infallible by construction — every check already passed
    /// during [`ObjectBase::prepare_step`].
    fn commit_prepared(&mut self, prepared: PreparedStep, cache: &mut MonitorCache) -> StepReport {
        let PreparedStep {
            initial,
            occurrences,
            working,
            mut alias_snapshots,
        } = prepared;
        // commit: the working state *moves* into the instance and every
        // snapshot is a shared root — no full-map copy on this path
        // (the loop holds a mutable borrow of `instances`, so the
        // observer and profiler handles are cloned out rather than
        // reached via &self)
        let observer = self.observing.then(|| self.observer.clone());
        let profiler = self.profiling.then(|| self.profiler.clone());
        let state_commit = profiler.as_ref().map(|p| p.enter(Phase::StateCommit));
        for (id, mut w) in working {
            let inst = self
                .instances
                .entry(id.clone())
                .or_insert_with(|| Instance::new(id.clone(), w.class.clone()));
            inst.alive = w.alive;
            inst.born = w.born;
            if !w.new_events.is_empty() || !w.existed_before {
                let snapshot = alias_snapshots
                    .remove(&id)
                    .unwrap_or_else(|| w.state.clone());
                let step = Step::with_state(std::mem::take(&mut w.new_events), snapshot);
                let fed = {
                    let _advance = profiler.as_ref().map(|p| p.enter(Phase::MonitorAdvance));
                    cache.on_commit(&id, &step)
                };
                if fed > 0 {
                    if let Some(obs) = &observer {
                        obs.on_event(&ObsEvent::MonitorFed {
                            instance: id.to_string(),
                            monitors: fed,
                        });
                    }
                }
                inst.trace.push(step);
            }
            inst.state = w.state;
            for (role, role_state) in w.roles {
                let mut rs = role_state;
                if let Some(events) = w.new_role_events.remove(&role) {
                    if !events.is_empty() {
                        rs.trace.push(Step::with_state(events, rs.attrs.clone()));
                    }
                }
                inst.roles.insert(role, rs);
            }
            if !w.alive {
                let _advance = profiler.as_ref().map(|p| p.enter(Phase::MonitorAdvance));
                cache.on_death(&id);
            }
        }
        drop(state_commit);
        self.steps_executed += 1;
        // Durable sink: called after the step is fully applied, with the
        // post-step base. Taken out of `self` for the call so the sink
        // can read the base it is borrowing from.
        if let Some(mut sink) = self.step_sink.take() {
            let _sink_phase = profiler.as_ref().map(|p| p.enter(Phase::Sink));
            sink.on_step_committed(self, &initial);
            self.step_sink = Some(sink);
        }
        StepReport { occurrences }
    }

    /// Closes the initial occurrences under local interactions, global
    /// interactions and phase/role event aliases (synchronous event
    /// calling, §4). Argument terms of called events are evaluated in
    /// the **pre-state** of the calling object.
    fn close_over_calls(&self, initial: Vec<Occurrence>) -> Result<Vec<Occurrence>> {
        let mut result: Vec<Occurrence> = Vec::new();
        let mut queue: VecDeque<Occurrence> = initial.into();
        while let Some(occ) = queue.pop_front() {
            if result.contains(&occ) {
                continue; // already scheduled (diamond calling patterns)
            }
            if result.len() >= MAX_OCCURRENCES {
                return Err(RuntimeError::CallingCycle(format!(
                    "more than {MAX_OCCURRENCES} occurrences in one step"
                )));
            }
            result.push(occ.clone());
            self.emit(|| ObsEvent::EventCalled {
                instance: occ.id.to_string(),
                ctx_class: occ.ctx_class.clone(),
                event: occ.event.clone(),
            });

            let class = self
                .model
                .class(&occ.ctx_class)
                .ok_or_else(|| RuntimeError::UnknownClass(occ.ctx_class.clone()))?;

            let cc = self.compiled_class(&occ.ctx_class);

            // local interaction rules
            for (rule_idx, rule) in class.interactions.iter().enumerate() {
                if rule.trigger_event != occ.event {
                    continue;
                }
                let params = bind_params(&rule.trigger_params, &occ.args, &occ.event)?;
                for (call_idx, call) in rule.calls.iter().enumerate() {
                    let compiled = &cc.interactions[rule_idx][call_idx];
                    let callee = self.resolve_call(&occ, class, call, &params, compiled)?;
                    queue.push_back(callee);
                }
            }

            // global interaction rules
            for (rule_idx, rule) in self.model.global_interactions.iter().enumerate() {
                let (trigger_class, trigger_id_term) = match &rule.trigger_target {
                    EventTarget::Instance { class, id } => (class, id),
                    _ => continue,
                };
                if trigger_class != &occ.ctx_class || rule.trigger_event != occ.event {
                    continue;
                }
                let mut params = bind_params(&rule.trigger_params, &occ.args, &occ.event)?;
                // bind the trigger instance variable (e.g. D in DEPT(D))
                if let troll_data::Term::Var(v) = trigger_id_term {
                    params.insert(v.clone(), Value::Id(occ.id.clone()));
                }
                for (call_idx, call) in rule.calls.iter().enumerate() {
                    let compiled = &self.compiled.globals[rule_idx][call_idx];
                    let callee = self.resolve_call(&occ, class, call, &params, compiled)?;
                    queue.push_back(callee);
                }
            }

            // phase/role event aliases: a base event that is the aliased
            // birth (or other alias) of a view class triggers the role
            // event on the same identity
            for (view_name, view_class) in &self.model.classes {
                let Some((base, _kind)) = &view_class.view else {
                    continue;
                };
                if base != &occ.ctx_class {
                    continue;
                }
                for (local_ev, alias_base, base_ev) in &view_class.event_aliases {
                    if alias_base == base && base_ev == &occ.event {
                        queue.push_back(Occurrence {
                            id: occ.id.clone(),
                            ctx_class: view_name.clone(),
                            event: local_ev.clone(),
                            args: occ.args.clone(),
                        });
                    }
                }
            }
        }
        Ok(result)
    }

    /// Resolves one called event to a concrete occurrence, evaluating
    /// its argument terms in the caller's pre-state environment.
    fn resolve_call(
        &self,
        caller: &Occurrence,
        caller_class: &ClassModel,
        call: &troll_lang::LoweredCall,
        params: &BTreeMap<String, Value>,
        compiled: &CompiledCall,
    ) -> Result<Occurrence> {
        let world = Committed(self);
        // a birth occurrence's calls see the newborn's initial state:
        // identification attributes from the identity key, everything
        // else undefined, incorporation aliases bound to singletons
        let state = world
            .state_of(&caller.id)
            .unwrap_or_else(|| self.initial_state(caller_class, &caller.id));
        let env = env::build_env(
            &world,
            &caller.id,
            caller_class,
            &state,
            params,
            &compiled.needed,
        )?;

        let mut args = Vec::with_capacity(compiled.args.len());
        for t in &compiled.args {
            args.push(t.eval(&env)?);
        }

        let (target_id, target_class) = match &call.target {
            EventTarget::Local => (caller.id.clone(), caller.ctx_class.clone()),
            EventTarget::Component(alias) => {
                // an incorporated object or single component
                let target_class = caller_class
                    .inheriting
                    .iter()
                    .find(|(_, a)| a == alias)
                    .map(|(c, _)| c.clone())
                    .or_else(|| {
                        caller_class
                            .components
                            .iter()
                            .find(|c| &c.name == alias)
                            .map(|c| c.class.clone())
                    })
                    .ok_or_else(|| RuntimeError::ViewError(format!("unknown alias `{alias}`")))?;
                let target =
                    env::resolve_alias(&world, &state, alias, &target_class).ok_or_else(|| {
                        RuntimeError::UnknownInstance(format!("alias `{alias}` unresolved"))
                    })?;
                (target, target_class)
            }
            EventTarget::Instance { class, .. } => {
                let id_val = compiled
                    .target_id
                    .as_ref()
                    .expect("instance calls compile their designator")
                    .eval(&env)?;
                let target = match id_val {
                    Value::Id(oid) => {
                        if oid.class() == class {
                            oid
                        } else {
                            // the identity may be tagged with a view or
                            // sibling class; re-address by key
                            oid.retag(class.clone())
                        }
                    }
                    other => {
                        return Err(RuntimeError::ViewError(format!(
                            "instance designator evaluated to non-identity {other}"
                        )))
                    }
                };
                (target, class.clone())
            }
        };

        Ok(Occurrence {
            id: target_id,
            ctx_class: target_class,
            event: call.event.clone(),
            args,
        })
    }

    /// The state a newborn instance starts with, before its birth
    /// valuation rules run.
    fn initial_state(&self, class: &ClassModel, id: &ObjectId) -> StateMap {
        let mut state = StateMap::new();
        for attr in class.template.signature().attributes() {
            if !attr.derived {
                state.insert(attr.name.clone(), Value::Undefined);
            }
        }
        for ((name, _sort), value) in class.identification.iter().zip(id.key()) {
            state.insert(name.clone(), value.clone());
        }
        for (object, alias) in &class.inheriting {
            if let Some(target) = self.singleton(object) {
                state.insert(alias.clone(), Value::Id(target));
            }
        }
        state
    }

    /// Applies one occurrence to the working set: life-cycle checks,
    /// permission checks against the history, valuation.
    fn apply_occurrence(
        &self,
        occ: &Occurrence,
        working: &mut BTreeMap<ObjectId, Working>,
        cache: &mut MonitorCache,
    ) -> Result<()> {
        let class = self
            .model
            .class(&occ.ctx_class)
            .ok_or_else(|| RuntimeError::UnknownClass(occ.ctx_class.clone()))?;
        let ev = class
            .template
            .signature()
            .event(&occ.event)
            .ok_or_else(|| RuntimeError::UnknownEvent {
                class: occ.ctx_class.clone(),
                event: occ.event.clone(),
            })?
            .clone();
        if ev.arity != occ.args.len() {
            return Err(RuntimeError::ArityMismatch {
                event: occ.event.clone(),
                expected: ev.arity,
                found: occ.args.len(),
            });
        }

        let is_role_ctx = class.view.is_some() && {
            // role context when the instance's own class differs
            let base_class = self
                .instances
                .get(&occ.id)
                .map(|i| i.class().to_string())
                .unwrap_or_else(|| occ.id.class().to_string());
            base_class != occ.ctx_class
        };

        // materialize the working entry
        if !working.contains_key(&occ.id) {
            let w = match self.instances.get(&occ.id) {
                Some(inst) => Working {
                    class: inst.class().to_string(),
                    state: inst.state.clone(),
                    roles: inst.roles.clone(),
                    alive: inst.alive,
                    born: inst.born,
                    existed_before: true,
                    new_events: Vec::new(),
                    new_role_events: BTreeMap::new(),
                },
                None => Working {
                    class: occ.ctx_class.clone(),
                    state: StateMap::new(),
                    roles: BTreeMap::new(),
                    alive: false,
                    born: false,
                    existed_before: false,
                    new_events: Vec::new(),
                    new_role_events: BTreeMap::new(),
                },
            };
            working.insert(occ.id.clone(), w);
        }

        // ----- life-cycle -----
        {
            let w = working_entry_mut(working, &occ.id)?;
            if is_role_ctx {
                match ev.kind {
                    EventKind::Birth => {
                        let role = w.roles.entry(occ.ctx_class.clone()).or_default();
                        role.active = true;
                    }
                    EventKind::Death => {
                        let role = w.roles.entry(occ.ctx_class.clone()).or_default();
                        if !role.active {
                            return Err(RuntimeError::RoleNotActive {
                                instance: occ.id.to_string(),
                                role: occ.ctx_class.clone(),
                            });
                        }
                    }
                    _ => {
                        if !w.roles.get(&occ.ctx_class).is_some_and(|r| r.active) {
                            return Err(RuntimeError::RoleNotActive {
                                instance: occ.id.to_string(),
                                role: occ.ctx_class.clone(),
                            });
                        }
                    }
                }
                if !w.alive {
                    return Err(RuntimeError::NotAlive(occ.id.to_string()));
                }
            } else {
                match ev.kind {
                    EventKind::Birth => {
                        if w.born {
                            return Err(RuntimeError::AlreadyBorn(occ.id.to_string()));
                        }
                        if occ.id.class() != occ.ctx_class {
                            return Err(RuntimeError::IdentityClassMismatch {
                                identity_class: occ.id.class().to_string(),
                                expected: occ.ctx_class.clone(),
                            });
                        }
                        w.born = true;
                        w.alive = true;
                        w.class = occ.ctx_class.clone();
                        w.state = self.initial_state(class, &occ.id);
                    }
                    _ => {
                        if !w.alive {
                            return Err(RuntimeError::NotAlive(occ.id.to_string()));
                        }
                    }
                }
            }
        }

        // ----- permissions -----
        // Evaluated on the object's recorded history extended with a
        // virtual step holding the threaded in-step state, so that state
        // predicates see the transaction-threaded present.
        if class.permissions_for(&occ.event).next().is_some() {
            let _permissions = self.phase(Phase::Permissions);
            let w = working_entry(working, &occ.id)?;
            let empty_trace = Trace::new();
            // shared handles: the non-role clone is an O(1) root bump,
            // the role merge pays only O(|role attrs|·log n)
            let (trace, current_state): (&Trace, StateMap) = if is_role_ctx {
                let role = w.roles.get(&occ.ctx_class);
                let merged = match role {
                    Some(r) => w.state.union(&r.attrs),
                    None => w.state.clone(),
                };
                (role.map(|r| &r.trace).unwrap_or(&empty_trace), merged)
            } else {
                (
                    self.instances
                        .get(&occ.id)
                        .map(|i| &i.trace)
                        .unwrap_or(&empty_trace),
                    w.state.clone(),
                )
            };
            let cc = self.compiled_class(&occ.ctx_class);
            for (perm_index, perm) in class.permissions_for(&occ.event).enumerate() {
                let params = bind_params(&perm.params, &occ.args, &occ.event)?;
                let compiled_perm = cc.permission(&occ.event, perm_index);
                let overlay = Overlay {
                    base: self,
                    working,
                };
                let env_guard = self.phase(Phase::Env);
                let env = env::build_env(
                    &overlay,
                    &occ.id,
                    class,
                    &current_state,
                    &params,
                    &compiled_perm.needed,
                )?;
                let virtual_step = Step::with_state(
                    if is_role_ctx {
                        w.new_role_events
                            .get(&occ.ctx_class)
                            .cloned()
                            .unwrap_or_default()
                    } else {
                        w.new_events.clone()
                    },
                    env::materialize_aliases(&overlay, class, &current_state)?,
                );
                drop(env_guard);
                // Role histories stay on the scan path; base histories
                // go through the monitor cache, falling back to the
                // scan for anything it cannot monitor. Scans dispatch
                // through the compiled formula.
                let scan_check = |env: &env::RuleEnv| -> Result<bool> {
                    Ok(compiled_perm
                        .scan
                        .eval_now_appended(trace, &virtual_step, env)?)
                };
                let (holds, path) = if is_role_ctx {
                    (scan_check(&env)?, CheckPath::Scan)
                } else {
                    let key = CheckRef {
                        kind: CheckKind::Permission,
                        ctx_class: &occ.ctx_class,
                        event: &occ.event,
                        index: perm_index,
                        formula: &perm.formula,
                        args: &params,
                    };
                    match cache.check(&occ.id, key, trace, &virtual_step, &env, || {
                        recorded_state_vars(class)
                    }) {
                        Verdict::Holds(b) => (b, CheckPath::Monitored),
                        Verdict::Fallback(reason) => {
                            note_scan_fallback(self, reason, "permission", &perm.formula);
                            (scan_check(&env)?, CheckPath::Scan)
                        }
                    }
                };
                match path {
                    CheckPath::Monitored => self.counters.permissions_monitored.inc(),
                    CheckPath::Scan => self.counters.permissions_scan.inc(),
                }
                if holds {
                    self.counters.permissions_granted.inc();
                } else {
                    self.counters.permissions_refused.inc();
                }
                self.emit(|| ObsEvent::PermissionChecked {
                    instance: occ.id.to_string(),
                    event: occ.event.clone(),
                    path,
                    granted: holds,
                });
                if !holds {
                    return Err(RuntimeError::NotPermitted {
                        instance: occ.id.to_string(),
                        event: occ.event.clone(),
                        formula: perm.formula.to_string(),
                    });
                }
            }
        }

        // ----- valuation -----
        // All rules for this event are computed against the same
        // pre-state (simultaneous within the occurrence), then applied.
        {
            let _valuation = self.phase(Phase::Valuation);
            let w = working_entry(working, &occ.id)?;
            let pre_state = if is_role_ctx {
                match w.roles.get(&occ.ctx_class) {
                    Some(r) => w.state.union(&r.attrs),
                    None => w.state.clone(),
                }
            } else {
                w.state.clone()
            };
            let mut updates: Vec<(Arc<str>, Value)> = Vec::new();
            // Delta accounting: rules whose value applied incrementally
            // through delta ops vs delta-shaped rules that recomputed
            // in full (the oracle lowerings).
            let mut delta_applied = 0usize;
            let mut recomputed = 0usize;
            let cc = self.compiled_class(&occ.ctx_class);
            for (rule_index, rule) in class.valuation_for(&occ.event).enumerate() {
                let params = bind_params(&rule.params, &occ.args, &occ.event)?;
                let compiled = cc.valuation(&occ.event, rule_index);
                let overlay = Overlay {
                    base: self,
                    working,
                };
                let env = {
                    let _env = self.phase(Phase::Env);
                    env::build_env(
                        &overlay,
                        &occ.id,
                        class,
                        &pre_state,
                        &params,
                        &compiled.needed,
                    )?
                };
                if let Some(g) = &compiled.guard {
                    match g.eval(&env)?.as_bool() {
                        Some(true) => {}
                        Some(false) => continue,
                        None => {
                            return Err(RuntimeError::ViewError(format!(
                                "valuation guard `{g}` is not boolean"
                            )))
                        }
                    }
                }
                if compiled.value.delta_lowered() {
                    delta_applied += 1;
                } else if compiled.value.delta_shaped() {
                    recomputed += 1;
                }
                let value = compiled.value.eval(&env)?;
                updates.push((Arc::clone(&compiled.attribute), value));
            }
            if !updates.is_empty() {
                self.counters.valuation_updates.add(updates.len() as u64);
                self.emit(|| ObsEvent::ValuationApplied {
                    instance: occ.id.to_string(),
                    event: occ.event.clone(),
                    updates: updates.len(),
                });
            }
            if delta_applied > 0 || recomputed > 0 {
                self.counters
                    .valuation_delta_applied
                    .add(delta_applied as u64);
                self.counters.valuation_recomputed.add(recomputed as u64);
                self.emit(|| ObsEvent::ValuationDelta {
                    instance: occ.id.to_string(),
                    event: occ.event.clone(),
                    delta: delta_applied,
                    recomputed,
                });
            }
            let w = working_entry_mut(working, &occ.id)?;
            let target_state = if is_role_ctx {
                &mut role_entry_mut(&mut w.roles, &occ.ctx_class, &occ.id)?.attrs
            } else {
                &mut w.state
            };
            for (attr, value) in updates {
                target_state.insert(attr, value);
            }
        }

        // ----- record & death -----
        {
            let w = working_entry_mut(working, &occ.id)?;
            let record = EventOccurrence::new(occ.event.clone(), occ.args.clone());
            if is_role_ctx {
                w.new_role_events
                    .entry(occ.ctx_class.clone())
                    .or_default()
                    .push(record);
                if ev.kind == EventKind::Death {
                    role_entry_mut(&mut w.roles, &occ.ctx_class, &occ.id)?.active = false;
                }
            } else {
                w.new_events.push(record);
                if ev.kind == EventKind::Death {
                    w.alive = false;
                }
            }
        }
        Ok(())
    }

    /// Checks all constraints of an instance (and its active roles)
    /// against the post-state of the step.
    fn check_constraints(
        &self,
        id: &ObjectId,
        w: &Working,
        working: &BTreeMap<ObjectId, Working>,
        cache: &mut MonitorCache,
    ) -> Result<()> {
        let overlay = Overlay {
            base: self,
            working,
        };
        let base_class = match self.model.class(&w.class) {
            Some(c) => c,
            None => return Ok(()),
        };
        let birth_in_step = w.new_events.iter().any(|e| {
            base_class.template.signature().events().kind_of(&e.name) == Some(EventKind::Birth)
        });

        let check = |class: &ClassModel,
                     state: &StateMap,
                     trace: &Trace,
                     events: &[EventOccurrence]|
         -> Result<()> {
            let cc = self.compiled_class(&class.name);
            for (index, c) in class.constraints.iter().enumerate() {
                let applies = match c.kind {
                    ConstraintKind::Static | ConstraintKind::Dynamic => true,
                    ConstraintKind::Initially => birth_in_step,
                };
                if !applies {
                    continue;
                }
                let compiled_con = &cc.constraints[index];
                let env_guard = self.phase(Phase::Env);
                let env = env::build_env(
                    &overlay,
                    id,
                    class,
                    state,
                    &BTreeMap::new(),
                    &compiled_con.needed,
                )?;
                let virtual_step = Step::with_state(
                    events.to_vec(),
                    env::materialize_aliases(&overlay, class, state)?,
                );
                drop(env_guard);
                let holds = compiled_con
                    .scan
                    .eval_now_appended(trace, &virtual_step, &env)?;
                self.counters.constraints_checked.inc();
                self.emit(|| ObsEvent::ConstraintChecked {
                    instance: id.to_string(),
                    path: CheckPath::Scan,
                    satisfied: holds,
                });
                if !holds {
                    self.counters.constraints_violated.inc();
                    return Err(RuntimeError::ConstraintViolated {
                        instance: id.to_string(),
                        formula: c.formula.to_string(),
                    });
                }
            }
            Ok(())
        };

        if !base_class.constraints.is_empty() {
            let empty_trace = Trace::new();
            let base_trace = self
                .instances
                .get(id)
                .map(|i| &i.trace)
                .unwrap_or(&empty_trace);
            // Same as the `check` closure, but recurring constraints on
            // the base history are answered by the monitor cache when
            // they lie in the monitorable fragment.
            let cc = self.compiled_class(&w.class);
            for (index, c) in base_class.constraints.iter().enumerate() {
                let applies = match c.kind {
                    ConstraintKind::Static | ConstraintKind::Dynamic => true,
                    ConstraintKind::Initially => birth_in_step,
                };
                if !applies {
                    continue;
                }
                let compiled_con = &cc.constraints[index];
                let env_guard = self.phase(Phase::Env);
                let env = env::build_env(
                    &overlay,
                    id,
                    base_class,
                    &w.state,
                    &BTreeMap::new(),
                    &compiled_con.needed,
                )?;
                let virtual_step = Step::with_state(
                    w.new_events.clone(),
                    env::materialize_aliases(&overlay, base_class, &w.state)?,
                );
                drop(env_guard);
                let scan_check = |env: &env::RuleEnv| -> Result<bool> {
                    Ok(compiled_con
                        .scan
                        .eval_now_appended(base_trace, &virtual_step, env)?)
                };
                // `initially` fires once per life — not worth an entry.
                let (holds, path) = if c.kind == ConstraintKind::Initially {
                    (scan_check(&env)?, CheckPath::Scan)
                } else {
                    let no_args = BTreeMap::new();
                    let key = CheckRef {
                        kind: CheckKind::Constraint,
                        ctx_class: &w.class,
                        event: "",
                        index,
                        formula: &c.formula,
                        args: &no_args,
                    };
                    match cache.check(id, key, base_trace, &virtual_step, &env, || {
                        recorded_state_vars(base_class)
                    }) {
                        Verdict::Holds(b) => (b, CheckPath::Monitored),
                        Verdict::Fallback(reason) => {
                            note_scan_fallback(self, reason, "constraint", &c.formula);
                            (scan_check(&env)?, CheckPath::Scan)
                        }
                    }
                };
                self.counters.constraints_checked.inc();
                self.emit(|| ObsEvent::ConstraintChecked {
                    instance: id.to_string(),
                    path,
                    satisfied: holds,
                });
                if !holds {
                    self.counters.constraints_violated.inc();
                    return Err(RuntimeError::ConstraintViolated {
                        instance: id.to_string(),
                        formula: c.formula.to_string(),
                    });
                }
            }
        }

        for (role_name, role_state) in &w.roles {
            if !role_state.active {
                continue;
            }
            let Some(role_class) = self.model.class(role_name) else {
                continue;
            };
            if role_class.constraints.is_empty() {
                continue;
            }
            let merged = w.state.union(&role_state.attrs);
            let empty = Vec::new();
            let events = w.new_role_events.get(role_name).unwrap_or(&empty);
            check(role_class, &merged, &role_state.trace, events)?;
        }
        Ok(())
    }
}

/// The working-map entry for `id`, which `apply_occurrence`
/// materializes before use. A calling chain that leaves the map without
/// the expected entry (e.g. a callee dying mid-step) must surface as a
/// rolled-back [`RuntimeError::Internal`], never a panic — served steps
/// run under the world's lock, which a panic would poison.
fn working_entry<'a>(
    working: &'a BTreeMap<ObjectId, Working>,
    id: &ObjectId,
) -> Result<&'a Working> {
    working
        .get(id)
        .ok_or_else(|| RuntimeError::Internal(format!("working entry for {id} vanished mid-step")))
}

fn working_entry_mut<'a>(
    working: &'a mut BTreeMap<ObjectId, Working>,
    id: &ObjectId,
) -> Result<&'a mut Working> {
    working
        .get_mut(id)
        .ok_or_else(|| RuntimeError::Internal(format!("working entry for {id} vanished mid-step")))
}

/// The role-state entry the life-cycle phase activated or checked; same
/// de-panicked contract as [`working_entry`].
fn role_entry_mut<'a>(
    roles: &'a mut BTreeMap<String, RoleState>,
    role: &str,
    id: &ObjectId,
) -> Result<&'a mut RoleState> {
    roles.get_mut(role).ok_or_else(|| {
        RuntimeError::Internal(format!("role `{role}` state for {id} vanished mid-step"))
    })
}

/// Process-wide count of permission/constraint checks that fell back
/// from the incremental monitor to the O(history) scan — surfaced as
/// `temporal.scan_fallback` in [`troll_obs::global()`].
fn scan_fallback_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| troll_obs::global().counter("temporal.scan_fallback"))
}

/// Counts a monitor→scan fallback and warns once per distinct formula
/// and reason, naming both — so users learn why that check is
/// O(history). Deliberate scans (cache disabled) are not fallbacks and
/// stay silent.
///
/// The one-shot warning routes as a structured
/// [`ObsEvent::FallbackNoted`] to the world's own observer when one is
/// attached and enabled, else to the process-global warning observer
/// ([`troll_obs::set_warning_observer`]); only when neither consumes it
/// does the historical stderr line fire.
fn note_scan_fallback(
    base: &ObjectBase,
    reason: FallbackReason,
    what: &str,
    formula: &impl std::fmt::Display,
) {
    if reason == FallbackReason::Disabled {
        return;
    }
    scan_fallback_counter().inc();
    static SEEN: OnceLock<Mutex<BTreeSet<(String, FallbackReason)>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut seen = match seen.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let formula = formula.to_string();
    if seen.insert((formula.clone(), reason)) {
        let why = match reason {
            FallbackReason::Capacity => format!(
                "needs more than {MAX_ENTRIES_PER_INSTANCE} per-argument monitors on one \
                 instance; further argument tuples scan the full history"
            ),
            FallbackReason::Poisoned => "could not be replayed by its monitor (a historical \
                 step failed to evaluate); every check scans the full history"
                .to_string(),
            FallbackReason::OutsideFragment | FallbackReason::Disabled => {
                "is outside the monitorable fragment; every check scans the full history"
                    .to_string()
            }
        };
        let detail = format!("{what} formula {why}");
        let consumed = if base.observing {
            base.observer.on_event(&ObsEvent::FallbackNoted {
                fallback: "temporal.scan_fallback".to_string(),
                what: formula.clone(),
                detail: detail.clone(),
            });
            true
        } else {
            troll_obs::note_fallback_warning("temporal.scan_fallback", &formula, &detail)
        };
        if !consumed {
            eprintln!("warning: {what} formula `{formula}` {why}");
        }
    }
}

fn bind_params(params: &[String], args: &[Value], event: &str) -> Result<BTreeMap<String, Value>> {
    if !params.is_empty() && params.len() != args.len() {
        return Err(RuntimeError::ArityMismatch {
            event: event.to_string(),
            expected: params.len(),
            found: args.len(),
        });
    }
    Ok(params.iter().cloned().zip(args.iter().cloned()).collect())
}

/// World view over committed state only.
pub(crate) struct Committed<'a>(pub &'a ObjectBase);

impl World for Committed<'_> {
    fn model(&self) -> &SystemModel {
        &self.0.model
    }

    fn state_of(&self, id: &ObjectId) -> Option<StateMap> {
        self.0.instances.get(id).map(|i| i.state.clone())
    }

    fn population(&self, class: &str) -> Vec<ObjectId> {
        self.0.population(class)
    }

    fn singleton_id(&self, class: &str) -> Option<ObjectId> {
        self.0.singleton(class)
    }

    fn compiled_class(&self, class: &str) -> &CompiledClass {
        self.0.compiled_class(class)
    }
}

/// World view overlaying in-step working states on the committed base.
struct Overlay<'a> {
    base: &'a ObjectBase,
    working: &'a BTreeMap<ObjectId, Working>,
}

impl World for Overlay<'_> {
    fn model(&self) -> &SystemModel {
        &self.base.model
    }

    fn state_of(&self, id: &ObjectId) -> Option<StateMap> {
        if let Some(w) = self.working.get(id) {
            return Some(w.state.clone());
        }
        self.base.instances.get(id).map(|i| i.state.clone())
    }

    fn population(&self, class: &str) -> Vec<ObjectId> {
        // pre-step population plus anything born in this step
        let mut out = self.base.population(class);
        for (id, w) in self.working {
            if w.alive
                && !out.contains(id)
                && (w.class == class || w.roles.get(class).is_some_and(|r| r.active))
            {
                out.push(id.clone());
            }
        }
        out
    }

    fn singleton_id(&self, class: &str) -> Option<ObjectId> {
        self.base.singleton(class)
    }

    fn compiled_class(&self, class: &str) -> &CompiledClass {
        self.base.compiled_class(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use troll_data::{Date, Money};

    fn analyze(src: &str) -> SystemModel {
        troll_lang::analyze(&troll_lang::parse(src).expect("parse")).expect("analyze")
    }

    /// The paper's §4 running example, normalized.
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

    fn company_base() -> ObjectBase {
        ObjectBase::new(analyze(COMPANY)).unwrap()
    }

    fn person(ob: &mut ObjectBase, name: &str, salary: i64) -> ObjectId {
        ob.birth(
            "PERSON",
            vec![Value::from(name)],
            "create",
            vec![Value::Money(Money::from_major(salary))],
        )
        .unwrap()
    }

    fn dept(ob: &mut ObjectBase, id: &str) -> ObjectId {
        ob.birth(
            "DEPT",
            vec![Value::from(id)],
            "establishment",
            vec![Value::Date(Date::new(1991, 10, 16).unwrap())],
        )
        .unwrap()
    }

    #[test]
    fn birth_initializes_identification_and_valuation() {
        let mut ob = company_base();
        let toys = dept(&mut ob, "Toys");
        assert_eq!(ob.attribute(&toys, "id").unwrap(), Value::from("Toys"));
        assert_eq!(
            ob.attribute(&toys, "est_date").unwrap(),
            Value::Date(Date::new(1991, 10, 16).unwrap())
        );
        assert_eq!(
            ob.attribute(&toys, "employees").unwrap(),
            Value::empty_set()
        );
        // manager declared but never assigned: observable as undefined
        assert_eq!(ob.attribute(&toys, "manager").unwrap(), Value::Undefined);
        let inst = ob.instance(&toys).unwrap();
        assert!(inst.is_alive());
        assert_eq!(inst.trace().len(), 1);
    }

    #[test]
    fn delta_valuation_counters_on_delta_shaped_rules() {
        let mut ob = company_base();
        let toys = dept(&mut ob, "Toys");
        let mut people = Vec::new();
        for i in 0..5 {
            let p = person(&mut ob, &format!("p{i}"), 1000);
            ob.execute(&toys, "hire", vec![Value::Id(p.clone())])
                .unwrap();
            people.push(p);
        }
        ob.execute(&toys, "fire", vec![Value::Id(people[0].clone())])
            .unwrap();
        let applied = ob.metrics().counter("valuation.delta_applied").get();
        let recomputed = ob.metrics().counter("valuation.recomputed").get();
        // every hire applies two delta rules (employees, hired_ever)
        // and the fire one more; nothing recomputes
        assert!(applied >= 11, "delta_applied = {applied}");
        assert_eq!(recomputed, 0, "recomputed = {recomputed}");
        assert_eq!(
            ob.attribute(&toys, "employees").unwrap(),
            Value::set_of(people[1..].iter().cloned().map(Value::Id)),
        );
    }

    #[test]
    fn double_birth_rejected() {
        let mut ob = company_base();
        let _ = dept(&mut ob, "Toys");
        let err = ob
            .birth(
                "DEPT",
                vec![Value::from("Toys")],
                "establishment",
                vec![Value::Date(Date::new(1992, 1, 1).unwrap())],
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::AlreadyBorn(_)));
    }

    #[test]
    fn events_on_unborn_or_dead_rejected() {
        let mut ob = company_base();
        let ghost = ObjectId::singleton("DEPT", Value::from("Ghost"));
        let err = ob
            .execute(&ghost, "hire", vec![Value::Id(ghost.clone())])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::NotAlive(_)));

        let toys = dept(&mut ob, "Toys");
        ob.execute(&toys, "closure", vec![]).unwrap();
        assert!(!ob.instance(&toys).unwrap().is_alive());
        let ada = person(&mut ob, "ada", 1000);
        let err = ob.execute(&toys, "hire", vec![Value::Id(ada)]).unwrap_err();
        assert!(matches!(err, RuntimeError::NotAlive(_)));
    }

    #[test]
    fn fire_permission_needs_prior_hire() {
        let mut ob = company_base();
        let toys = dept(&mut ob, "Toys");
        let ada = person(&mut ob, "ada", 1000);
        let bob = person(&mut ob, "bob", 1000);
        ob.execute(&toys, "hire", vec![Value::Id(ada.clone())])
            .unwrap();
        // bob was never hired
        let err = ob.execute(&toys, "fire", vec![Value::Id(bob)]).unwrap_err();
        assert!(matches!(err, RuntimeError::NotPermitted { .. }));
        // ada can be fired — and even re-fired (permission is sticky)
        ob.execute(&toys, "fire", vec![Value::Id(ada.clone())])
            .unwrap();
        assert_eq!(
            ob.attribute(&toys, "employees").unwrap(),
            Value::empty_set()
        );
        ob.execute(&toys, "fire", vec![Value::Id(ada)]).unwrap();
    }

    #[test]
    fn closure_permission_quantifies_over_history() {
        let mut ob = company_base();
        let toys = dept(&mut ob, "Toys");
        let ada = person(&mut ob, "ada", 1000);
        ob.execute(&toys, "hire", vec![Value::Id(ada.clone())])
            .unwrap();
        // ada not yet fired: closure forbidden
        let err = ob.execute(&toys, "closure", vec![]).unwrap_err();
        assert!(matches!(err, RuntimeError::NotPermitted { .. }));
        ob.execute(&toys, "fire", vec![Value::Id(ada)]).unwrap();
        ob.execute(&toys, "closure", vec![]).unwrap();
        assert!(!ob.instance(&toys).unwrap().is_alive());
    }

    #[test]
    fn global_interaction_calls_become_manager() {
        let mut ob = company_base();
        let toys = dept(&mut ob, "Toys");
        let ada = person(&mut ob, "ada", 6000);
        let report = ob
            .execute(&toys, "new_manager", vec![Value::Id(ada.clone())])
            .unwrap();
        // the step contains both events, synchronously
        assert!(report.occurred("new_manager"));
        assert!(report.occurred("become_manager"));
        assert_eq!(
            ob.attribute(&toys, "manager").unwrap(),
            Value::Id(ada.clone())
        );
        // and ada's own trace records become_manager
        let ada_inst = ob.instance(&ada).unwrap();
        assert!(ada_inst.trace().last().unwrap().has_event("become_manager"));
    }

    #[test]
    fn phase_entered_by_base_event() {
        let mut ob = company_base();
        let ada = person(&mut ob, "ada", 6000);
        assert!(!ob.instance(&ada).unwrap().has_role("MANAGER"));
        ob.execute(&ada, "become_manager", vec![]).unwrap();
        let inst = ob.instance(&ada).unwrap();
        assert!(inst.has_role("MANAGER"));
        // role valuation initialized the role attribute
        assert_eq!(
            ob.role_attribute(&ada, "MANAGER", "OfficialCar").unwrap(),
            Value::from("none")
        );
        // role update event works and role state evolves
        ob.execute(&ada, "assign_official_car", vec![Value::from("tesla")])
            .unwrap();
        assert_eq!(
            ob.role_attribute(&ada, "MANAGER", "OfficialCar").unwrap(),
            Value::from("tesla")
        );
        // manager population tracks the role
        assert_eq!(ob.population("MANAGER"), vec![ada.clone()]);
        // phase death deactivates the role
        ob.execute(&ada, "retire_from_management", vec![]).unwrap();
        assert!(!ob.instance(&ada).unwrap().has_role("MANAGER"));
        assert!(ob.population("MANAGER").is_empty());
        // role update after retirement rejected
        let err = ob
            .execute(&ada, "assign_official_car", vec![Value::from("audi")])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::RoleNotActive { .. }));
    }

    #[test]
    fn role_constraint_blocks_low_salary_manager() {
        let mut ob = company_base();
        // MANAGER requires Salary >= 5000; poor ada cannot become manager
        let ada = person(&mut ob, "ada", 1000);
        let err = ob.execute(&ada, "become_manager", vec![]).unwrap_err();
        assert!(matches!(err, RuntimeError::ConstraintViolated { .. }));
        // the step rolled back: no role, no event recorded
        let inst = ob.instance(&ada).unwrap();
        assert!(!inst.has_role("MANAGER"));
        assert_eq!(inst.trace().len(), 1, "only the birth step");
        // rich bob can
        let bob = person(&mut ob, "bob", 6000);
        ob.execute(&bob, "become_manager", vec![]).unwrap();
        assert!(ob.instance(&bob).unwrap().has_role("MANAGER"));
        // while a manager, dropping salary below the bound is rejected
        let err = ob
            .execute(
                &bob,
                "ChangeSalary",
                vec![Value::Money(Money::from_major(100))],
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ConstraintViolated { .. }));
        assert_eq!(
            ob.attribute(&bob, "Salary").unwrap(),
            Value::Money(Money::from_major(6000))
        );
    }

    #[test]
    fn population_and_card() {
        let mut ob = company_base();
        assert_eq!(ob.class_card("PERSON"), 0);
        let ada = person(&mut ob, "ada", 1000);
        let _bob = person(&mut ob, "bob", 1000);
        assert_eq!(ob.class_card("PERSON"), 2);
        ob.execute(&ada, "die", vec![]).unwrap();
        assert_eq!(ob.class_card("PERSON"), 1);
        assert_eq!(ob.class_card("DEPT"), 0);
    }

    #[test]
    fn unknown_event_and_arity_errors() {
        let mut ob = company_base();
        let ada = person(&mut ob, "ada", 1000);
        let err = ob.execute(&ada, "explode", vec![]).unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownEvent { .. }));
        let err = ob.execute(&ada, "ChangeSalary", vec![]).unwrap_err();
        assert!(matches!(err, RuntimeError::ArityMismatch { .. }));
        let err = ob
            .birth("GHOST_CLASS", vec![], "create", vec![])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownClass(_)));
    }

    // ----- §5.2: emp_rel and EMPL_IMPL --------------------------------

    const EMPLOYMENT: &str = r#"
object emp_rel
  template
    attributes
      Emps: set(tuple(ename: string, ebirth: date, esalary: int));
    events
      birth CreateEmpRel;
      UpdateSalary(string, date, int);
      InsertEmp(string, date, int);
      DeleteEmp(string, date);
      ChangeSalary(string, date, int);
      death CloseEmpRel;
    valuation
      variables n: string; b: date; s: int;
      [CreateEmpRel] Emps = {};
      [InsertEmp(n, b, s)] Emps = insert(tuple(ename: n, ebirth: b, esalary: s), Emps);
      [DeleteEmp(n, b)] Emps = select|not(ename = n and ebirth = b)|(Emps);
    permissions
      variables n: string; b: date; s: int;
      { exists(e in Emps : e.ename = n and e.ebirth = b) } UpdateSalary(n, b, s);
      { Emps = {} } CloseEmpRel;
    interaction
      variables n: string; b: date; s: int;
      ChangeSalary(n, b, s) >> (DeleteEmp(n, b); InsertEmp(n, b, s));
      UpdateSalary(n, b, s) >> (DeleteEmp(n, b); InsertEmp(n, b, s));
end object emp_rel;

object class EMPL_IMPL
  identification
    EmpName: string;
    EmpBirth: date;
  template
    inheriting emp_rel as employees;
    attributes
      derived Salary: int;
    events
      birth HireEmployee;
      IncreaseSalary(int);
      death FireEmployee;
    derivation rules
      Salary = the(project|esalary|(select|ename = EmpName and ebirth = EmpBirth|(employees.Emps)));
    interaction
      variables n: int;
      HireEmployee >> employees.InsertEmp(self.EmpName, self.EmpBirth, 0);
      FireEmployee >> employees.DeleteEmp(self.EmpName, self.EmpBirth);
      IncreaseSalary(n) >> employees.UpdateSalary(self.EmpName, self.EmpBirth, self.Salary + n);
end object class EMPL_IMPL;
"#;

    fn employment_base() -> (ObjectBase, ObjectId) {
        let mut ob = ObjectBase::new(analyze(EMPLOYMENT)).unwrap();
        let rel = ob.singleton("emp_rel").unwrap();
        ob.execute(&rel, "CreateEmpRel", vec![]).unwrap();
        (ob, rel)
    }

    fn bday() -> Value {
        Value::Date(Date::new(1960, 1, 1).unwrap())
    }

    #[test]
    fn transaction_calling_threads_state() {
        let (mut ob, rel) = employment_base();
        ob.execute(
            &rel,
            "InsertEmp",
            vec![Value::from("codd"), bday(), Value::from(100)],
        )
        .unwrap();
        // ChangeSalary >> (DeleteEmp; InsertEmp) — atomic replacement
        let report = ob
            .execute(
                &rel,
                "ChangeSalary",
                vec![Value::from("codd"), bday(), Value::from(200)],
            )
            .unwrap();
        assert_eq!(report.occurrences.len(), 3, "trigger + two called events");
        let emps = ob.attribute(&rel, "Emps").unwrap();
        let set = emps.as_set().unwrap();
        assert_eq!(set.len(), 1, "old tuple removed, new inserted: {emps}");
        let tuple = set.iter().next().unwrap();
        assert_eq!(tuple.field("esalary"), Some(&Value::from(200)));
        // all three events are in one trace step (synchronous unit)
        let inst = ob.instance(&rel).unwrap();
        let last = inst.trace().last().unwrap();
        assert_eq!(last.events.len(), 3);
    }

    #[test]
    fn update_salary_permission_requires_existing_key() {
        let (mut ob, rel) = employment_base();
        let err = ob
            .execute(
                &rel,
                "UpdateSalary",
                vec![Value::from("nobody"), bday(), Value::from(1)],
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::NotPermitted { .. }));
    }

    #[test]
    fn close_emp_rel_only_when_empty() {
        let (mut ob, rel) = employment_base();
        ob.execute(
            &rel,
            "InsertEmp",
            vec![Value::from("codd"), bday(), Value::from(100)],
        )
        .unwrap();
        let err = ob.execute(&rel, "CloseEmpRel", vec![]).unwrap_err();
        assert!(matches!(err, RuntimeError::NotPermitted { .. }));
        ob.execute(&rel, "DeleteEmp", vec![Value::from("codd"), bday()])
            .unwrap();
        ob.execute(&rel, "CloseEmpRel", vec![]).unwrap();
        assert!(!ob.instance(&rel).unwrap().is_alive());
    }

    #[test]
    fn formal_implementation_employee_over_relation() {
        let (mut ob, rel) = employment_base();
        // HireEmployee on the abstract object inserts into the relation
        let codd = ob
            .birth(
                "EMPL_IMPL",
                vec![Value::from("codd"), bday()],
                "HireEmployee",
                vec![],
            )
            .unwrap();
        let emps = ob.attribute(&rel, "Emps").unwrap();
        assert_eq!(emps.as_set().unwrap().len(), 1);
        // derived Salary reads through the incorporated relation
        assert_eq!(ob.attribute(&codd, "Salary").unwrap(), Value::from(0));
        // IncreaseSalary(50) >> UpdateSalary(..., Salary + 50)
        ob.execute(&codd, "IncreaseSalary", vec![Value::from(50)])
            .unwrap();
        assert_eq!(ob.attribute(&codd, "Salary").unwrap(), Value::from(50));
        ob.execute(&codd, "IncreaseSalary", vec![Value::from(25)])
            .unwrap();
        assert_eq!(ob.attribute(&codd, "Salary").unwrap(), Value::from(75));
        // a second employee shares the same base relation
        let date2 = Value::Date(Date::new(1970, 5, 5).unwrap());
        let kuhn = ob
            .birth(
                "EMPL_IMPL",
                vec![Value::from("kuhn"), date2],
                "HireEmployee",
                vec![],
            )
            .unwrap();
        assert_eq!(
            ob.attribute(&rel, "Emps").unwrap().as_set().unwrap().len(),
            2
        );
        assert_eq!(ob.attribute(&kuhn, "Salary").unwrap(), Value::from(0));
        assert_eq!(ob.attribute(&codd, "Salary").unwrap(), Value::from(75));
        // FireEmployee removes only codd's tuple
        ob.execute(&codd, "FireEmployee", vec![]).unwrap();
        assert_eq!(
            ob.attribute(&rel, "Emps").unwrap().as_set().unwrap().len(),
            1
        );
        assert!(!ob.instance(&codd).unwrap().is_alive());
        assert!(ob.instance(&kuhn).unwrap().is_alive());
    }

    // ----- components, active events, constraints ---------------------

    #[test]
    fn components_and_singletons() {
        let src = r#"
object class DEPT
  identification id: string;
  template
    events birth establishment;
end object class DEPT;

object TheCompany
  template
    components
      depts: LIST(DEPT);
    events
      found_dept(|DEPT|);
    valuation
      variables D: |DEPT|;
      [found_dept(D)] depts = append(D, depts);
end object TheCompany;
"#;
        let mut ob = ObjectBase::new(analyze(src)).unwrap();
        // TheCompany has no birth events: alive from the start
        let company = ob.singleton("TheCompany").unwrap();
        assert!(ob.instance(&company).unwrap().is_alive());
        let toys = ob
            .birth("DEPT", vec![Value::from("Toys")], "establishment", vec![])
            .unwrap();
        // depts starts undefined; the valuation uses append — seed it
        // via a first event after initializing to the empty list: the
        // valuation on an undefined list errors, and the step rolls back
        let err = ob.execute(&company, "found_dept", vec![Value::Id(toys.clone())]);
        assert!(err.is_err(), "append to undefined must fail");
        // non-singleton class has no singleton id
        assert_eq!(ob.singleton("DEPT"), None);
    }

    #[test]
    fn initially_constraint_checked_at_birth_only() {
        let src = r#"
object class ACC
  identification owner: string;
  template
    attributes balance: int;
    events
      birth open(int);
      withdraw(int);
    valuation
      variables n: int;
      [open(n)] balance = n;
      [withdraw(n)] balance = balance - n;
    constraints
      initially balance >= 0;
end object class ACC;
"#;
        let mut ob = ObjectBase::new(analyze(src)).unwrap();
        let err = ob
            .birth(
                "ACC",
                vec![Value::from("ada")],
                "open",
                vec![Value::from(-5)],
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::ConstraintViolated { .. }));
        let acc = ob
            .birth(
                "ACC",
                vec![Value::from("ada")],
                "open",
                vec![Value::from(10)],
            )
            .unwrap();
        // initially-constraint does not apply to later events
        ob.execute(&acc, "withdraw", vec![Value::from(100)])
            .unwrap();
        assert_eq!(ob.attribute(&acc, "balance").unwrap(), Value::from(-90));
    }

    #[test]
    fn active_events_fire_on_tick() {
        let src = r#"
object clock
  template
    attributes now: int;
    events
      birth start;
      active tick_event;
    valuation
      [start] now = 0;
      [tick_event] now = now + 1;
    permissions
      { now < 3 } tick_event;
end object clock;
"#;
        let mut ob = ObjectBase::new(analyze(src)).unwrap();
        let clock = ob.singleton("clock").unwrap();
        // unborn: nothing fires
        assert!(ob.tick().unwrap().is_empty());
        ob.execute(&clock, "start", vec![]).unwrap();
        let r1 = ob.tick().unwrap();
        assert_eq!(r1.len(), 1);
        assert_eq!(ob.attribute(&clock, "now").unwrap(), Value::from(1));
        ob.tick().unwrap();
        ob.tick().unwrap();
        assert_eq!(ob.attribute(&clock, "now").unwrap(), Value::from(3));
        // permission now < 3 blocks further ticks silently
        let r4 = ob.tick().unwrap();
        assert!(r4.is_empty());
        assert_eq!(ob.attribute(&clock, "now").unwrap(), Value::from(3));
    }

    #[test]
    fn rollback_leaves_base_untouched_on_mid_transaction_failure() {
        let src = r#"
object pair
  template
    attributes a: int; b: int;
    events
      birth init;
      set_both(int);
      set_a(int);
      set_b(int);
    valuation
      variables n: int;
      [init] a = 0;
      [init] b = 0;
      [set_a(n)] a = n;
      [set_b(n)] b = n;
    permissions
      variables n: int;
      { n < 10 } set_b(n);
    interaction
      variables n: int;
      set_both(n) >> (set_a(n); set_b(n));
end object pair;
"#;
        let mut ob = ObjectBase::new(analyze(src)).unwrap();
        let pair = ob.singleton("pair").unwrap();
        ob.execute(&pair, "init", vec![]).unwrap();
        ob.execute(&pair, "set_both", vec![Value::from(5)]).unwrap();
        assert_eq!(ob.attribute(&pair, "a").unwrap(), Value::from(5));
        assert_eq!(ob.attribute(&pair, "b").unwrap(), Value::from(5));
        // set_both(50): set_a succeeds in-step, set_b is refused → the
        // WHOLE step rolls back, a stays 5
        let err = ob
            .execute(&pair, "set_both", vec![Value::from(50)])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::NotPermitted { .. }));
        assert_eq!(ob.attribute(&pair, "a").unwrap(), Value::from(5));
        assert_eq!(ob.attribute(&pair, "b").unwrap(), Value::from(5));
        let inst = ob.instance(&pair).unwrap();
        assert_eq!(inst.trace().len(), 2, "failed step not recorded");
    }

    #[test]
    fn guarded_valuation_rules() {
        let src = r#"
object counter
  template
    attributes n: int; capped: bool;
    events
      birth init;
      bump;
    valuation
      [init] n = 0;
      [init] capped = false;
      { n < 3 } => [bump] n = n + 1;
      { n >= 3 } => [bump] capped = true;
end object counter;
"#;
        let mut ob = ObjectBase::new(analyze(src)).unwrap();
        let c = ob.singleton("counter").unwrap();
        ob.execute(&c, "init", vec![]).unwrap();
        for _ in 0..5 {
            ob.execute(&c, "bump", vec![]).unwrap();
        }
        // n stops at 3; capped flips once n reaches 3
        assert_eq!(ob.attribute(&c, "n").unwrap(), Value::from(3));
        assert_eq!(ob.attribute(&c, "capped").unwrap(), Value::from(true));
    }

    #[test]
    fn calling_cycle_detected() {
        let src = r#"
object ping
  template
    attributes n: int;
    events
      birth init;
      ping_ev(int);
    valuation
      variables k: int;
      [init] n = 0;
    interaction
      variables k: int;
      ping_ev(k) >> ping_ev(k + 1);
end object ping;
"#;
        let mut ob = ObjectBase::new(analyze(src)).unwrap();
        let p = ob.singleton("ping").unwrap();
        ob.execute(&p, "init", vec![]).unwrap();
        let err = ob.execute(&p, "ping_ev", vec![Value::from(0)]).unwrap_err();
        assert!(matches!(err, RuntimeError::CallingCycle(_)));
        // base untouched
        assert_eq!(ob.attribute(&p, "n").unwrap(), Value::from(0));
    }

    #[test]
    fn self_calling_is_idempotent_not_cyclic() {
        // a rule that calls the same event with the SAME args converges
        let src = r#"
object echo
  template
    attributes n: int;
    events
      birth init;
      say(int);
    valuation
      variables k: int;
      [init] n = 0;
      [say(k)] n = n + k;
    interaction
      variables k: int;
      say(k) >> say(k);
end object echo;
"#;
        let mut ob = ObjectBase::new(analyze(src)).unwrap();
        let e = ob.singleton("echo").unwrap();
        ob.execute(&e, "init", vec![]).unwrap();
        let report = ob.execute(&e, "say", vec![Value::from(7)]).unwrap();
        assert_eq!(
            report.occurrences.len(),
            1,
            "identical occurrence deduplicated"
        );
        assert_eq!(ob.attribute(&e, "n").unwrap(), Value::from(7));
    }

    #[test]
    fn step_report_display() {
        let occ = Occurrence {
            id: ObjectId::singleton("DEPT", Value::from("Toys")),
            ctx_class: "DEPT".into(),
            event: "hire".into(),
            args: vec![Value::from("ada")],
        };
        assert_eq!(occ.to_string(), "DEPT(\"Toys\")[DEPT].hire(\"ada\")");
        let report = StepReport {
            occurrences: vec![occ],
        };
        assert!(report.occurred("hire"));
        assert!(!report.occurred("fire"));
    }
}

#[cfg(test)]
mod obligation_tests {
    use super::*;

    #[test]
    fn obligations_checked_over_completed_traces() {
        let src = r#"
object class TASK
  identification tid: string;
  template
    attributes done: bool;
    events
      birth start;
      work;
      finish;
      death archive;
    valuation
      [start] done = false;
      [finish] done = true;
    obligations
      eventually(occurs(finish));
      eventually(done = true);
end object class TASK;
"#;
        let model = troll_lang::analyze(&troll_lang::parse(src).expect("parse")).expect("analyze");
        let mut ob = ObjectBase::new(model).unwrap();
        let t = ob
            .birth("TASK", vec![Value::from("t1")], "start", vec![])
            .unwrap();
        // mid-life: neither obligation discharged yet
        let status = ob.check_obligations(&t).unwrap();
        assert_eq!(status.len(), 2);
        assert!(status.iter().all(|(_, ok)| !ok));
        assert!(!ob.obligations_discharged(&t).unwrap());

        ob.execute(&t, "work", vec![]).unwrap();
        ob.execute(&t, "finish", vec![]).unwrap();
        ob.execute(&t, "archive", vec![]).unwrap();
        // completed trace: both discharged
        let status = ob.check_obligations(&t).unwrap();
        assert!(status.iter().all(|(_, ok)| *ok), "{status:?}");
        assert!(ob.obligations_discharged(&t).unwrap());
    }

    #[test]
    fn undischarged_obligation_reported() {
        let src = r#"
object class TASK
  identification tid: string;
  template
    events
      birth start;
      finish;
      death archive;
    obligations
      eventually(occurs(finish));
end object class TASK;
"#;
        let model = troll_lang::analyze(&troll_lang::parse(src).expect("parse")).expect("analyze");
        let mut ob = ObjectBase::new(model).unwrap();
        let t = ob
            .birth("TASK", vec![Value::from("t1")], "start", vec![])
            .unwrap();
        ob.execute(&t, "archive", vec![]).unwrap(); // died without finishing
        let status = ob.check_obligations(&t).unwrap();
        assert_eq!(status.len(), 1);
        assert!(!status[0].1, "obligation must be reported undischarged");
        // classes without obligations are trivially discharged
        assert!(status[0].0.contains("eventually"));
    }

    #[test]
    fn obligation_scope_checked_by_analyzer() {
        let src = r#"
object class T
  template
    events birth b;
    obligations
      eventually(ghost = 1);
end object class T;
"#;
        let err = troll_lang::parse(src)
            .and_then(|s| troll_lang::analyze(&s))
            .unwrap_err();
        assert!(
            err.to_string().contains("unknown variable `ghost`"),
            "{err}"
        );
    }
}

#[cfg(test)]
mod specialization_tests {
    use super::*;

    /// A specialization whose birth aliases the base's *birth* event
    /// auto-activates on creation — the spec author's statement that
    /// every instance of the base carries the specialized aspect from
    /// birth (static specialization, §4). Specializations that should
    /// hold only for *some* instances use their own (unaliased) birth
    /// event and are entered explicitly.
    #[test]
    fn aliased_birth_specialization_activates_at_base_birth() {
        let src = r#"
object class PERSON
  identification name: string;
  template
    attributes age: int;
    events
      birth create(int);
      birthday;
    valuation
      variables n: int;
      [create(n)] age = n;
      [birthday] age = age + 1;
end object class PERSON;

object class TAXPAYER
  view of PERSON;
  template
    attributes tax_id: string;
    events
      birth PERSON.create(int);
      register(string);
    valuation
      variables t: string; n: int;
      [create(n)] tax_id = "unregistered";
      [register(t)] tax_id = t;
end object class TAXPAYER;
"#;
        let model = troll_lang::analyze(&troll_lang::parse(src).expect("parse")).expect("analyze");
        let mut ob = ObjectBase::new(model).unwrap();
        let ada = ob
            .birth(
                "PERSON",
                vec![Value::from("ada")],
                "create",
                vec![Value::from(30)],
            )
            .unwrap();
        // the specialization activated together with the base birth
        assert!(ob.instance(&ada).unwrap().has_role("TAXPAYER"));
        assert_eq!(
            ob.role_attribute(&ada, "TAXPAYER", "tax_id").unwrap(),
            Value::from("unregistered")
        );
        ob.execute(&ada, "register", vec![Value::from("DE-123")])
            .unwrap();
        assert_eq!(
            ob.role_attribute(&ada, "TAXPAYER", "tax_id").unwrap(),
            Value::from("DE-123")
        );
    }

    /// The aliased role birth receives the base event's arguments, but a
    /// role valuation may bind fewer (here: none) — the analyzer treats
    /// the role's event with its own arity.
    #[test]
    fn alias_arity_is_local_to_the_role() {
        let src = r#"
object class ACCOUNT
  identification iban: string;
  template
    attributes balance: int;
    events
      birth open(int);
    valuation
      variables n: int;
      [open(n)] balance = n;
end object class ACCOUNT;

object class PREMIUM
  view of ACCOUNT;
  template
    attributes perks: int;
    events
      birth ACCOUNT.open(int);
    valuation
      variables n: int;
      [open(n)] perks = n div 1000;
end object class PREMIUM;
"#;
        let model = troll_lang::analyze(&troll_lang::parse(src).expect("parse")).expect("analyze");
        let mut ob = ObjectBase::new(model).unwrap();
        let acc = ob
            .birth(
                "ACCOUNT",
                vec![Value::from("DE-1")],
                "open",
                vec![Value::from(5000)],
            )
            .unwrap();
        assert_eq!(
            ob.role_attribute(&acc, "PREMIUM", "perks").unwrap(),
            Value::from(5)
        );
    }
}

#[cfg(test)]
mod alias_observation_tests {
    use super::*;

    /// Temporal formulas may observe incorporated/component objects at
    /// *historical* positions: trace snapshots materialize alias entries
    /// as the target's tuple at that time.
    #[test]
    fn historical_alias_observations() {
        let src = r#"
object meter
  template
    attributes level: int;
    events
      birth init;
      rise;
    valuation
      [init] level = 0;
      [rise] level = level + 1;
end object meter;

object class WATCHDOG
  identification wid: string;
  template
    components m: meter;
    attributes barks: int;
    events
      birth watch;
      note;
      bark;
    valuation
      [watch] barks = 0;
      [note] barks = barks;
      [bark] barks = barks + 1;
    permissions
      -- barking requires having *observed* level 2 at some point
      { sometime(m.level = 2) } bark;
end object class WATCHDOG;
"#;
        let model = troll_lang::analyze(&troll_lang::parse(src).expect("parse")).expect("analyze");
        let mut ob = ObjectBase::new(model).unwrap();
        let meter = ob.singleton("meter").unwrap();
        ob.execute(&meter, "init", vec![]).unwrap();
        let dog = ob
            .birth("WATCHDOG", vec![Value::from("rex")], "watch", vec![])
            .unwrap();
        // level never observed at 2: bark forbidden
        assert!(ob.execute(&dog, "bark", vec![]).is_err());
        ob.execute(&meter, "rise", vec![]).unwrap();
        ob.execute(&meter, "rise", vec![]).unwrap(); // level = 2, but rex hasn't looked
                                                     // `sometime` is over REX's history; the current virtual step
                                                     // observes level 2, so bark is now permitted
        ob.execute(&dog, "bark", vec![]).unwrap();
        // and the observation is *sticky* even after the level moves on,
        // because rex's own trace recorded the materialized snapshot
        ob.execute(&dog, "note", vec![]).unwrap(); // records level=2 step? no: level is 2 still
        ob.execute(&meter, "rise", vec![]).unwrap(); // level = 3
        ob.execute(&dog, "bark", vec![]).unwrap();
        assert_eq!(ob.attribute(&dog, "barks").unwrap(), Value::from(2));
    }
}

#[cfg(test)]
mod param_attribute_tests {
    use super::*;
    use troll_data::Money;

    const SRC: &str = r#"
object class PERSON
  identification name: string;
  template
    attributes
      Salary: money;
      derived IncomeInYear(int): money;
      derived Raise(int, int): money;
    events
      birth create(money);
      ChangeSalary(money);
    valuation
      variables m: money;
      [create(m)] Salary = m;
      [ChangeSalary(m)] Salary = m;
    derivation rules
      IncomeInYear(y) = if y >= 2020 then Salary * 13.5 else Salary * 12;
      Raise(pct, years) = Salary * pct * years;
end object class PERSON;
"#;

    fn base() -> (ObjectBase, ObjectId) {
        let model = troll_lang::analyze(&troll_lang::parse(SRC).expect("parse")).expect("analyze");
        let mut ob = ObjectBase::new(model).unwrap();
        let ada = ob
            .birth(
                "PERSON",
                vec![Value::from("ada")],
                "create",
                vec![Value::Money(Money::from_major(1_000))],
            )
            .unwrap();
        (ob, ada)
    }

    #[test]
    fn parameterized_attribute_evaluates_per_argument() {
        let (ob, ada) = base();
        // paper's IncomeInYear(integer): money — SAL_EMPLOYEE signature
        assert_eq!(
            ob.attribute_with_args(&ada, "IncomeInYear", vec![Value::from(2026)])
                .unwrap(),
            Value::Money(Money::from_major(13_500))
        );
        assert_eq!(
            ob.attribute_with_args(&ada, "IncomeInYear", vec![Value::from(1999)])
                .unwrap(),
            Value::Money(Money::from_major(12_000))
        );
        // multi-parameter family
        assert_eq!(
            ob.attribute_with_args(&ada, "Raise", vec![Value::from(2), Value::from(3)])
                .unwrap(),
            Value::Money(Money::from_major(6_000))
        );
    }

    #[test]
    fn parameterized_attribute_tracks_state() {
        let (mut ob, ada) = base();
        ob.execute(
            &ada,
            "ChangeSalary",
            vec![Value::Money(Money::from_major(2_000))],
        )
        .unwrap();
        assert_eq!(
            ob.attribute_with_args(&ada, "IncomeInYear", vec![Value::from(2026)])
                .unwrap(),
            Value::Money(Money::from_major(27_000))
        );
    }

    #[test]
    fn errors_on_misuse() {
        let (ob, ada) = base();
        assert!(matches!(
            ob.attribute_with_args(&ada, "IncomeInYear", vec![])
                .unwrap_err(),
            RuntimeError::ArityMismatch { .. }
        ));
        assert!(matches!(
            ob.attribute_with_args(&ada, "Ghost", vec![]).unwrap_err(),
            RuntimeError::UnknownAttribute { .. }
        ));
        // families are not plain attributes
        assert!(ob.attribute(&ada, "IncomeInYear").is_err());
    }

    #[test]
    fn analyzer_rejects_bad_families() {
        // missing derivation rule
        let bad = SRC.replace(
            "IncomeInYear(y) = if y >= 2020 then Salary * 13.5 else Salary * 12;",
            "",
        );
        let err = troll_lang::parse(&bad)
            .and_then(|s| troll_lang::analyze(&s))
            .unwrap_err();
        assert!(err.to_string().contains("no derivation rule"), "{err}");
        // binder count mismatch
        let bad = SRC.replace("IncomeInYear(y) =", "IncomeInYear(y, z) =");
        let err = troll_lang::parse(&bad)
            .and_then(|s| troll_lang::analyze(&s))
            .unwrap_err();
        assert!(err.to_string().contains("binds 2 parameter"), "{err}");
        // parameterized but not derived
        let bad = SRC.replace(
            "derived IncomeInYear(int): money;",
            "IncomeInYear(int): money;",
        );
        let err = troll_lang::parse(&bad).unwrap_err();
        assert!(
            err.to_string().contains("must be declared `derived`"),
            "{err}"
        );
    }
}

#[cfg(test)]
mod report_and_tick_obligation_tests {
    use super::*;

    fn analyze(src: &str) -> SystemModel {
        troll_lang::analyze(&troll_lang::parse(src).expect("parse")).expect("analyze")
    }

    /// Finishing a task synchronously calls its death event, so the
    /// discharging occurrence and the death share one step.
    const TASK: &str = r#"
object class TASK
  identification tid: string;
  template
    attributes done: bool;
    events
      birth start;
      finish;
      death archive;
    valuation
      [start] done = false;
      [finish] done = true;
    interaction
      finish >> archive;
    obligations
      eventually(occurs(finish));
end object class TASK;
"#;

    #[test]
    fn occurred_reflects_called_events_in_the_death_step() {
        let mut ob = ObjectBase::new(analyze(TASK)).unwrap();
        let t = ob
            .birth("TASK", vec![Value::from("t1")], "start", vec![])
            .unwrap();
        let report = ob.execute(&t, "finish", vec![]).unwrap();
        assert!(report.occurred("finish"));
        assert!(
            report.occurred("archive"),
            "the called death event is part of the report"
        );
        assert!(!report.occurred("start"));
        assert_eq!(report.occurrences.len(), 2);
        // the called archive really ended the life cycle
        assert!(!ob.instance(&t).unwrap().is_alive());
    }

    #[test]
    fn occurred_on_an_empty_report_is_false() {
        let report = StepReport::default();
        assert!(!report.occurred("anything"));
        assert!(report.occurrences.is_empty());
    }

    #[test]
    fn obligations_discharged_by_the_death_step_itself() {
        let mut ob = ObjectBase::new(analyze(TASK)).unwrap();
        let t = ob
            .birth("TASK", vec![Value::from("t1")], "start", vec![])
            .unwrap();
        assert!(!ob.obligations_discharged(&t).unwrap());
        // one step: finish + (called) archive — death and discharge together
        ob.execute(&t, "finish", vec![]).unwrap();
        let status = ob.check_obligations(&t).unwrap();
        assert_eq!(status.len(), 1);
        assert!(
            status[0].1,
            "discharged in the very step that died: {status:?}"
        );
        assert!(ob.obligations_discharged(&t).unwrap());
    }

    #[test]
    fn check_obligations_rejects_unknown_instances() {
        let ob = ObjectBase::new(analyze(TASK)).unwrap();
        let ghost = ObjectId::singleton("TASK", Value::from("nope"));
        assert!(matches!(
            ob.check_obligations(&ghost).unwrap_err(),
            RuntimeError::UnknownInstance(_)
        ));
    }

    /// §6.1 shape: a shared active clock plus a reminder whose `ring`
    /// is time-gated. `ObjectBase::tick` rounds must eventually fire
    /// `ring`, discharging the reminder's liveness obligation.
    const CLOCKED: &str = r#"
object clock
  template
    attributes now: int;
    events
      birth start;
      active tick;
    valuation
      [start] now = 0;
      [tick] now = now + 1;
end object clock;

object class REMINDER
  identification rid: string;
  template
    components
      clk: clock;
    attributes fired: bool;
    events
      birth set;
      active ring;
      death dismiss;
    valuation
      [set] fired = false;
      [ring] fired = true;
    permissions
      { clk.now >= 2 and fired = false } ring;
    obligations
      eventually(occurs(ring));
end object class REMINDER;
"#;

    #[test]
    fn tick_rounds_discharge_active_obligations() {
        let mut ob = ObjectBase::new(analyze(CLOCKED)).unwrap();
        let clk = ob.singleton("clock").unwrap();
        ob.execute(&clk, "start", vec![]).unwrap();
        let r = ob
            .birth("REMINDER", vec![Value::from("r1")], "set", vec![])
            .unwrap();
        assert!(!ob.obligations_discharged(&r).unwrap());

        let mut rang_in_round = None;
        for round in 0..4 {
            let reports = ob.tick().unwrap();
            assert!(
                reports.iter().all(|rep| !rep.occurrences.is_empty()),
                "tick only returns committed steps"
            );
            if reports.iter().any(|rep| rep.occurred("ring")) {
                rang_in_round = Some(round);
                break;
            }
        }
        // clk.now reaches 2 in round 1 (0-indexed); ring's permission
        // opens in the round after, depending on scheduling order —
        // all that matters is that it fired and never fires twice
        assert!(rang_in_round.is_some(), "ring fired within four rounds");
        assert!(ob.obligations_discharged(&r).unwrap());
        assert_eq!(ob.attribute(&r, "fired").unwrap(), Value::Bool(true));

        let reports = ob.tick().unwrap();
        assert!(
            reports.iter().all(|rep| !rep.occurred("ring")),
            "fired = false gate prevents a second ring"
        );

        // death after discharge: the audit still answers, and stays true
        ob.execute(&r, "dismiss", vec![]).unwrap();
        assert!(!ob.instance(&r).unwrap().is_alive());
        assert!(ob.obligations_discharged(&r).unwrap());
    }

    #[test]
    fn undischarged_obligation_survives_death_audit() {
        let mut ob = ObjectBase::new(analyze(CLOCKED)).unwrap();
        let clk = ob.singleton("clock").unwrap();
        ob.execute(&clk, "start", vec![]).unwrap();
        let r = ob
            .birth("REMINDER", vec![Value::from("r1")], "set", vec![])
            .unwrap();
        // dismissed before the clock ever reached the due time
        ob.execute(&r, "dismiss", vec![]).unwrap();
        let status = ob.check_obligations(&r).unwrap();
        assert_eq!(status.len(), 1);
        assert!(!status[0].1, "died without ringing: {status:?}");
        assert!(!ob.obligations_discharged(&r).unwrap());
    }
}

#[cfg(test)]
mod death_calling_tests {
    use super::*;

    fn analyze(src: &str) -> SystemModel {
        troll_lang::analyze(&troll_lang::parse(src).expect("parse")).expect("analyze")
    }

    /// `settle >> (shut; log)` kills the account mid-chain, then `log`
    /// hits the dead instance; `purge(A)` does the same across
    /// instances via global interactions.
    const BANKING: &str = r#"
object class ACCOUNT
  identification id: string;
  template
    attributes balance: int;
    events
      birth open;
      settle;
      log;
      death shut;
    valuation
      [open] balance = 0;
      [log] balance = balance + 1;
    interaction
      settle >> (shut; log);
end object class ACCOUNT;

object class BANK
  identification id: string;
  template
    events
      birth establish;
      purge(|ACCOUNT|);
end object class BANK;

global interactions
  variables A: |ACCOUNT|; B: |BANK|;
  BANK(B).purge(A) >> ACCOUNT(A).shut;
  BANK(B).purge(A) >> ACCOUNT(A).log;
end global interactions;
"#;

    /// The de-panicked working-map paths: a callee dying mid-step must
    /// surface as a rolled-back `RuntimeError`, never a panic — with
    /// the monitor cache on and off, locally and across instances.
    #[test]
    fn death_during_event_calling_rolls_back_cleanly() {
        for cache_enabled in [true, false] {
            let mut ob = ObjectBase::new(analyze(BANKING)).unwrap();
            ob.set_monitor_cache_enabled(cache_enabled);
            let acct = ob
                .birth("ACCOUNT", vec![Value::from("a1")], "open", vec![])
                .unwrap();
            let bank = ob
                .birth("BANK", vec![Value::from("b1")], "establish", vec![])
                .unwrap();
            let trace_before = ob.instance(&acct).unwrap().trace().len();

            // local chain: settle >> (shut; log) — log lands on the
            // freshly dead account
            let err = ob.execute(&acct, "settle", vec![]).unwrap_err();
            assert!(matches!(err, RuntimeError::NotAlive(_)), "{err}");
            let inst = ob.instance(&acct).unwrap();
            assert!(inst.is_alive(), "death must roll back with the step");
            assert_eq!(inst.trace().len(), trace_before, "no partial commit");
            assert_eq!(
                ob.attribute(&acct, "balance").unwrap(),
                Value::from(0),
                "valuation of the dead-calling chain must not leak"
            );

            // cross-instance chain: purge >> ACCOUNT.shut then ACCOUNT.log
            let err = ob
                .execute(&bank, "purge", vec![Value::Id(acct.clone())])
                .unwrap_err();
            assert!(matches!(err, RuntimeError::NotAlive(_)), "{err}");
            assert!(ob.instance(&acct).unwrap().is_alive());
            assert!(ob.instance(&bank).unwrap().is_alive());

            // the account still works after the rollbacks
            ob.execute(&acct, "log", vec![]).unwrap();
            assert_eq!(ob.attribute(&acct, "balance").unwrap(), Value::from(1));
        }
    }
}

#[cfg(test)]
mod scan_fallback_tests {
    use super::*;

    fn analyze(src: &str) -> SystemModel {
        troll_lang::analyze(&troll_lang::parse(src).expect("parse")).expect("analyze")
    }

    /// A quantifier whose variable sits inside a state predicate under
    /// `sometime` lies outside every monitorable fragment: the silent
    /// monitor→scan fallback must be counted in the process-wide
    /// `temporal.scan_fallback`, but only while the cache is enabled
    /// (a deliberate scan is not a fallback).
    #[test]
    fn quantified_fallback_is_counted() {
        let spec = r#"
object class DEPT
  identification id: string;
  template
    attributes employees: set(|PERSON|); hired_ever: set(|PERSON|);
    events
      birth establishment;
      hire(|PERSON|);
      fire(|PERSON|);
      death closure;
    valuation
      variables P: |PERSON|;
      [establishment] employees = {};
      [establishment] hired_ever = {};
      [hire(P)] hired_ever = insert(P, hired_ever);
    permissions
      variables P: |PERSON|;
      { for all(P in hired_ever : sometime(P in employees)) } closure;
end object class DEPT;
"#;
        let counter = troll_obs::global().counter("temporal.scan_fallback");

        let mut ob = ObjectBase::new(analyze(spec)).unwrap();
        let toys = ob
            .birth("DEPT", vec![Value::from("Toys")], "establishment", vec![])
            .unwrap();
        let before = counter.get();
        ob.execute(&toys, "closure", vec![]).unwrap();
        assert!(
            counter.get() > before,
            "quantified permission must count a scan fallback"
        );

        // cache off: the scan is requested, not fallen back to
        let mut ob = ObjectBase::new(analyze(spec)).unwrap();
        ob.set_monitor_cache_enabled(false);
        let toys = ob
            .birth("DEPT", vec![Value::from("Toys")], "establishment", vec![])
            .unwrap();
        let before = counter.get();
        ob.execute(&toys, "closure", vec![]).unwrap();
        assert_eq!(
            counter.get(),
            before,
            "deliberate scans must not count as fallbacks"
        );
    }

    /// `closure`'s quantified permission is answered by a sliced
    /// monitor: no scan fallback, granted and refused alike.
    #[test]
    fn quantified_permission_is_monitored() {
        let spec = r#"
object class DEPT
  identification id: string;
  template
    attributes hired_ever: set(|PERSON|);
    events
      birth establishment;
      hire(|PERSON|);
      fire(|PERSON|);
      death closure;
    valuation
      variables P: |PERSON|;
      [establishment] hired_ever = {};
      [hire(P)] hired_ever = insert(P, hired_ever);
    permissions
      variables P: |PERSON|;
      { sometime(after(hire(P))) } fire(P);
      { for all(P in hired_ever : sometime(after(fire(P)))) } closure;
end object class DEPT;
"#;
        let mut ob = ObjectBase::new(analyze(spec)).unwrap();
        let toys = ob
            .birth("DEPT", vec![Value::from("Toys")], "establishment", vec![])
            .unwrap();
        for p in ["ada", "bob"] {
            ob.execute(&toys, "hire", vec![Value::from(p)]).unwrap();
        }
        ob.execute(&toys, "fire", vec![Value::from("ada")]).unwrap();
        assert!(ob.execute(&toys, "closure", vec![]).is_err());
        ob.execute(&toys, "fire", vec![Value::from("bob")]).unwrap();
        ob.execute(&toys, "closure", vec![]).unwrap();
        let stats = ob.monitor_cache_stats();
        assert_eq!(stats.fallbacks, 0, "{stats}");
        assert_eq!(stats.hits, 4, "{stats}");
    }

    /// A two-parameter temporal permission is grounded per argument
    /// pair; past the per-instance cap the fallback warning names the
    /// capacity, not the fragment.
    #[test]
    fn capacity_fallback_names_capacity() {
        let spec = r#"
object class CLUB
  identification id: string;
  template
    events
      birth founding;
      meet_cap(string, string);
      pair_cap(string, string);
    permissions
      variables P: string; Q: string;
      { sometime(after(meet_cap(P, Q))) } pair_cap(P, Q);
end object class CLUB;
"#;
        let mut ob = ObjectBase::new(analyze(spec)).unwrap();
        let recorder = Arc::new(troll_obs::Recorder::new());
        ob.set_observer(recorder.clone());
        let club = ob
            .birth("CLUB", vec![Value::from("c")], "founding", vec![])
            .unwrap();
        for i in 0..=MAX_ENTRIES_PER_INSTANCE {
            let pair = vec![Value::from(format!("p{i}")), Value::from(format!("q{i}"))];
            ob.execute(&club, "meet_cap", pair.clone()).unwrap();
            ob.execute(&club, "pair_cap", pair).unwrap();
        }
        let details: Vec<String> = recorder
            .events()
            .into_iter()
            .filter_map(|e| match e {
                ObsEvent::FallbackNoted { detail, .. } => Some(detail),
                _ => None,
            })
            .collect();
        assert_eq!(details.len(), 1, "{details:?}");
        assert!(
            details[0].contains("per-argument monitors"),
            "{}",
            details[0]
        );
        assert!(!details[0].contains("fragment"), "{}", details[0]);
        assert_eq!(ob.monitor_cache_stats().fallbacks, 1);
    }
}
