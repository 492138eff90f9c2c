//! Incremental monitor cache for permission and constraint checks.
//!
//! The reference path evaluates every permission precondition and
//! dynamic constraint by re-scanning the instance's whole trace
//! ([`troll_temporal::eval_now_appended`], O(|trace|·|φ|) per check).
//! This cache keeps incremental monitors per (instance, rule), advanced
//! once per committed step, so a check on the hot path costs a peek
//! regardless of how long the object has lived. A rule is classified on
//! its first check:
//!
//! * **closed** — no parameter reaches the formula (constraints, or
//!   permissions over recorded state only): one [`Monitor`];
//! * **sliced** — one variable occurs as a whole event-pattern argument:
//!   a permission parameter (`{ sometime(after(hire(P))) } fire(P)`) or
//!   the variable of a top-level `for all`/`exists` (`closure`'s
//!   permission). One [`SlicedMonitor`] answers the check at every
//!   value (trace slicing, Chen & Roşu 2009);
//! * **grounded** — anything else that becomes monitorable once its
//!   parameters are substituted (e.g. two parameters under a temporal
//!   operator): one [`Monitor`] per distinct argument tuple, at most
//!   [`MAX_ENTRIES_PER_INSTANCE`] per instance;
//! * **outside** — quantifiers the slicer rejects, future operators,
//!   open predicates: every check scans.
//!
//! # Safety argument
//!
//! The cache must never change observable semantics, only cost. Four
//! properties make that hold:
//!
//! 1. **Replayed terms are closed or recorded.** The scan evaluator
//!    reads event-pattern arguments and permission parameters rigidly
//!    in the *check-time* environment. A monitor replaying history has
//!    no such environment, so every state predicate it replays may
//!    mention only variables guaranteed to be recorded in every trace
//!    snapshot, and every pattern argument is closed — after
//!    [`monitorable_grounding`] substitutes the parameters, or, for a
//!    sliced monitor, apart from the slice variable, whose value is
//!    read from the check-time environment at peek time exactly as the
//!    scan reads it. Grounding bindings that collide with recorded
//!    state names are rejected: step state shadows the ambient
//!    environment under the scan semantics, so substituting them would
//!    flip the resolution order.
//! 2. **Replay errors poison the rule.** Historical steps are replayed
//!    with an empty ambient environment. Any formula that needs
//!    check-time bindings fails evaluation, the monitor is dropped, and
//!    the caller falls back to the scan — a monitor can give up, but it
//!    can never answer differently.
//! 3. **Feeding happens at commit only.** [`MonitorCache::on_commit`]
//!    is called exactly where the step engine pushes a committed trace
//!    step; checks use non-mutating peeks against the transaction's
//!    virtual step. A rolled-back transaction therefore leaves every
//!    monitor untouched by construction.
//! 4. **An untouched value's slice equals the default slice.** A value
//!    no committed occurrence has carried at the slice variable's
//!    position makes every slice pattern false at every step, so its
//!    monitor run is the default slice's run, step for step. A value
//!    forks the first time a commit mentions it, from the default state
//!    of the step before. A quantifier therefore folds over any domain,
//!    including values the history never mentioned, and each answer is
//!    what a monitor grounded at that value would give.
//!
//! `troll-core`'s differential property test drives random event
//! scripts through a cached and an uncached object base and asserts
//! decision-for-decision equality, including across rollbacks.

use std::collections::{BTreeMap, BTreeSet};
use troll_data::{Env, MapEnv, ObjectId, Value};
use troll_lang::ast::ComponentKind;
use troll_lang::ClassModel;
use troll_obs::{Counter, Metrics};
use troll_temporal::{Formula, Monitor, SlicedMonitor, Step, Trace};
use troll_vm::Lowering;

/// Per-instance cap on grounded (per-argument-tuple) monitors; beyond
/// it, new argument tuples simply use the scan path rather than evict
/// (eviction would thrash on workloads with more distinct argument
/// tuples than slots). Closed and sliced rules need one entry each.
pub(crate) const MAX_ENTRIES_PER_INSTANCE: usize = 128;

/// What kind of check a rule is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum CheckKind {
    /// A permission precondition of an event.
    Permission,
    /// A static/dynamic constraint.
    Constraint,
}

/// Identity of one rule within an instance: kind, context class, event
/// and declaration index.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RuleKey {
    kind: CheckKind,
    ctx_class: String,
    /// Guarded event name; empty for constraints.
    event: String,
    /// Index of the rule in the class's declaration order.
    index: usize,
}

/// One check, borrowed from the step engine's existing data — no
/// `String`/`Vec` clones per check. An owned key is materialized only
/// when a rule is first classified.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CheckRef<'a> {
    pub kind: CheckKind,
    pub ctx_class: &'a str,
    /// Guarded event name; empty for constraints.
    pub event: &'a str,
    /// Index of the rule in the class's declaration order.
    pub index: usize,
    /// The rule's formula, as declared.
    pub formula: &'a Formula,
    /// Parameter bindings; a grounded entry's argument tuple is the
    /// map's values in name order.
    pub args: &'a BTreeMap<String, Value>,
}

impl CheckRef<'_> {
    fn rule_key(self) -> RuleKey {
        RuleKey {
            kind: self.kind,
            ctx_class: self.ctx_class.to_string(),
            event: self.event.to_string(),
            index: self.index,
        }
    }
}

/// How `stored` orders relative to the probe — consistent with
/// `RuleKey`'s derived `Ord` against `probe.rule_key()`, without
/// materializing the owned key.
fn key_order(stored: &RuleKey, probe: &CheckRef<'_>) -> std::cmp::Ordering {
    stored
        .kind
        .cmp(&probe.kind)
        .then_with(|| stored.ctx_class.as_str().cmp(probe.ctx_class))
        .then_with(|| stored.event.as_str().cmp(probe.event))
        .then_with(|| stored.index.cmp(&probe.index))
}

/// How one rule's checks are answered.
#[derive(Debug)]
enum Rule {
    /// One monitor for every check of the rule.
    Closed(Monitor),
    /// One sliced monitor for every value of the slice variable.
    Sliced(Box<SlicedMonitor>),
    /// One monitor per argument tuple, sorted by tuple; `None` marks a
    /// tuple whose monitor was poisoned.
    Grounded(Vec<(Vec<Value>, Option<Monitor>)>),
    /// Outside the monitorable fragment.
    Outside,
    /// A replay or peek errored; every check scans.
    Poisoned,
}

impl Rule {
    /// Live monitors (for invalidation counts).
    fn monitors(&self) -> usize {
        match self {
            Rule::Closed(_) | Rule::Sliced(_) => 1,
            Rule::Grounded(entries) => entries.len(),
            Rule::Outside | Rule::Poisoned => 0,
        }
    }
}

/// One instance's rules, sorted by [`RuleKey`] and probed by binary
/// search with [`key_order`] (a handful of rules per class: a tree buys
/// nothing, and the flat layout lets a lookup compare against borrowed
/// key parts).
#[derive(Debug, Default)]
struct InstanceCache {
    rules: Vec<(RuleKey, Rule)>,
    /// Grounded monitors across all rules, against the cap.
    grounded: usize,
}

/// A stable point-in-time snapshot of the monitor-cache counters, as
/// returned by [`crate::ObjectBase::monitor_cache_stats`]. Used by
/// benchmarks, the differential test suite and the `troll animate
/// --stats` report.
///
/// The counters themselves live in the object base's
/// [`troll_obs::Metrics`] registry (`monitor_cache.hits` etc.); this
/// struct is the typed façade over that registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorCacheStats {
    /// Checks answered by a monitor peek — the fast path.
    pub hits: u64,
    /// Rules classified (a rule's first check on an instance) plus
    /// grounded monitors created (a grounded rule's first check with a
    /// new argument tuple).
    pub misses: u64,
    /// Checks answered by the reference scan evaluator: formulas
    /// outside the monitorable fragment, poisoned monitors, per-instance
    /// capacity overflow, or a disabled cache.
    pub fallbacks: u64,
    /// Monitors dropped or degraded (instance death, stale or poisoned
    /// monitor state).
    pub invalidations: u64,
}

impl MonitorCacheStats {
    /// Total checks that consulted the cache (hits + fallbacks).
    pub fn checks(&self) -> u64 {
        self.hits + self.fallbacks
    }
}

impl std::fmt::Display for MonitorCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits {} / misses {} / fallbacks {} / invalidations {}",
            self.hits, self.misses, self.fallbacks, self.invalidations
        )
    }
}

/// Why a check was answered by the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum FallbackReason {
    /// The cache is off: the scan was asked for.
    Disabled,
    /// The formula is outside every monitorable fragment.
    OutsideFragment,
    /// Replaying or peeking the monitor errored.
    Poisoned,
    /// The instance already holds [`MAX_ENTRIES_PER_INSTANCE`] grounded
    /// monitors.
    Capacity,
}

/// Outcome of consulting the cache for one check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The monitor answered: the formula holds (or not) on the history
    /// extended with the virtual step.
    Holds(bool),
    /// Not answered here — evaluate with the scan path.
    Fallback(FallbackReason),
}

/// The cache's counters, registered in the owning object base's
/// [`Metrics`] under `monitor_cache.*` — so one instrumentation source
/// feeds both [`MonitorCacheStats`] and the metrics snapshot.
#[derive(Debug)]
struct CacheCounters {
    hits: Counter,
    misses: Counter,
    fallbacks: Counter,
    invalidations: Counter,
}

/// The cache proper: rules keyed by instance, then by [`RuleKey`].
#[derive(Debug)]
pub(crate) struct MonitorCache {
    enabled: bool,
    /// How new monitors lower their terms: the owning model's.
    lowering: Lowering,
    per_instance: BTreeMap<ObjectId, InstanceCache>,
    /// `None` in the placeholder cache, which counts nothing.
    counters: Option<CacheCounters>,
}

impl Default for MonitorCache {
    /// A cache that counts nothing — the placeholder the step engine
    /// leaves behind while it borrows the real cache (built without
    /// allocating, on every step). It never builds a monitor, so its
    /// lowering never matters.
    /// The runtime's real cache is built by [`MonitorCache::new`].
    fn default() -> Self {
        MonitorCache {
            enabled: true,
            lowering: Lowering::Delta,
            per_instance: BTreeMap::new(),
            counters: None,
        }
    }
}

/// A monitor's answer, or why the scan must answer instead.
type Answer = Result<bool, FallbackReason>;

/// Catches a monitor that has consumed `seen` steps up on the rest of
/// the committed trace (the whole history on first use, O(1) amortized
/// afterwards). Replay uses an empty ambient environment: anything that
/// needs check-time bindings errors out and poisons the monitor.
fn catch_up(
    seen: usize,
    trace: &Trace,
    mut feed: impl FnMut(&Step, &dyn Env) -> bool,
) -> Result<(), FallbackReason> {
    let rigid = MapEnv::new();
    for step in trace.iter().skip(seen) {
        if !feed(step, &rigid) {
            return Err(FallbackReason::Poisoned);
        }
    }
    Ok(())
}

fn peek_closed(m: &mut Monitor, trace: &Trace, vstep: &Step, env: &dyn Env) -> Answer {
    catch_up(m.steps(), trace, |s, rigid| m.step(s, rigid).is_ok())?;
    m.peek(vstep, env).map_err(|_| FallbackReason::Poisoned)
}

fn peek_sliced(m: &mut SlicedMonitor, trace: &Trace, vstep: &Step, env: &dyn Env) -> Answer {
    catch_up(m.steps(), trace, |s, rigid| m.step(s, rigid).is_ok())?;
    m.peek(vstep, env).map_err(|_| FallbackReason::Poisoned)
}

/// Classifies a rule on its first check (see the module docs).
fn classify(
    formula: &Formula,
    bindings: &BTreeMap<String, Value>,
    recorded: &BTreeSet<String>,
    lowering: Lowering,
) -> Rule {
    if monitor_safe(formula, recorded) {
        if let Ok(m) = Monitor::new(formula, lowering) {
            return Rule::Closed(m);
        }
    }
    if preds_recorded(formula, recorded) {
        if let Ok(m) = SlicedMonitor::new(formula, lowering) {
            return Rule::Sliced(Box::new(m));
        }
    }
    // whether grounding lands in the fragment depends on the bindings'
    // names only, which every check of the rule shares
    match monitorable_grounding(formula, bindings, recorded) {
        Some(_) => Rule::Grounded(Vec::new()),
        None => Rule::Outside,
    }
}

impl MonitorCache {
    /// Creates a cache whose counters are registered in `metrics` under
    /// `monitor_cache.{hits,misses,fallbacks,invalidations}` and whose
    /// monitors lower their terms with `lowering`.
    pub(crate) fn new(metrics: &Metrics, lowering: Lowering) -> Self {
        MonitorCache {
            lowering,
            counters: Some(CacheCounters {
                hits: metrics.counter("monitor_cache.hits"),
                misses: metrics.counter("monitor_cache.misses"),
                fallbacks: metrics.counter("monitor_cache.fallbacks"),
                invalidations: metrics.counter("monitor_cache.invalidations"),
            }),
            ..MonitorCache::default()
        }
    }

    fn count(&self, n: u64, counter: fn(&CacheCounters) -> &Counter) {
        if let Some(c) = &self.counters {
            counter(c).add(n);
        }
    }

    /// Enables or disables the cache. Disabling drops all state, so a
    /// later re-enable rebuilds monitors lazily from committed traces.
    /// The counters are cumulative and survive the toggle.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.per_instance.clear();
        }
        self.enabled = enabled;
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn stats(&self) -> MonitorCacheStats {
        let get = |counter: fn(&CacheCounters) -> &Counter| {
            self.counters.as_ref().map_or(0, |c| counter(c).get())
        };
        MonitorCacheStats {
            hits: get(|c| &c.hits),
            misses: get(|c| &c.misses),
            fallbacks: get(|c| &c.fallbacks),
            invalidations: get(|c| &c.invalidations),
        }
    }

    /// Answers one check against `trace` extended with `virtual_step`,
    /// creating and syncing monitors as needed. `recorded` (the class's
    /// recorded state variables) is asked for only when a monitor is
    /// created.
    ///
    /// The hit path — instance known, rule classified, monitor in sync
    /// — allocates only what the sliced peek needs for the values the
    /// virtual step mentions: the probe key is borrowed and the lookups
    /// compare in place.
    pub(crate) fn check(
        &mut self,
        id: &ObjectId,
        key: CheckRef<'_>,
        trace: &Trace,
        virtual_step: &Step,
        env: &dyn Env,
        recorded: impl Fn() -> BTreeSet<String>,
    ) -> Verdict {
        let answer = if self.enabled {
            self.answer(id, key, trace, virtual_step, env, recorded)
        } else {
            Err(FallbackReason::Disabled)
        };
        match answer {
            Ok(holds) => {
                self.count(1, |c| &c.hits);
                Verdict::Holds(holds)
            }
            Err(reason) => {
                self.count(1, |c| &c.fallbacks);
                Verdict::Fallback(reason)
            }
        }
    }

    fn answer(
        &mut self,
        id: &ObjectId,
        key: CheckRef<'_>,
        trace: &Trace,
        vstep: &Step,
        env: &dyn Env,
        recorded: impl Fn() -> BTreeSet<String>,
    ) -> Answer {
        let lowering = self.lowering;
        if !self.per_instance.contains_key(id) {
            self.per_instance
                .insert(id.clone(), InstanceCache::default());
        }
        let inst = self.per_instance.get_mut(id).expect("ensured above");
        let (mut misses, mut invalidations) = (0, 0);
        let idx = match inst.rules.binary_search_by(|(k, _)| key_order(k, &key)) {
            Ok(i) => i,
            Err(pos) => {
                misses += 1;
                let rule = classify(key.formula, key.args, &recorded(), lowering);
                inst.rules.insert(pos, (key.rule_key(), rule));
                pos
            }
        };
        let rule = &mut inst.rules[idx].1;
        // A monitor ahead of the committed trace cannot arise from the
        // normal feed order; rebuild rather than trust it.
        let ahead = match rule {
            Rule::Closed(m) => m.steps() > trace.len(),
            Rule::Sliced(m) => m.steps() > trace.len(),
            _ => false,
        };
        if ahead {
            invalidations += 1;
            misses += 1;
            *rule = classify(key.formula, key.args, &recorded(), lowering);
        }
        let answer = match rule {
            Rule::Outside => Err(FallbackReason::OutsideFragment),
            Rule::Poisoned => Err(FallbackReason::Poisoned),
            Rule::Closed(m) => peek_closed(m, trace, vstep, env),
            Rule::Sliced(m) => peek_sliced(m, trace, vstep, env),
            Rule::Grounded(entries) => {
                match entries.binary_search_by(|(args, _)| args.iter().cmp(key.args.values())) {
                    Err(_) if inst.grounded >= MAX_ENTRIES_PER_INSTANCE => {
                        misses += 1;
                        Err(FallbackReason::Capacity)
                    }
                    found => {
                        let i = found.unwrap_or_else(|pos| {
                            misses += 1;
                            inst.grounded += 1;
                            let args = key.args.values().cloned().collect();
                            entries.insert(pos, (args, ground(key, &recorded(), lowering)));
                            pos
                        });
                        let slot = &mut entries[i].1;
                        if slot.as_ref().is_some_and(|m| m.steps() > trace.len()) {
                            invalidations += 1;
                            misses += 1;
                            *slot = ground(key, &recorded(), lowering);
                        }
                        let answer = match slot {
                            Some(m) => peek_closed(m, trace, vstep, env),
                            None => Err(FallbackReason::Poisoned),
                        };
                        if answer.is_err() {
                            *slot = None;
                        }
                        answer
                    }
                }
            }
        };
        if answer == Err(FallbackReason::Poisoned)
            && matches!(rule, Rule::Closed(_) | Rule::Sliced(_))
        {
            *rule = Rule::Poisoned;
        }
        self.count(misses, |c| &c.misses);
        self.count(invalidations, |c| &c.invalidations);
        answer
    }

    /// Feeds a freshly committed step to every monitor of the instance.
    /// Must be called exactly once per step pushed to the instance's
    /// base trace. Returns the number of live monitors that consumed
    /// the step (for the `MonitorFed` observability event).
    pub(crate) fn on_commit(&mut self, id: &ObjectId, step: &Step) -> usize {
        if !self.enabled {
            return 0;
        }
        let Some(inst) = self.per_instance.get_mut(id) else {
            return 0;
        };
        let rigid = MapEnv::new();
        let (mut fed, mut poisoned) = (0usize, 0u64);
        for (_, rule) in inst.rules.iter_mut() {
            let ok = match rule {
                Rule::Closed(m) => m.step(step, &rigid).is_ok(),
                Rule::Sliced(m) => m.step(step, &rigid).is_ok(),
                Rule::Grounded(entries) => {
                    for (_, slot) in entries.iter_mut() {
                        if let Some(m) = slot {
                            if m.step(step, &rigid).is_ok() {
                                fed += 1;
                            } else {
                                poisoned += 1;
                                *slot = None;
                            }
                        }
                    }
                    continue;
                }
                Rule::Outside | Rule::Poisoned => continue,
            };
            if ok {
                fed += 1;
            } else {
                poisoned += 1;
                *rule = Rule::Poisoned;
            }
        }
        self.count(poisoned, |c| &c.invalidations);
        fed
    }

    /// Drops all monitors of a dead instance.
    pub(crate) fn on_death(&mut self, id: &ObjectId) {
        if let Some(inst) = self.per_instance.remove(id) {
            let dropped = inst.rules.iter().map(|(_, r)| r.monitors()).sum::<usize>();
            self.count(dropped as u64, |c| &c.invalidations);
        }
    }
}

/// A grounded monitor for one argument tuple; `None` if grounding
/// leaves the fragment (which [`classify`] has ruled out).
fn ground(key: CheckRef<'_>, recorded: &BTreeSet<String>, lowering: Lowering) -> Option<Monitor> {
    monitorable_grounding(key.formula, key.args, recorded)
        .and_then(|f| Monitor::new(&f, lowering).ok())
}

/// Variables guaranteed resolvable from a committed base-trace snapshot
/// of `class`: stored (non-derived) attributes, identification
/// attributes, inherited-base aliases and single-valued component
/// names. (If one of these happens to be missing from some historical
/// snapshot, replay errors and the entry degrades to the scan path —
/// the set gates what we *attempt*, not what is correct.)
pub(crate) fn recorded_state_vars(class: &ClassModel) -> BTreeSet<String> {
    let mut vars = BTreeSet::new();
    for attr in class.template.signature().attributes() {
        if !attr.derived {
            vars.insert(attr.name.clone());
        }
    }
    for (name, _) in &class.identification {
        vars.insert(name.clone());
    }
    for (_, alias) in &class.inheriting {
        vars.insert(alias.clone());
    }
    for comp in &class.components {
        if comp.kind == ComponentKind::Single {
            vars.insert(comp.name.clone());
        }
    }
    vars
}

/// Grounds `formula` with the parameter `bindings` and returns the
/// result if it lies in the cache's monitorable fragment:
/// quantifier-free, past-only, closed event-pattern arguments, and
/// state predicates over recorded variables only. Returns `None` (use
/// the scan path) otherwise.
pub(crate) fn monitorable_grounding(
    formula: &Formula,
    bindings: &BTreeMap<String, Value>,
    recorded: &BTreeSet<String>,
) -> Option<Formula> {
    // Step state shadows the ambient environment under scan semantics,
    // so a binding named like a recorded variable must not be
    // substituted as a constant.
    if bindings.keys().any(|k| recorded.contains(k)) {
        return None;
    }
    let grounded = formula.ground(bindings);
    monitor_safe(&grounded, recorded).then_some(grounded)
}

fn monitor_safe(f: &Formula, recorded: &BTreeSet<String>) -> bool {
    match f {
        Formula::Pred(t) => t.free_vars().iter().all(|v| recorded.contains(v)),
        // Pattern arguments are evaluated rigidly at check time by the
        // scan; only closed terms are rigid under replay too.
        Formula::Occurs(p) | Formula::After(p) => {
            p.args.iter().flatten().all(|t| t.free_vars().is_empty())
        }
        Formula::Not(a) | Formula::Sometime(a) | Formula::AlwaysPast(a) | Formula::Previous(a) => {
            monitor_safe(a, recorded)
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Since(a, b) => {
            monitor_safe(a, recorded) && monitor_safe(b, recorded)
        }
        Formula::Eventually(_) | Formula::Henceforth(_) | Formula::Quant { .. } => false,
    }
}

/// Whether every state predicate, quantifier bodies included, mentions
/// recorded variables only (a quantifier's domain is evaluated at check
/// time only, so it is exempt).
fn preds_recorded(f: &Formula, recorded: &BTreeSet<String>) -> bool {
    match f {
        Formula::Pred(t) => t.free_vars().iter().all(|v| recorded.contains(v)),
        Formula::Occurs(_) | Formula::After(_) => true,
        Formula::Not(a)
        | Formula::Sometime(a)
        | Formula::AlwaysPast(a)
        | Formula::Previous(a)
        | Formula::Eventually(a)
        | Formula::Henceforth(a)
        | Formula::Quant { body: a, .. } => preds_recorded(a, recorded),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Since(a, b) => {
            preds_recorded(a, recorded) && preds_recorded(b, recorded)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use troll_data::Term;
    use troll_temporal::{EventOccurrence, EventPattern};

    fn params(pairs: &[(&str, &str)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Value::from(*v)))
            .collect()
    }

    fn key<'a>(
        event: &'a str,
        formula: &'a Formula,
        args: &'a BTreeMap<String, Value>,
    ) -> CheckRef<'a> {
        CheckRef {
            kind: CheckKind::Permission,
            ctx_class: "C",
            event,
            index: 0,
            formula,
            args,
        }
    }

    fn counted() -> MonitorCache {
        MonitorCache::new(&Metrics::new(), Lowering::Delta)
    }

    fn no_state() -> BTreeSet<String> {
        BTreeSet::new()
    }

    fn occurs(name: &str, args: &[&str]) -> Step {
        Step::new(
            vec![EventOccurrence::new(
                name,
                args.iter().map(|a| Value::from(*a)).collect(),
            )],
            [],
        )
    }

    fn after(name: &str, args: Vec<Option<Term>>) -> Formula {
        Formula::after(EventPattern::new(name, args))
    }

    fn sometime_hired() -> Formula {
        Formula::sometime(after("hire", vec![Some(Term::var("P"))]))
    }

    /// One sliced monitor answers `fire(P)` at every value of `P`.
    #[test]
    fn check_replays_peeks_and_feeds() {
        let mut cache = counted();
        let id = ObjectId::new("C", vec![]);
        let mut trace = Trace::new();
        trace.push(occurs("hire", &["ada"]));
        let phi = sometime_hired();
        let quiet = Step::new(vec![], []);
        let check = |cache: &mut MonitorCache, trace: &Trace, who: &str| {
            let args = params(&[("P", who)]);
            let mut env = MapEnv::new();
            env.bind("P", Value::from(who));
            cache.check(&id, key("fire", &phi, &args), trace, &quiet, &env, no_state)
        };

        // miss + replay of the committed step, then a peek
        assert_eq!(check(&mut cache, &trace, "ada"), Verdict::Holds(true));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);

        // commit advances the monitor; other values are pure hits on
        // the same rule, forked or not
        cache.on_commit(&id, &occurs("hire", &["bob"]));
        trace.push(occurs("hire", &["bob"]));
        assert_eq!(check(&mut cache, &trace, "bob"), Verdict::Holds(true));
        assert_eq!(check(&mut cache, &trace, "cy"), Verdict::Holds(false));
        assert_eq!(check(&mut cache, &trace, "ada"), Verdict::Holds(true));
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 4);
    }

    #[test]
    fn rules_are_classified_once() {
        let recorded = || BTreeSet::from(["budget".to_string()]);
        let p = params(&[("P", "ada"), ("Q", "bob")]);
        let none = BTreeMap::new();
        let class = |f: &Formula, args| match classify(f, args, &recorded(), Lowering::Delta) {
            Rule::Closed(_) => "closed",
            Rule::Sliced(_) => "sliced",
            Rule::Grounded(_) => "grounded",
            Rule::Outside => "outside",
            Rule::Poisoned => "poisoned",
        };
        let budget = Formula::pred(Term::var("budget"));
        assert_eq!(class(&Formula::sometime(budget.clone()), &p), "closed");
        assert_eq!(class(&sometime_hired(), &p), "sliced");
        let closure = Formula::forall(
            "X",
            Term::var("budget"),
            Formula::sometime(after("fire", vec![Some(Term::var("X"))])),
        );
        assert_eq!(class(&closure, &none), "sliced");
        let pair = Formula::sometime(after(
            "pair",
            vec![Some(Term::var("P")), Some(Term::var("Q"))],
        ));
        assert_eq!(class(&pair, &p), "grounded");
        // the parameter inside a predicate under `sometime`
        let in_pred =
            Formula::sometime(Formula::pred(Term::eq(Term::var("budget"), Term::var("P"))));
        assert_eq!(class(&in_pred, &p), "grounded");
        // ... and inside a quantifier body: no fragment takes it
        let quant_pred = Formula::forall(
            "X",
            Term::var("budget"),
            Formula::sometime(Formula::pred(Term::eq(Term::var("X"), Term::var("budget")))),
        );
        assert_eq!(class(&quant_pred, &none), "outside");
        assert_eq!(class(&Formula::eventually(budget), &none), "outside");
    }

    /// Each fallback carries its reason.
    #[test]
    fn unmonitorable_and_disabled_fall_back() {
        let mut cache = counted();
        let id = ObjectId::new("C", vec![]);
        let trace = Trace::new();
        let vstep = Step::new(vec![], []);
        let env = MapEnv::new();
        let none = params(&[]);

        let future = Formula::eventually(Formula::truth());
        let v = cache.check(
            &id,
            key("e", &future, &none),
            &trace,
            &vstep,
            &env,
            no_state,
        );
        assert_eq!(v, Verdict::Fallback(FallbackReason::OutsideFragment));
        // the classification is remembered, not re-derived
        let v = cache.check(&id, key("e", &future, &none), &trace, &vstep, &env, || {
            panic!("a classified rule must not ask for state again")
        });
        assert_eq!(v, Verdict::Fallback(FallbackReason::OutsideFragment));
        assert_eq!(cache.stats().fallbacks, 2);
        assert_eq!(cache.stats().misses, 1);

        // a predicate over state the trace does not record poisons
        let mut trace = Trace::new();
        trace.push(vstep.clone());
        let open = Formula::sometime(Formula::pred(Term::var("budget")));
        let recorded = || BTreeSet::from(["budget".to_string()]);
        let v = cache.check(&id, key("f", &open, &none), &trace, &vstep, &env, recorded);
        assert_eq!(v, Verdict::Fallback(FallbackReason::Poisoned));
        let v = cache.check(&id, key("f", &open, &none), &trace, &vstep, &env, recorded);
        assert_eq!(v, Verdict::Fallback(FallbackReason::Poisoned));

        cache.set_enabled(false);
        let v = cache.check(&id, key("g", &future, &none), &trace, &vstep, &env, || {
            panic!("disabled cache must not classify")
        });
        assert_eq!(v, Verdict::Fallback(FallbackReason::Disabled));
        assert!(!cache.enabled());
    }

    #[test]
    fn grounded_rules_overflow_to_capacity() {
        let mut cache = counted();
        let id = ObjectId::new("C", vec![]);
        let trace = Trace::new();
        let vstep = Step::new(vec![], []);
        let env = MapEnv::new();
        let pair = Formula::sometime(after(
            "pair",
            vec![Some(Term::var("P")), Some(Term::var("Q"))],
        ));
        for i in 0..=MAX_ENTRIES_PER_INSTANCE {
            let (p, q) = (format!("p{i}"), format!("q{i}"));
            let args = params(&[("P", &p), ("Q", &q)]);
            let v = cache.check(&id, key("e", &pair, &args), &trace, &vstep, &env, no_state);
            let want = if i < MAX_ENTRIES_PER_INSTANCE {
                Verdict::Holds(false)
            } else {
                Verdict::Fallback(FallbackReason::Capacity)
            };
            assert_eq!(v, want, "tuple {i}");
        }
    }

    #[test]
    fn death_drops_entries() {
        let mut cache = counted();
        let id = ObjectId::new("C", vec![]);
        let trace = Trace::new();
        let vstep = Step::new(vec![], []);
        let env = MapEnv::new();
        let none = params(&[]);
        let truth = Formula::truth();
        cache.check(&id, key("e", &truth, &none), &trace, &vstep, &env, no_state);
        cache.on_death(&id);
        assert_eq!(cache.stats().invalidations, 1);
        // recreated from scratch afterwards
        cache.check(&id, key("e", &truth, &none), &trace, &vstep, &env, no_state);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn placeholder_counts_nothing() {
        let mut cache = MonitorCache::default();
        let id = ObjectId::new("C", vec![]);
        let none = params(&[]);
        let truth = Formula::truth();
        let v = cache.check(
            &id,
            key("e", &truth, &none),
            &Trace::new(),
            &Step::new(vec![], []),
            &MapEnv::new(),
            no_state,
        );
        assert_eq!(v, Verdict::Holds(true));
        assert_eq!(cache.stats(), MonitorCacheStats::default());
    }

    #[test]
    fn grounding_gate() {
        let mut recorded = BTreeSet::new();
        recorded.insert("budget".to_string());
        let mut bindings = BTreeMap::new();
        bindings.insert("P".to_string(), Value::from("ada"));

        // pattern argument P becomes closed after grounding
        let perm = Formula::sometime(Formula::after(EventPattern::new(
            "hire",
            vec![Some(Term::var("P"))],
        )));
        let grounded = monitorable_grounding(&perm, &bindings, &recorded).unwrap();
        assert_eq!(grounded.to_string(), "sometime(after(hire(\"ada\")))");

        // un-grounded free pattern variable: rejected
        assert!(monitorable_grounding(&perm, &BTreeMap::new(), &recorded).is_none());

        // predicates over recorded state are fine, others are not
        let pred_ok = Formula::pred(Term::var("budget"));
        assert!(monitorable_grounding(&pred_ok, &BTreeMap::new(), &recorded).is_some());
        let pred_bad = Formula::pred(Term::var("self"));
        assert!(monitorable_grounding(&pred_bad, &BTreeMap::new(), &recorded).is_none());

        // quantifiers and future operators: rejected
        let quant = Formula::forall("Q", Term::var("budget"), Formula::truth());
        assert!(monitorable_grounding(&quant, &BTreeMap::new(), &recorded).is_none());
        let fut = Formula::eventually(Formula::truth());
        assert!(monitorable_grounding(&fut, &BTreeMap::new(), &recorded).is_none());

        // binding that collides with a recorded variable: rejected
        let mut shadow = BTreeMap::new();
        shadow.insert("budget".to_string(), Value::from(1));
        let pred = Formula::pred(Term::var("budget"));
        assert!(monitorable_grounding(&pred, &shadow, &recorded).is_none());
    }
}
