//! Typed observability events emitted by the runtime.

/// Which evaluation path answered a permission or constraint check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckPath {
    /// Answered by an incremental monitor peek (O(|φ|)).
    Monitored,
    /// Answered by the reference history-scan evaluator
    /// (O(|trace|·|φ|)) — the fallback for formulas outside every
    /// monitorable fragment (future operators, open predicates,
    /// unsliceable quantifiers), role histories and a disabled cache.
    Scan,
}

impl CheckPath {
    /// Stable lower-case label, used in traces and metric names.
    pub fn label(self) -> &'static str {
        match self {
            CheckPath::Monitored => "monitored",
            CheckPath::Scan => "scan",
        }
    }
}

/// One observable runtime event. Events are emitted only when an
/// [`crate::Observer`] is enabled, so owned `String` fields are fine:
/// the disabled path never constructs them.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A step began executing (before the calling closure).
    StepStarted {
        /// Sequence number of the attempt (counts committed and
        /// rolled-back steps alike).
        step: u64,
        /// Rendering of the initiating occurrence (`id[class].event`).
        initial: String,
    },
    /// An occurrence was scheduled into the step's synchronous closure
    /// (the initiating event and everything it calls).
    EventCalled {
        /// Instance identity.
        instance: String,
        /// Context class of the occurrence.
        ctx_class: String,
        /// Event name.
        event: String,
    },
    /// A permission precondition was evaluated.
    PermissionChecked {
        /// Instance identity.
        instance: String,
        /// The guarded event.
        event: String,
        /// Monitored or scan path.
        path: CheckPath,
        /// Whether the permission granted the event.
        granted: bool,
    },
    /// A constraint was evaluated on the post-state.
    ConstraintChecked {
        /// Instance identity.
        instance: String,
        /// Monitored or scan path.
        path: CheckPath,
        /// Whether the constraint held.
        satisfied: bool,
    },
    /// Valuation rules of one occurrence were applied.
    ValuationApplied {
        /// Instance identity.
        instance: String,
        /// The event whose rules ran.
        event: String,
        /// Number of attribute updates applied.
        updates: usize,
    },
    /// Delta accounting for one occurrence's valuation rules: how many
    /// collection-valued rules were applied incrementally (path-copied
    /// onto the shared pre-state handle) versus recomputed in full
    /// despite having a delta-able shape (oracle / forced-recompute
    /// configurations). Emitted only when at least one field is
    /// nonzero.
    ValuationDelta {
        /// Instance identity.
        instance: String,
        /// The event whose rules ran.
        event: String,
        /// Rules applied through delta ops.
        delta: usize,
        /// Delta-shaped rules evaluated by full recompute.
        recomputed: usize,
    },
    /// A committed step was fed to the instance's live monitors.
    MonitorFed {
        /// Instance identity.
        instance: String,
        /// Number of active monitors that consumed the step.
        monitors: usize,
    },
    /// The step committed.
    StepCommitted {
        /// Sequence number of the attempt.
        step: u64,
        /// Occurrences in the committed closure.
        occurrences: usize,
        /// Wall-clock duration of the step, monotonic-clock timed.
        nanos: u64,
    },
    /// The step rolled back (permission refusal, constraint violation,
    /// or any other error) leaving the base unchanged.
    StepRolledBack {
        /// Sequence number of the attempt.
        step: u64,
        /// Human-readable rollback reason.
        reason: String,
        /// Wall-clock duration until the rollback.
        nanos: u64,
    },
    /// The durable store appended a committed step to the WAL.
    StoreAppended {
        /// Step-attempt sequence number of the committed step.
        step: u64,
        /// Log sequence number assigned by the WAL.
        seq: u64,
    },
    /// The durable store fsynced the WAL.
    StoreFsynced {
        /// Step-attempt sequence number that triggered the sync.
        step: u64,
        /// Wall-clock duration of the sync.
        nanos: u64,
    },
    /// The durable store wrote a snapshot.
    SnapshotWritten {
        /// Log sequence number the snapshot covers up to (exclusive).
        seq: u64,
        /// Wall-clock duration of the snapshot write.
        nanos: u64,
    },
    /// A world was recovered from a durable directory.
    StoreRecovered {
        /// Log sequence number of the snapshot used, if any.
        snapshot_seq: Option<u64>,
        /// Committed steps replayed from the WAL tail.
        replayed: u64,
        /// Bytes of torn/corrupt WAL tail discarded.
        truncated_bytes: u64,
        /// Next log sequence number after recovery.
        next_seq: u64,
    },
    /// A one-shot evaluator fallback fired (previously a bare
    /// `eprintln!`): the scan evaluator standing in for an
    /// unmonitorable temporal formula, or the tree walk standing in
    /// for an uncompilable VM term.
    FallbackNoted {
        /// Which fallback: `"temporal.scan_fallback"` or
        /// `"vm.fallback"` (matches the global counter name).
        fallback: String,
        /// The formula or term that fell back.
        what: String,
        /// Why it fell back.
        detail: String,
    },
}

impl ObsEvent {
    /// Stable kind tag, used as the `"ev"` field in JSON-lines traces.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::StepStarted { .. } => "step_started",
            ObsEvent::EventCalled { .. } => "event_called",
            ObsEvent::PermissionChecked { .. } => "permission_checked",
            ObsEvent::ConstraintChecked { .. } => "constraint_checked",
            ObsEvent::ValuationApplied { .. } => "valuation_applied",
            ObsEvent::ValuationDelta { .. } => "valuation_delta",
            ObsEvent::MonitorFed { .. } => "monitor_fed",
            ObsEvent::StepCommitted { .. } => "step_committed",
            ObsEvent::StepRolledBack { .. } => "step_rolled_back",
            ObsEvent::StoreAppended { .. } => "store_appended",
            ObsEvent::StoreFsynced { .. } => "store_fsynced",
            ObsEvent::SnapshotWritten { .. } => "snapshot_written",
            ObsEvent::StoreRecovered { .. } => "store_recovered",
            ObsEvent::FallbackNoted { .. } => "fallback_noted",
        }
    }

    /// Renders the event as one JSON object (no trailing newline). The
    /// encoding is hand-rolled — the workspace is hermetic — but emits
    /// strict JSON: strings are escaped, numbers are plain integers.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"ev\":");
        push_json_str(&mut out, self.kind());
        match self {
            ObsEvent::StepStarted { step, initial } => {
                push_field_u64(&mut out, "step", *step);
                push_field_str(&mut out, "initial", initial);
            }
            ObsEvent::EventCalled {
                instance,
                ctx_class,
                event,
            } => {
                push_field_str(&mut out, "instance", instance);
                push_field_str(&mut out, "class", ctx_class);
                push_field_str(&mut out, "event", event);
            }
            ObsEvent::PermissionChecked {
                instance,
                event,
                path,
                granted,
            } => {
                push_field_str(&mut out, "instance", instance);
                push_field_str(&mut out, "event", event);
                push_field_str(&mut out, "path", path.label());
                push_field_bool(&mut out, "granted", *granted);
            }
            ObsEvent::ConstraintChecked {
                instance,
                path,
                satisfied,
            } => {
                push_field_str(&mut out, "instance", instance);
                push_field_str(&mut out, "path", path.label());
                push_field_bool(&mut out, "satisfied", *satisfied);
            }
            ObsEvent::ValuationApplied {
                instance,
                event,
                updates,
            } => {
                push_field_str(&mut out, "instance", instance);
                push_field_str(&mut out, "event", event);
                push_field_u64(&mut out, "updates", *updates as u64);
            }
            ObsEvent::ValuationDelta {
                instance,
                event,
                delta,
                recomputed,
            } => {
                push_field_str(&mut out, "instance", instance);
                push_field_str(&mut out, "event", event);
                push_field_u64(&mut out, "delta", *delta as u64);
                push_field_u64(&mut out, "recomputed", *recomputed as u64);
            }
            ObsEvent::MonitorFed { instance, monitors } => {
                push_field_str(&mut out, "instance", instance);
                push_field_u64(&mut out, "monitors", *monitors as u64);
            }
            ObsEvent::StepCommitted {
                step,
                occurrences,
                nanos,
            } => {
                push_field_u64(&mut out, "step", *step);
                push_field_u64(&mut out, "occurrences", *occurrences as u64);
                push_field_u64(&mut out, "nanos", *nanos);
            }
            ObsEvent::StepRolledBack {
                step,
                reason,
                nanos,
            } => {
                push_field_u64(&mut out, "step", *step);
                push_field_str(&mut out, "reason", reason);
                push_field_u64(&mut out, "nanos", *nanos);
            }
            ObsEvent::StoreAppended { step, seq } => {
                push_field_u64(&mut out, "step", *step);
                push_field_u64(&mut out, "seq", *seq);
            }
            ObsEvent::StoreFsynced { step, nanos } => {
                push_field_u64(&mut out, "step", *step);
                push_field_u64(&mut out, "nanos", *nanos);
            }
            ObsEvent::SnapshotWritten { seq, nanos } => {
                push_field_u64(&mut out, "seq", *seq);
                push_field_u64(&mut out, "nanos", *nanos);
            }
            ObsEvent::StoreRecovered {
                snapshot_seq,
                replayed,
                truncated_bytes,
                next_seq,
            } => {
                push_field_opt_u64(&mut out, "snapshot_seq", *snapshot_seq);
                push_field_u64(&mut out, "replayed", *replayed);
                push_field_u64(&mut out, "truncated_bytes", *truncated_bytes);
                push_field_u64(&mut out, "next_seq", *next_seq);
            }
            ObsEvent::FallbackNoted {
                fallback,
                what,
                detail,
            } => {
                push_field_str(&mut out, "fallback", fallback);
                push_field_str(&mut out, "what", what);
                push_field_str(&mut out, "detail", detail);
            }
        }
        out.push('}');
        out
    }
}

fn push_field_str(out: &mut String, key: &str, value: &str) {
    out.push(',');
    push_json_str(out, key);
    out.push(':');
    push_json_str(out, value);
}

fn push_field_u64(out: &mut String, key: &str, value: u64) {
    out.push(',');
    push_json_str(out, key);
    out.push(':');
    out.push_str(&value.to_string());
}

fn push_field_opt_u64(out: &mut String, key: &str, value: Option<u64>) {
    out.push(',');
    push_json_str(out, key);
    out.push(':');
    match value {
        Some(v) => out.push_str(&v.to_string()),
        None => out.push_str("null"),
    }
}

fn push_field_bool(out: &mut String, key: &str, value: bool) {
    out.push(',');
    push_json_str(out, key);
    out.push(':');
    out.push_str(if value { "true" } else { "false" });
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_encoding_is_strict() {
        let ev = ObsEvent::PermissionChecked {
            instance: "|DEPT|(\"Toys\")".into(),
            event: "fire".into(),
            path: CheckPath::Monitored,
            granted: false,
        };
        assert_eq!(
            ev.to_json(),
            r#"{"ev":"permission_checked","instance":"|DEPT|(\"Toys\")","event":"fire","path":"monitored","granted":false}"#
        );
    }

    #[test]
    fn control_characters_escaped() {
        let ev = ObsEvent::StepRolledBack {
            step: 3,
            reason: "line1\nline2\u{1}".into(),
            nanos: 42,
        };
        let json = ev.to_json();
        assert!(json.contains("\\n"), "{json}");
        assert!(json.contains("\\u0001"), "{json}");
        assert!(!json.contains('\n'), "one physical line: {json}");
    }

    #[test]
    fn every_kind_is_distinct() {
        let kinds = [
            ObsEvent::StepStarted {
                step: 0,
                initial: String::new(),
            }
            .kind(),
            ObsEvent::EventCalled {
                instance: String::new(),
                ctx_class: String::new(),
                event: String::new(),
            }
            .kind(),
            ObsEvent::PermissionChecked {
                instance: String::new(),
                event: String::new(),
                path: CheckPath::Scan,
                granted: true,
            }
            .kind(),
            ObsEvent::ConstraintChecked {
                instance: String::new(),
                path: CheckPath::Scan,
                satisfied: true,
            }
            .kind(),
            ObsEvent::ValuationApplied {
                instance: String::new(),
                event: String::new(),
                updates: 0,
            }
            .kind(),
            ObsEvent::ValuationDelta {
                instance: String::new(),
                event: String::new(),
                delta: 0,
                recomputed: 0,
            }
            .kind(),
            ObsEvent::MonitorFed {
                instance: String::new(),
                monitors: 0,
            }
            .kind(),
            ObsEvent::StepCommitted {
                step: 0,
                occurrences: 0,
                nanos: 0,
            }
            .kind(),
            ObsEvent::StepRolledBack {
                step: 0,
                reason: String::new(),
                nanos: 0,
            }
            .kind(),
            ObsEvent::StoreAppended { step: 0, seq: 0 }.kind(),
            ObsEvent::StoreFsynced { step: 0, nanos: 0 }.kind(),
            ObsEvent::SnapshotWritten { seq: 0, nanos: 0 }.kind(),
            ObsEvent::StoreRecovered {
                snapshot_seq: None,
                replayed: 0,
                truncated_bytes: 0,
                next_seq: 0,
            }
            .kind(),
            ObsEvent::FallbackNoted {
                fallback: String::new(),
                what: String::new(),
                detail: String::new(),
            }
            .kind(),
        ];
        let unique: std::collections::BTreeSet<_> = kinds.iter().collect();
        assert_eq!(unique.len(), kinds.len());
    }

    #[test]
    fn optional_fields_encode_as_null() {
        let ev = ObsEvent::StoreRecovered {
            snapshot_seq: None,
            replayed: 3,
            truncated_bytes: 0,
            next_seq: 3,
        };
        assert_eq!(
            ev.to_json(),
            r#"{"ev":"store_recovered","snapshot_seq":null,"replayed":3,"truncated_bytes":0,"next_seq":3}"#
        );
        let ev = ObsEvent::StoreRecovered {
            snapshot_seq: Some(4),
            replayed: 0,
            truncated_bytes: 0,
            next_seq: 4,
        };
        assert!(
            ev.to_json().contains("\"snapshot_seq\":4"),
            "{}",
            ev.to_json()
        );
    }
}
