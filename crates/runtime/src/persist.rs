//! Durability hooks: step sinks and whole-world dump/restore.
//!
//! The durable event log (`troll-store`) lives *above* the runtime and
//! plugs in through this small surface:
//!
//! * a [`StepSink`] observes every **committed** step — every step
//!   funnels through the runtime's single commit point, so a sink sees
//!   steps in deterministic commit order and never sees a rolled-back
//!   step;
//! * [`InstanceDump`] / [`crate::ObjectBase::dump_instances`] /
//!   [`crate::ObjectBase::restore`] move whole worlds out of and back
//!   into an object base (snapshots). Dumps share the persistent
//!   [`StateMap`] roots, so taking one is cheap.

use troll_data::{ObjectId, StateMap};
use troll_temporal::Trace;

use crate::base::{ObjectBase, Occurrence};
use crate::instance::{Instance, RoleState};

/// Observes committed steps, in commit order.
///
/// The sink is called *after* the step's working states have moved into
/// the instance store, with the post-step base and the step's **initial**
/// occurrence vector (the externally requested events, before closure
/// under event calling). Replaying the initial occurrences through
/// [`ObjectBase::replay_step`] re-runs the deterministic engine and
/// reproduces the full closure — the log records requests, the engine
/// *is* the semantics.
///
/// `Send + Sync` is required because a served [`ObjectBase`] sits behind
/// a lock shared by the server's worker threads.
pub trait StepSink: std::fmt::Debug + Send + Sync {
    /// Called once per committed step.
    fn on_step_committed(&mut self, base: &ObjectBase, initial: &[Occurrence]);
}

/// Deep dump of one role (phase) state — see [`InstanceDump`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoleDump {
    /// Role class name.
    pub name: String,
    /// Role-local attribute state.
    pub attrs: StateMap,
    /// Whether the role is currently active.
    pub active: bool,
    /// Role-local history.
    pub trace: Trace,
}

/// Deep dump of one instance: everything needed to rebuild it exactly
/// (identity, class, state, full history, life-cycle flags, roles).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceDump {
    /// The instance identity.
    pub id: ObjectId,
    /// The creation class.
    pub class: String,
    /// Stored attribute state.
    pub state: StateMap,
    /// The object's history.
    pub trace: Trace,
    /// Whether the instance is alive.
    pub alive: bool,
    /// Whether the instance was ever born.
    pub born: bool,
    /// Role states, in role-name order.
    pub roles: Vec<RoleDump>,
}

impl InstanceDump {
    pub(crate) fn of(inst: &Instance) -> InstanceDump {
        InstanceDump {
            id: inst.id().clone(),
            class: inst.class().to_string(),
            state: inst.state.clone(),
            trace: inst.trace.clone(),
            alive: inst.alive,
            born: inst.born,
            roles: inst
                .roles
                .iter()
                .map(|(name, r)| RoleDump {
                    name: name.clone(),
                    attrs: r.attrs.clone(),
                    active: r.active,
                    trace: r.trace.clone(),
                })
                .collect(),
        }
    }

    pub(crate) fn into_instance(self) -> Instance {
        let mut inst = Instance::new(self.id, self.class);
        inst.state = self.state;
        inst.trace = self.trace;
        inst.alive = self.alive;
        inst.born = self.born;
        inst.roles = self
            .roles
            .into_iter()
            .map(|r| {
                (
                    r.name,
                    RoleState {
                        attrs: r.attrs,
                        active: r.active,
                        trace: r.trace,
                    },
                )
            })
            .collect();
        inst
    }
}
