//! Runtime error type.

use std::fmt;
use troll_data::DataError;
use troll_temporal::TemporalError;

/// Error raised while executing events against an [`crate::ObjectBase`].
///
/// Any error rolls back the entire step: the object base is unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Referenced class does not exist in the model.
    UnknownClass(String),
    /// Referenced instance does not exist.
    UnknownInstance(String),
    /// Referenced event does not exist on the class (or its roles).
    UnknownEvent {
        /// Class searched.
        class: String,
        /// Event name.
        event: String,
    },
    /// Referenced attribute does not exist.
    UnknownAttribute {
        /// Class searched.
        class: String,
        /// Attribute name.
        attribute: String,
    },
    /// Referenced interface does not exist.
    UnknownInterface(String),
    /// Wrong number of event arguments.
    ArityMismatch {
        /// Event name.
        event: String,
        /// Expected count.
        expected: usize,
        /// Given count.
        found: usize,
    },
    /// Birth attempted for an identity that already exists.
    AlreadyBorn(String),
    /// Event on an instance that is not alive (unborn or dead).
    NotAlive(String),
    /// A birth event's identity belongs to a different class.
    IdentityClassMismatch {
        /// Identity's class tag.
        identity_class: String,
        /// Expected class.
        expected: String,
    },
    /// A non-birth event was used to create an instance, or vice versa.
    LifeCycleViolation(String),
    /// A permission forbade the event.
    NotPermitted {
        /// The instance.
        instance: String,
        /// The refused event.
        event: String,
        /// The failed precondition.
        formula: String,
    },
    /// A constraint was violated by the step's post-state.
    ConstraintViolated {
        /// The instance.
        instance: String,
        /// The violated constraint.
        formula: String,
    },
    /// Event-calling closure did not converge (cyclic calling rules).
    CallingCycle(String),
    /// A view selection/derivation failed.
    ViewError(String),
    /// Role (phase) not active on the instance.
    RoleNotActive {
        /// The instance.
        instance: String,
        /// Role class.
        role: String,
    },
    /// Data-level evaluation failure.
    Data(DataError),
    /// Temporal-formula evaluation failure.
    Temporal(TemporalError),
    /// An engine invariant did not hold mid-step (e.g. a working-map
    /// entry vanished during event calling). The step rolls back like
    /// any other error instead of panicking — served steps run under the
    /// world's lock, which a panic would poison.
    Internal(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownClass(c) => write!(f, "unknown class `{c}`"),
            RuntimeError::UnknownInstance(i) => write!(f, "unknown instance {i}"),
            RuntimeError::UnknownEvent { class, event } => {
                write!(f, "class `{class}` has no event `{event}`")
            }
            RuntimeError::UnknownAttribute { class, attribute } => {
                write!(f, "class `{class}` has no attribute `{attribute}`")
            }
            RuntimeError::UnknownInterface(i) => write!(f, "unknown interface `{i}`"),
            RuntimeError::ArityMismatch {
                event,
                expected,
                found,
            } => write!(
                f,
                "event `{event}` takes {expected} argument(s), got {found}"
            ),
            RuntimeError::AlreadyBorn(i) => write!(f, "instance {i} already exists"),
            RuntimeError::NotAlive(i) => write!(f, "instance {i} is not alive"),
            RuntimeError::IdentityClassMismatch {
                identity_class,
                expected,
            } => write!(
                f,
                "identity belongs to class `{identity_class}`, expected `{expected}`"
            ),
            RuntimeError::LifeCycleViolation(msg) => write!(f, "life cycle violation: {msg}"),
            RuntimeError::NotPermitted {
                instance,
                event,
                formula,
            } => write!(
                f,
                "event `{event}` not permitted on {instance}: precondition {formula} does not hold"
            ),
            RuntimeError::ConstraintViolated { instance, formula } => {
                write!(f, "constraint violated on {instance}: {formula}")
            }
            RuntimeError::CallingCycle(msg) => write!(f, "event calling did not converge: {msg}"),
            RuntimeError::ViewError(msg) => write!(f, "view evaluation failed: {msg}"),
            RuntimeError::RoleNotActive { instance, role } => {
                write!(f, "role `{role}` not active on {instance}")
            }
            RuntimeError::Data(e) => write!(f, "data error: {e}"),
            RuntimeError::Temporal(e) => write!(f, "temporal error: {e}"),
            RuntimeError::Internal(msg) => {
                write!(f, "internal runtime invariant violated: {msg}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Data(e) => Some(e),
            RuntimeError::Temporal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for RuntimeError {
    fn from(e: DataError) -> Self {
        RuntimeError::Data(e)
    }
}

impl From<TemporalError> for RuntimeError {
    fn from(e: TemporalError) -> Self {
        RuntimeError::Temporal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: RuntimeError = DataError::UnboundVariable("x".into()).into();
        assert!(e.to_string().contains("unbound variable"));
        let e: RuntimeError = TemporalError::PositionOutOfRange {
            position: 1,
            len: 0,
        }
        .into();
        assert!(e.to_string().contains("temporal error"));
        let e = RuntimeError::NotPermitted {
            instance: "DEPT(\"Toys\")".into(),
            event: "fire".into(),
            formula: "sometime(after(hire(P)))".into(),
        };
        assert!(e.to_string().contains("not permitted"));
        use std::error::Error;
        assert!(RuntimeError::UnknownClass("X".into()).source().is_none());
        assert!(RuntimeError::Data(DataError::UnboundVariable("x".into()))
            .source()
            .is_some());
    }
}
