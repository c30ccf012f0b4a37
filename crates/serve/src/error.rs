use std::fmt;

use edvit_edge::EdgeError;
use edvit_sched::SchedError;

/// Error type of the serving front-door.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The server was configured inconsistently (no tenants, a zero arrival
    /// rate, unsorted request arrivals, ...).
    InvalidConfig {
        /// Human-readable description.
        message: String,
    },
    /// The embedded streaming scheduler failed while executing the formed
    /// rounds, or a mid-drill crash left a membership the scheduler's
    /// replan rejects (propagated from `edvit-sched`).
    Sched(SchedError),
    /// The analytic latency model rejected a round (propagated from
    /// `edvit-edge`), e.g. an empty plan.
    Edge(EdgeError),
    /// Every device crashed during the drill; there is no membership left to
    /// serve the queued requests on.
    AllDevicesLost {
        /// Device ids lost, in crash order.
        lost: Vec<usize>,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig { message } => {
                write!(f, "invalid serving configuration: {message}")
            }
            ServeError::Sched(e) => write!(f, "serving stream failure: {e}"),
            ServeError::Edge(e) => write!(f, "serving latency model failure: {e}"),
            ServeError::AllDevicesLost { lost } => write!(
                f,
                "every device crashed mid-drill (lost, in order: {lost:?}); nothing left to serve on"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sched(e) => Some(e),
            ServeError::Edge(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchedError> for ServeError {
    fn from(e: SchedError) -> Self {
        ServeError::Sched(e)
    }
}

impl From<EdgeError> for ServeError {
    fn from(e: EdgeError) -> Self {
        ServeError::Edge(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources_cover_every_variant() {
        let invalid = ServeError::InvalidConfig {
            message: "no tenants".into(),
        };
        assert!(invalid.to_string().contains("no tenants"));
        let sched: ServeError = SchedError::InvalidConfig {
            message: "round size 0".into(),
        }
        .into();
        assert!(matches!(sched, ServeError::Sched(_)));
        assert!(sched.to_string().contains("round size 0"));
        let edge: ServeError = EdgeError::InvalidConfig {
            message: "empty plan".into(),
        }
        .into();
        assert!(matches!(edge, ServeError::Edge(_)));
        assert!(edge.to_string().contains("empty plan"));
        let lost = ServeError::AllDevicesLost { lost: vec![2, 0] };
        assert!(lost.to_string().contains("[2, 0]"));
        use std::error::Error;
        assert!(invalid.source().is_none());
        assert!(sched.source().is_some());
        assert!(edge.source().is_some());
        assert!(lost.source().is_none());
    }
}
