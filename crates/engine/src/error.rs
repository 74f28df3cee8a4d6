//! Engine error type.

use rough_core::SwmError;
use std::fmt;

/// Errors raised while planning or executing a campaign.
#[derive(Debug)]
pub enum EngineError {
    /// The scenario definition is inconsistent (empty grids, missing mode,
    /// deterministic mode without a surface, …).
    InvalidScenario(String),
    /// A deterministic SWM solve failed inside the campaign.
    Solve(SwmError),
    /// A result sink could not be written.
    Io(std::io::Error),
    /// The run was cancelled before every unit completed. Completed units are
    /// preserved in the checkpoint (when one was configured) and the run can
    /// be continued with [`crate::run::Run::resume`].
    Interrupted {
        /// Units whose records were committed before the cancellation.
        completed: usize,
        /// Total units the plan schedules.
        total: usize,
    },
    /// A checkpoint file could not be written, read or validated.
    Checkpoint(String),
    /// A socket transport failed: framing violation, connection loss that no
    /// surviving worker could absorb, or a daemon protocol error.
    Socket(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidScenario(reason) => {
                write!(f, "invalid scenario: {reason}")
            }
            EngineError::Solve(error) => write!(f, "SWM solve failed: {error}"),
            EngineError::Io(error) => write!(f, "result sink failed: {error}"),
            EngineError::Interrupted { completed, total } => {
                write!(f, "run interrupted after {completed} of {total} units")
            }
            EngineError::Checkpoint(reason) => write!(f, "checkpoint failed: {reason}"),
            EngineError::Socket(reason) => write!(f, "socket transport failed: {reason}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Solve(error) => Some(error),
            EngineError::Io(error) => Some(error),
            EngineError::InvalidScenario(_)
            | EngineError::Interrupted { .. }
            | EngineError::Checkpoint(_)
            | EngineError::Socket(_) => None,
        }
    }
}

impl From<SwmError> for EngineError {
    fn from(error: SwmError) -> Self {
        EngineError::Solve(error)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(error: std::io::Error) -> Self {
        EngineError::Io(error)
    }
}
