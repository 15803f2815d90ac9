//! Task-execution vocabulary shared by the plan runner: the default worker
//! count, panic-payload decoding, and the error types a task attempt or an
//! exhausted retry budget surfaces as.
//!
//! The worker pool itself — claim, run outside the lock, retry with
//! backoff, fault injection — lives in [`crate::plan`]; there is no second
//! scheduler.

use ssj_faults::{Fault, InjectedPanic, Phase};

/// Number of worker threads to use by default: the host's available
/// parallelism (at least 1).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Render a caught panic payload as the message a [`TaskError`] carries.
pub(crate) fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        format!(
            "ssj-faults: injected panic (job={}, {} task {}, attempt {})",
            p.job,
            p.phase.name(),
            p.task,
            p.attempt
        )
    } else {
        "non-string panic payload".to_string()
    }
}

/// How one task attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task body panicked; message extracted from the payload.
    Panicked(String),
    /// The fault plan injected this failure.
    Injected(Fault),
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked(msg) => write!(f, "panicked: {msg}"),
            TaskError::Injected(fault) => write!(f, "injected {}", fault.name()),
        }
    }
}

/// A task that exhausted its retry budget.
#[derive(Debug, Clone)]
pub struct TaskFailure {
    /// Job the task belonged to.
    pub job: String,
    /// Map or reduce.
    pub phase: Phase,
    /// Task index within the phase.
    pub index: usize,
    /// Attempts launched before giving up.
    pub attempts: u32,
    /// The last attempt's error.
    pub error: TaskError,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {:?}: {} task {} failed after {} attempts: {}",
            self.job,
            self.phase.name(),
            self.index,
            self.attempts,
            self.error
        )
    }
}

impl std::error::Error for TaskFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
