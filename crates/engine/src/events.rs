//! Typed run events and the observer interface.
//!
//! A [`crate::run::Run`] streams [`RunEvent`]s to its registered
//! [`RunObserver`] *while* work executes — long campaigns report progress
//! unit by unit instead of going dark until the final report. Observers run
//! on worker threads, so implementations must be cheap and non-blocking;
//! anything heavier should forward through [`ChannelObserver`] and drain the
//! channel elsewhere.

use crate::cache::CacheStats;
use crate::report::UnitRecord;
use std::sync::mpsc::Sender;
use std::time::Duration;

/// One progress event of an executing run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// An executor picked up a unit.
    UnitStarted {
        /// Unit id (position in the plan).
        unit: usize,
        /// Index of the owning case.
        case_index: usize,
    },
    /// A unit finished and its record was committed (and checkpointed, when a
    /// checkpoint is configured).
    UnitCompleted {
        /// The committed record.
        record: UnitRecord,
        /// Measured wall time of the unit's solve — observed between this
        /// unit's `UnitStarted` and its completion, or measured by the socket
        /// worker around its own solve. Every shipped executor sets it;
        /// units restored from a checkpoint emit no event at all. This is the
        /// raw material for calibrating [`crate::schedule::CostOrdered`] from
        /// real data.
        wall: Option<Duration>,
    },
    /// Every unit of one case has completed.
    CaseCompleted {
        /// Index into the plan's cases.
        case_index: usize,
        /// Units the case scheduled.
        units: usize,
    },
    /// A distributed worker died or stopped heartbeating; its in-flight
    /// units were re-queued for surviving workers. Because every unit's
    /// randomness is fixed at plan time, re-dispatch never changes the
    /// report — this event exists so operators can see the fleet shrink.
    WorkerLost {
        /// Index of the lost worker within its executor.
        worker: usize,
        /// In-flight units returned to the dispatch queue.
        requeued: usize,
    },
    /// The worker fleet permanently shrank: a worker exhausted its respawn
    /// budget (the flapping-worker circuit breaker) and the executor degraded
    /// to the surviving workers instead of respawning forever. Results are
    /// unaffected — only throughput drops.
    FleetDegraded {
        /// Workers still serving the run.
        active: usize,
        /// Workers the executor was configured with.
        configured: usize,
    },
    /// A record was durably appended to the checkpoint file.
    CheckpointWritten {
        /// Records now resident in the checkpoint (including resumed ones).
        units_recorded: usize,
    },
    /// An adaptive frequency sweep solved (or restored) one frequency point.
    /// Emitted by the broadband sweep driver between its refinement rounds,
    /// not by single-scenario runs.
    SweepPointSolved {
        /// The solved frequency in Hz.
        frequency_hz: f64,
        /// The roughness-loss enhancement factor at that frequency.
        value: f64,
        /// Points solved so far (including this one).
        solved: usize,
        /// The sweep's total point budget.
        budget: usize,
    },
    /// The run completed; the final [`crate::CampaignReport`] is about to be
    /// returned.
    RunFinished {
        /// Units evaluated (including units restored from a checkpoint).
        units: usize,
        /// Kernel-cache activity attributed to this run.
        cache: CacheStats,
        /// Wall-clock execution time of this run (excludes resumed work).
        wall_time: Duration,
    },
}

/// Receives [`RunEvent`]s from an executing run.
///
/// Called from worker threads; implementations must be `Send + Sync` and
/// should return quickly.
pub trait RunObserver: Send + Sync {
    /// Handles one event.
    fn on_event(&self, event: &RunEvent);
}

/// Forwards events into an [`mpsc`](std::sync::mpsc) channel, decoupling
/// consumers from worker threads. Events arriving after the receiver is
/// dropped are discarded silently.
#[derive(Debug)]
pub struct ChannelObserver {
    sender: Sender<RunEvent>,
}

impl ChannelObserver {
    /// Wraps a channel sender.
    pub fn new(sender: Sender<RunEvent>) -> Self {
        Self { sender }
    }
}

impl RunObserver for ChannelObserver {
    fn on_event(&self, event: &RunEvent) {
        // A closed receiver just means nobody is watching anymore.
        let _ = self.sender.send(event.clone());
    }
}

/// Calls a closure for every event — the lightest way to hook progress
/// printing into a [`crate::run::RunConfig`].
pub struct FnObserver<F: Fn(&RunEvent) + Send + Sync>(pub F);

impl<F: Fn(&RunEvent) + Send + Sync> RunObserver for FnObserver<F> {
    fn on_event(&self, event: &RunEvent) {
        (self.0)(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn channel_observer_forwards_and_survives_closed_receivers() {
        let (tx, rx) = mpsc::channel();
        let observer = ChannelObserver::new(tx);
        let event = RunEvent::UnitStarted {
            unit: 3,
            case_index: 1,
        };
        observer.on_event(&event);
        assert_eq!(rx.recv().unwrap(), event);
        drop(rx);
        observer.on_event(&event); // must not panic
    }

    #[test]
    fn fn_observer_invokes_the_closure() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let observer = FnObserver(|_: &RunEvent| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        observer.on_event(&RunEvent::CheckpointWritten { units_recorded: 1 });
        observer.on_event(&RunEvent::CheckpointWritten { units_recorded: 2 });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }
}
