//! The structured event vocabulary.
//!
//! Every observable moment of a run — a privileged invocation, a
//! migration leg, an epoch boundary, a tuner decision — is one
//! [`Event`]: a timestamped span (or instant) on a [`Track`], carrying a
//! typed [`EventKind`] payload. The vocabulary is deliberately closed:
//! exporters can render every variant without a fallback path, and the
//! hot-path payloads hold only `Copy` data and `&'static str` names so
//! that recording an event never allocates.

/// Where an event belongs on the timeline.
///
/// Tracks map to Chrome-trace `tid`s: software threads come first, then
/// hardware cores (offset so they never collide with realistic thread
/// counts), one control track for the tuner, and runner workers for
/// sweep self-profiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Track {
    /// A software thread (per-thread spans: invocations, user bursts).
    Thread(usize),
    /// A hardware core (service spans on the OS core).
    Core(usize),
    /// The epoch/tuner control track.
    Control,
    /// A runner worker thread (sweep self-profiling).
    Worker(usize),
}

impl Track {
    /// The Chrome-trace thread id this track renders as.
    pub fn tid(&self) -> u64 {
        match *self {
            Track::Thread(t) => t as u64,
            Track::Core(c) => 1_000 + c as u64,
            Track::Control => 999,
            Track::Worker(w) => w as u64,
        }
    }

    /// Human-readable track label (Chrome-trace `thread_name` metadata).
    pub fn label(&self) -> String {
        match *self {
            Track::Thread(t) => format!("thread {t}"),
            Track::Core(c) => format!("core {c}"),
            Track::Control => "epoch/tuner".to_string(),
            Track::Worker(w) => format!("worker {w}"),
        }
    }
}

/// Where an invocation's privileged work ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// On the user core, at full speed.
    Local,
    /// On the user core, throttled by resource adaptation (§VI-B).
    Throttled,
    /// On an OS core, after a migration.
    OsCore,
}

/// The typed payload of one event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// One privileged invocation, end to end (entry to return).
    Invocation {
        /// Entry-point name (from the syscall catalog).
        name: &'static str,
        /// Trap-convention routine number.
        trap: u64,
        /// AState hash at entry.
        astate: u64,
        /// Predicted run length, if the policy predicted.
        predicted: Option<u64>,
        /// Whether the invocation was off-loaded (or throttled).
        offloaded: bool,
        /// Actual run length in instructions.
        actual_len: u64,
        /// Cycles spent queued for the OS core (0 when local).
        queue_delay: u64,
        /// Decision overhead charged on entry, in cycles.
        decision: u64,
        /// Cold-start warm-up charged on the OS core (0 unless it ran
        /// there).
        cold_penalty: u64,
        /// Where the privileged work ran.
        placement: Placement,
    },
    /// A user-mode execution burst.
    UserBurst {
        /// Burst length in instructions.
        len: u64,
    },
    /// One migration leg of an off-loaded thread.
    Migration {
        /// `true` for user→OS, `false` for the return leg.
        outbound: bool,
    },
    /// Time an off-loaded request waited for the OS core (§V-C).
    QueueWait,
    /// The OS core serving one off-loaded invocation.
    OsService {
        /// Entry-point name.
        name: &'static str,
        /// Service length in instructions.
        len: u64,
    },
    /// An epoch boundary sample (instant).
    Epoch {
        /// Zero-based epoch index.
        index: u64,
        /// L2 hit rate measured over the sampling interval.
        l2_hit_rate: f64,
    },
    /// A §III-B tuner decision (instant).
    TunerDecision {
        /// Threshold `N` the tuner directed.
        threshold: u64,
        /// Epoch length the tuner directed.
        epoch_len: u64,
        /// Whether the new threshold was adopted (vs. held).
        adopted: bool,
    },
    /// One unit of runner work (a sweep point); timestamps are in
    /// microseconds of sweep wall-clock rather than simulated cycles.
    Task {
        /// Point identifier.
        name: String,
        /// Whether the evaluation completed.
        ok: bool,
    },
    /// A point evaluation being re-run after a failed attempt (instant,
    /// runner control track).
    Retry {
        /// The attempt that failed (1 = first try).
        attempt: u32,
    },
    /// A point cancelled by the worker watchdog (instant, runner
    /// control track).
    Timeout {
        /// The soft deadline that expired, in milliseconds.
        deadline_ms: u64,
    },
    /// Deterministic fault-plan injections firing on a point (instant,
    /// runner control track).
    Fault {
        /// How many injections (panics, delays, I/O errors) hit the
        /// point.
        injected: u32,
    },
}

impl EventKind {
    /// The display name exporters use (`name` in Chrome traces).
    pub fn name(&self) -> &str {
        match self {
            EventKind::Invocation { name, .. } | EventKind::OsService { name, .. } => name,
            EventKind::UserBurst { .. } => "user",
            EventKind::Migration { outbound: true } => "migrate-out",
            EventKind::Migration { outbound: false } => "migrate-back",
            EventKind::QueueWait => "queue-wait",
            EventKind::Epoch { .. } => "epoch",
            EventKind::TunerDecision { .. } => "tuner",
            EventKind::Task { name, .. } => name,
            EventKind::Retry { .. } => "retry",
            EventKind::Timeout { .. } => "timeout",
            EventKind::Fault { .. } => "fault",
        }
    }

    /// The event category (`cat` in Chrome traces), used for filtering.
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::Invocation { .. } => "invocation",
            EventKind::UserBurst { .. } => "user",
            EventKind::Migration { .. } => "migration",
            EventKind::QueueWait => "queue",
            EventKind::OsService { .. } => "os-service",
            EventKind::Epoch { .. } => "epoch",
            EventKind::TunerDecision { .. } => "tuner",
            EventKind::Task { .. } => "runner",
            EventKind::Retry { .. } | EventKind::Timeout { .. } | EventKind::Fault { .. } => {
                "runner"
            }
        }
    }

    /// Whether the event is an instantaneous marker rather than a span.
    pub fn is_instant(&self) -> bool {
        matches!(
            self,
            EventKind::Epoch { .. }
                | EventKind::TunerDecision { .. }
                | EventKind::Retry { .. }
                | EventKind::Timeout { .. }
                | EventKind::Fault { .. }
        )
    }
}

/// One telemetry event: a payload placed at `ts` (simulated cycles, or
/// microseconds for runner tracks) with duration `dur` on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Start timestamp (cycles for simulation tracks).
    pub ts: u64,
    /// Duration (0 for instants).
    pub dur: u64,
    /// Timeline the event belongs to.
    pub track: Track,
    /// Typed payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_tids_do_not_collide() {
        let tracks = [
            Track::Thread(0),
            Track::Thread(7),
            Track::Core(0),
            Track::Core(3),
            Track::Control,
        ];
        let tids: std::collections::HashSet<u64> = tracks.iter().map(|t| t.tid()).collect();
        assert_eq!(tids.len(), tracks.len());
        assert!(!Track::Worker(2).label().is_empty());
    }

    #[test]
    fn kind_names_and_categories() {
        let inv = EventKind::Invocation {
            name: "read",
            trap: 0x100,
            astate: 1,
            predicted: Some(10),
            offloaded: true,
            actual_len: 12,
            queue_delay: 0,
            decision: 4,
            cold_penalty: 0,
            placement: Placement::OsCore,
        };
        assert_eq!(inv.name(), "read");
        assert_eq!(inv.category(), "invocation");
        assert!(!inv.is_instant());
        assert_eq!(
            EventKind::Migration { outbound: true }.name(),
            "migrate-out"
        );
        assert_eq!(
            EventKind::Migration { outbound: false }.name(),
            "migrate-back"
        );
        assert!(EventKind::Epoch {
            index: 0,
            l2_hit_rate: 0.5
        }
        .is_instant());
        let task = EventKind::Task {
            name: "0001/apache".to_string(),
            ok: true,
        };
        assert_eq!(task.name(), "0001/apache");
        assert_eq!(task.category(), "runner");
    }
}
