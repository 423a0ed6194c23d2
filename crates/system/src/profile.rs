//! Deterministic cycle-attribution profiler.
//!
//! When [`SystemConfig::profiling`](crate::SystemConfig) is on, the
//! simulation's observation handle hands every event of the measured
//! region to a profiler, which attributes every cycle to a
//! *(syscall, phase)* pair: user execution, decision overhead, the two
//! migration legs, queue wait, cold-start warm-up, OS-core service,
//! local execution, and resource-adaptation throttling. A `UserBurst`
//! event is one user-exec cell; an `Invocation` event carries its
//! decision overhead, queue delay, cold penalty and placement, and the
//! migration legs are the run's one-way latency, so its span splits
//! into phases that sum to it exactly. The events hold timing values
//! the engine has already computed — nothing extra is simulated — so
//! profiling is purely observational: the
//! [`SimReport`] is bit-identical with the profiler
//! on or off, the same contract the telemetry layer makes.
//!
//! At each `Epoch` event of the simulation's 64-epoch observation clock
//! the cumulative per-phase totals are sampled, giving a deterministic
//! time series of where cycles were going as the run progressed.
//!
//! Two export shapes cover the analysis workflows:
//!
//! * [`CycleProfile::to_collapsed`] — collapsed-stack text
//!   (`syscall;phase cycles` per line), directly consumable by
//!   `flamegraph.pl` / `inferno` / speedscope;
//! * [`CycleProfile::top_table`] — a deterministic top-N attribution
//!   table for terminals and docs.

use crate::{SimReport, SystemConfig};
use osoffload_obs::{Event, EventKind, Placement};

/// Number of attribution phases (array dimension of the accounting).
pub const PHASE_COUNT: usize = 9;

/// One attribution phase of an invocation's (or burst's) lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// User-mode burst execution on a user core.
    UserExec,
    /// Decision/instrumentation overhead charged on trap entry.
    Decision,
    /// Privileged work executed locally on the user core.
    LocalExec,
    /// Privileged work executed locally under resource-adaptation
    /// throttling (§VI-B topologies only).
    Throttled,
    /// Outbound migration leg (user core → OS core).
    MigrationOut,
    /// Waiting for a free OS-core context after arrival.
    QueueWait,
    /// Cold-start warm-up charged when the chosen OS core has not
    /// served this AState recently.
    ColdPenalty,
    /// Privileged service on the OS core.
    OsService,
    /// Return migration leg (OS core → user core).
    MigrationBack,
}

impl Phase {
    /// Every phase, in canonical (collapsed-stack) order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::UserExec,
        Phase::Decision,
        Phase::LocalExec,
        Phase::Throttled,
        Phase::MigrationOut,
        Phase::QueueWait,
        Phase::ColdPenalty,
        Phase::OsService,
        Phase::MigrationBack,
    ];

    /// Stable frame/column label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::UserExec => "user-exec",
            Phase::Decision => "decision",
            Phase::LocalExec => "local-exec",
            Phase::Throttled => "throttled",
            Phase::MigrationOut => "migration-out",
            Phase::QueueWait => "queue-wait",
            Phase::ColdPenalty => "cold-penalty",
            Phase::OsService => "os-service",
            Phase::MigrationBack => "migration-back",
        }
    }

    fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|p| *p == self)
            .expect("phase is in ALL")
    }
}

impl core::fmt::Display for Phase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-key accounting row: cycles and event counts per phase.
#[derive(Debug, Clone)]
struct Row {
    name: &'static str,
    cycles: [u64; PHASE_COUNT],
    counts: [u64; PHASE_COUNT],
}

/// Cumulative per-phase totals sampled at one observation-clock
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileEpoch {
    /// Zero-based observation-epoch index.
    pub epoch: u64,
    /// Instructions retired when the sample was taken.
    pub instructions: u64,
    /// Simulated cycle when the sample was taken.
    pub cycles: u64,
    /// Cumulative attributed cycles per phase, in [`Phase::ALL`] order.
    pub attributed: [u64; PHASE_COUNT],
}

/// The in-run accumulator: one consumer of the simulation's event
/// stream.
#[derive(Debug, Clone, Default)]
pub(crate) struct CycleProfiler {
    /// One-way migration latency: the length of each migration leg.
    one_way: u64,
    /// Instructions the consumed segments retired, so far.
    instructions: u64,
    rows: Vec<Row>,
    epochs: Vec<ProfileEpoch>,
}

impl CycleProfiler {
    /// A profiler for a run whose migration legs each take `one_way`
    /// cycles.
    pub(crate) fn new(one_way: u64) -> Self {
        CycleProfiler {
            one_way,
            ..Self::default()
        }
    }

    /// Attributes one event's cycles. User bursts and invocations are
    /// the run's segments, so the instructions they retire add up to
    /// the run's count at each epoch sample; every other kind is
    /// ignored.
    pub(crate) fn consume(&mut self, ev: &Event) {
        match ev.kind {
            EventKind::UserBurst { len } => {
                self.instructions += len;
                self.record("user", Phase::UserExec, ev.dur);
            }
            EventKind::Invocation {
                name,
                actual_len,
                queue_delay,
                decision,
                cold_penalty,
                placement,
                ..
            } => {
                self.instructions += actual_len;
                self.record(name, Phase::Decision, decision);
                let work = ev.dur - decision;
                match placement {
                    Placement::Local => self.record(name, Phase::LocalExec, work),
                    Placement::Throttled => self.record(name, Phase::Throttled, work),
                    Placement::OsCore => {
                        let leg = self.one_way;
                        let service = work - 2 * leg - queue_delay - cold_penalty;
                        self.record(name, Phase::MigrationOut, leg);
                        self.record(name, Phase::QueueWait, queue_delay);
                        self.record(name, Phase::ColdPenalty, cold_penalty);
                        self.record(name, Phase::OsService, service);
                        self.record(name, Phase::MigrationBack, leg);
                    }
                }
            }
            EventKind::Epoch { index, .. } => self.epoch_sample(index, self.instructions, ev.ts),
            _ => {}
        }
    }

    /// Attributes `cycles` to `(name, phase)` and counts one event.
    /// Keys are interned syscall names (plus the synthetic `"user"`),
    /// so the row set stays small and lookups are a short linear scan.
    fn record(&mut self, name: &'static str, phase: Phase, cycles: u64) {
        let i = phase.index();
        if let Some(row) = self.rows.iter_mut().find(|r| r.name == name) {
            row.cycles[i] += cycles;
            row.counts[i] += 1;
            return;
        }
        let mut row = Row {
            name,
            cycles: [0; PHASE_COUNT],
            counts: [0; PHASE_COUNT],
        };
        row.cycles[i] = cycles;
        row.counts[i] = 1;
        self.rows.push(row);
    }

    /// Samples the cumulative per-phase totals at an observation-clock
    /// boundary.
    fn epoch_sample(&mut self, epoch: u64, instructions: u64, cycles: u64) {
        let mut attributed = [0u64; PHASE_COUNT];
        for row in &self.rows {
            for (acc, c) in attributed.iter_mut().zip(row.cycles.iter()) {
                *acc += c;
            }
        }
        self.epochs.push(ProfileEpoch {
            epoch,
            instructions,
            cycles,
            attributed,
        });
    }

    /// Freezes the accumulator into the exported artifact (rows sorted
    /// by key for byte-stable output).
    pub(crate) fn finish(mut self) -> CycleProfile {
        self.rows.sort_by_key(|r| r.name);
        CycleProfile {
            enabled: true,
            rows: self.rows,
            epochs: self.epochs,
        }
    }
}

/// One exported attribution entry: a *(syscall, phase)* cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Syscall name, or `"user"` for user-mode bursts.
    pub name: &'static str,
    /// Attribution phase.
    pub phase: Phase,
    /// Total cycles attributed to this cell.
    pub cycles: u64,
    /// Number of events that contributed.
    pub count: u64,
}

/// The finished cycle-attribution profile of one run.
///
/// Part of the [`Observation`](crate::Observation)
/// [`Simulation::run_observed`](crate::Simulation::run_observed)
/// returns; empty (with `enabled == false`) when the configuration did
/// not ask for profiling.
#[derive(Debug, Clone, Default)]
pub struct CycleProfile {
    /// Whether the run profiled at all.
    pub enabled: bool,
    rows: Vec<Row>,
    epochs: Vec<ProfileEpoch>,
}

impl CycleProfile {
    /// Every non-empty *(syscall, phase)* cell, sorted by syscall name
    /// then phase order (deterministic, byte-stable).
    pub fn entries(&self) -> Vec<ProfileEntry> {
        let mut out = Vec::new();
        for row in &self.rows {
            for (i, phase) in Phase::ALL.iter().enumerate() {
                if row.counts[i] > 0 {
                    out.push(ProfileEntry {
                        name: row.name,
                        phase: *phase,
                        cycles: row.cycles[i],
                        count: row.counts[i],
                    });
                }
            }
        }
        out
    }

    /// Total cycles attributed to `phase` across all keys.
    pub fn total(&self, phase: Phase) -> u64 {
        let i = phase.index();
        self.rows.iter().map(|r| r.cycles[i]).sum()
    }

    /// Number of events recorded under `phase` across all keys.
    pub fn count(&self, phase: Phase) -> u64 {
        let i = phase.index();
        self.rows.iter().map(|r| r.counts[i]).sum()
    }

    /// Sum of every attributed cycle over all phases.
    pub fn attributed_total(&self) -> u64 {
        Phase::ALL.iter().map(|p| self.total(*p)).sum()
    }

    /// Checks the profile against the report of the same run of `cfg`:
    /// the decision, queue-wait, throttled and migration totals equal
    /// the report's cycle accounting, and each invocation counts once
    /// in every phase of where it ran — decision always, local
    /// execution for a local invocation, and for an off-load either the
    /// throttled phase (under resource adaptation) or all five OS-core
    /// phases, zero-cycle waits included.
    pub fn reconcile(&self, cfg: &SystemConfig, report: &SimReport) -> Result<(), String> {
        let b = &report.cycle_breakdown;
        let adapted = cfg.resource_adaptation.is_some();
        let total = |phase| self.total(phase);
        let migrated = total(Phase::MigrationOut) + total(Phase::MigrationBack);
        // Adaptation never migrates; the breakdown still charges the
        // model's nominal cost, so only the profile's view is pinned.
        let migration = if adapted { 0 } else { b.migration };
        let totals = [
            ("decision", total(Phase::Decision), b.decision),
            ("queue-wait", total(Phase::QueueWait), b.queue_wait),
            (
                "throttled",
                total(Phase::Throttled),
                report.throttled_cycles,
            ),
            ("migration", migrated, migration),
        ];
        for (what, got, want) in totals {
            if got != want {
                return Err(format!("profile {what} total: {got} != report's {want}"));
            }
        }
        let (throttled, on_os_core) = if adapted {
            (report.offloads, 0)
        } else {
            (0, report.offloads)
        };
        let counts = [
            (Phase::Decision, report.offloads + report.local_invocations),
            (Phase::LocalExec, report.local_invocations),
            (Phase::Throttled, throttled),
            (Phase::MigrationOut, on_os_core),
            (Phase::QueueWait, on_os_core),
            (Phase::ColdPenalty, on_os_core),
            (Phase::OsService, on_os_core),
            (Phase::MigrationBack, on_os_core),
        ];
        for (phase, want) in counts {
            let got = self.count(phase);
            if got != want {
                return Err(format!("profile {phase} count: {got} != report's {want}"));
            }
        }
        Ok(())
    }

    /// Observation-clock samples of the cumulative per-phase totals,
    /// oldest first.
    pub fn epochs(&self) -> &[ProfileEpoch] {
        &self.epochs
    }

    /// Renders the collapsed-stack (folded) format flamegraph tooling
    /// consumes: one `syscall;phase cycles` line per non-empty cell,
    /// zero-cycle cells skipped, sorted by syscall then phase.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for e in self.entries() {
            if e.cycles > 0 {
                out.push_str(e.name);
                out.push(';');
                out.push_str(e.phase.label());
                out.push(' ');
                out.push_str(&e.cycles.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Renders a deterministic top-`n` attribution table (by cycles,
    /// ties broken by syscall then phase so output is byte-stable).
    pub fn top_table(&self, n: usize) -> String {
        let mut entries = self.entries();
        entries.sort_by(|a, b| {
            b.cycles
                .cmp(&a.cycles)
                .then(a.name.cmp(b.name))
                .then(a.phase.index().cmp(&b.phase.index()))
        });
        let total = self.attributed_total().max(1);
        let mut out = String::from("cycles            share  events            key\n");
        for e in entries.into_iter().take(n) {
            out.push_str(&format!(
                "{:<16}  {:>5.1}%  {:<16}  {};{}\n",
                e.cycles,
                e.cycles as f64 * 100.0 / total as f64,
                e.count,
                e.name,
                e.phase.label()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CycleProfile {
        let mut p = CycleProfiler::new(0);
        p.record("user", Phase::UserExec, 500);
        p.record("read", Phase::Decision, 4);
        p.record("read", Phase::OsService, 300);
        p.record("read", Phase::OsService, 100);
        p.record("brk", Phase::Decision, 4);
        p.record("brk", Phase::LocalExec, 50);
        p.epoch_sample(0, 1_000, 2_000);
        p.finish()
    }

    #[test]
    fn totals_and_counts_accumulate() {
        let p = sample();
        assert!(p.enabled);
        assert_eq!(p.total(Phase::OsService), 400);
        assert_eq!(p.count(Phase::OsService), 2);
        assert_eq!(p.total(Phase::Decision), 8);
        assert_eq!(p.count(Phase::Decision), 2);
        assert_eq!(p.attributed_total(), 500 + 8 + 400 + 50);
    }

    #[test]
    fn collapsed_stack_is_sorted_and_parseable() {
        let c = sample().to_collapsed();
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(
            lines,
            vec![
                "brk;decision 4",
                "brk;local-exec 50",
                "read;decision 4",
                "read;os-service 400",
                "user;user-exec 500",
            ]
        );
        for l in lines {
            let (frames, count) = l.rsplit_once(' ').unwrap();
            assert_eq!(frames.split(';').count(), 2);
            count.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn top_table_ranks_by_cycles() {
        let t = sample().top_table(2);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3, "{t}");
        assert!(lines[1].contains("user;user-exec"), "{t}");
        assert!(lines[2].contains("read;os-service"), "{t}");
    }

    #[test]
    fn epoch_samples_are_cumulative_snapshots() {
        let p = sample();
        assert_eq!(p.epochs().len(), 1);
        let e = &p.epochs()[0];
        assert_eq!(e.epoch, 0);
        assert_eq!(e.attributed.iter().sum::<u64>(), p.attributed_total());
    }

    #[test]
    fn invocation_spans_split_into_phases_that_sum_to_them() {
        use osoffload_obs::Track;
        let inv = |dur, decision, queue_delay, cold_penalty, placement| Event {
            ts: 0,
            dur,
            track: Track::Thread(0),
            kind: EventKind::Invocation {
                name: "read",
                trap: 0,
                astate: 0,
                predicted: None,
                offloaded: placement != Placement::Local,
                actual_len: 10,
                queue_delay,
                decision,
                cold_penalty,
                placement,
            },
        };
        let mut p = CycleProfiler::new(100);
        p.consume(&inv(1_000, 4, 30, 20, Placement::OsCore));
        p.consume(&inv(50, 4, 0, 0, Placement::Local));
        p.consume(&inv(70, 0, 0, 0, Placement::Throttled));
        p.consume(&Event {
            ts: 5_000,
            dur: 0,
            track: Track::Control,
            kind: EventKind::Epoch {
                index: 3,
                l2_hit_rate: 0.5,
            },
        });
        let p = p.finish();
        assert_eq!(p.attributed_total(), 1_000 + 50 + 70);
        assert_eq!(p.total(Phase::MigrationOut), 100);
        assert_eq!(p.total(Phase::MigrationBack), 100);
        assert_eq!(p.total(Phase::QueueWait), 30);
        assert_eq!(p.total(Phase::ColdPenalty), 20);
        assert_eq!(p.total(Phase::OsService), 1_000 - 4 - 200 - 30 - 20);
        assert_eq!(p.total(Phase::LocalExec), 46);
        assert_eq!(p.total(Phase::Throttled), 70);
        assert_eq!(p.count(Phase::Decision), 3);
        assert_eq!(p.count(Phase::QueueWait), 1);
        let e = &p.epochs()[0];
        assert_eq!((e.epoch, e.instructions, e.cycles), (3, 30, 5_000));
    }

    #[test]
    fn disabled_profile_is_empty() {
        let p = CycleProfile::default();
        assert!(!p.enabled);
        assert!(p.entries().is_empty());
        assert!(p.to_collapsed().is_empty());
        assert_eq!(p.attributed_total(), 0);
    }

    #[test]
    fn phase_labels_round_trip_through_all() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(!p.label().is_empty());
            assert_eq!(p.to_string(), p.label());
        }
    }
}
