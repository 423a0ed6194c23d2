//! Deterministic parallel experiment harness.
//!
//! The experiment drivers in [`osoffload_system::experiments`] simulate
//! dozens of independent design points per figure; this crate runs them
//! concurrently without giving up reproducibility:
//!
//! - [`ExperimentPlan`] — an ordered list of [`SystemConfig`] points
//!   (grids of policy × threshold × latency × profile × seed) whose
//!   seeds are fixed at plan-construction time, either pinned by the
//!   caller or derived from a master seed via
//!   [`Rng64::split`](osoffload_sim::Rng64::split) in plan order.
//!   Execution order therefore cannot influence any result.
//! - [`run_plan`] / [`run_plan_hooked`] / [`run_plan_with`] — a pool of
//!   scoped worker threads claiming points a workload shape at a time
//!   from a shared atomic index (`run_plan`'s points replay a recorded
//!   tape of their shape when it has several), with per-point panic
//!   isolation (a failed point is recorded with its configuration and
//!   panic message; the sweep always completes), retry with exponential
//!   backoff and deterministic jitter, and optional per-point watchdog
//!   deadlines ([`Outcome::TimedOut`]).
//! - [`record_plan`] / [`replay`] — the record/replay bridge: an
//!   unmodified `*_with` experiment driver records its plan, and once
//!   the plan has run, here or behind `osoffload serve`, replays over
//!   the sweep to exactly the rows the sequential path would produce.
//! - [`report`] — schema-stable JSON results written atomically into
//!   `results/` and read back as typed rows by [`report::read_sweep`];
//!   rows are bit-identical across worker counts except for the
//!   explicitly non-deterministic timing/worker fields.
//! - [`journal`] — a write-ahead results journal: every completed point
//!   is an fsynced, checksummed line, and `--resume` restores journaled
//!   points verbatim so an interrupted campaign finishes with a final
//!   archive byte-identical to an uninterrupted one.
//! - [`fault`] — deterministic fault injection ([`FaultPlan`]): panics,
//!   delays, and journal I/O errors scheduled purely from a seed, for
//!   chaos-testing the recovery machinery itself (see `ROBUSTNESS.md`).
//!
//! ```
//! use osoffload_runner::{record_plan, replay, report, run_plan, RunnerOptions};
//! use osoffload_system::experiments::{self, Scale};
//!
//! let scale = Scale { instructions: 30_000, warmup: 10_000, seed: 1, compute_profiles: 1 };
//! let driver = |ev: experiments::Evaluator<'_>| {
//!     experiments::fig4_grid_with(scale, &[1_000], &[500], ev)
//! };
//! let plan = record_plan("doc-fig4", scale.seed, driver);
//! let out = std::env::temp_dir().join(format!("osoffload-doc-{}", std::process::id()));
//! let opts = RunnerOptions { workers: 2, quiet: true, ..RunnerOptions::default() };
//! let archive = report::write_sweep(&run_plan(&plan, &opts), &out).unwrap();
//! // Tables replay from the archive, as `osoffload <experiment>` prints them.
//! let rows = replay(driver, &report::read_sweep(&archive).unwrap());
//! assert_eq!(rows.expect("no failures").len(), 4);
//! # std::fs::remove_dir_all(&out).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod executor;
pub mod fault;
pub mod journal;
mod lane_exec;
pub mod plan;
mod progress;
pub mod report;

pub use driver::{record_plan, replay};
pub use executor::{
    backoff_delay_ms, run_plan, run_plan_hooked, run_plan_with, ExecHooks, Outcome, PointResult,
    RunnerOptions, SweepResult, WorkerProfile,
};
pub use fault::{FaultConfig, FaultPlan, InjectedPanic, PointFaults};
pub use journal::{
    fnv1a64, scan_envelope_lines, Journal, JournalHeader, LoadedJournal, ScanIssue, ScanMode,
};
pub use plan::{ExperimentPlan, Point};

/// The workspace's JSON module under its former name: the benchmark
/// harness (`perfbench/harness`) imports `osoffload_runner::jsonv`.
/// Code in the workspace uses [`osoffload_obs::json`] directly.
pub use osoffload_obs::json as jsonv;

// Re-exported so downstream callers name configs without an extra
// dependency edge.
pub use osoffload_system::SystemConfig;
