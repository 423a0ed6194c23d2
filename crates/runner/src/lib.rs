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
//! - [`run_plan`] / [`run_plan_with`] / [`run_plan_ctx`] — a pool of
//!   scoped worker threads claiming points from a shared atomic index,
//!   with per-point panic isolation (a failed point is recorded with
//!   its configuration and panic message; the sweep always completes),
//!   retry with exponential backoff and deterministic jitter, and
//!   optional per-point watchdog deadlines ([`Outcome::TimedOut`]).
//! - [`run_driver`] — record/replay bridge that executes an unmodified
//!   `*_with` experiment driver in parallel and returns exactly the
//!   rows the sequential path would produce.
//! - [`report`] — schema-stable JSON results written atomically into
//!   `results/`; rows are bit-identical across worker counts except for
//!   the explicitly non-deterministic timing/worker fields.
//! - [`journal`] — a write-ahead results journal: every completed point
//!   is an fsynced, checksummed line, and `--resume` restores journaled
//!   points verbatim so an interrupted campaign finishes with a final
//!   archive byte-identical to an uninterrupted one.
//! - [`fault`] — deterministic fault injection ([`FaultPlan`]): panics,
//!   delays, and journal I/O errors scheduled purely from a seed, for
//!   chaos-testing the recovery machinery itself (see `ROBUSTNESS.md`).
//!
//! ```
//! use osoffload_runner::{run_driver, RunnerOptions};
//! use osoffload_system::experiments::{self, Scale};
//!
//! let scale = Scale { instructions: 30_000, warmup: 10_000, seed: 1, compute_profiles: 1 };
//! let opts = RunnerOptions { workers: 2, quiet: true, ..RunnerOptions::default() };
//! let (rows, sweep) = run_driver("doc-fig4", scale.seed, &opts, |ev| {
//!     experiments::fig4_grid_with(scale, &[1_000], &[500], ev)
//! });
//! assert!(sweep.failures().next().is_none());
//! assert_eq!(rows.expect("no failures").len(), 4);
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

pub use driver::{record_plan, run_driver};
pub use executor::{
    backoff_delay_ms, run_plan, run_plan_ctx, run_plan_ctx_hooked, run_plan_hooked, run_plan_with,
    EvalCtx, ExecHooks, Outcome, PointResult, RunnerOptions, SweepResult, WorkerProfile,
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
