//! Record/replay bridge between the sequential experiment drivers and
//! the parallel executor.
//!
//! Every driver in [`osoffload_system::experiments`] has a `*_with`
//! variant taking an [`Evaluator`]. Their enumeration order is
//! independent of report values, so a driver can be run twice:
//!
//! 1. **Record** — the evaluator captures each requested
//!    [`SystemConfig`] into an [`ExperimentPlan`] and returns a
//!    placeholder report (the driver's outputs are discarded).
//! 2. **Execute** — the plan runs on the parallel executor.
//! 3. **Replay** — the driver runs again with an evaluator serving the
//!    precomputed reports in the same order, producing exactly the rows
//!    the sequential path would have.
//!
//! The replay step is skipped when any point failed; callers get the
//! sweep (with per-point failure rows) and `None` instead of rows.

use crate::executor::{run_plan, Outcome, RunnerOptions, SweepResult};
use crate::plan::ExperimentPlan;
use osoffload_system::experiments::Evaluator;
use osoffload_system::{SimReport, SystemConfig};

/// A placeholder [`SimReport`] served during the record pass.
///
/// Throughput is 1.0 (not 0.0) so normalisations computed on discarded
/// record-pass rows cannot trip the divide-by-zero assertion in
/// [`SimReport::normalized_to`]. Every other field (including
/// `cycle_breakdown`) is zeroed on purpose: the record pass only
/// captures configurations, and its outputs never reach an archive —
/// real values flow from the execute pass, which serialises and
/// restores reports losslessly.
pub fn placeholder_report() -> SimReport {
    SimReport {
        throughput: 1.0,
        ..SimReport::default()
    }
}

fn point_id(index: usize, cfg: &SystemConfig) -> String {
    format!(
        "{index:04}/{}/{}/lat={}/cores={}",
        cfg.profile.name,
        cfg.policy,
        cfg.migration.one_way().as_u64(),
        cfg.user_cores
    )
}

/// The record pass alone: runs `driver` once with a capturing evaluator
/// and returns the plan [`run_driver`] would execute — identical ids,
/// pinned seeds, and configurations. `osoffload serve`'s client uses
/// this to submit a bench sweep whose canonical archive is
/// byte-comparable to the direct runner's.
pub fn record_plan<R>(
    name: &str,
    master_seed: u64,
    driver: impl Fn(Evaluator<'_>) -> R,
) -> ExperimentPlan {
    let mut plan = ExperimentPlan::new(name, master_seed);
    driver(&mut |cfg: SystemConfig| {
        plan.push_pinned(point_id(plan.len(), &cfg), cfg);
        placeholder_report()
    });
    plan
}

/// Runs an experiment driver with its simulation points executed in
/// parallel.
///
/// `driver` is called with an [`Evaluator`] and must request the same
/// configurations in the same order every time it runs (true of all
/// `*_with` drivers). Returns the driver's rows (or `None` if any point
/// failed) together with the executed sweep. Point seeds are pinned to
/// whatever the driver put in each configuration, so results are
/// identical to the sequential path; `master_seed` is recorded in the
/// sweep metadata.
pub fn run_driver<R>(
    name: &str,
    master_seed: u64,
    opts: &RunnerOptions,
    driver: impl Fn(Evaluator<'_>) -> R,
) -> (Option<R>, SweepResult) {
    // Record pass: capture the configurations in request order.
    let plan = record_plan(name, master_seed, &driver);

    // Execute the plan on the parallel executor.
    let sweep = run_plan(&plan, opts);
    if sweep.failures().next().is_some() {
        return (None, sweep);
    }

    // Replay pass: serve the precomputed reports in request order.
    let mut next = 0usize;
    let rows = driver(&mut |_cfg: SystemConfig| {
        let row = sweep
            .rows
            .get(next)
            .expect("replay requested more runs than were recorded");
        next += 1;
        match &row.outcome {
            Outcome::Ok(report) => (**report).clone(),
            Outcome::Failed { .. } | Outcome::TimedOut { .. } => {
                unreachable!("failures handled above")
            }
        }
    });
    assert_eq!(
        next,
        sweep.rows.len(),
        "replay requested fewer runs than were recorded"
    );
    (Some(rows), sweep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osoffload_system::experiments::{single_config, Scale};
    use osoffload_system::PolicyKind;
    use osoffload_workload::Profile;

    fn tiny() -> Scale {
        Scale {
            instructions: 40_000,
            warmup: 10_000,
            seed: 3,
            compute_profiles: 1,
        }
    }

    #[test]
    fn record_replay_matches_sequential() {
        let scale = tiny();
        let driver = |ev: Evaluator<'_>| {
            let base = ev(single_config(
                Profile::apache(),
                PolicyKind::Baseline,
                0,
                1,
                scale,
            ));
            let hi = ev(single_config(
                Profile::apache(),
                PolicyKind::HardwarePredictor { threshold: 500 },
                1_000,
                1,
                scale,
            ));
            hi.normalized_to(&base)
        };
        let sequential = driver(&mut osoffload_system::experiments::simulate);
        let opts = RunnerOptions {
            workers: 2,
            quiet: true,
            ..RunnerOptions::default()
        };
        let (parallel, sweep) = run_driver("unit-driver", scale.seed, &opts, driver);
        assert_eq!(sweep.rows.len(), 2);
        assert!(sweep.failures().next().is_none());
        assert_eq!(parallel, Some(sequential));
    }

    #[test]
    fn placeholder_throughput_is_safe_to_normalise_against() {
        let p = placeholder_report();
        assert_eq!(p.normalized_to(&p), 1.0);
    }
}
