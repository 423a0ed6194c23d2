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
//! 2. **Execute** — the plan runs on the parallel executor, here or
//!    behind `osoffload serve`.
//! 3. **Replay** — the driver runs again with an evaluator serving the
//!    executed reports in the same order, producing exactly the rows
//!    the sequential path would have over those reports.
//!
//! [`record_plan`] and [`replay`] are the two halves; there is no replay
//! when any point failed.

use crate::executor::SweepResult;
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
/// real values flow from the execute pass.
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

/// The record pass: runs `driver` once with a capturing evaluator and
/// returns its plan — one pinned point per request, in request order.
/// Execute the plan anywhere (with [`run_plan`](crate::run_plan), or
/// through `osoffload serve`, whose canonical archive of it is
/// byte-comparable to the runner's), then hand the sweep to [`replay`].
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

/// The replay pass: runs `driver` again, serving it the reports of
/// `sweep` — the executed [`record_plan`] of the same driver — in
/// request order, and returns its rows. `None` if any point failed.
///
/// The reports are served as the sweep holds them, so rows decoded
/// from an archive ([`report::read_sweep`](crate::report::read_sweep))
/// replay to the same rows whichever way the archive was produced.
pub fn replay<R>(driver: impl Fn(Evaluator<'_>) -> R, sweep: &SweepResult) -> Option<R> {
    let mut reports = sweep.reports()?.into_iter();
    let rows = driver(&mut |_cfg: SystemConfig| {
        reports
            .next()
            .expect("replay requested more runs than were recorded")
            .clone()
    });
    assert!(
        reports.next().is_none(),
        "replay requested fewer runs than were recorded"
    );
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_plan, RunnerOptions};
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
        let sweep = run_plan(&record_plan("unit-driver", scale.seed, driver), &opts);
        assert_eq!(sweep.rows.len(), 2);
        assert!(sweep.failures().next().is_none());
        assert_eq!(replay(driver, &sweep), Some(sequential));
    }

    #[test]
    fn placeholder_throughput_is_safe_to_normalise_against() {
        let p = placeholder_report();
        assert_eq!(p.normalized_to(&p), 1.0);
    }
}
