//! Integration tests for the parallel experiment harness: worker-count
//! determinism, parity with the sequential drivers, and fault isolation.

use osoffload::obs::json;
use osoffload::runner::journal::config_digest;
use osoffload::runner::{
    record_plan, replay, run_plan, run_plan_with, ExperimentPlan, Outcome, RunnerOptions,
};
use osoffload::system::experiments::{self, fig4_grid_with, simulate, single_config, Scale};
use osoffload::system::{PolicyKind, SystemConfig};
use osoffload::workload::Profile;

fn tiny() -> Scale {
    Scale {
        instructions: 60_000,
        warmup: 20_000,
        seed: 0xD0_0D,
        compute_profiles: 1,
    }
}

fn quiet(workers: usize) -> RunnerOptions {
    RunnerOptions {
        workers,
        quiet: true,
        ..RunnerOptions::default()
    }
}

/// Builds a small mixed grid with split-derived per-point seeds.
fn seeded_plan() -> ExperimentPlan {
    let scale = tiny();
    let mut plan = ExperimentPlan::new("det", 0xFEED);
    for profile in [Profile::apache(), Profile::specjbb()] {
        for threshold in [100u64, 1_000] {
            plan.push(
                format!("{}/N={threshold}", profile.name),
                single_config(
                    profile.clone(),
                    PolicyKind::HardwarePredictor { threshold },
                    1_000,
                    1,
                    scale,
                ),
            );
        }
    }
    plan
}

/// A sweep of real simulations produces byte-identical deterministic
/// rows whether one worker runs it or four do.
#[test]
fn sweep_rows_identical_across_worker_counts() {
    let sequential = osoffload::runner::run_plan(&seeded_plan(), &quiet(1));
    let parallel = osoffload::runner::run_plan(&seeded_plan(), &quiet(4));
    assert_eq!(sequential.workers, 1);
    assert_eq!(parallel.workers, 4);
    let a: Vec<String> = sequential.rows.iter().map(|r| r.stable_json()).collect();
    let b: Vec<String> = parallel.rows.iter().map(|r| r.stable_json()).collect();
    assert_eq!(a, b, "rows must not depend on worker count or scheduling");
    // The derived seeds are a pure function of master seed + plan order.
    let seeds: Vec<u64> = seeded_plan()
        .points()
        .iter()
        .map(|p| p.config.seed)
        .collect();
    assert_eq!(
        seeds,
        seeded_plan()
            .points()
            .iter()
            .map(|p| p.config.seed)
            .collect::<Vec<_>>()
    );
    assert_eq!(
        seeds.iter().collect::<std::collections::HashSet<_>>().len(),
        seeds.len()
    );
}

/// Runs `driver` sequentially and through the runner's record/replay
/// bridge (`record_plan` → `run_plan` → `replay`), asserting identical
/// rows; returns the sweep's point count.
fn assert_parity<R: PartialEq + std::fmt::Debug>(
    name: &str,
    driver: impl Fn(experiments::Evaluator<'_>) -> R,
) -> usize {
    let sequential = driver(&mut simulate);
    let sweep = run_plan(&record_plan(name, tiny().seed, &driver), &quiet(4));
    let parallel = replay(&driver, &sweep);
    assert!(sweep.failures().next().is_none(), "{name}");
    assert_eq!(parallel, Some(sequential), "{name}");
    sweep.rows.len()
}

/// The record/replay bridge reproduces the sequential driver's rows
/// exactly — same grid, same seeds, same floating-point results. The
/// drivers that read optional report fields also prove their record
/// pass survives the runner's placeholder reports.
#[test]
fn parallel_fig4_matches_sequential_fig4() {
    let scale = tiny();
    let points = assert_parity("fig4-parity", |ev| {
        fig4_grid_with(scale, &[100], &[100, 10_000], ev)
    });
    assert_eq!(points, 12, "4 baselines + 4 groups x 1 lat x 2 thresholds");
    let points = assert_parity("half-l2-parity", |ev| {
        experiments::half_l2(scale, &[100], ev)
    });
    assert_eq!(points, 12, "4 baselines + 4 groups x (full + half L2)");
    let points = assert_parity("mechanism-parity", |ev| {
        experiments::mechanism_ablation(scale, &[100], ev)
    });
    assert_eq!(points, 12, "4 baselines + 4 groups x 2 transports");
    let points = assert_parity("predictor-accuracy-parity", |ev| {
        experiments::predictor_accuracy(scale, &[50], &[375], ev)
    });
    assert_eq!(points, 8, "4 groups x (CAM + direct-mapped)");
}

/// A point that panics is recorded as failed with its configuration and
/// panic message; every other point still completes and the results
/// document reflects both.
#[test]
fn panicking_point_does_not_kill_the_sweep() {
    let plan = seeded_plan();
    let sweep = run_plan_with(&plan, &quiet(3), |p| {
        if p.index == 1 {
            panic!("injected: simulated OOM at {}", p.id);
        }
        osoffload::system::Simulation::new(p.config.clone()).run()
    });
    assert_eq!(sweep.rows.len(), 4);
    assert_eq!(sweep.failures().count(), 1);
    assert_eq!(sweep.rows.iter().filter(|r| r.is_ok()).count(), 3);
    match &sweep.rows[1].outcome {
        Outcome::Failed { panic, attempts } => {
            assert!(panic.contains("injected: simulated OOM"), "{panic}");
            assert_eq!(*attempts, 1);
        }
        other => panic!("point 1 should have failed, got {other:?}"),
    }
    let json = sweep.to_json();
    assert!(json.contains("\"failed\":1"));
    assert!(json.contains("\"status\":\"failed\""));
    assert!(json.contains("\"status\":\"ok\""));
    // The failed row still records which configuration it was.
    assert!(sweep.rows[1].config_json.contains("\"profile\":\"apache\""));
}

/// A digest names one configuration: within each of these plans two
/// points share a digest exactly when their configurations are equal
/// field for field, and every encoding decodes back to the same bytes.
#[test]
fn digests_name_exactly_one_configuration() {
    let scale = tiny();
    // (plan, distinct configurations among its points)
    let plans = [
        (
            record_plan("fig6_scalability", scale.seed, |ev| {
                experiments::fig6_scalability_with(scale, ev)
            }),
            112,
        ),
        (
            record_plan("sensitivity", scale.seed, |ev| {
                experiments::sensitivity_with(scale, Profile::apache(), ev)
            }),
            14,
        ),
        (
            record_plan("predictor_accuracy", scale.seed, |ev| {
                experiments::predictor_accuracy(scale, &[25, 50, 100, 200, 400], &[375, 1500], ev)
            }),
            28,
        ),
        (
            record_plan("scalability", scale.seed, |ev| {
                experiments::scalability_with(scale, ev)
            }),
            6,
        ),
    ];
    for (plan, distinct) in &plans {
        let points = plan.points();
        let texts: Vec<String> = points.iter().map(|p| p.config.to_json()).collect();
        for text in &texts {
            let back = SystemConfig::from_json(&json::parse(text).expect("parse"))
                .unwrap_or_else(|e| panic!("{}: {e}", plan.name()));
            assert_eq!(&back.to_json(), text, "{}", plan.name());
        }
        let debug: Vec<String> = points.iter().map(|p| format!("{:?}", p.config)).collect();
        let digests: Vec<String> = texts.iter().map(|t| config_digest(t)).collect();
        for i in 0..points.len() {
            for j in 0..i {
                assert_eq!(
                    digests[i] == digests[j],
                    debug[i] == debug[j],
                    "{}: points {j} and {i}",
                    plan.name()
                );
            }
        }
        let unique: std::collections::HashSet<&String> = digests.iter().collect();
        assert_eq!(unique.len(), *distinct, "{}", plan.name());
    }
}

/// Records `name`'s plan as `osoffload <name>` does (`record_plan`)
/// and runs it twice, canonical on two
/// workers: through `run_plan`, where every shape with several points
/// replays a tape, and through a live evaluator. The archives must be
/// byte-equal.
fn replay_matches_live<R>(
    name: &str,
    scale: Scale,
    driver: impl Fn(experiments::Evaluator<'_>) -> R,
) {
    let plan = record_plan(name, scale.seed, driver);
    let opts = RunnerOptions {
        workers: 2,
        quiet: true,
        canonical: true,
        ..RunnerOptions::default()
    };
    let replayed = osoffload::runner::run_plan(&plan, &opts);
    let live = run_plan_with(&plan, &opts, |p| simulate(p.config.clone()));
    assert_eq!(replayed.failures().count(), 0, "{name}: failed points");
    for (a, b) in replayed.rows.iter().zip(&live.rows) {
        assert!(
            a.row_json() == b.row_json(),
            "{name}: row {} differs",
            a.index
        );
    }
    assert!(
        replayed.to_json() == live.to_json(),
        "{name}: archives differ"
    );
}

#[test]
#[ignore = "release-scale cross-check; CI runs it with --release -- --ignored"]
fn fig4_quick_replay_matches_live() {
    let scale = Scale::quick();
    replay_matches_live("fig4", scale, |ev| {
        fig4_grid_with(
            scale,
            experiments::FIG4_LATENCIES,
            experiments::FIG4_THRESHOLDS,
            ev,
        )
    });
}

#[test]
#[ignore = "release-scale cross-check; CI runs it with --release -- --ignored"]
fn fig6_scalability_quick_replay_matches_live() {
    let scale = Scale::quick();
    replay_matches_live("fig6_scalability", scale, |ev| {
        experiments::fig6_scalability_with(scale, ev)
    });
}

#[test]
#[ignore = "release-scale cross-check; the nightly CI runs it with --release -- --ignored"]
fn fig4_full_replay_matches_live() {
    let scale = Scale::full();
    replay_matches_live("fig4", scale, |ev| {
        fig4_grid_with(
            scale,
            experiments::FIG4_LATENCIES,
            experiments::FIG4_THRESHOLDS,
            ev,
        )
    });
}
