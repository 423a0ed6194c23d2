//! Qualitative reproduction tests: every trend the paper's evaluation
//! reports must hold in this implementation. These are the assertions
//! EXPERIMENTS.md summarises; they run at a reduced scale with generous
//! tolerances so CI stays fast while the shapes remain stable.

use osoffload::system::experiments::{
    fig3_with, fig4_grid_with, scalability_with, simulate, single_config, table3_with, Scale,
};
use osoffload::system::PolicyKind;
use osoffload::workload::Profile;

fn scale() -> Scale {
    Scale {
        instructions: 900_000,
        warmup: 700_000,
        seed: 0x5EED,
        compute_profiles: 1,
    }
}

/// One sequential run with the standard experiment topology.
fn run_single(
    profile: Profile,
    policy: PolicyKind,
    latency: u64,
    cores: usize,
    s: Scale,
) -> osoffload::system::SimReport {
    simulate(single_config(profile, policy, latency, cores, s))
}

fn normalized(profile: Profile, policy: PolicyKind, latency: u64) -> f64 {
    let s = scale();
    let base = run_single(profile.clone(), PolicyKind::Baseline, 0, 1, s);
    run_single(profile, policy, latency, 1, s).normalized_to(&base)
}

fn hi(n: u64) -> PolicyKind {
    PolicyKind::HardwarePredictor { threshold: n }
}

// ----- Figure 4 trends (§V-A) ----------------------------------------

#[test]
fn offloading_latency_is_the_dominant_factor() {
    // "Performance is clearly maximized with the lowest off-loading
    // overhead possible."
    let aggressive = normalized(Profile::apache(), hi(100), 100);
    let conservative = normalized(Profile::apache(), hi(100), 5_000);
    assert!(
        aggressive > conservative,
        "aggressive {aggressive:.3} must beat conservative {conservative:.3}"
    );
}

#[test]
fn offloading_short_sequences_is_required() {
    // "Maximum performance occurs when off-loading OS invocations as
    // short as 100 instructions long": N = 100 beats N = 10,000.
    let small_n = normalized(Profile::apache(), hi(100), 100);
    let large_n = normalized(Profile::apache(), hi(10_000), 100);
    assert!(
        small_n > large_n,
        "N=100 ({small_n:.3}) must beat N=10,000 ({large_n:.3})"
    );
}

#[test]
fn offloading_everything_is_worse_than_a_small_threshold() {
    // "Even with a zero overhead off-loading latency, moving from N=100
    // to N=0 substantially reduces performance" — coherence traffic.
    for latency in [1_000u64, 5_000] {
        let n0 = normalized(Profile::apache(), hi(0), latency);
        let n100 = normalized(Profile::apache(), hi(100), latency);
        assert!(
            n0 <= n100 + 0.01,
            "latency {latency}: N=0 ({n0:.3}) must not beat N=100 ({n100:.3})"
        );
    }
}

#[test]
fn specjbb_never_profits_at_conservative_latency() {
    // "If the core migration implementation is not efficient, it is
    // possible that off-loading may never be beneficial (see SPECjbb)."
    for n in [100u64, 1_000, 5_000] {
        let v = normalized(Profile::specjbb(), hi(n), 5_000);
        assert!(
            v < 1.03,
            "SPECjbb at 5,000-cycle latency, N={n}: {v:.3} should be ~<=1"
        );
    }
}

#[test]
fn specjbb_profits_at_aggressive_latency() {
    let v = normalized(Profile::specjbb(), hi(100), 100);
    assert!(v > 1.05, "SPECjbb at 100-cycle latency: {v:.3}");
}

#[test]
fn apache_gains_double_digits_at_aggressive_latency() {
    // The paper's headline benefit region.
    let v = normalized(Profile::apache(), hi(100), 100);
    assert!(v > 1.10, "apache aggressive gain too small: {v:.3}");
}

#[test]
fn compute_workloads_are_insensitive() {
    let v = normalized(Profile::mcf(), hi(1_000), 1_000);
    assert!(
        (0.9..1.15).contains(&v),
        "compute should be near 1.0, got {v:.3}"
    );
}

#[test]
fn fig4_driver_matches_direct_runs() {
    let s = scale();
    let cells = fig4_grid_with(s, &[100], &[100], &mut simulate);
    let apache = cells
        .iter()
        .find(|c| c.workload == "apache")
        .expect("apache cell");
    let direct = normalized(Profile::apache(), hi(100), 100);
    assert!(
        (apache.normalized_ipc - direct).abs() < 1e-9,
        "driver {:.4} vs direct {direct:.4}",
        apache.normalized_ipc
    );
}

// ----- Figure 3 / §III-A: prediction quality ---------------------------

#[test]
fn binary_decision_accuracy_is_high_for_servers() {
    let rows = fig3_with(scale(), &mut simulate);
    for row in rows.iter().filter(|r| r.workload != "compute") {
        for p in &row.points {
            assert!(
                p.accuracy > 0.70,
                "{} at N={}: binary accuracy {:.3}",
                row.workload,
                p.threshold,
                p.accuracy
            );
        }
    }
}

#[test]
fn predictor_accuracy_matches_paper_band() {
    let s = Scale {
        instructions: 2_000_000,
        warmup: 1_500_000,
        ..scale()
    };
    let r = run_single(Profile::apache(), hi(1_000), 1_000, 1, s);
    let p = r.predictor.expect("predictor stats");
    // Paper (all-benchmark average): 73.6% exact, 98.4% within ±5%.
    // Our apache lands in the same band at steady state.
    assert!(p.exact > 0.55, "exact = {:.3}", p.exact);
    assert!(p.within_5pct > 0.75, "close = {:.3}", p.within_5pct);
    // "Our mispredictions tend to underestimate OS run-lengths."
    assert!(
        p.underestimates > 0.5 * (1.0 - p.exact),
        "underestimates {:.3} should dominate the {:.3} misses",
        p.underestimates,
        1.0 - p.exact
    );
}

// ----- Table III -------------------------------------------------------

#[test]
fn os_core_utilization_falls_with_threshold_and_orders_workloads() {
    let rows = table3_with(scale(), &mut simulate);
    for row in &rows {
        let utils: Vec<f64> = row.utilization.iter().map(|&(_, u)| u).collect();
        for w in utils.windows(2) {
            assert!(
                w[0] >= w[1] - 0.02,
                "{}: utilisation should fall with N: {utils:?}",
                row.workload
            );
        }
    }
    let at = |name: &str| {
        rows.iter()
            .find(|r| r.workload == name)
            .unwrap()
            .utilization[0]
            .1
    };
    assert!(
        at("apache") > at("derby"),
        "apache must use the OS core more than derby"
    );
}

// ----- §V-C scalability -------------------------------------------------

#[test]
fn queue_delay_explodes_with_user_core_count() {
    let rows = scalability_with(scale(), &mut simulate);
    assert!(rows[1].mean_queue_delay > rows[0].mean_queue_delay);
    assert!(
        rows[2].mean_queue_delay > 2.0 * rows[1].mean_queue_delay,
        "4:1 ({:.0}) must be far worse than 2:1 ({:.0})",
        rows[2].mean_queue_delay,
        rows[1].mean_queue_delay
    );
    // Scaling efficiency decays.
    assert!(rows[2].scaling_efficiency < rows[1].scaling_efficiency);
    assert!(rows[1].scaling_efficiency < 1.01);
}

// ----- Figure 5: policy comparison --------------------------------------

#[test]
fn hardware_beats_software_instrumentation() {
    let s = scale();
    let base = run_single(Profile::apache(), PolicyKind::Baseline, 0, 1, s);
    for latency in [5_000u64, 100] {
        let hi_v = run_single(Profile::apache(), hi(100), latency, 1, s).normalized_to(&base);
        let di_v = run_single(
            Profile::apache(),
            PolicyKind::DynamicInstrumentation {
                threshold: 100,
                cost: 120,
            },
            latency,
            1,
            s,
        )
        .normalized_to(&base);
        let si_v = run_single(
            Profile::apache(),
            PolicyKind::StaticInstrumentation { stub_cost: 25 },
            latency,
            1,
            s,
        )
        .normalized_to(&base);
        assert!(
            hi_v >= di_v,
            "lat {latency}: HI {hi_v:.3} must be >= DI {di_v:.3}"
        );
        assert!(
            hi_v > si_v,
            "lat {latency}: HI {hi_v:.3} must beat SI {si_v:.3}"
        );
    }
}

// ----- §III-B: phase-change adaptation -----------------------------------

#[test]
fn tuner_adapts_across_a_program_phase_change() {
    use osoffload::core::TunerConfig;
    use osoffload::system::{Simulation, SystemConfig};

    // Phase 1: apache behaviour; phase 2 (from 1.2 M instructions):
    // derby behaviour — far fewer, longer invocations, so a different N
    // pays off. The estimator must keep re-sampling and survive the
    // shift ("if phase changes are frequent … the epoch length can be
    // gradually increased", §III-B).
    let cfg = SystemConfig::builder()
        .profile(Profile::apache())
        .phase(1_200_000, Profile::derby())
        .policy(PolicyKind::HardwarePredictor { threshold: 1_000 })
        .migration_latency(1_000)
        .instructions(2_400_000)
        .warmup(300_000)
        .seed(0xAB)
        .tuner(TunerConfig::scaled_down(1_000)) // 25K-insn samples
        .build();
    let (report, observation) = Simulation::new(cfg).run_observed();
    let trace = observation.tuner;
    assert!(
        trace.len() > 10,
        "tuner must keep sampling: {} events",
        trace.len()
    );
    assert!(report.final_threshold.is_some());
    // The run completes and the tuner stayed on its grid throughout.
    let grid = [0u64, 100, 500, 1_000, 5_000, 10_000];
    assert!(trace.iter().all(|e| grid.contains(&e.threshold)));
    // Adaptation happened at least once over the two phases.
    assert!(
        trace.iter().any(|e| e.adopted),
        "no threshold adoption across a phase change"
    );
}

// ----- §V-C extension: SMT OS core ---------------------------------------

#[test]
fn smt_contexts_collapse_os_core_queueing() {
    use osoffload::system::{Simulation, SystemConfig};
    let run = |contexts: usize| {
        Simulation::new(
            SystemConfig::builder()
                .profile(Profile::specjbb())
                .policy(hi(100))
                .migration_latency(1_000)
                .user_cores(4)
                .os_core_contexts(contexts)
                .instructions(600_000)
                .warmup(300_000)
                .seed(0x51)
                .build(),
        )
        .run()
    };
    let non_smt = run(1);
    let smt4 = run(4);
    assert!(
        smt4.queue.mean_delay < non_smt.queue.mean_delay / 5.0,
        "4 contexts must collapse queueing: {:.0} -> {:.0}",
        non_smt.queue.mean_delay,
        smt4.queue.mean_delay
    );
    assert!(smt4.throughput > non_smt.throughput);
}

// ----- §VI-A: branch-predictor interference ------------------------------

#[test]
fn offloading_restores_user_branch_accuracy() {
    // Gloy et al. (cited in §VI-A): OS execution pollutes user branch
    // prediction. Off-loading gives each stream its own table.
    let s = scale();
    let base = run_single(Profile::apache(), PolicyKind::Baseline, 0, 1, s);
    let offl = run_single(Profile::apache(), hi(100), 100, 1, s);
    assert!(
        offl.user_branch_accuracy > base.user_branch_accuracy,
        "offload should improve user branch accuracy: {:.4} -> {:.4}",
        base.user_branch_accuracy,
        offl.user_branch_accuracy
    );
}
