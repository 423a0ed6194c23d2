//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each function reproduces one artefact of the evaluation:
//!
//! | Function | Paper artefact |
//! |---|---|
//! | [`fig1_with`] | Figure 1 — overhead of software-instrumenting all OS entry points |
//! | [`fig3_with`] | Figure 3 — binary off-load decision accuracy vs threshold `N` |
//! | [`fig4_grid_with`] | Figure 4 — normalized IPC vs `N` across migration latencies |
//! | [`fig5_with`] | Figure 5 — SI vs DI vs HI at conservative/aggressive latencies |
//! | [`table3_with`] | Table III — OS-core utilisation vs `N` |
//! | [`scalability_with`] | §V-C — user-core scaling against one OS core |
//! | [`fig6_scalability_with`] | "Figure 6" — N user × M OS cores, per dispatch policy (beyond the paper) |
//! | [`predictor_accuracy`] | §III-A — exact/±5% accuracy, CAM vs RAM, sizing |
//! | [`tuner_trace`] | §III-B — dynamic-`N` estimator convergence |
//! | [`half_l2`] | §V-B — two 512 KB L2s vs the 1 MB baseline |
//! | [`mechanism_ablation`] | §II — thread migration vs RPC-style off-load |
//! | [`sensitivity_with`] | memory-substrate sensitivity of the benefit |
//!
//! The `osoffload` binary runs each of them by name
//! (`osoffload fig4 quick`; `osoffload help` lists the registry).
//!
//! The paper's runs simulate hundreds of millions of instructions on
//! Simics; this reproduction exposes a [`Scale`] knob so the same
//! experiment can run as a quick smoke test or a full (minutes-long)
//! regeneration. Shapes are stable across scales; absolute numbers
//! tighten as runs lengthen.
//!
//! Every sweep driver takes an [`Evaluator`]. Pass `&mut simulate` to
//! run its points in place, one after another. The `osoffload-runner`
//! crate uses the same hook to first *enumerate* a driver's simulation
//! points (recording each requested [`SystemConfig`]) and later
//! *replay* it against reports computed in parallel. The enumeration
//! order of every driver is independent of the report values, which is
//! what makes that two-pass scheme exact. For the same reason a driver
//! must not fail on the placeholder reports the enumeration pass
//! serves.

use crate::config::{PolicyKind, SystemConfig, SystemConfigBuilder};
use crate::metrics::{BinaryPoint, SimReport};
use crate::simulation::Simulation;
use osoffload_core::{TunerConfig, TunerEvent};
use osoffload_workload::Profile;

/// Simulation length preset for the experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Instructions in the measured region of interest, per run.
    pub instructions: u64,
    /// Warm-up instructions, per run.
    pub warmup: u64,
    /// Master seed.
    pub seed: u64,
    /// How many of the six compute profiles represent the compute group
    /// (the paper averages them into one curve; fewer representatives
    /// make quick runs quicker).
    pub compute_profiles: usize,
}

impl Scale {
    /// Smoke-test scale: seconds per experiment, shapes visible but
    /// noisy.
    pub fn quick() -> Self {
        Scale {
            instructions: 500_000,
            warmup: 300_000,
            seed: 0xF1605,
            compute_profiles: 1,
        }
    }

    /// Default scale: minutes per experiment, stable shapes.
    pub fn full() -> Self {
        Scale {
            instructions: 2_500_000,
            warmup: 2_000_000,
            seed: 0xF1605,
            compute_profiles: 3,
        }
    }

    /// Long scale for final reporting.
    pub fn paper() -> Self {
        Scale {
            instructions: 6_000_000,
            warmup: 4_000_000,
            seed: 0xF1605,
            compute_profiles: 6,
        }
    }

    /// Parses the scale word of `osoffload <experiment> quick|full|paper`.
    pub fn from_arg(arg: &str) -> Option<Scale> {
        match arg {
            "quick" => Some(Scale::quick()),
            "full" => Some(Scale::full()),
            "paper" => Some(Scale::paper()),
            _ => None,
        }
    }
}

/// The workload groups every figure iterates over: the three server
/// benchmarks individually plus the compute group (averaged, as in the
/// paper's graphs).
pub fn workload_groups(scale: Scale) -> Vec<(String, Vec<Profile>)> {
    let mut groups: Vec<(String, Vec<Profile>)> = Profile::all_server()
        .into_iter()
        .map(|p| (p.name.to_string(), vec![p]))
        .collect();
    let compute: Vec<Profile> = Profile::all_compute()
        .into_iter()
        .take(scale.compute_profiles.max(1))
        .collect();
    groups.push(("compute".to_string(), compute));
    groups
}

/// How a driver executes one configured run.
///
/// The sequential default is [`simulate`]; the parallel runner swaps in
/// a recording closure (enumeration pass) and then a replaying closure
/// serving reports that were computed concurrently.
pub type Evaluator<'a> = &'a mut dyn FnMut(SystemConfig) -> SimReport;

/// The sequential evaluator: simulate the configuration in place.
pub fn simulate(cfg: SystemConfig) -> SimReport {
    Simulation::new(cfg).run()
}

/// A [`SystemConfig`] builder for `profile` under `policy` with the
/// given one-way migration latency, sized and seeded by `scale` — what
/// every experiment configuration shares; callers add their own knobs.
pub fn scaled_builder(
    profile: Profile,
    policy: PolicyKind,
    migration_latency: u64,
    scale: Scale,
) -> SystemConfigBuilder {
    SystemConfig::builder()
        .profile(profile)
        .policy(policy)
        .migration_latency(migration_latency)
        .instructions(scale.instructions)
        .warmup(scale.warmup)
        .seed(scale.seed)
}

/// Builds the standard experiment topology as a [`SystemConfig`].
pub fn single_config(
    profile: Profile,
    policy: PolicyKind,
    migration_latency: u64,
    user_cores: usize,
    scale: Scale,
) -> SystemConfig {
    scaled_builder(profile, policy, migration_latency, scale)
        .user_cores(user_cores)
        .build()
}

/// Baseline reports for a profile group, computed once and reused.
fn group_baselines(
    profiles: &[Profile],
    scale: Scale,
    eval: &mut dyn FnMut(SystemConfig) -> SimReport,
) -> Vec<SimReport> {
    profiles
        .iter()
        .map(|p| eval(single_config(p.clone(), PolicyKind::Baseline, 0, 1, scale)))
        .collect()
}

/// Mean normalized throughput of a profile group under `policy` relative
/// to the precomputed per-profile baselines.
fn group_normalized(
    profiles: &[Profile],
    baselines: &[SimReport],
    policy: PolicyKind,
    latency: u64,
    scale: Scale,
    eval: &mut dyn FnMut(SystemConfig) -> SimReport,
) -> f64 {
    let mut acc = 0.0;
    for (p, base) in profiles.iter().zip(baselines) {
        let run = eval(single_config(p.clone(), policy, latency, 1, scale));
        acc += run.normalized_to(base);
    }
    acc / profiles.len() as f64
}

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

/// One bar of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// Workload group.
    pub workload: String,
    /// Per-entry instrumentation cost in cycles.
    pub cost: u64,
    /// Throughput loss relative to the uninstrumented baseline, in
    /// percent (positive = slower).
    pub overhead_pct: f64,
}

/// Figure 1: runtime overhead of dynamic *software* instrumentation of
/// all possible OS off-loading points.
///
/// "All possible" includes the SPARC register-window spill/fill traps
/// (§IV), which fire every couple of thousand instructions — so both the
/// baseline and the instrumented run enable them. Every OS entry pays
/// the instrumentation cost but off-loading itself is disabled
/// (threshold = ∞), isolating pure decision overhead — the paper's
/// argument for single-cycle hardware decisions.
pub fn fig1_with(scale: Scale, costs: &[u64], eval: Evaluator<'_>) -> Vec<Fig1Row> {
    let mut rows = Vec::new();
    for (name, profiles) in workload_groups(scale) {
        let profiles: Vec<Profile> = profiles
            .into_iter()
            .map(|mut p| {
                p.include_spill_fill = true;
                p
            })
            .collect();
        let baselines = group_baselines(&profiles, scale, eval);
        for &cost in costs {
            let policy = PolicyKind::DynamicInstrumentation {
                threshold: u64::MAX,
                cost,
            };
            let mut acc = 0.0;
            for (p, base) in profiles.iter().zip(&baselines) {
                let instr = eval(single_config(p.clone(), policy, 0, 1, scale));
                acc += (1.0 - instr.normalized_to(base)) * 100.0;
            }
            rows.push(Fig1Row {
                workload: name.clone(),
                cost,
                overhead_pct: acc / profiles.len() as f64,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------

/// One curve of Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Workload group.
    pub workload: String,
    /// `(threshold, binary accuracy)` points.
    pub points: Vec<BinaryPoint>,
}

/// Figure 3: binary prediction hit rate for core-migration trigger
/// thresholds — whether `(predicted > N) == (actual > N)` across the
/// paper's `N` grid.
pub fn fig3_with(scale: Scale, eval: Evaluator<'_>) -> Vec<Fig3Row> {
    let mut rows = Vec::new();
    for (name, profiles) in workload_groups(scale) {
        let mut merged: Vec<BinaryPoint> = Vec::new();
        for p in &profiles {
            let r = eval(single_config(
                p.clone(),
                PolicyKind::HardwarePredictor { threshold: 1_000 },
                1_000,
                1,
                scale,
            ));
            if merged.is_empty() {
                merged = r.binary_accuracy.clone();
            } else {
                for (m, b) in merged.iter_mut().zip(r.binary_accuracy.iter()) {
                    m.accuracy += b.accuracy;
                }
            }
        }
        for m in &mut merged {
            m.accuracy /= profiles.len() as f64;
        }
        rows.push(Fig3Row {
            workload: name,
            points: merged,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------

/// One point of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Cell {
    /// Workload group.
    pub workload: String,
    /// One-way off-loading latency in cycles.
    pub latency: u64,
    /// Off-load threshold `N`.
    pub threshold: u64,
    /// Throughput normalized to the single-core baseline.
    pub normalized_ipc: f64,
}

/// The threshold grid of Figure 4's x-axis.
pub const FIG4_THRESHOLDS: &[u64] = &[0, 100, 500, 1_000, 5_000, 10_000];

/// The one-way off-loading latencies of Figure 4's curves.
pub const FIG4_LATENCIES: &[u64] = &[0, 100, 500, 1_000, 5_000];

/// Figure 4: normalized IPC relative to the uni-processor baseline when
/// varying the off-loading overhead and the switch trigger threshold.
///
/// The paper's grid is [`FIG4_LATENCIES`] × [`FIG4_THRESHOLDS`].
pub fn fig4_grid_with(
    scale: Scale,
    latencies: &[u64],
    thresholds: &[u64],
    eval: Evaluator<'_>,
) -> Vec<Fig4Cell> {
    let mut cells = Vec::new();
    for (name, profiles) in workload_groups(scale) {
        // Baselines once per profile.
        let baselines = group_baselines(&profiles, scale, eval);
        for &latency in latencies {
            for &threshold in thresholds {
                let mut acc = 0.0;
                for (p, base) in profiles.iter().zip(baselines.iter()) {
                    let r = eval(single_config(
                        p.clone(),
                        PolicyKind::HardwarePredictor { threshold },
                        latency,
                        1,
                        scale,
                    ));
                    acc += r.normalized_to(base);
                }
                cells.push(Fig4Cell {
                    workload: name.clone(),
                    latency,
                    threshold,
                    normalized_ipc: acc / profiles.len() as f64,
                });
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------

/// One bar of Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Workload group.
    pub workload: String,
    /// `"conservative"` (5,000-cycle) or `"aggressive"` (100-cycle).
    pub latency_label: String,
    /// `SI`, `DI`, or `HI`.
    pub policy: String,
    /// Throughput normalized to the single-core baseline.
    pub normalized: f64,
    /// The threshold `N` the dynamic schemes settled on.
    pub chosen_threshold: Option<u64>,
}

/// The two design points of Figure 5.
pub const FIG5_LATENCIES: &[(&str, u64)] = &[("conservative", 5_000), ("aggressive", 100)];

/// Figure 5: normalized throughput for off-loading with static manual
/// instrumentation (SI), dynamic software instrumentation (DI), and the
/// hardware predictor (HI).
///
/// SI uses the off-line profile with the paper's 2×-latency cutoff. DI
/// and HI pick the best threshold on the Figure 4 grid per workload —
/// the idealised outcome of the §III-B dynamic estimator, which both
/// schemes would run in deployment.
pub fn fig5_with(scale: Scale, eval: Evaluator<'_>) -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    let di_cost = 120;
    let si_stub = 25;
    for (name, profiles) in workload_groups(scale) {
        let baselines = group_baselines(&profiles, scale, eval);
        for &(label, latency) in FIG5_LATENCIES {
            // SI: fixed by the off-line profile.
            let si = group_normalized(
                &profiles,
                &baselines,
                PolicyKind::StaticInstrumentation { stub_cost: si_stub },
                latency,
                scale,
                eval,
            );
            rows.push(Fig5Row {
                workload: name.clone(),
                latency_label: label.to_string(),
                policy: "SI".to_string(),
                normalized: si,
                chosen_threshold: None,
            });

            // DI and HI: best threshold over the grid.
            for (policy_name, make) in [
                (
                    "DI",
                    Box::new(move |n: u64| PolicyKind::DynamicInstrumentation {
                        threshold: n,
                        cost: di_cost,
                    }) as Box<dyn Fn(u64) -> PolicyKind>,
                ),
                (
                    "HI",
                    Box::new(|n: u64| PolicyKind::HardwarePredictor { threshold: n })
                        as Box<dyn Fn(u64) -> PolicyKind>,
                ),
            ] {
                let mut best = f64::MIN;
                let mut best_n = 0;
                for &n in FIG4_THRESHOLDS {
                    let v = group_normalized(&profiles, &baselines, make(n), latency, scale, eval);
                    if v > best {
                        best = v;
                        best_n = n;
                    }
                }
                rows.push(Fig5Row {
                    workload: name.clone(),
                    latency_label: label.to_string(),
                    policy: policy_name.to_string(),
                    normalized: best,
                    chosen_threshold: Some(best_n),
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Table III
// ---------------------------------------------------------------------

/// One row of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Server workload.
    pub workload: String,
    /// `(threshold, fraction of execution time the OS core was busy)`.
    pub utilization: Vec<(u64, f64)>,
}

/// Table III's threshold grid.
pub const TABLE3_THRESHOLDS: &[u64] = &[100, 1_000, 5_000, 10_000];

/// Table III: percentage of total execution time spent on the OS core
/// using selective migration based on threshold `N` (5,000-cycle
/// off-loading overhead, server workloads).
pub fn table3_with(scale: Scale, eval: Evaluator<'_>) -> Vec<Table3Row> {
    Profile::all_server()
        .into_iter()
        .map(|p| {
            let utilization = TABLE3_THRESHOLDS
                .iter()
                .map(|&n| {
                    let r = eval(single_config(
                        p.clone(),
                        PolicyKind::HardwarePredictor { threshold: n },
                        5_000,
                        1,
                        scale,
                    ));
                    (n, r.os_core_busy_frac)
                })
                .collect();
            Table3Row {
                workload: p.name.to_string(),
                utilization,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// §V-C scalability
// ---------------------------------------------------------------------

/// One row of the §V-C scaling study.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityRow {
    /// User cores sharing the single OS core.
    pub user_cores: usize,
    /// Mean OS-core queueing delay in cycles.
    pub mean_queue_delay: f64,
    /// 95th-percentile queueing delay in cycles.
    pub p95_queue_delay: u64,
    /// Aggregate throughput normalized to `user_cores ×` the 1:1
    /// configuration's throughput (1.0 = perfect scaling).
    pub scaling_efficiency: f64,
    /// Aggregate throughput improvement over the same number of user
    /// cores *without* off-loading.
    pub speedup_vs_no_offload: f64,
    /// OS-core busy fraction.
    pub os_core_busy_frac: f64,
}

/// §V-C: scaling 1, 2, and 4 user cores against a single OS core
/// (SPECjbb2005, `N = 100`, 1,000-cycle off-loading overhead).
pub fn scalability_with(scale: Scale, eval: Evaluator<'_>) -> Vec<ScalabilityRow> {
    let profile = Profile::specjbb();
    let policy = PolicyKind::HardwarePredictor { threshold: 100 };
    let one_to_one = eval(single_config(profile.clone(), policy, 1_000, 1, scale));
    [1usize, 2, 4]
        .into_iter()
        .map(|cores| {
            let r = eval(single_config(profile.clone(), policy, 1_000, cores, scale));
            let base = eval(single_config(
                profile.clone(),
                PolicyKind::Baseline,
                0,
                cores,
                scale,
            ));
            ScalabilityRow {
                user_cores: cores,
                mean_queue_delay: r.queue.mean_delay,
                p95_queue_delay: r.queue.p95_delay,
                scaling_efficiency: r.throughput / (one_to_one.throughput * cores as f64),
                speedup_vs_no_offload: r.throughput / base.throughput,
                os_core_busy_frac: r.os_core_busy_frac,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// "Figure 6" — N×M many-core scalability (beyond the paper)
// ---------------------------------------------------------------------

/// One point of the Figure 6 many-core campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Workload group.
    pub workload: String,
    /// Dispatch-policy label.
    pub dispatch: String,
    /// User cores in the topology.
    pub user_cores: usize,
    /// OS cores in the topology.
    pub os_cores: usize,
    /// Aggregate throughput (instructions per cycle), averaged over the
    /// group's profiles.
    pub throughput: f64,
    /// Mean OS-core queueing delay in cycles.
    pub mean_queue_delay: f64,
    /// Median queueing delay in cycles (worst profile of the group).
    pub p50_queue_delay: u64,
    /// 95th-percentile queueing delay in cycles (worst profile).
    pub p95_queue_delay: u64,
    /// 99th-percentile queueing delay in cycles (worst profile).
    pub p99_queue_delay: u64,
    /// Mean per-OS-core utilisation across the pool.
    pub mean_os_utilisation: f64,
    /// Utilisation of the busiest OS core — the imbalance signal that
    /// separates the dispatch policies.
    pub max_os_utilisation: f64,
}

/// The user:OS core ratios of the Figure 6 sweep (max 40 cores, within
/// the memory model's 64-core ceiling).
pub const FIG6_RATIOS: &[(usize, usize)] =
    &[(4, 1), (8, 1), (8, 2), (16, 2), (16, 4), (32, 4), (32, 8)];

/// "Figure 6": the many-core scalability campaign the paper stops short
/// of (§V-C ends at 4 user cores × 1 OS core). Sweeps user:OS core
/// ratios per workload group under every [`DispatchPolicy`], with a
/// 500-cycle cold penalty so AState affinity has cache state to exploit
/// (HI, `N = 100`, 1,000-cycle off-loading overhead).
///
/// [`DispatchPolicy`]: crate::topology::DispatchPolicy
pub fn fig6_scalability_with(scale: Scale, eval: Evaluator<'_>) -> Vec<Fig6Row> {
    fig6_scalability_grid_with(
        scale,
        FIG6_RATIOS,
        &crate::topology::DispatchPolicy::ALL,
        eval,
    )
}

/// [`fig6_scalability_with`] over a custom ratio/policy grid.
pub fn fig6_scalability_grid_with(
    scale: Scale,
    ratios: &[(usize, usize)],
    policies: &[crate::topology::DispatchPolicy],
    eval: Evaluator<'_>,
) -> Vec<Fig6Row> {
    let policy = PolicyKind::HardwarePredictor { threshold: 100 };
    let mut rows = Vec::new();
    for (name, profiles) in workload_groups(scale) {
        for &dispatch in policies {
            for &(user_cores, os_cores) in ratios {
                let mut throughput = 0.0;
                let mut mean_delay = 0.0;
                let (mut p50, mut p95, mut p99) = (0u64, 0u64, 0u64);
                let mut mean_util = 0.0;
                let mut max_util = 0.0f64;
                for p in &profiles {
                    let cfg = scaled_builder(p.clone(), policy, 1_000, scale)
                        .user_cores(user_cores)
                        .os_cores(os_cores)
                        .dispatch(dispatch)
                        .os_cold_penalty(500)
                        .build();
                    let r = eval(cfg);
                    throughput += r.throughput;
                    mean_delay += r.queue.mean_delay;
                    p50 = p50.max(r.queue.p50_delay);
                    p95 = p95.max(r.queue.p95_delay);
                    p99 = p99.max(r.queue.p99_delay);
                    let n = r.os_core_utilisation.len().max(1) as f64;
                    mean_util += r.os_core_utilisation.iter().sum::<f64>() / n;
                    max_util = r
                        .os_core_utilisation
                        .iter()
                        .fold(max_util, |a, &b| a.max(b));
                }
                let n = profiles.len() as f64;
                rows.push(Fig6Row {
                    workload: name.clone(),
                    dispatch: dispatch.label().to_string(),
                    user_cores,
                    os_cores,
                    throughput: throughput / n,
                    mean_queue_delay: mean_delay / n,
                    p50_queue_delay: p50,
                    p95_queue_delay: p95,
                    p99_queue_delay: p99,
                    mean_os_utilisation: mean_util / n,
                    max_os_utilisation: max_util,
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------
// §III-A predictor accuracy
// ---------------------------------------------------------------------

/// One row of the predictor-organisation study.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorAccuracyRow {
    /// Workload group.
    pub workload: String,
    /// `"CAM"` or `"direct-mapped"`.
    pub organization: String,
    /// Table entry count.
    pub entries: usize,
    /// Fraction predicted exactly.
    pub exact: f64,
    /// Fraction predicted within ±5% (includes exact).
    pub within_5pct: f64,
    /// Fraction of mispredictions that were underestimates.
    pub underestimates: f64,
}

/// §III-A: run-length prediction accuracy for both hardware
/// organisations across table sizes, per workload group.
pub fn predictor_accuracy(
    scale: Scale,
    cam_sizes: &[usize],
    dm_sizes: &[usize],
    eval: Evaluator<'_>,
) -> Vec<PredictorAccuracyRow> {
    let mut rows = Vec::new();
    for (name, profiles) in workload_groups(scale) {
        let mut push = |organization: &str, entries: usize, policy: PolicyKind| {
            let mut exact = 0.0;
            let mut close = 0.0;
            let mut under = 0.0;
            for p in profiles.iter() {
                // Every HI run reports predictor stats; only the
                // runner's enumeration-pass placeholders lack them.
                let pr = eval(single_config(p.clone(), policy, 1_000, 1, scale))
                    .predictor
                    .unwrap_or_default();
                exact += pr.exact;
                close += pr.within_5pct;
                under += pr.underestimates;
            }
            let n = profiles.len() as f64;
            rows.push(PredictorAccuracyRow {
                workload: name.clone(),
                organization: organization.to_string(),
                entries,
                exact: exact / n,
                within_5pct: close / n,
                underestimates: under / n,
            });
        };
        for &entries in cam_sizes {
            push(
                "CAM",
                entries,
                PolicyKind::HardwarePredictorSized {
                    threshold: 1_000,
                    entries,
                },
            );
        }
        for &entries in dm_sizes {
            push(
                "direct-mapped",
                entries,
                PolicyKind::HardwarePredictorDmSized {
                    threshold: 1_000,
                    entries,
                },
            );
        }
    }
    rows
}

// ---------------------------------------------------------------------
// §V-B half-size-L2 comparison
// ---------------------------------------------------------------------

/// One row of the §V-B cache-budget study.
#[derive(Debug, Clone, PartialEq)]
pub struct HalfL2Row {
    /// Workload group.
    pub workload: String,
    /// One-way off-loading latency in cycles.
    pub latency: u64,
    /// Off-loading with two full-size (1 MB) L2s, normalized to the
    /// 1 MB single-core baseline.
    pub full_l2: f64,
    /// Off-loading with two half-size (512 KB) L2s, normalized to the
    /// same baseline — the equal-silicon comparison the paper calls "of
    /// academic value" (§V-B).
    pub half_l2: f64,
}

/// §V-B: "even an off-loading model with two 512 KB L2 caches can
/// out-perform the single-core baseline with a 1 MB L2 cache if the
/// off-loading latency is under 1,000 cycles."
pub fn half_l2(scale: Scale, latencies: &[u64], eval: Evaluator<'_>) -> Vec<HalfL2Row> {
    let mut rows = Vec::new();
    let policy = PolicyKind::HardwarePredictor { threshold: 100 };
    for (name, profiles) in workload_groups(scale) {
        let baselines = group_baselines(&profiles, scale, eval);
        for &latency in latencies {
            let full = group_normalized(&profiles, &baselines, policy, latency, scale, eval);
            let mut half_acc = 0.0;
            for (p, base) in profiles.iter().zip(&baselines) {
                let cfg = scaled_builder(p.clone(), policy, latency, scale)
                    .mem_override(osoffload_mem::MemConfig::half_l2_variant(2))
                    .build();
                half_acc += eval(cfg).normalized_to(base);
            }
            rows.push(HalfL2Row {
                workload: name.clone(),
                latency,
                full_l2: full,
                half_l2: half_acc / profiles.len() as f64,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// §II off-load mechanism ablation
// ---------------------------------------------------------------------

/// One row of the off-load transport ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismRow {
    /// Workload group.
    pub workload: String,
    /// One-way transport latency in cycles.
    pub latency: u64,
    /// Thread migration (the paper's scheme), normalized to baseline.
    pub thread_migration: f64,
    /// RPC-style message passing (the design point §II leaves on the
    /// table), normalized to baseline.
    pub remote_call: f64,
}

/// §II mechanism ablation: thread migration vs RPC-style off-load. The
/// RPC transport frees the user core during remote execution, so the
/// sibling thread overlaps — quantifying what the paper's untaken design
/// point would have bought.
pub fn mechanism_ablation(
    scale: Scale,
    latencies: &[u64],
    eval: Evaluator<'_>,
) -> Vec<MechanismRow> {
    use crate::migration::OffloadMechanism;
    let mut rows = Vec::new();
    let policy = PolicyKind::HardwarePredictor { threshold: 100 };
    for (name, profiles) in workload_groups(scale) {
        let baselines = group_baselines(&profiles, scale, eval);
        for &latency in latencies {
            let mut run_mech = |mech: OffloadMechanism| {
                let mut acc = 0.0;
                for (p, base) in profiles.iter().zip(&baselines) {
                    let cfg = scaled_builder(p.clone(), policy, latency, scale)
                        .mechanism(mech)
                        .build();
                    acc += eval(cfg).normalized_to(base);
                }
                acc / profiles.len() as f64
            };
            rows.push(MechanismRow {
                workload: name.clone(),
                latency,
                thread_migration: run_mech(OffloadMechanism::ThreadMigration),
                remote_call: run_mech(OffloadMechanism::RemoteCall),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Sensitivity analysis
// ---------------------------------------------------------------------

/// One row of the sensitivity study.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityRow {
    /// Which substrate parameter was varied.
    pub parameter: String,
    /// The value it was set to (cycles or bytes, per the parameter).
    pub value: u64,
    /// Off-loading benefit (HI, N = 100, 1,000-cycle migration) under
    /// that substrate, normalized to a baseline sharing it.
    pub normalized: f64,
}

/// Robustness check: how does the off-loading benefit move when the
/// memory-system parameters around it change? Both the baseline and the
/// off-loading run share each varied substrate, so the ratio isolates
/// the policy's benefit from the substrate shift itself.
pub fn sensitivity_with(
    scale: Scale,
    profile: Profile,
    eval: Evaluator<'_>,
) -> Vec<SensitivityRow> {
    use osoffload_mem::{CacheGeometry, MemConfig};
    let policy = PolicyKind::HardwarePredictor { threshold: 100 };
    let mut rows = Vec::new();

    let mut probe = |parameter: &str, value: u64, patch: &dyn Fn(&mut MemConfig)| {
        let mut run = |kind: PolicyKind| {
            // The off-loading topology has one more core than baseline.
            let cores = if kind.is_baseline() { 1 } else { 2 };
            let mut mem = MemConfig::paper_baseline(cores);
            patch(&mut mem);
            eval(
                scaled_builder(profile.clone(), kind, 1_000, scale)
                    .mem_override(mem)
                    .build(),
            )
        };
        let base = run(PolicyKind::Baseline);
        let offl = run(policy);
        rows.push(SensitivityRow {
            parameter: parameter.to_string(),
            value,
            normalized: offl.normalized_to(&base),
        });
    };

    for kb in [512u64, 1_024, 2_048] {
        probe("l2_kb", kb, &move |m: &mut MemConfig| {
            m.l2 = CacheGeometry::new(kb * 1024, 16);
        });
    }
    for lat in [200u64, 350, 500] {
        probe("dram_latency", lat, &move |m: &mut MemConfig| {
            m.dram_latency = lat;
        });
    }
    for c2c in [20u64, 40, 80] {
        probe("c2c_latency", c2c, &move |m: &mut MemConfig| {
            m.interconnect = osoffload_mem::Interconnect::new(
                m.interconnect.directory_lookup,
                c2c,
                m.interconnect.invalidation,
            );
        });
    }
    rows
}

// ---------------------------------------------------------------------
// §III-B tuner trace
// ---------------------------------------------------------------------

/// §III-B: runs the dynamic threshold estimator and returns the final
/// report plus the full decision log.
///
/// Epoch lengths are scaled down from the paper's 25 M/100 M instruction
/// epochs in proportion to the run length, so the estimator completes
/// several sample/stable rounds within the simulated window.
pub fn tuner_trace(scale: Scale, profile: Profile) -> (SimReport, Vec<TunerEvent>) {
    let hi = PolicyKind::HardwarePredictor { threshold: 1_000 };
    let cfg = scaled_builder(profile, hi, 1_000, scale)
        .tuner(TunerConfig::for_run_length(scale.instructions))
        .build();
    let (report, observation) = Simulation::new(cfg).run_observed();
    (report, observation.tuner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            instructions: 120_000,
            warmup: 60_000,
            seed: 7,
            compute_profiles: 1,
        }
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::from_arg("quick"), Some(Scale::quick()));
        assert_eq!(Scale::from_arg("full"), Some(Scale::full()));
        assert_eq!(Scale::from_arg("paper"), Some(Scale::paper()));
        assert_eq!(Scale::from_arg("--paper"), None, "one spelling per scale");
        assert_eq!(Scale::from_arg("bogus"), None);
    }

    #[test]
    fn workload_groups_cover_servers_and_compute() {
        let groups = workload_groups(tiny());
        let names: Vec<&str> = groups.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["apache", "specjbb2005", "derby", "compute"]);
        assert_eq!(groups[3].1.len(), 1);
    }

    #[test]
    fn fig1_reports_positive_overhead_for_servers() {
        let rows = fig1_with(tiny(), &[200], &mut simulate);
        let apache = rows.iter().find(|r| r.workload == "apache").unwrap();
        assert!(
            apache.overhead_pct > 0.0,
            "apache overhead = {}",
            apache.overhead_pct
        );
    }

    #[test]
    fn fig3_has_full_grid() {
        let rows = fig3_with(tiny(), &mut simulate);
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert_eq!(row.points.len(), 5);
            for p in row.points {
                assert!((0.0..=1.0).contains(&p.accuracy));
            }
        }
    }

    #[test]
    fn fig4_grid_dimensions() {
        let cells = fig4_grid_with(tiny(), &[100], &[100, 10_000], &mut simulate);
        assert_eq!(cells.len(), 4 * 2);
        assert!(cells.iter().all(|c| c.normalized_ipc > 0.0));
    }

    #[test]
    fn table3_covers_server_workloads() {
        let rows = table3_with(tiny(), &mut simulate);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.utilization.len(), 4);
        }
    }

    #[test]
    fn scalability_rows_scale_cores() {
        let rows = scalability_with(tiny(), &mut simulate);
        let cores: Vec<usize> = rows.iter().map(|r| r.user_cores).collect();
        assert_eq!(cores, vec![1, 2, 4]);
        // Queue delays grow with sharing.
        assert!(rows[2].mean_queue_delay >= rows[0].mean_queue_delay);
    }

    #[test]
    fn fig6_grid_covers_every_ratio_and_policy() {
        use crate::topology::DispatchPolicy;
        let ratios = &[(2, 1), (2, 2)];
        let policies = &[DispatchPolicy::LeastLoaded, DispatchPolicy::RoundRobin];
        let rows = fig6_scalability_grid_with(tiny(), ratios, policies, &mut simulate);
        assert_eq!(rows.len(), 4 * 2 * 2);
        for row in &rows {
            assert!(row.throughput > 0.0, "{row:?}");
            assert!(
                (0.0..=1.0).contains(&row.mean_os_utilisation)
                    && row.max_os_utilisation >= row.mean_os_utilisation,
                "{row:?}"
            );
            assert!(row.p50_queue_delay <= row.p95_queue_delay);
            assert!(row.p95_queue_delay <= row.p99_queue_delay);
        }
        // Both policies produced distinct, labelled rows for each cell.
        let ll = rows.iter().filter(|r| r.dispatch == "least-loaded").count();
        let rr = rows.iter().filter(|r| r.dispatch == "round-robin").count();
        assert_eq!((ll, rr), (8, 8));
    }

    #[test]
    fn predictor_accuracy_rows() {
        let rows = predictor_accuracy(tiny(), &[200], &[1500], &mut simulate);
        assert_eq!(rows.len(), 4 * 2);
        assert!(rows.iter().all(|r| r.within_5pct >= r.exact));
    }

    #[test]
    fn half_l2_rows_cover_grid() {
        let rows = half_l2(tiny(), &[100], &mut simulate);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.full_l2 > 0.0 && r.half_l2 > 0.0);
        }
    }

    #[test]
    fn remote_call_never_slower_for_servers() {
        let rows = mechanism_ablation(tiny(), &[1_000], &mut simulate);
        let apache = rows.iter().find(|r| r.workload == "apache").unwrap();
        assert!(
            apache.remote_call >= apache.thread_migration * 0.98,
            "RPC {:.3} vs migration {:.3}",
            apache.remote_call,
            apache.thread_migration
        );
    }

    #[test]
    fn sensitivity_covers_all_parameters() {
        let rows = sensitivity_with(tiny(), Profile::apache(), &mut simulate);
        assert_eq!(rows.len(), 9);
        assert!(rows.iter().all(|r| r.normalized > 0.5));
        let params: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.parameter.as_str()).collect();
        assert_eq!(params.len(), 3);
    }

    #[test]
    fn tuner_trace_produces_events() {
        let (report, trace) = tuner_trace(tiny(), Profile::apache());
        assert!(!trace.is_empty());
        assert!(report.tuner_events > 0);
    }
}
