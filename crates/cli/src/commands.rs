//! Subcommand implementations for the `osoffload` binary.
//!
//! Each simulation subcommand builds its configurations with
//! [`SystemConfigBuilder::try_build`], so a configuration that
//! [`SystemConfig::validate`] refuses comes back as a [`ConfigError`]
//! (exit 2) instead of a panic.
//!
//! [`SystemConfigBuilder::try_build`]: osoffload_system::SystemConfigBuilder::try_build

use crate::args::{policy_specs, RunArgs};
use crate::harness::render_table;
use osoffload_core::TunerConfig;
use osoffload_energy::{evaluate, EnergyParams};
use osoffload_obs::TelemetryMode;
use osoffload_system::{
    ConfigError, OffloadMechanism, PolicyKind, SimReport, Simulation, SystemConfig,
};
use osoffload_workload::Profile;
use std::path::PathBuf;

fn build_config(a: &RunArgs, policy: PolicyKind) -> Result<SystemConfig, ConfigError> {
    let mut b = SystemConfig::builder()
        .profile(a.workload.clone())
        .policy(policy)
        .migration_latency(a.latency)
        .user_cores(a.cores)
        .instructions(a.instructions)
        .warmup(a.warmup)
        .seed(a.seed);
    if a.rpc {
        b = b.mechanism(OffloadMechanism::RemoteCall);
    }
    if let Some(m) = a.adapt_milli {
        b = b.resource_adaptation(m);
    }
    if a.tuner {
        b = b.tuner(TunerConfig::for_run_length(a.instructions));
    }
    b.try_build()
}

fn print_energy(report: &SimReport) {
    let e = evaluate(report, &EnergyParams::homogeneous());
    println!("energy (homogeneous CMP): {e}");
    let h = evaluate(report, &EnergyParams::heterogeneous());
    println!("energy (efficient OS core): {h}");
}

/// `osoffload run`: one simulation, detailed report.
///
/// With `--telemetry`, the run captures spans and epoch-sampled metrics
/// and writes `<workload>.trace.json`, `<workload>.metrics.csv`, and
/// `<workload>.metrics.json` under `--trace-out` (default
/// `results/telemetry`). Telemetry is observational: the printed report
/// is bit-identical with or without it.
pub fn run(a: &RunArgs) -> Result<(), ConfigError> {
    let mut cfg = build_config(a, a.policy)?;
    let report = if a.telemetry {
        cfg.telemetry = TelemetryMode::Full;
        let (report, observed) = Simulation::new(cfg).run_observed();
        let dir = a
            .trace_out
            .clone()
            .unwrap_or_else(|| PathBuf::from("results/telemetry"));
        match observed.telemetry.write_files(&dir, a.workload.name) {
            Ok(paths) => {
                for p in paths {
                    eprintln!("telemetry: wrote {}", p.display());
                }
            }
            Err(e) => eprintln!(
                "telemetry: could not write files under {}: {e}",
                dir.display()
            ),
        }
        report
    } else {
        Simulation::new(cfg).run()
    };
    if a.json {
        println!("{}", report.to_json());
        return Ok(());
    }
    println!("{report}");
    println!(
        "  cycles {}   L1D {:.1}%  L1I {:.1}%  L2(user) {:.1}%  L2(OS) {:.1}%",
        report.cycles,
        report.l1d_hit_rate * 100.0,
        report.l1i_hit_rate * 100.0,
        report.l2_user_hit_rate * 100.0,
        report.l2_os_hit_rate * 100.0,
    );
    println!(
        "  coherence: {} c2c transfers, {} invalidation rounds, {} DRAM accesses",
        report.c2c_transfers, report.invalidation_rounds, report.dram_accesses
    );
    if report.offloads > 0 {
        println!(
            "  off-loading: {} migrated / {} local, queue mean {:.0} cyc \
             (p50 {} / p95 {} / p99 {} cyc)",
            report.offloads,
            report.local_invocations,
            report.queue.mean_delay,
            report.queue.p50_delay,
            report.queue.p95_delay,
            report.queue.p99_delay
        );
    }
    if let Some(p) = &report.predictor {
        println!(
            "  predictor: {:.1}% exact, {:.1}% within ±5%, {:.1}% underestimates",
            p.exact * 100.0,
            p.within_5pct * 100.0,
            p.underestimates * 100.0
        );
    }
    if let Some(n) = report.final_threshold {
        if report.tuner_events > 0 {
            println!(
                "  tuner: settled on N = {n} after {} epochs",
                report.tuner_events
            );
        }
    }
    if report.throttled_cycles > 0 {
        println!("  adaptation: {} throttled cycles", report.throttled_cycles);
    }
    if a.energy {
        print_energy(&report);
    }
    Ok(())
}

/// Simulates `a` under each policy, baseline first. Every
/// configuration is built before any runs, so a refused one prints
/// nothing.
fn simulate_all(
    a: &RunArgs,
    policies: impl IntoIterator<Item = PolicyKind>,
) -> Result<Vec<SimReport>, ConfigError> {
    let configs = std::iter::once(PolicyKind::Baseline)
        .chain(policies)
        .map(|policy| build_config(a, policy))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(configs
        .into_iter()
        .map(|cfg| Simulation::new(cfg).run())
        .collect())
}

/// `osoffload compare`: baseline vs SI vs DI vs HI. The dynamic schemes
/// compare at the threshold of `--policy` (default `hi:500`); a policy
/// without one (the baseline, SI) is refused, as is a configuration
/// `SystemConfig::validate` refuses.
pub fn compare(a: &RunArgs) -> Result<(), String> {
    let n = a.policy.threshold().ok_or_else(|| {
        format!(
            "compare needs a --policy with a threshold; {} has none",
            a.policy.label()
        )
    })?;
    let schemes = [
        ("SI", PolicyKind::StaticInstrumentation { stub_cost: 25 }),
        (
            "DI",
            PolicyKind::DynamicInstrumentation {
                threshold: n,
                cost: 120,
            },
        ),
        ("HI", PolicyKind::HardwarePredictor { threshold: n }),
    ];
    let reports = simulate_all(a, schemes.map(|(_, policy)| policy)).map_err(|e| e.to_string())?;
    let baseline = &reports[0];
    println!(
        "{} @ {} cyc one-way, {} insn (baseline {:.4} insn/cyc)\n",
        a.workload.name, a.latency, a.instructions, baseline.throughput
    );
    println!(
        "{:<10} {:>11} {:>10} {:>14}",
        "policy", "normalized", "offloads", "overhead cyc"
    );
    for ((name, _), r) in schemes.iter().zip(&reports[1..]) {
        println!(
            "{:<10} {:>11.3} {:>10} {:>14}",
            name,
            r.normalized_to(baseline),
            r.offloads,
            r.decision_overhead_cycles
        );
    }
    Ok(())
}

/// `osoffload sweep`: threshold sweep (the x-axis of Figure 4).
pub fn sweep(a: &RunArgs) -> Result<(), ConfigError> {
    let thresholds = [0u64, 100, 500, 1_000, 2_000, 5_000, 10_000];
    let reports = simulate_all(
        a,
        thresholds.map(|threshold| PolicyKind::HardwarePredictor { threshold }),
    )?;
    let baseline = &reports[0];
    println!(
        "{} @ {} cyc one-way (baseline {:.4} insn/cyc)\n",
        a.workload.name, a.latency, baseline.throughput
    );
    println!(
        "{:<10} {:>11} {:>10} {:>13}",
        "N", "normalized", "offloads", "OS-core busy"
    );
    for (n, r) in thresholds.iter().zip(&reports[1..]) {
        println!(
            "{:<10} {:>11.3} {:>10} {:>12.1}%",
            n,
            r.normalized_to(baseline),
            r.offloads,
            r.os_core_busy_frac * 100.0
        );
    }
    Ok(())
}

/// `osoffload trace`: the per-invocation trace of one run as CSV on
/// stdout (pipe it into a file for off-line analysis), and on stderr
/// the report, the ring's retention line and a per-syscall summary
/// table.
pub fn trace(a: &RunArgs) -> Result<(), ConfigError> {
    let mut cfg = build_config(a, a.policy)?;
    cfg.trace_capacity = TRACE_CAPACITY;
    let (report, observed) = Simulation::new(cfg).run_observed();
    let trace = observed.trace;
    print!("{}", trace.to_csv());
    eprintln!("{report}");
    eprintln!("{trace}\n");
    let rows: Vec<Vec<String>> = trace
        .summarize()
        .iter()
        .map(|s| {
            vec![
                s.syscall.to_string(),
                s.count.to_string(),
                s.offloaded.to_string(),
                format!("{:.0}", s.mean_len),
                format!("{:.0}", s.mean_abs_error),
                format!("{:.0}", s.mean_cycles),
            ]
        })
        .collect();
    let headers = [
        "syscall",
        "count",
        "offloaded",
        "mean len",
        "mean |err|",
        "mean cycles",
    ];
    eprint!("{}", render_table(&headers, &rows));
    Ok(())
}

/// Invocation records `osoffload trace` retains; older ones are
/// dropped and counted.
const TRACE_CAPACITY: usize = 50_000;

/// `osoffload list`: profiles and policy specs.
pub fn list() -> i32 {
    println!("workload profiles:");
    for p in Profile::all_server()
        .into_iter()
        .chain(Profile::all_compute())
    {
        println!(
            "  {:<14} {:?}, ~{:.0}% OS, {} thread(s)/core",
            p.name,
            p.kind,
            p.expected_os_share() * 100.0,
            p.threads_per_core
        );
    }
    println!("\npolicy specs:");
    for line in policy_specs() {
        println!("  {line}");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> RunArgs {
        RunArgs {
            instructions: 60_000,
            warmup: 20_000,
            ..RunArgs::default()
        }
    }

    #[test]
    fn run_emits_json_when_asked() {
        let mut a = tiny_args();
        a.json = true;
        assert_eq!(run(&a), Ok(()));
    }

    #[test]
    fn run_completes_with_all_feature_flags() {
        let mut a = tiny_args();
        a.energy = true;
        a.tuner = true;
        assert_eq!(run(&a), Ok(()));
        let mut a = tiny_args();
        a.rpc = true;
        assert_eq!(run(&a), Ok(()));
        let mut a = tiny_args();
        a.adapt_milli = Some(1_250);
        assert_eq!(run(&a), Ok(()));
    }

    #[test]
    fn run_with_telemetry_writes_files() {
        let dir = std::env::temp_dir().join(format!("osoff-cli-telem-{}", std::process::id()));
        let mut a = tiny_args();
        a.telemetry = true;
        a.trace_out = Some(dir.clone());
        assert_eq!(run(&a), Ok(()));
        let trace = dir.join("apache.trace.json");
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(dir.join("apache.metrics.csv").exists());
        assert!(dir.join("apache.metrics.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_and_sweep_complete() {
        assert_eq!(compare(&tiny_args()), Ok(()));
        assert_eq!(sweep(&tiny_args()), Ok(()));
    }

    /// `compare` runs at the threshold of any policy that has one and
    /// refuses the policies that have none.
    #[test]
    fn compare_takes_the_threshold_of_every_policy_that_has_one() {
        for policy in [
            PolicyKind::DynamicInstrumentation {
                threshold: 100,
                cost: 120,
            },
            PolicyKind::Oracle { threshold: 100 },
            PolicyKind::AlwaysOffload,
        ] {
            let a = RunArgs {
                policy,
                ..tiny_args()
            };
            assert_eq!(compare(&a), Ok(()), "{policy}");
        }
        for policy in [
            PolicyKind::Baseline,
            PolicyKind::StaticInstrumentation { stub_cost: 25 },
        ] {
            let a = RunArgs {
                policy,
                ..tiny_args()
            };
            assert_eq!(
                compare(&a),
                Err(format!(
                    "compare needs a --policy with a threshold; {} has none",
                    policy.label()
                ))
            );
        }
    }

    #[test]
    fn list_completes() {
        assert_eq!(list(), 0);
    }

    #[test]
    fn trace_completes() {
        assert_eq!(trace(&tiny_args()), Ok(()));
    }

    /// Every configuration `validate` refuses comes back as its typed
    /// error from each simulation subcommand, before anything runs.
    #[test]
    fn refused_configurations_are_errors_not_panics() {
        let huge = u64::MAX / 2 + 1;
        let cases = [
            (
                RunArgs {
                    cores: 100,
                    ..tiny_args()
                },
                ConfigError::TooManyCores { total: 101 },
            ),
            (
                RunArgs {
                    cores: 0,
                    ..tiny_args()
                },
                ConfigError::NoUserCores,
            ),
            (
                RunArgs {
                    instructions: 0,
                    ..tiny_args()
                },
                ConfigError::NoInstructions,
            ),
            (
                RunArgs {
                    adapt_milli: Some(0),
                    ..tiny_args()
                },
                ConfigError::ZeroAdaptationSlowdown,
            ),
            (
                RunArgs {
                    latency: huge,
                    ..tiny_args()
                },
                ConfigError::MigrationOverflow { one_way: huge },
            ),
        ];
        for (a, expected) in cases {
            assert_eq!(run(&a), Err(expected.clone()));
            assert_eq!(trace(&a), Err(expected.clone()));
            // compare and sweep build their baseline first, which has
            // no OS core to count.
            let e = sweep(&a).unwrap_err();
            assert_eq!(
                std::mem::discriminant(&e),
                std::mem::discriminant(&expected),
                "{e}"
            );
            assert_eq!(compare(&a), Err(e.to_string()));
        }
    }

    #[test]
    fn config_reflects_flags() {
        let mut a = tiny_args();
        a.rpc = true;
        a.cores = 2;
        let cfg = build_config(&a, PolicyKind::HardwarePredictor { threshold: 9 }).unwrap();
        assert_eq!(cfg.mechanism, OffloadMechanism::RemoteCall);
        assert_eq!(cfg.user_cores, 2);
        assert_eq!(cfg.total_cores(), 3);

        let mut a = tiny_args();
        a.adapt_milli = Some(1_500);
        let cfg = build_config(&a, PolicyKind::HardwarePredictor { threshold: 9 }).unwrap();
        assert_eq!(cfg.resource_adaptation, Some(1_500));
        assert_eq!(cfg.total_cores(), 1, "adaptation adds no OS core");
    }
}
