//! Subcommand implementations for the `osoffload` binary.

use crate::args::RunArgs;
use osoffload_core::TunerConfig;
use osoffload_energy::{evaluate, EnergyParams};
use osoffload_obs::TelemetryMode;
use osoffload_system::{OffloadMechanism, PolicyKind, SimReport, Simulation, SystemConfig};
use osoffload_workload::Profile;

fn build_config(a: &RunArgs, policy: PolicyKind) -> SystemConfig {
    let profile = Profile::by_name(&a.profile).expect("validated by the parser");
    let mut b = SystemConfig::builder()
        .profile(profile)
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
    b.build()
}

fn simulate(a: &RunArgs, policy: PolicyKind) -> SimReport {
    Simulation::new(build_config(a, policy)).run()
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
/// and writes `<profile>.trace.json`, `<profile>.metrics.csv`, and
/// `<profile>.metrics.json` under `--trace-out` (default
/// `results/telemetry`). Telemetry is observational: the printed report
/// is bit-identical with or without it.
pub fn run(a: &RunArgs) -> i32 {
    let report = if a.telemetry {
        let mut cfg = build_config(a, a.policy);
        cfg.telemetry = TelemetryMode::Full;
        let (report, observed) = Simulation::new(cfg).run_observed();
        let dir = std::path::PathBuf::from(a.trace_out.as_deref().unwrap_or("results/telemetry"));
        match observed.telemetry.write_files(&dir, &a.profile) {
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
        simulate(a, a.policy)
    };
    if a.json {
        println!("{}", report.to_json());
        return 0;
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
    0
}

/// `osoffload compare`: baseline vs SI vs DI vs HI.
pub fn compare(a: &RunArgs) -> i32 {
    let baseline = simulate(a, PolicyKind::Baseline);
    println!(
        "{} @ {} cyc one-way, {} insn (baseline {:.4} insn/cyc)\n",
        a.profile, a.latency, a.instructions, baseline.throughput
    );
    println!(
        "{:<10} {:>11} {:>10} {:>14}",
        "policy", "normalized", "offloads", "overhead cyc"
    );
    // The dynamic schemes compare at the threshold from --policy (or the
    // 500-instruction default).
    let n = match a.policy {
        PolicyKind::HardwarePredictor { threshold } => threshold,
        _ => 500,
    };
    for (name, policy) in [
        ("SI", PolicyKind::StaticInstrumentation { stub_cost: 25 }),
        (
            "DI",
            PolicyKind::DynamicInstrumentation {
                threshold: n,
                cost: 120,
            },
        ),
        ("HI", PolicyKind::HardwarePredictor { threshold: n }),
    ] {
        let r = simulate(a, policy);
        println!(
            "{:<10} {:>11.3} {:>10} {:>14}",
            name,
            r.normalized_to(&baseline),
            r.offloads,
            r.decision_overhead_cycles
        );
    }
    0
}

/// `osoffload sweep`: threshold sweep (the x-axis of Figure 4).
pub fn sweep(a: &RunArgs) -> i32 {
    let baseline = simulate(a, PolicyKind::Baseline);
    println!(
        "{} @ {} cyc one-way (baseline {:.4} insn/cyc)\n",
        a.profile, a.latency, baseline.throughput
    );
    println!(
        "{:<10} {:>11} {:>10} {:>13}",
        "N", "normalized", "offloads", "OS-core busy"
    );
    for n in [0u64, 100, 500, 1_000, 2_000, 5_000, 10_000] {
        let r = simulate(a, PolicyKind::HardwarePredictor { threshold: n });
        println!(
            "{:<10} {:>11.3} {:>10} {:>12.1}%",
            n,
            r.normalized_to(&baseline),
            r.offloads,
            r.os_core_busy_frac * 100.0
        );
    }
    0
}

/// `osoffload trace`: per-invocation CSV to stdout, summary to stderr.
pub fn trace(a: &RunArgs) -> i32 {
    let mut cfg = build_config(a, a.policy);
    cfg.trace_capacity = 100_000;
    let (report, observed) = Simulation::new(cfg).run_observed();
    print!("{}", observed.trace.to_csv());
    eprintln!("{report}");
    eprintln!("{}", observed.trace);
    0
}

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
    for (spec, what) in [
        ("baseline", "no off-loading (single core)"),
        ("always", "off-load every privileged invocation"),
        (
            "hi[:N]",
            "hardware predictor, 200-entry CAM (the paper's scheme)",
        ),
        (
            "hi-dm[:N]",
            "hardware predictor, 1,500-entry direct-mapped RAM",
        ),
        ("hi-global[:N]", "ablation: global-only prediction"),
        (
            "hi-lastvalue[:N]",
            "ablation: infinite last-value, no confidence",
        ),
        (
            "di[:N[:COST]]",
            "dynamic software instrumentation of every entry",
        ),
        (
            "si[:STUB]",
            "static instrumentation from off-line profiling",
        ),
        ("oracle[:N]", "decisions on the true run length"),
    ] {
        println!("  {spec:<18} {what}");
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
        assert_eq!(run(&a), 0);
    }

    #[test]
    fn run_completes_with_all_feature_flags() {
        let mut a = tiny_args();
        a.energy = true;
        a.tuner = true;
        assert_eq!(run(&a), 0);
        let mut a = tiny_args();
        a.rpc = true;
        assert_eq!(run(&a), 0);
        let mut a = tiny_args();
        a.adapt_milli = Some(1_250);
        assert_eq!(run(&a), 0);
    }

    #[test]
    fn run_with_telemetry_writes_files() {
        let dir = std::env::temp_dir().join(format!("osoff-cli-telem-{}", std::process::id()));
        let mut a = tiny_args();
        a.telemetry = true;
        a.trace_out = Some(dir.to_string_lossy().into_owned());
        assert_eq!(run(&a), 0);
        let trace = dir.join("apache.trace.json");
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(dir.join("apache.metrics.csv").exists());
        assert!(dir.join("apache.metrics.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_and_sweep_complete() {
        assert_eq!(compare(&tiny_args()), 0);
        assert_eq!(sweep(&tiny_args()), 0);
    }

    #[test]
    fn list_completes() {
        assert_eq!(list(), 0);
    }

    #[test]
    fn trace_completes() {
        assert_eq!(trace(&tiny_args()), 0);
    }

    #[test]
    fn config_reflects_flags() {
        let mut a = tiny_args();
        a.rpc = true;
        a.cores = 2;
        let cfg = build_config(&a, PolicyKind::HardwarePredictor { threshold: 9 });
        assert_eq!(cfg.mechanism, OffloadMechanism::RemoteCall);
        assert_eq!(cfg.user_cores, 2);
        assert_eq!(cfg.total_cores(), 3);

        let mut a = tiny_args();
        a.adapt_milli = Some(1_500);
        let cfg = build_config(&a, PolicyKind::HardwarePredictor { threshold: 9 });
        assert_eq!(cfg.resource_adaptation, Some(1_500));
        assert_eq!(cfg.total_cores(), 1, "adaptation adds no OS core");
    }
}
