//! `osoffload-bench`: one entry point for every table and figure of the
//! paper's evaluation plus the extensions built on it.
//!
//! Usage: `cargo run --release -p osoffload-bench -- <experiment>
//! [quick|full|paper] [--workers=N] [--quiet] [--out=DIR] [--canonical] …`
//! (run it without arguments for the full flag list and every
//! experiment name).
//!
//! [`EXPERIMENTS`] is the registry. Every experiment that simulates more
//! than one point runs through [`harness::run`], so each is parallel,
//! archived as `results/<name>.json`, and honours `--canonical`,
//! `--journal` and `--resume`. Drivers return reports; scoring and table
//! rendering happen after the runner returns, because the runner's
//! enumeration pass feeds each driver placeholder reports. Two entries
//! run directly, because they need special simulation modes:
//! `tuner_trace` and `invocation_trace`. `calibration`, `table1`,
//! `table2` and `fig2` simulate nothing.

use osoffload_bench::{harness, pct, render_table, spark};
use osoffload_core::{CamPredictor, DirectMappedPredictor, RunLengthPredictor};
use osoffload_cpu::{CoreParams, Tlb};
use osoffload_energy::{evaluate, EnergyParams};
use osoffload_mem::MemConfig;
use osoffload_runner::RunnerOptions;
use osoffload_system::experiments::{
    self, fig1_with, fig3_with, fig4_grid_with, fig5_with, fig6_scalability_with, scalability_with,
    scaled_builder, sensitivity_with, single_config, table3_with, Scale, FIG4_LATENCIES,
    FIG4_THRESHOLDS, TABLE3_THRESHOLDS,
};
use osoffload_system::{PolicyKind, SimReport, Simulation};
use osoffload_workload::{validate, Profile, CATALOG, OS_SYSCALL_TABLE};

/// One registry entry: an experiment the binary can run by name.
struct Experiment {
    /// Command-line name; also the archive's file stem.
    name: &'static str,
    /// The paper artefact (or extension) it regenerates.
    artefact: &'static str,
    /// Runs the experiment and prints its table on stdout.
    run: fn(Scale, &RunnerOptions),
}

/// Every experiment: the paper's artefacts, then extensions and tools.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        artefact: "Table I: distinct system calls per OS",
        run: table1,
    },
    Experiment {
        name: "table2",
        artefact: "Table II: simulator parameters",
        run: table2,
    },
    Experiment {
        name: "fig1",
        artefact: "Figure 1: software-instrumentation overhead",
        run: fig1,
    },
    Experiment {
        name: "fig2",
        artefact: "Figure 2: run-length predictor structure",
        run: fig2,
    },
    Experiment {
        name: "fig3",
        artefact: "Figure 3: binary decision accuracy vs N",
        run: fig3,
    },
    Experiment {
        name: "fig4",
        artefact: "Figure 4: normalized IPC vs N per migration latency",
        run: fig4,
    },
    Experiment {
        name: "fig5",
        artefact: "Figure 5: SI vs DI vs HI",
        run: fig5,
    },
    Experiment {
        name: "table3",
        artefact: "Table III: OS-core utilisation vs N",
        run: table3,
    },
    Experiment {
        name: "predictor_accuracy",
        artefact: "§III-A: run-length predictor accuracy and sizing",
        run: predictor_accuracy,
    },
    Experiment {
        name: "tuner_trace",
        artefact: "§III-B: dynamic threshold estimation log",
        run: tuner_trace,
    },
    Experiment {
        name: "half_l2",
        artefact: "§V-B: two 512 KB L2s vs the 1 MB baseline",
        run: half_l2,
    },
    Experiment {
        name: "scalability",
        artefact: "§V-C: user cores sharing one OS core",
        run: scalability,
    },
    Experiment {
        name: "fig6_scalability",
        artefact: "extension: N user x M OS cores per dispatch policy",
        run: fig6_scalability,
    },
    Experiment {
        name: "energy",
        artefact: "extension: energy and EDP",
        run: energy,
    },
    Experiment {
        name: "adaptation",
        artefact: "extension (§VI-B): resource adaptation",
        run: adaptation,
    },
    Experiment {
        name: "mechanism",
        artefact: "extension (§II): RPC vs thread migration",
        run: mechanism,
    },
    Experiment {
        name: "smt_os_core",
        artefact: "extension (§V-C): SMT OS core",
        run: smt_os_core,
    },
    Experiment {
        name: "ablation",
        artefact: "extension: predictor design ablation",
        run: ablation,
    },
    Experiment {
        name: "sensitivity",
        artefact: "extension: memory-substrate sensitivity",
        run: sensitivity,
    },
    Experiment {
        name: "outliers",
        artefact: "extension: per-benchmark compute group",
        run: outliers,
    },
    Experiment {
        name: "calibration",
        artefact: "model check: workload calibration",
        run: calibration,
    },
    Experiment {
        name: "invocation_trace",
        artefact: "tool: per-invocation CSV trace",
        run: invocation_trace,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, scale, opts)) = harness::parse_args(&args) else {
        usage()
    };
    match EXPERIMENTS.iter().find(|e| e.name == name) {
        Some(experiment) => (experiment.run)(scale, &opts),
        None => usage(),
    }
}

/// Help for the scale word and the runner flags that
/// [`harness::parse_args`] accepts after an experiment name.
const USAGE: &str = "\
usage: osoffload-bench <experiment> [quick|full|paper] [--workers=N]
         [--retries=N] [--quiet] [--out=DIR] [--telemetry] [--trace-out=DIR]
         [--profile] [--journal=FILE] [--resume=FILE] [--resume-retry-failed]
         [--deadline-ms=N] [--backoff-ms=N] [--canonical]
         [--inject-faults=SEED]
       (default scale: full; default workers: all hardware threads)
       --telemetry writes per-point Chrome traces + epoch metrics and
       runner self-profiling under results/telemetry/ (see TELEMETRY.md)
       --profile writes per-point cycle-attribution profiles (collapsed
       stacks + top-N tables) under results/profile/ (see TELEMETRY.md)
       --journal/--resume give crash-safe checkpointed campaigns
       (--resume-retry-failed re-attempts journaled failures), and
       --deadline-ms/--inject-faults add watchdogs and chaos testing
       (see ROBUSTNESS.md)
       points of one workload shape replay one recorded instruction
       stream per worker (see EXPERIMENTS.md)";

fn usage() -> ! {
    eprintln!("{USAGE}\n\nexperiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:<20}{}", e.name, e.artefact);
    }
    std::process::exit(2);
}

/// Prints `rows` as an aligned table, one line of `cells` per row.
fn print_rows<T>(headers: &[&str], rows: &[T], cells: impl Fn(&T) -> Vec<String>) {
    let table: Vec<Vec<String>> = rows.iter().map(cells).collect();
    print!("{}", render_table(headers, &table));
}

// ---------------------------------------------------------------------
// The paper's tables and figures
// ---------------------------------------------------------------------

/// Table I: number of distinct system calls in various operating
/// systems — the scale argument for why manual instrumentation of every
/// entry point is infeasible (§II).
fn table1(_: Scale, opts: &RunnerOptions) {
    println!("Table I: Number of distinct system calls in various operating systems\n");
    let headers = ["Operating system", "# Syscalls"];
    let rows: Vec<Vec<String>> = OS_SYSCALL_TABLE
        .iter()
        .map(|r| vec![r.os.to_string(), r.syscalls.to_string()])
        .collect();
    print!("{}", render_table(&headers, &rows));
    println!(
        "\nModelled synthetic-kernel entry points: {}",
        CATALOG.len()
    );
    harness::write_static("table1", &headers, &rows, opts);
}

/// Table II: simulator parameters, as actually configured in this
/// reproduction's memory system and core model.
fn table2(_: Scale, opts: &RunnerOptions) {
    println!("Table II: simulator parameters (paper design point)\n");
    let mem = MemConfig::paper_baseline(2);
    let core = CoreParams::paper_default();
    let tlb = Tlb::paper_default();
    let rows = vec![
        vec!["ISA".into(), "UltraSPARC III (modelled abstractly)".into()],
        vec![
            "Processor pipeline".into(),
            format!("in-order, {} cycle/insn base", core.base_cycles_per_instr),
        ],
        vec!["Register windows".into(), core.register_windows.to_string()],
        vec![
            "TLB".into(),
            format!("{} entry, fully associative", tlb.capacity()),
        ],
        vec![
            "L1 I-cache".into(),
            format!("{}, {}-cycle", mem.l1i, mem.l1_latency),
        ],
        vec![
            "L1 D-cache".into(),
            format!("{}, {}-cycle", mem.l1d, mem.l1_latency),
        ],
        vec![
            "L2 cache".into(),
            format!("{}, {}-cycle", mem.l2, mem.l2_latency),
        ],
        vec![
            "Line size".into(),
            format!("{} bytes", osoffload_mem::LINE_BYTES),
        ],
        vec![
            "Coherence".into(),
            format!(
                "directory MESI (lookup {} cyc, c2c {} cyc, inval {} cyc)",
                mem.interconnect.directory_lookup,
                mem.interconnect.cache_to_cache,
                mem.interconnect.invalidation
            ),
        ],
        vec![
            "Main memory".into(),
            format!("{} cycle uniform latency", mem.dram_latency),
        ],
    ];
    let headers = ["Parameter", "Value"];
    print!("{}", render_table(&headers, &rows));
    harness::write_static("table2", &headers, &rows, opts);
}

/// Figure 1: runtime overhead of dynamic software instrumentation for
/// all possible OS off-loading points.
fn fig1(scale: Scale, opts: &RunnerOptions) {
    println!("Figure 1: overhead of software-instrumenting every OS entry point");
    println!("(off-loading disabled; overhead relative to uninstrumented baseline)\n");
    let costs = [50u64, 100, 200, 400];
    let rows = harness::run("fig1", scale, opts, |ev| fig1_with(scale, &costs, ev));
    print_rows(&["workload", "per-entry cost", "slowdown"], &rows, |r| {
        vec![
            r.workload.clone(),
            format!("{} cyc", r.cost),
            format!("{:+.2}%", r.overhead_pct),
        ]
    });
    println!("\nExpected shape: overhead scales with per-entry cost and OS-entry");
    println!("frequency — apache suffers most, compute least.");
}

/// Figure 2 is the block diagram of the OS run-length predictor; it has
/// no data series. Prints the implemented structure so the diagram can
/// be cross-checked against the code, and archives the parameters.
fn fig2(_: Scale, opts: &RunnerOptions) {
    let p = CamPredictor::paper_default();
    println!("Figure 2: OS run-length predictor with configurable threshold\n");
    println!("  AState = PSTATE ^ %g0 ^ %g1 ^ %i0 ^ %i1   (64-bit XOR hash)");
    println!(
        "  organisation: {} ({} entries, {} bytes)",
        p.organization(),
        p.capacity(),
        p.storage_bytes()
    );
    println!("  per entry: 64-bit AState tag, 16-bit last run length, 2-bit confidence");
    println!("  confidence: +1 if |pred - actual| <= 5%, else -1; at 0 use global fallback");
    println!("  global fallback: mean run length of the last 3 invocations (any AState)");
    println!("  decision: off-load if predicted length > N (threshold from the tuner)");
    let rows = vec![
        vec!["organization".to_string(), p.organization().to_string()],
        vec!["entries".to_string(), p.capacity().to_string()],
        vec!["storage_bytes".to_string(), p.storage_bytes().to_string()],
    ];
    harness::write_static("fig2", &["parameter", "value"], &rows, opts);
}

/// Figure 3: binary prediction hit rate for core-migration trigger
/// thresholds.
fn fig3(scale: Scale, opts: &RunnerOptions) {
    println!("Figure 3: binary off-load decision accuracy vs threshold N\n");
    let rows = harness::run("fig3", scale, opts, |ev| fig3_with(scale, ev));
    let headers: Vec<String> = std::iter::once("workload".to_string())
        .chain(rows[0].points.iter().map(|p| format!("N={}", p.threshold)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_rows(&header_refs, &rows, |r| {
        std::iter::once(r.workload.clone())
            .chain(r.points.iter().map(|p| pct(p.accuracy)))
            .collect()
    });
    println!(
        "\nPaper reference at N=500: Apache 94.8%, SPECjbb 93.4%, Derby 96.8%, compute 99.6%."
    );
}

/// Figure 4: normalized IPC relative to the uni-processor baseline when
/// varying the off-loading overhead (curves) and the switch trigger
/// threshold N (x-axis); one panel per workload group.
fn fig4(scale: Scale, opts: &RunnerOptions) {
    println!("Figure 4: normalized IPC vs threshold N, one curve per one-way latency\n");
    let cells = harness::run("fig4", scale, opts, |ev| {
        fig4_grid_with(scale, FIG4_LATENCIES, FIG4_THRESHOLDS, ev)
    });
    for workload in ["apache", "specjbb2005", "derby", "compute"] {
        println!("--- {workload} ---");
        let headers: Vec<String> = std::iter::once("latency \\ N".to_string())
            .chain(FIG4_THRESHOLDS.iter().map(|n| format!("{n}")))
            .chain(std::iter::once("shape".to_string()))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        print_rows(&header_refs, FIG4_LATENCIES, |&lat| {
            let values: Vec<f64> = FIG4_THRESHOLDS
                .iter()
                .map(|&n| {
                    cells
                        .iter()
                        .find(|c| c.workload == workload && c.latency == lat && c.threshold == n)
                        .expect("full grid")
                        .normalized_ipc
                })
                .collect();
            std::iter::once(format!("{lat} cyc"))
                .chain(values.iter().map(|v| format!("{v:.3}")))
                .chain(std::iter::once(spark(&values, 0.9, 1.4)))
                .collect()
        });
        println!();
    }
    println!("Expected shapes: lower latency dominates; optimum at small nonzero N;");
    println!("N=0 below N=100 (coherence); SPECjbb never profits at 5,000 cycles.");
}

/// Figure 5: normalized throughput for off-loading with static manual
/// instrumentation (SI), dynamic software instrumentation (DI), and the
/// hardware predictor (HI), at the conservative (5,000-cycle) and
/// aggressive (100-cycle) migration design points.
fn fig5(scale: Scale, opts: &RunnerOptions) {
    println!("Figure 5: SI vs DI vs HI, normalized to the single-core baseline\n");
    let rows = harness::run("fig5", scale, opts, |ev| fig5_with(scale, ev));
    for label in ["conservative", "aggressive"] {
        println!("--- {label} ---");
        let panel: Vec<_> = rows.iter().filter(|r| r.latency_label == label).collect();
        print_rows(
            &["workload", "policy", "normalized", "threshold"],
            &panel,
            |r| {
                vec![
                    r.workload.clone(),
                    r.policy.clone(),
                    format!("{:.3}", r.normalized),
                    r.chosen_threshold
                        .map(|n| format!("N={n}"))
                        .unwrap_or_else(|| "profile".to_string()),
                ]
            },
        );
        println!();
    }
    println!("Paper headline: HI up to 18% over baseline, 13% over SI, 23% over DI.");
}

/// Table III: percentage of total execution time spent on the OS core
/// using selective migration based on threshold N (5,000-cycle
/// off-loading overhead).
fn table3(scale: Scale, opts: &RunnerOptions) {
    println!("Table III: OS-core utilisation vs threshold N (5,000-cycle overhead)\n");
    let rows = harness::run("table3", scale, opts, |ev| table3_with(scale, ev));
    let headers: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(TABLE3_THRESHOLDS.iter().map(|n| format!("N={n}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_rows(&header_refs, &rows, |r| {
        std::iter::once(r.workload.clone())
            .chain(r.utilization.iter().map(|&(_, u)| pct(u)))
            .collect()
    });
    println!("\nPaper reference (N=100..10,000+): Apache 45.75..17.68%, SPECjbb 34.48..14.79%, Derby 8.2..0.2%.");
}

/// §III-A: exact / ±5% prediction rates, the CAM-vs-direct-mapped
/// organisation comparison, and table sizing.
fn predictor_accuracy(scale: Scale, opts: &RunnerOptions) {
    println!("Section III-A: run-length predictor accuracy\n");
    let cam = CamPredictor::paper_default();
    let dm = DirectMappedPredictor::paper_default();
    println!(
        "storage: {}-entry CAM = {} B (paper ~2 KB); {}-entry direct-mapped = {} B (paper ~3.3 KB)\n",
        cam.capacity(), cam.storage_bytes(), dm.capacity(), dm.storage_bytes()
    );
    let rows = harness::run("predictor_accuracy", scale, opts, |ev| {
        experiments::predictor_accuracy(scale, &[25, 50, 100, 200, 400], &[375, 1500], ev)
    });
    let headers = [
        "workload",
        "organization",
        "entries",
        "exact",
        "within ±5%",
        "underestimates",
    ];
    print_rows(&headers, &rows, |r| {
        vec![
            r.workload.clone(),
            r.organization.clone(),
            r.entries.to_string(),
            pct(r.exact),
            pct(r.within_5pct),
            pct(r.underestimates),
        ]
    });
    println!("\nPaper reference (all-benchmark average): 73.6% exact, 98.4% within ±5%;");
    println!("200-entry CAM ≈ infinite-history accuracy; errors are mostly underestimates.");
}

/// §III-B: the epoch-by-epoch decision log of the dynamic threshold
/// estimator on Apache. One traced run, so it bypasses the runner.
fn tuner_trace(scale: Scale, _: &RunnerOptions) {
    println!("Section III-B: dynamic estimation of N (Apache, 1,000-cycle overhead)\n");
    let (report, trace) = experiments::tuner_trace(scale, Profile::apache());
    print_rows(&["epoch", "sampled", "mean L2 hit rate", ""], &trace, |e| {
        vec![
            e.epoch.to_string(),
            format!("N={}", e.threshold),
            format!("{:.4}", e.l2_hit_rate),
            if e.adopted {
                "ADOPTED".to_string()
            } else {
                String::new()
            },
        ]
    });
    println!(
        "\nfinal threshold: N={}   throughput: {:.4} insn/cyc   epochs: {}",
        report.final_threshold.unwrap_or(0),
        report.throughput,
        report.tuner_events
    );
}

/// §V-B cache-budget comparison: off-loading with two half-size (512 KB)
/// L2s vs two full-size (1 MB) L2s, both normalized to the single-core
/// 1 MB baseline.
fn half_l2(scale: Scale, opts: &RunnerOptions) {
    println!("Section V-B: equal-silicon comparison (N = 100)\n");
    let rows = harness::run("half_l2", scale, opts, |ev| {
        experiments::half_l2(scale, &[0, 100, 500, 1_000, 5_000], ev)
    });
    let headers = ["workload", "latency", "2 x 1 MB L2", "2 x 512 KB L2"];
    print_rows(&headers, &rows, |r| {
        vec![
            r.workload.clone(),
            format!("{} cyc", r.latency),
            format!("{:.3}", r.full_l2),
            format!("{:.3}", r.half_l2),
        ]
    });
    println!("\nPaper claim: even the half-size-L2 off-loading model can beat the");
    println!("1 MB single-core baseline when the off-loading latency is under ~1,000 cycles.");
}

/// §V-C scalability: 1, 2 and 4 user cores sharing a single OS core
/// (SPECjbb2005, N=100, 1,000-cycle overhead).
fn scalability(scale: Scale, opts: &RunnerOptions) {
    println!("Section V-C: user-core scaling against one OS core (SPECjbb, N=100, 1,000 cyc)\n");
    let rows = harness::run("scalability", scale, opts, |ev| scalability_with(scale, ev));
    let headers = [
        "ratio",
        "mean queue delay",
        "p95 queue delay",
        "OS-core busy",
        "scaling eff.",
        "vs no-offload",
    ];
    print_rows(&headers, &rows, |r| {
        vec![
            format!("{}:1", r.user_cores),
            format!("{:.0} cyc", r.mean_queue_delay),
            format!("{} cyc", r.p95_queue_delay),
            pct(r.os_core_busy_frac),
            format!("{:.3}", r.scaling_efficiency),
            format!("{:+.1}%", (r.speedup_vs_no_offload - 1.0) * 100.0),
        ]
    });
    println!("\nPaper reference: 2:1 adds ~1,348-cycle queueing (+4.5% aggregate);");
    println!("4:1 queueing explodes past 25,000 cycles and throughput drops.");
}

// ---------------------------------------------------------------------
// Extensions beyond the paper
// ---------------------------------------------------------------------

/// The "Figure 6" many-core campaign: N user cores × M OS cores per
/// workload group under every dispatch policy (HI, N=100, 1,000-cycle
/// overhead, 500-cycle cold penalty). The paper's §V-C stops at 4 user
/// cores sharing one OS core; this extends it to the ratios its
/// conclusion speculates about.
fn fig6_scalability(scale: Scale, opts: &RunnerOptions) {
    println!("\"Figure 6\": N user x M OS cores per dispatch policy (HI, N=100, 1,000 cyc, 500-cyc cold penalty)\n");
    let rows = harness::run("fig6_scalability", scale, opts, |ev| {
        fig6_scalability_with(scale, ev)
    });
    let headers = [
        "workload",
        "dispatch",
        "ratio",
        "IPC",
        "mean delay",
        "p50",
        "p95",
        "p99",
        "mean OS util",
        "max OS util",
    ];
    print_rows(&headers, &rows, |r| {
        vec![
            r.workload.clone(),
            r.dispatch.clone(),
            format!("{}:{}", r.user_cores, r.os_cores),
            format!("{:.3}", r.throughput),
            format!("{:.0} cyc", r.mean_queue_delay),
            format!("{} cyc", r.p50_queue_delay),
            format!("{} cyc", r.p95_queue_delay),
            format!("{} cyc", r.p99_queue_delay),
            pct(r.mean_os_utilisation),
            pct(r.max_os_utilisation),
        ]
    });
    println!("\nBeyond the paper: §V-C ends at 4:1. The delay tails (p95/p99) and the");
    println!("mean-vs-max utilisation gap show where each dispatch policy stops scaling.");
}

/// Energy/EDP study — the paper's stated future work ("the applicability
/// of the predictor for OS energy optimizations"): baseline vs
/// off-loading under a homogeneous CMP and under a Mogul-style
/// heterogeneous CMP whose OS core runs at 0.6x frequency and 0.3x power.
fn energy(scale: Scale, opts: &RunnerOptions) {
    println!("Energy / EDP extension (HI, N = 100, 1,000-cycle migration)\n");
    let profiles = [Profile::apache(), Profile::specjbb(), Profile::derby()];
    let hi = PolicyKind::HardwarePredictor { threshold: 100 };
    // The efficiency OS core is slower (simulated) and cheaper (scored).
    let hetero_params = EnergyParams::heterogeneous();
    let runs: Vec<[SimReport; 3]> = harness::run("energy", scale, opts, |ev| {
        profiles
            .iter()
            .map(|profile| {
                let mut run = |policy: PolicyKind, slowdown: u64| {
                    ev(scaled_builder(profile.clone(), policy, 1_000, scale)
                        .os_core_slowdown_milli(slowdown)
                        .build())
                };
                [
                    run(PolicyKind::Baseline, 1_000),
                    run(hi, 1_000),
                    run(hi, hetero_params.os_core.slowdown_milli),
                ]
            })
            .collect()
    });
    let mut table = Vec::new();
    for (profile, [baseline, homo, hetero]) in profiles.iter().zip(&runs) {
        let base_energy = evaluate(baseline, &EnergyParams::homogeneous());
        let homo_energy = evaluate(homo, &EnergyParams::homogeneous());
        let hetero_energy = evaluate(hetero, &hetero_params);
        for (label, report, energy) in [
            ("baseline", baseline, &base_energy),
            ("HI homogeneous", homo, &homo_energy),
            ("HI efficient-OS-core", hetero, &hetero_energy),
        ] {
            table.push(vec![
                profile.name.to_string(),
                label.to_string(),
                format!("{:.3}", report.throughput / baseline.throughput),
                format!("{:.2}", energy.nj_per_instruction),
                format!("{:.3}", energy.energy_normalized_to(&base_energy)),
                format!("{:.3}", energy.edp_normalized_to(&base_energy)),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            &[
                "workload",
                "configuration",
                "perf (norm)",
                "nJ/insn",
                "energy (norm)",
                "EDP (norm)"
            ],
            &table
        )
    );
    println!("\nExpected shape: the efficiency OS core trades a little throughput for a");
    println!("visible energy (and usually EDP) win on OS-heavy workloads — the");
    println!("Mogul-style case the paper cites as motivation (§I, §VI-B).");
}

/// Li & John-style resource adaptation (§VI-B) driven by the paper's
/// predictor: instead of migrating long OS sequences, the core throttles
/// to a low-power mode while executing them locally — quantifying the
/// paper's claim that its decision engine "could be utilized effectively
/// for the type of reconfiguration proposed by Li et al.".
fn adaptation(scale: Scale, opts: &RunnerOptions) {
    println!("Resource adaptation vs off-loading (HI decisions, N = 1,000)\n");
    let profiles = [Profile::apache(), Profile::derby()];
    let hi = PolicyKind::HardwarePredictor { threshold: 1_000 };
    // (label, policy, adaptation slowdown in thousandths); baseline first.
    let variants = [
        ("baseline", PolicyKind::Baseline, None),
        ("off-load (HI)", hi, None),
        ("adapt 1.25x slower", hi, Some(1_250)),
        ("adapt 1.5x slower", hi, Some(1_500)),
    ];
    let runs: Vec<Vec<SimReport>> = harness::run("adaptation", scale, opts, |ev| {
        profiles
            .iter()
            .map(|profile| {
                variants
                    .iter()
                    .map(|&(_, policy, adaptation)| {
                        let mut b = scaled_builder(profile.clone(), policy, 1_000, scale);
                        if let Some(m) = adaptation {
                            b = b.resource_adaptation(m);
                        }
                        ev(b.build())
                    })
                    .collect()
            })
            .collect()
    });
    let mut table = Vec::new();
    for (profile, reports) in profiles.iter().zip(&runs) {
        let baseline = &reports[0];
        let base_energy = evaluate(baseline, &EnergyParams::homogeneous());
        for ((label, ..), report) in variants.iter().zip(reports) {
            let energy = evaluate(report, &EnergyParams::homogeneous());
            table.push(vec![
                profile.name.to_string(),
                label.to_string(),
                format!("{:.3}", report.throughput / baseline.throughput),
                format!("{:.3}", energy.energy_normalized_to(&base_energy)),
                format!("{:.3}", energy.edp_normalized_to(&base_energy)),
                report.throttled_cycles.to_string(),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            &[
                "workload",
                "configuration",
                "perf (norm)",
                "energy (norm)",
                "EDP (norm)",
                "throttled cyc"
            ],
            &table
        )
    );
    println!("\nAdaptation needs no second core or migration machinery: it gives up the");
    println!("cache-isolation benefit but saves energy without the off-load overheads —");
    println!("the same predictor drives both knobs.");
}

/// Ablation of the off-load transport (§II "Migration Implementations"):
/// full thread migration (the paper's scheme) vs RPC-style message
/// passing, the design point the paper notes "we do not consider".
fn mechanism(scale: Scale, opts: &RunnerOptions) {
    println!("Off-load transport ablation (N = 100)\n");
    let rows = harness::run("mechanism", scale, opts, |ev| {
        experiments::mechanism_ablation(scale, &[100, 1_000, 5_000], ev)
    });
    let headers = [
        "workload",
        "latency",
        "thread migration",
        "remote call",
        "RPC gain",
    ];
    print_rows(&headers, &rows, |r| {
        vec![
            r.workload.clone(),
            format!("{} cyc", r.latency),
            format!("{:.3}", r.thread_migration),
            format!("{:.3}", r.remote_call),
            format!(
                "{:+.1}%",
                (r.remote_call / r.thread_migration - 1.0) * 100.0
            ),
        ]
    });
    println!("\nRPC frees the user core during remote execution, letting the sibling");
    println!("thread overlap — the benefit grows with OS share and migration latency.");
}

/// Extension of §V-C: can an SMT OS core rescue the 4:1 provisioning
/// ratio? Provisions 1, 2 and 4 hardware contexts on the OS core and
/// re-runs the scaling study (SPECjbb, N = 100, 1,000-cycle overhead).
/// The context model is optimistic (no pipeline interference), so this
/// bounds what SMT could buy.
fn smt_os_core(scale: Scale, opts: &RunnerOptions) {
    println!("SMT OS core vs user-core scaling (SPECjbb, N = 100, 1,000 cyc)\n");
    let user_core_counts = [2usize, 4];
    let context_counts = [1usize, 2, 4];
    let hi = PolicyKind::HardwarePredictor { threshold: 100 };
    // Per user-core count: the no-offload baseline, then one run per
    // OS-core context count.
    let runs: Vec<(SimReport, Vec<SimReport>)> = harness::run("smt_os_core", scale, opts, |ev| {
        user_core_counts
            .iter()
            .map(|&user_cores| {
                let baseline = ev(single_config(
                    Profile::specjbb(),
                    PolicyKind::Baseline,
                    0,
                    user_cores,
                    scale,
                ));
                let offloaded = context_counts
                    .iter()
                    .map(|&contexts| {
                        ev(scaled_builder(Profile::specjbb(), hi, 1_000, scale)
                            .user_cores(user_cores)
                            .os_core_contexts(contexts)
                            .build())
                    })
                    .collect();
                (baseline, offloaded)
            })
            .collect()
    });
    let mut table = Vec::new();
    for (user_cores, (baseline, offloaded)) in user_core_counts.iter().zip(&runs) {
        for (contexts, r) in context_counts.iter().zip(offloaded) {
            table.push(vec![
                format!("{user_cores}:1"),
                contexts.to_string(),
                format!("{:.0} cyc", r.queue.mean_delay),
                pct(r.os_core_busy_frac),
                format!("{:+.1}%", (r.normalized_to(baseline) - 1.0) * 100.0),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            &[
                "ratio",
                "SMT contexts",
                "mean queue delay",
                "OS-core busy",
                "vs no-offload"
            ],
            &table
        )
    );
    println!("\nExpected: added contexts collapse the queueing delay, recovering part");
    println!("of the 4:1 loss — supporting the paper's \"1:N may be the appropriate");
    println!("ratio\" only when the OS core is multi-threaded.");
}

/// Predictor design ablation: the full §III-A predictor vs variants with
/// one idea removed each — no per-AState table (global-only), and no
/// confidence filter / fallback (infinite last-value) — plus the two
/// hardware organisations.
fn ablation(scale: Scale, opts: &RunnerOptions) {
    println!("Predictor design ablation (Apache, N = 500, 1,000-cycle migration)\n");
    let variants: &[(&str, PolicyKind)] = &[
        (
            "full CAM (paper)",
            PolicyKind::HardwarePredictor { threshold: 500 },
        ),
        (
            "direct-mapped",
            PolicyKind::HardwarePredictorDirectMapped { threshold: 500 },
        ),
        (
            "set-assoc 64x4",
            PolicyKind::HardwarePredictorSetAssoc {
                threshold: 500,
                sets: 64,
                ways: 4,
            },
        ),
        (
            "global-only",
            PolicyKind::HardwarePredictorGlobalOnly { threshold: 500 },
        ),
        (
            "last-value (no confidence)",
            PolicyKind::HardwarePredictorLastValue { threshold: 500 },
        ),
        ("oracle", PolicyKind::Oracle { threshold: 500 }),
    ];
    let (base, runs): (SimReport, Vec<SimReport>) = harness::run("ablation", scale, opts, |ev| {
        let base = ev(single_config(
            Profile::apache(),
            PolicyKind::Baseline,
            0,
            1,
            scale,
        ));
        let runs = variants
            .iter()
            .map(|&(_, policy)| ev(single_config(Profile::apache(), policy, 1_000, 1, scale)))
            .collect();
        (base, runs)
    });
    let mut table = Vec::new();
    for ((name, _), r) in variants.iter().zip(&runs) {
        let (exact, close) = r
            .predictor
            .as_ref()
            .map(|p| (pct(p.exact), pct(p.within_5pct)))
            .unwrap_or_else(|| ("-".into(), "-".into()));
        let bin1000 = if r.predictor.is_some() {
            r.binary_accuracy
                .iter()
                .find(|b| b.threshold == 1_000)
                .map(|b| pct(b.accuracy))
                .unwrap_or_else(|| "-".into())
        } else {
            "-".into()
        };
        table.push(vec![
            name.to_string(),
            format!("{:.3}", r.normalized_to(&base)),
            exact,
            close,
            bin1000,
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "variant",
                "normalized tput",
                "exact",
                "within ±5%",
                "binary@1000"
            ],
            &table
        )
    );
    println!("\nReading: the per-AState table supplies most of the exactness; the");
    println!("confidence/fallback pair mainly protects noisy entries; the 200-entry");
    println!("CAM tracks the unbounded last-value table closely (the paper's");
    println!("\"close to optimal (infinite history) performance\" claim).");
}

/// Sensitivity of the off-loading benefit to the memory-system
/// parameters around it: L2 capacity, DRAM latency, and the
/// cache-to-cache transfer cost (the knob §IV says must be modelled
/// independently).
fn sensitivity(scale: Scale, opts: &RunnerOptions) {
    println!("Sensitivity of the Apache off-loading benefit (HI, N=100, 1,000 cyc)\n");
    let rows = harness::run("sensitivity", scale, opts, |ev| {
        sensitivity_with(scale, Profile::apache(), ev)
    });
    print_rows(&["parameter", "value", "normalized IPC"], &rows, |r| {
        let value = match r.parameter.as_str() {
            "l2_kb" => format!("{} KB", r.value),
            _ => format!("{} cyc", r.value),
        };
        vec![r.parameter.clone(), value, format!("{:.3}", r.normalized)]
    });
    println!("\nReading: the benefit is largest exactly when caches are precious —");
    println!("small L2s and slow DRAM amplify it, abundant L2 erases it — and cheaper");
    println!("cache-to-cache transfers help, confirming coherence is the main tax.");
}

/// Per-benchmark breakdown of the compute group. The paper averages its
/// six compute applications into one curve but promises to "note any
/// outlier behavior" (§II); this shows each one individually.
fn outliers(scale: Scale, opts: &RunnerOptions) {
    println!("Compute-group breakdown (HI, N = 1,000, 1,000-cycle migration)\n");
    let runs: Vec<(SimReport, SimReport)> = harness::run("outliers", scale, opts, |ev| {
        Profile::all_compute()
            .into_iter()
            .map(|p| {
                let base = ev(single_config(p.clone(), PolicyKind::Baseline, 0, 1, scale));
                let hi = PolicyKind::HardwarePredictor { threshold: 1_000 };
                (base, ev(single_config(p, hi, 1_000, 1, scale)))
            })
            .collect()
    });
    let headers = [
        "benchmark",
        "baseline IPC",
        "L1D hit",
        "branch acc",
        "offload (norm)",
    ];
    print_rows(&headers, &runs, |(base, r)| {
        vec![
            base.profile.clone(),
            format!("{:.3}", base.throughput),
            pct(base.l1d_hit_rate),
            pct(base.user_branch_accuracy),
            format!("{:.3}", r.normalized_to(base)),
        ]
    });
    println!("\nExpected: all within a few percent of 1.0 (the paper's averaged curve);");
    println!("the memory-bound members (canneal, mcf) have far lower baseline IPC but");
    println!("the same insensitivity to off-loading.");
}

// ---------------------------------------------------------------------
// Model checks and tools
// ---------------------------------------------------------------------

/// The workload-model calibration table: what each profile actually
/// generates vs its analytic expectations and the paper's reported
/// characteristics — the mechanical check behind DESIGN.md's
/// substitution argument.
fn calibration(scale: Scale, _: &RunnerOptions) {
    println!(
        "Workload-model calibration ({} generated instructions/profile)\n",
        scale.instructions
    );
    let rows: Vec<Vec<String>> = Profile::all_server()
        .into_iter()
        .chain(Profile::all_compute())
        .map(|p| {
            let v = validate(&p, scale.instructions, scale.seed);
            vec![
                v.name.to_string(),
                pct(v.realized_os_share),
                pct(v.expected_os_share),
                format!("{:.0}", v.mean_invocation_len),
                pct(v.sub_100_frac),
                v.distinct_reg_images.to_string(),
                format!("{:.2}", v.user_mem_ratio),
                format!("{:.2}", v.user_branch_ratio),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "profile",
                "OS share",
                "expected",
                "mean inv",
                "<100 insn",
                "AStates",
                "mem/insn",
                "br/insn"
            ],
            &rows
        )
    );
    println!("\nPaper anchors: Apache/webservers can exceed half the instructions in");
    println!("the OS; SPECjbb ~1/3; compute negligible. Bounded AState diversity is");
    println!("what makes the 200-entry CAM sufficient (§III-A).");
}

/// Dumps the per-invocation trace of one run as CSV (stdout) plus a
/// per-entry-point summary table (stderr), for off-line analysis:
/// `osoffload-bench invocation_trace quick > trace.csv`.
fn invocation_trace(scale: Scale, _: &RunnerOptions) {
    let hi = PolicyKind::HardwarePredictor { threshold: 500 };
    let cfg = scaled_builder(Profile::apache(), hi, 1_000, scale)
        .trace(50_000)
        .build();
    let (report, observed) = Simulation::new(cfg).run_observed();
    let trace = observed.trace;

    // CSV to stdout (pipe into a file), human summary to stderr.
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
    eprint!(
        "{}",
        render_table(
            &[
                "syscall",
                "count",
                "offloaded",
                "mean len",
                "mean |err|",
                "mean cycles"
            ],
            &rows
        )
    );
}
