//! Watch the paper's §III-B dynamic threshold estimator converge.
//!
//! The estimator samples candidate thresholds in 25 M-instruction epochs
//! (scaled down here), adopts a neighbour when its mean L2 hit rate is
//! ≥1% better, and doubles its stable run length while the choice keeps
//! winning. This example prints the epoch-by-epoch decision log and then
//! compares the tuned result against every static threshold.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example threshold_tuning
//! ```

use osoffload::core::TunerConfig;
use osoffload::system::{PolicyKind, Simulation, SystemConfig};
use osoffload::workload::Profile;

fn main() {
    let profile = Profile::apache();
    let instructions = 2_000_000;

    // Scale the paper's 25 M-instruction epochs down in proportion.
    let tuner = TunerConfig::scaled_down(500);
    let cfg = SystemConfig::builder()
        .profile(profile.clone())
        .policy(PolicyKind::HardwarePredictor { threshold: 1_000 })
        .migration_latency(1_000)
        .instructions(instructions)
        .warmup(800_000)
        .seed(11)
        .tuner(tuner)
        .build();

    let (report, observation) = Simulation::new(cfg).run_observed();
    let trace = observation.tuner;

    println!("dynamic-N estimator on {}:\n", profile.name);
    println!("{:<7} {:>8} {:>14}", "epoch", "N", "L2 hit rate");
    for e in &trace {
        println!(
            "{:<7} {:>8} {:>13.2}%  {}",
            e.epoch,
            e.threshold,
            e.l2_hit_rate * 100.0,
            if e.adopted { "<- adopted" } else { "" }
        );
    }
    println!(
        "\ntuned threshold: N = {}   throughput: {:.4} insn/cyc",
        report.final_threshold.unwrap_or(0),
        report.throughput
    );

    println!("\nstatic thresholds for comparison:");
    for n in [0u64, 100, 500, 1_000, 5_000, 10_000] {
        let r = Simulation::new(
            SystemConfig::builder()
                .profile(profile.clone())
                .policy(PolicyKind::HardwarePredictor { threshold: n })
                .migration_latency(1_000)
                .instructions(instructions)
                .warmup(800_000)
                .seed(11)
                .build(),
        )
        .run();
        println!("  N={n:<6} -> {:.4} insn/cyc", r.throughput);
    }
}
