//! Program phases and the dynamic estimator: run a workload that starts
//! as a web server and turns into a database mid-run, and watch the
//! §III-B tuner re-sample its way to a new threshold.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example phase_adaptive
//! ```

use osoffload::core::TunerConfig;
use osoffload::system::{PolicyKind, Simulation, SystemConfig};
use osoffload::workload::Profile;

fn main() {
    // Phase 1: apache behaviour. Phase 2 (from 1.5 M generated
    // instructions): derby behaviour — far fewer, longer invocations.
    let cfg = SystemConfig::builder()
        .profile(Profile::apache())
        .phase(1_500_000, Profile::derby())
        .policy(PolicyKind::HardwarePredictor { threshold: 1_000 })
        .migration_latency(1_000)
        .instructions(3_000_000)
        .warmup(400_000)
        .seed(29)
        .tuner(TunerConfig::scaled_down(1_000)) // 25K-instruction samples
        .build();

    let (report, observation) = Simulation::new(cfg).run_observed();
    let trace = observation.tuner;

    println!("apache -> derby phase change at 1.5 M instructions\n");
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
        "\nfinal threshold N = {} after {} epochs; throughput {:.4} insn/cyc",
        report.final_threshold.unwrap_or(0),
        report.tuner_events,
        report.throughput
    );
    println!("\nThe estimator keeps spending a few percent of run time on sampling");
    println!("epochs precisely so that shifts like this are caught (§III-B: stable");
    println!("periods double only while the chosen N keeps winning).");
}
