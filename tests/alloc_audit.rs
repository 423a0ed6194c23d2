//! Proves the measured simulation region is allocation-free.
//!
//! The simulator marks its measured region (everything after warm-up and
//! statistics reset) with `alloc_audit::region_enter`/`region_exit`.
//! This test installs a counting `#[global_allocator]` that reports every
//! `alloc`/`realloc` to the audit hook, runs a representative simulation,
//! and requires **zero** in-region allocations: all buffers must be sized
//! at construction time and the batched instruction loop must never touch
//! the heap.
//!
//! The shim lives here — not in `osoffload-sim`, which forbids unsafe
//! code — because a global allocator is process-wide and needs `unsafe`.
//! Integration tests are separate binaries, so the shim cannot leak into
//! any other test or production build.

use std::alloc::{GlobalAlloc, Layout, System};

use osoffload::sim::alloc_audit;
use osoffload::system::{OffloadMechanism, PolicyKind, Simulation, SystemConfig};
use osoffload::workload::Profile;

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_audit::note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        alloc_audit::note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn run_and_count(cfg: SystemConfig) -> u64 {
    let _ = alloc_audit::take_region_allocs();
    let report = Simulation::new(cfg).run();
    assert!(report.throughput() > 0.0, "simulation must make progress");
    alloc_audit::take_region_allocs()
}

#[test]
fn measured_region_is_allocation_free() {
    // Exercise every hot-path branch in one sweep: local execution,
    // thread-migration off-load through the predictor, the remote-call
    // mechanism, and resource adaptation. Phase-change configs are
    // excluded by design: rebuilding the workload mix at a phase
    // boundary is construction work, not inner-loop work.
    let cases = [
        (
            "baseline_local",
            SystemConfig::builder()
                .profile(Profile::apache())
                .policy(PolicyKind::Baseline)
                .instructions(120_000)
                .warmup(40_000)
                .seed(0xF1605)
                .build(),
        ),
        (
            "predictor_offload",
            SystemConfig::builder()
                .profile(Profile::apache())
                .policy(PolicyKind::HardwarePredictor { threshold: 500 })
                .migration_latency(1_000)
                .instructions(120_000)
                .warmup(40_000)
                .seed(0xF1605)
                .build(),
        ),
        (
            "remote_call",
            SystemConfig::builder()
                .profile(Profile::derby())
                .policy(PolicyKind::HardwarePredictor { threshold: 100 })
                .migration_latency(1_000)
                .mechanism(OffloadMechanism::RemoteCall)
                .instructions(120_000)
                .warmup(40_000)
                .seed(0xBEE5)
                .build(),
        ),
        (
            "resource_adaptation",
            SystemConfig::builder()
                .profile(Profile::specjbb())
                .policy(PolicyKind::HardwarePredictor { threshold: 500 })
                .migration_latency(1_000)
                .resource_adaptation(600)
                .instructions(120_000)
                .warmup(40_000)
                .seed(0xBEE5)
                .build(),
        ),
    ];
    for (name, cfg) in cases {
        let allocs = run_and_count(cfg);
        assert_eq!(
            allocs, 0,
            "config {name}: measured region allocated {allocs} times"
        );
    }
}

#[test]
fn lane_measured_region_is_allocation_free() {
    use osoffload::system::run_lanes;
    // Packs of 1, 2, 4 and 8 tape-compatible configurations (shared
    // seed/profile, different thresholds and latencies).
    // Replay records the tape inside the audited region too, into room
    // reserved before the run: for apache on one user core, a compute
    // profile whose bursts average 110,000 instructions, and apache on
    // 16 user cores (32 threads).
    let member = |profile: Profile, user_cores: usize, threshold: u64, latency: u64| {
        SystemConfig::builder()
            .profile(profile)
            .policy(PolicyKind::HardwarePredictor { threshold })
            .migration_latency(latency)
            .user_cores(user_cores)
            .os_cores(user_cores.div_ceil(4))
            .instructions(60_000)
            .warmup(20_000)
            .seed(0xF1605)
            .build()
    };
    for (profile, user_cores) in [
        (Profile::apache(), 1),
        (Profile::fasta_protein(), 1),
        (Profile::apache(), 16),
    ] {
        let variants = [
            member(profile.clone(), user_cores, 100, 1_000),
            member(profile.clone(), user_cores, 500, 1_000),
            member(profile.clone(), user_cores, 1_000, 5_000),
            member(profile.clone(), user_cores, 5_000, 100),
        ];
        for members in [1usize, 2, 4, 8] {
            let configs: Vec<SystemConfig> = (0..members)
                .map(|i| variants[i % variants.len()].clone())
                .collect();
            let _ = alloc_audit::take_region_allocs();
            let reports = run_lanes(&configs).expect("pack configs are valid");
            assert!(
                reports.iter().all(|r| r.throughput() > 0.0),
                "lanes must make progress"
            );
            let allocs = alloc_audit::take_region_allocs();
            assert_eq!(
                allocs, 0,
                "{} on {user_cores} user cores, {members} members: lane measured region \
                 allocated {allocs} times",
                profile.name
            );
        }
    }
}
