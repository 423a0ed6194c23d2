//! The chaos campaign: concurrent clients submitting through the
//! deterministic fault-injecting proxy, with torn writes, stalls, and
//! mid-stream disconnects landing at seeded byte offsets.
//!
//! Whatever the proxy does to the byte streams, three invariants must
//! hold afterwards: the cache WAL replays without a single bad line
//! (every acknowledged point fully journaled or absent), a restarted
//! daemon — even over a torn WAL tail — serves a clean resubmission
//! 100% from cache, and that archive is byte-identical to a clean
//! direct canonical run of the same plan.

mod common;

use common::scratch;
use osoffload_runner::journal::{scan_envelope_lines, ScanMode};
use osoffload_runner::{record_plan, report, run_plan, RunnerOptions};
use osoffload_serve::cache::read_entries;
use osoffload_serve::chaos::{plan_connection, ChaosConfig, ChaosProxy, Fault};
use osoffload_serve::client::{self, RetryPolicy};
use osoffload_serve::daemon::{Daemon, ServeOptions};
use osoffload_system::experiments::{single_config, Evaluator, Scale};
use osoffload_system::PolicyKind;
use osoffload_workload::Profile;
use std::path::Path;
use std::thread::JoinHandle;

/// The fixed campaign seed; a failure names the schedule to replay.
const CAMPAIGN_SEED: u64 = 0xC4A0_5C4A;

fn tiny() -> Scale {
    Scale {
        instructions: 40_000,
        warmup: 10_000,
        seed: 3,
        compute_profiles: 1,
    }
}

fn campaign_driver(ev: Evaluator<'_>) {
    let scale = tiny();
    ev(single_config(
        Profile::apache(),
        PolicyKind::Baseline,
        0,
        1,
        scale,
    ));
    ev(single_config(
        Profile::apache(),
        PolicyKind::HardwarePredictor { threshold: 500 },
        1_000,
        1,
        scale,
    ));
    ev(single_config(
        Profile::specjbb(),
        PolicyKind::HardwarePredictor { threshold: 500 },
        100,
        1,
        scale,
    ));
}

fn request_line() -> String {
    let plan = record_plan("chaos", tiny().seed, campaign_driver);
    client::submit_request_line(&plan).expect("render request")
}

fn direct_archive(dir: &Path) -> Vec<u8> {
    let plan = record_plan("chaos", tiny().seed, campaign_driver);
    let opts = RunnerOptions {
        workers: 2,
        quiet: true,
        canonical: true,
        out_dir: dir.to_path_buf(),
        ..RunnerOptions::default()
    };
    let sweep = run_plan(&plan, &opts);
    let path = report::write_sweep(&sweep, dir).expect("write direct archive");
    std::fs::read(path).expect("read direct archive")
}

fn serve_opts(dir: &Path) -> ServeOptions {
    ServeOptions {
        port: 0,
        cache: dir.join("cache.wal"),
        out_dir: dir.join("served"),
        workers: 2,
        submit_slots: 4,
        admit_queue: 8,
        quiet: true,
        ..ServeOptions::default()
    }
}

fn start_daemon(opts: ServeOptions) -> (u16, JoinHandle<Result<(), String>>) {
    let mut daemon = Daemon::bind(opts).expect("bind daemon");
    let port = daemon.local_addr().port();
    (port, std::thread::spawn(move || daemon.run()))
}

#[test]
fn fault_plans_are_deterministic_in_the_seed() {
    let cfg = ChaosConfig::default();
    for seed in [0u64, 1, CAMPAIGN_SEED, u64::MAX] {
        assert_eq!(plan_connection(seed, &cfg), plan_connection(seed, &cfg));
    }
    // A high fault rate plans a fault on (almost) every direction, and
    // the offsets respect the configured bound.
    let eager = ChaosConfig {
        fault_rate: 1.0,
        max_offset: 64,
        ..ChaosConfig::default()
    };
    let mut kinds = [0usize; 3];
    for seed in 0..64u64 {
        for fault in plan_connection(seed, &eager).into_iter().flatten() {
            let (at, kind) = match fault {
                Fault::Stall { at, .. } => (at, 0),
                Fault::TornWrite { at } => (at, 1),
                Fault::Disconnect { at } => (at, 2),
            };
            assert!(at < 64, "offset {at} escaped the bound");
            kinds[kind] += 1;
        }
    }
    assert!(
        kinds.iter().all(|&n| n > 0),
        "64 seeds must exercise every fault kind: {kinds:?}"
    );
}

#[test]
fn chaos_campaign_never_corrupts_the_wal_and_recovers_clean() {
    let dir = scratch("campaign");
    let direct = direct_archive(&dir.join("direct"));
    let (port, handle) = start_daemon(serve_opts(&dir));

    // A proxy mean enough that nearly every connection gets hurt.
    let fault_log = dir.join("faults.log");
    let proxy = ChaosProxy::start(
        0,
        ([127, 0, 0, 1], port).into(),
        CAMPAIGN_SEED,
        ChaosConfig {
            fault_rate: 0.9,
            stall_ms: 20,
            max_offset: 2_048,
        },
        Some(&fault_log),
    )
    .expect("start proxy");
    let proxy_port = proxy.port();

    // Four concurrent clients hammer the daemon through the proxy.
    // Success is NOT required here — the proxy may tear every attempt —
    // only that nothing the daemon acknowledged is ever lost or torn.
    let clients: Vec<_> = (0..4u64)
        .map(|i| {
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    retries: 4,
                    backoff_ms: 5,
                    seed: i,
                };
                client::submit_with_retry(proxy_port, &request_line(), policy, |_| {}).is_ok()
            })
        })
        .collect();
    let survived = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .filter(|&ok| ok)
        .count();
    assert!(
        proxy.injected() > 0,
        "a 90% fault rate over >=4 connections must inject something"
    );
    let log = proxy.fault_log();
    assert_eq!(proxy.injected() as usize, log.len(), "{log:?}");
    assert!(
        std::fs::read_to_string(&fault_log)
            .expect("fault log written")
            .lines()
            .count()
            >= log.len(),
        "every injected fault lands in the on-disk log"
    );
    proxy.stop();

    // One clean submission off the proxy completes whatever the chaos
    // runs left unfinished (idempotent through the digest cache).
    let settle = client::submit_with_retry(
        port,
        &request_line(),
        RetryPolicy {
            retries: 8,
            backoff_ms: 50,
            seed: 99,
        },
        |_| {},
    )
    .expect("clean submission settles the campaign");
    assert_eq!((settle.points, settle.failed), (3, 0));
    eprintln!(
        "chaos campaign: {} faults injected, {survived}/4 proxied clients succeeded",
        log.len()
    );

    // Invariant 1: the WAL replays without a single bad line — every
    // acknowledged point is fully journaled or absent, never torn.
    let ack = client::stop(port).expect("graceful stop");
    assert!(ack.contains("\"drained\":true"), "{ack}");
    handle.join().expect("daemon thread").expect("daemon exit");
    let wal_path = dir.join("cache.wal");
    let wal = std::fs::read_to_string(&wal_path).expect("read WAL");
    let (lines, issues) = scan_envelope_lines(&wal, ScanMode::Tolerant);
    assert!(issues.is_empty(), "torn or corrupt WAL lines: {issues:?}");
    // Concurrent overlapping submissions may append duplicate records
    // (collapsed last-wins on replay), but never fewer than the header
    // plus one record per distinct point — and never a partial line.
    assert!(lines.len() > 3, "only {} WAL lines", lines.len());
    let (entries, warnings) = read_entries(&wal_path).expect("read entries");
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(entries.len(), 3);

    // Now the harshest restart: tear the WAL tail as a kill -9 would.
    let mut bytes = std::fs::read(&wal_path).expect("read WAL bytes");
    bytes.extend_from_slice(b"{\"fnv\":\"0123456789abcdef\",\"body\":{\"digest\":\"tor");
    std::fs::write(&wal_path, bytes).expect("tear WAL tail");

    // Invariant 2 + 3: the restarted daemon serves a clean resubmission
    // 100% from cache, and the archive is byte-identical to the direct
    // canonical run.
    let (port, handle) = start_daemon(serve_opts(&dir));
    let warm = client::submit(port, &request_line(), |_| {}).expect("warm submission");
    assert_eq!(
        (warm.points, warm.hits, warm.misses, warm.failed),
        (3, 3, 0, 0),
        "the post-chaos restart must serve everything from cache"
    );
    assert_eq!(
        std::fs::read(&warm.archive).expect("read archive"),
        direct,
        "post-chaos archive != direct canonical archive"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}
