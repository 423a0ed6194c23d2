//! End-to-end proofs for the serve daemon: a resubmitted sweep is
//! served entirely from cache with a byte-identical canonical archive,
//! a restarted daemon comes back warm (torn WAL tails tolerated),
//! cached rows re-key to new plan positions, overload is shed with a
//! structured retryable refusal, shutdown drains gracefully, and
//! hostile framing (oversized lines, garbage, vanishing clients,
//! slow-loris) gets errors or silence — never a panic or a hang.

mod common;

use common::scratch;
use osoffload_obs::json::{self, Value};
use osoffload_runner::{record_plan, report, run_plan, RunnerOptions};
use osoffload_serve::client::{self, RetryPolicy, SubmitError};
use osoffload_serve::daemon::{Daemon, ServeOptions, METRICS_WINDOW};
use osoffload_system::experiments::{
    fig6_scalability_grid_with, sensitivity_with, single_config, Evaluator, Scale,
};
use osoffload_system::{DispatchPolicy, PolicyKind};
use osoffload_workload::Profile;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn tiny() -> Scale {
    Scale {
        instructions: 40_000,
        warmup: 10_000,
        seed: 3,
        compute_profiles: 1,
    }
}

/// Three distinct configurations — enough to exercise plan order,
/// rekeying, and per-point cache traffic while staying fast.
fn full_driver(ev: Evaluator<'_>) {
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

/// The same configurations as [`full_driver`] indices 2 and 0, in that
/// order — new plan positions and ids for known-cached work.
fn subset_driver(ev: Evaluator<'_>) {
    let scale = tiny();
    ev(single_config(
        Profile::specjbb(),
        PolicyKind::HardwarePredictor { threshold: 500 },
        100,
        1,
        scale,
    ));
    ev(single_config(
        Profile::apache(),
        PolicyKind::Baseline,
        0,
        1,
        scale,
    ));
}

/// Runs `driver`'s plan directly on the runner in canonical mode and
/// returns the archive bytes — the reference every served archive must
/// match byte for byte.
fn direct_archive(name: &str, dir: &Path, driver: impl Fn(Evaluator<'_>)) -> Vec<u8> {
    let plan = record_plan(name, tiny().seed, |ev| driver(ev));
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

fn start_daemon(opts: ServeOptions) -> (u16, JoinHandle<Result<(), String>>) {
    let mut daemon = Daemon::bind(opts).expect("bind daemon");
    let port = daemon.local_addr().port();
    (port, std::thread::spawn(move || daemon.run()))
}

fn serve_opts(dir: &Path) -> ServeOptions {
    ServeOptions {
        port: 0,
        cache: dir.join("cache.wal"),
        out_dir: dir.join("served"),
        workers: 2,
        quiet: true,
        ..ServeOptions::default()
    }
}

fn submit(port: u16, name: &str, driver: impl Fn(Evaluator<'_>)) -> client::SubmitOutcome {
    client::submit(port, &request_line(name, driver), |_| {}).expect("submit")
}

fn request_line(name: &str, driver: impl Fn(Evaluator<'_>)) -> String {
    let plan = record_plan(name, tiny().seed, |ev| driver(ev));
    client::submit_request_line(&plan).expect("render request")
}

/// One point big enough (~1.5 s) to hold a submit slot while the test
/// provokes the admission gate from other connections.
fn slow_driver(ev: Evaluator<'_>) {
    ev(single_config(
        Profile::apache(),
        PolicyKind::HardwarePredictor { threshold: 500 },
        1_000,
        1,
        Scale {
            instructions: 15_000_000,
            warmup: 1_000_000,
            seed: 3,
            compute_profiles: 1,
        },
    ));
}

/// Polls `stats` until `pred` holds (the admission gate's state is only
/// observable through it), failing the test after a generous timeout.
fn wait_stats(port: u16, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(stats) = client::stats(port) {
            if pred(&stats) {
                return stats;
            }
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for stats to show {what}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn resubmitted_sweep_is_all_hits_and_byte_identical() {
    let dir = scratch("warm");
    let direct = direct_archive("e2e-warm", &dir.join("direct"), full_driver);
    let (port, handle) = start_daemon(serve_opts(&dir));

    let cold = submit(port, "e2e-warm", full_driver);
    assert_eq!(
        (cold.points, cold.hits, cold.misses, cold.failed),
        (3, 0, 3, 0)
    );
    let served = std::fs::read(&cold.archive).expect("read served archive");
    assert_eq!(
        served, direct,
        "cold served archive != direct canonical archive"
    );

    let warm = submit(port, "e2e-warm", full_driver);
    assert_eq!(
        (warm.points, warm.hits, warm.misses, warm.failed),
        (3, 3, 0, 0),
        "resubmission must be served entirely from cache"
    );
    assert_eq!(
        std::fs::read(&warm.archive).expect("read rewarmed archive"),
        direct,
        "warm served archive != direct canonical archive"
    );

    let stats = client::stats(port).expect("stats");
    assert!(stats.contains("\"entries\":3"), "{stats}");
    assert!(stats.contains("\"hits\":3"), "{stats}");
    assert!(stats.contains("\"misses\":3"), "{stats}");
    assert!(stats.contains("\"submissions\":2"), "{stats}");
    assert!(client::ping(port)
        .expect("ping")
        .contains("osoffload-serve"));

    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");

    let metrics =
        std::fs::read_to_string(dir.join("served/serve-metrics.csv")).expect("metrics exported");
    assert!(metrics.contains("serve.cache.hits"), "{metrics}");
}

/// Plans whose points differ only in dispatch policy or memory
/// substrate: each configuration has its own digest, so a warm
/// resubmission is served entirely from cache. Sensitivity repeats the
/// paper-baseline substrate in three probes; those rows share one entry.
#[test]
fn warm_dispatch_and_memory_grids_are_all_hits() {
    let dir = scratch("grids");
    let (port, handle) = start_daemon(serve_opts(&dir));
    let warm_is_all_hits = |name: &str, points: u64, driver: &dyn Fn(Evaluator<'_>)| {
        let direct = direct_archive(name, &dir.join("direct"), driver);
        let cold = submit(port, name, driver);
        assert_eq!((cold.points, cold.failed), (points, 0), "{name}");
        let warm = submit(port, name, driver);
        assert_eq!(
            (warm.hits, warm.misses, warm.failed),
            (points, 0, 0),
            "{name}: a warm resubmission must be all hits"
        );
        assert_eq!(
            std::fs::read(&warm.archive).expect("read warm archive"),
            direct,
            "{name}: warm served archive != direct canonical archive"
        );
    };
    warm_is_all_hits("e2e-fig6", 32, &|ev| {
        fig6_scalability_grid_with(tiny(), &[(4, 1), (16, 4)], &DispatchPolicy::ALL, ev);
    });
    warm_is_all_hits("e2e-sensitivity", 18, &|ev| {
        sensitivity_with(tiny(), Profile::apache(), ev);
    });
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn restarted_daemon_is_warm_despite_torn_tail() {
    let dir = scratch("restart");
    let direct = direct_archive("e2e-restart", &dir.join("direct"), full_driver);

    let (port, handle) = start_daemon(serve_opts(&dir));
    let cold = submit(port, "e2e-restart", full_driver);
    assert_eq!(cold.misses, 3);
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");

    // The classic kill -9 artefact: a torn, unterminated append.
    let cache = dir.join("cache.wal");
    let mut bytes = std::fs::read(&cache).expect("read cache");
    bytes.extend_from_slice(b"{\"fnv\":\"0123456789abcdef\",\"body\":{\"digest\":\"tor");
    std::fs::write(&cache, bytes).expect("tear cache tail");

    let (port, handle) = start_daemon(serve_opts(&dir));
    let warm = submit(port, "e2e-restart", full_driver);
    assert_eq!(
        (warm.hits, warm.misses),
        (3, 0),
        "restart must replay the WAL and serve everything from cache"
    );
    assert_eq!(
        std::fs::read(&warm.archive).expect("read archive"),
        direct,
        "post-restart archive != direct canonical archive"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn cached_rows_rekey_to_new_plan_positions() {
    let dir = scratch("rekey");
    let direct_subset = direct_archive("e2e-rekey", &dir.join("direct"), subset_driver);

    let (port, handle) = start_daemon(serve_opts(&dir));
    // Warm the cache with the full plan, then submit a permuted subset:
    // the same configurations at different indices under different ids.
    let cold = submit(port, "e2e-full", full_driver);
    assert_eq!(cold.misses, 3);
    let subset = submit(port, "e2e-rekey", subset_driver);
    assert_eq!(
        (subset.points, subset.hits, subset.misses),
        (2, 2, 0),
        "every subset point was cached under another plan position"
    );
    assert_eq!(
        std::fs::read(&subset.archive).expect("read archive"),
        direct_subset,
        "rekeyed archive != direct canonical archive of the subset plan"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

/// A submission with both hits and misses streams `accepted`, then
/// every cached point in plan order, then the computed ones, then
/// `done`, each index exactly once — and still archives byte-identically.
#[test]
fn mixed_submission_streams_cached_points_first() {
    let dir = scratch("mixed");
    let direct = direct_archive("e2e-mixed", &dir.join("direct"), full_driver);
    let (port, handle) = start_daemon(serve_opts(&dir));
    // The subset caches full_driver's points 2 and 0, leaving 1 to run.
    let subset = submit(port, "e2e-subset", subset_driver);
    assert_eq!(subset.misses, 2);

    let mut events = Vec::new();
    let mixed = client::submit(port, &request_line("e2e-mixed", full_driver), |ev| {
        events.push(ev.to_string())
    })
    .expect("submit");
    assert_eq!((mixed.hits, mixed.misses, mixed.failed), (2, 1, 0));
    let kinds: Vec<String> = events
        .iter()
        .map(|line| {
            let ev = json::parse(line).expect("event line");
            match ev.get("event").and_then(Value::as_str).expect("event") {
                "point" => format!(
                    "point {} cached={}",
                    ev.get("index").and_then(Value::as_u64).expect("index"),
                    ev.get("cached").and_then(Value::as_bool).expect("cached")
                ),
                other => other.to_string(),
            }
        })
        .collect();
    assert_eq!(
        kinds,
        [
            "accepted",
            "point 0 cached=true",
            "point 2 cached=true",
            "point 1 cached=false",
            "done"
        ]
    );
    assert_eq!(
        std::fs::read(&mixed.archive).expect("read archive"),
        direct,
        "mixed served archive != direct canonical archive"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

/// The metrics export keeps the newest [`METRICS_WINDOW`] samples, and
/// the newest still carries the lifetime totals.
#[test]
fn metrics_export_keeps_a_window_of_samples() {
    let dir = scratch("window");
    let (port, handle) = start_daemon(serve_opts(&dir));
    let line = request_line("e2e-window", |ev| {
        ev(single_config(
            Profile::apache(),
            PolicyKind::Baseline,
            0,
            1,
            tiny(),
        ));
    });
    let submissions = METRICS_WINDOW + 10;
    for _ in 0..submissions {
        client::submit(port, &line, |_| {}).expect("submit");
    }
    // The drain waits for the last export and commits one more sample.
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");

    let csv =
        std::fs::read_to_string(dir.join("served/serve-metrics.csv")).expect("metrics exported");
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), METRICS_WINDOW);
    let column = header
        .iter()
        .position(|&name| name == "serve.submissions")
        .expect("submissions column");
    let last: Vec<&str> = rows[rows.len() - 1].split(',').collect();
    assert_eq!(last[column], submissions.to_string());
}

#[test]
fn fault_injected_sweep_still_archives_byte_identically() {
    let dir = scratch("faults");
    let direct = direct_archive("e2e-faults", &dir.join("direct"), full_driver);

    let opts = ServeOptions {
        retries: 5,
        fault_seed: Some(9),
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);
    let outcome = submit(port, "e2e-faults", full_driver);
    assert_eq!(outcome.failed, 0, "retries must absorb the injected faults");
    assert_eq!(
        std::fs::read(&outcome.archive).expect("read archive"),
        direct,
        "fault-injected archive != clean direct canonical archive"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn overload_is_shed_with_retry_hint_then_absorbed_by_backoff() {
    let dir = scratch("overload");
    let opts = ServeOptions {
        submit_slots: 1,
        admit_queue: 0,
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);

    // Fill the only slot with a slow sweep, then provoke the gate.
    let slow = request_line("e2e-slow", slow_driver);
    let runner = std::thread::spawn(move || client::submit(port, &slow, |_| {}));
    wait_stats(port, "running=1", |s| s.contains("\"running\":1"));

    let fast = request_line("e2e-fast", full_driver);
    let refusal = client::submit_once(port, &fast, |_| {}).expect_err("must be shed");
    match &refusal {
        SubmitError::Refused {
            error,
            retry_after_ms,
        } => {
            assert_eq!(error, "overloaded");
            assert!(
                retry_after_ms.is_some(),
                "overloaded refusals carry a backoff hint"
            );
        }
        other => panic!("expected an overloaded refusal, got {other:?}"),
    }
    assert!(refusal.is_retryable(), "overload must be marked retryable");

    // The resilient client path rides the backoff until the slot frees.
    let policy = RetryPolicy {
        retries: 60,
        backoff_ms: 20,
        seed: 7,
    };
    let absorbed =
        client::submit_with_retry(port, &fast, policy, |_| {}).expect("backoff absorbs overload");
    assert_eq!((absorbed.points, absorbed.failed), (3, 0));
    let slow_outcome = runner.join().expect("slow thread").expect("slow submit");
    assert_eq!(slow_outcome.failed, 0);

    // Shedding is observable: in the stats line and the metric export.
    let stats = client::stats(port).expect("stats");
    assert!(
        !stats.contains("\"shed\":0,"),
        "at least one shed must be counted: {stats}"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
    let metrics =
        std::fs::read_to_string(dir.join("served/serve-metrics.csv")).expect("metrics exported");
    assert!(metrics.contains("serve.queue.shed"), "{metrics}");
    assert!(metrics.contains("serve.queue.depth"), "{metrics}");
}

#[test]
fn shutdown_drains_running_and_refuses_queued() {
    let dir = scratch("drain");
    let opts = ServeOptions {
        submit_slots: 1,
        admit_queue: 2,
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);

    let slow = request_line("e2e-drain-slow", slow_driver);
    let running = std::thread::spawn(move || client::submit(port, &slow, |_| {}));
    wait_stats(port, "running=1", |s| s.contains("\"running\":1"));
    let queued_req = request_line("e2e-drain-queued", full_driver);
    let queued = std::thread::spawn(move || client::submit(port, &queued_req, |_| {}));
    wait_stats(port, "queued=1", |s| s.contains("\"queued\":1"));

    // Drain: the running sweep finishes, the queued one is refused, and
    // the acknowledgement only arrives once both are settled.
    let ack = client::stop(port).expect("graceful stop");
    assert!(ack.contains("\"drained\":true"), "{ack}");
    let finished = running.join().expect("running thread").expect("running");
    assert_eq!(
        (finished.points, finished.failed),
        (1, 0),
        "the in-flight sweep must finish, not be aborted"
    );
    let refused = queued.join().expect("queued thread").expect_err("refused");
    assert!(refused.contains("draining"), "{refused}");
    handle.join().expect("daemon thread").expect("daemon exit");

    // The drained daemon journaled its sweep: a restart serves it warm.
    let (port, handle) = start_daemon(ServeOptions {
        submit_slots: 1,
        admit_queue: 2,
        ..serve_opts(&dir)
    });
    let warm = submit(port, "e2e-drain-slow", slow_driver);
    assert_eq!((warm.hits, warm.misses), (1, 0));
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn queued_submissions_respect_the_request_deadline() {
    let dir = scratch("deadline");
    let opts = ServeOptions {
        submit_slots: 1,
        admit_queue: 2,
        request_deadline_ms: 300,
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);

    let slow = request_line("e2e-deadline-slow", slow_driver);
    let running = std::thread::spawn(move || client::submit(port, &slow, |_| {}));
    wait_stats(port, "running=1", |s| s.contains("\"running\":1"));

    // This submission queues behind the slow one and must be bounced
    // once its 300 ms budget is gone — not parked indefinitely.
    let bounced = client::submit_once(
        port,
        &request_line("e2e-deadline-fast", full_driver),
        |_| {},
    )
    .expect_err("deadline must fire");
    match &bounced {
        SubmitError::Refused { error, .. } => assert_eq!(error, "deadline"),
        other => panic!("expected a deadline refusal, got {other:?}"),
    }
    assert!(
        !bounced.is_retryable(),
        "a blown deadline is the caller's problem, not a retry hint"
    );

    // The slow sweep itself ran under the same deadline, so its point
    // was cut off by the runner's watchdog rather than running forever.
    let slow_outcome = running.join().expect("slow thread").expect("slow submit");
    assert_eq!(
        slow_outcome.failed, 1,
        "the watchdog must bound execution to the remaining budget"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

/// Writes raw bytes as one request and returns the response line (empty
/// when the daemon hangs up without answering).
fn raw_request(port: u16, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.write_all(bytes).expect("send");
    let mut line = String::new();
    let _ = BufReader::new(&stream).read_line(&mut line);
    line
}

#[test]
fn oversized_and_garbage_frames_are_bounced_within_limits() {
    let dir = scratch("framing");
    let opts = ServeOptions {
        max_line_bytes: 1024,
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);

    // An 8 KiB line against a 1 KiB bound: refused by length, buffered
    // bounded — never accumulated until memory or patience runs out.
    let mut oversized = vec![b'a'; 8 * 1024];
    oversized.push(b'\n');
    let answer = raw_request(port, &oversized);
    assert!(answer.contains("exceeds 1024 bytes"), "{answer}");

    // Bytes that are not UTF-8 at all.
    let answer = raw_request(port, b"{\"op\":\"\xff\xfe\"}\n");
    assert!(answer.contains("not UTF-8"), "{answer}");

    // Valid UTF-8, but NUL-riddled garbage mid-frame.
    let answer = raw_request(port, b"{\"op\":\"sub\x00mit\"}\n");
    assert!(answer.contains("\"ok\":false"), "{answer}");

    // The daemon survives all of it.
    assert!(client::ping(port).expect("ping").contains("\"ok\":true"));
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn client_vanishing_after_accepted_still_journals_every_point() {
    let dir = scratch("vanish");
    let direct = direct_archive("e2e-vanish", &dir.join("direct"), full_driver);
    let (port, handle) = start_daemon(serve_opts(&dir));

    // Submit, read only the `accepted` event, then vanish mid-stream.
    {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        (&stream)
            .write_all(request_line("e2e-vanish", full_driver).as_bytes())
            .expect("send");
        let mut accepted = String::new();
        BufReader::new(&stream)
            .read_line(&mut accepted)
            .expect("read accepted");
        assert!(accepted.contains("\"event\":\"accepted\""), "{accepted}");
        drop(stream);
    }

    // The sweep must run to completion and journal everything anyway.
    wait_stats(port, "the orphaned sweep to finish", |s| {
        s.contains("\"submissions\":1") && s.contains("\"misses\":3")
    });
    let warm = submit(port, "e2e-vanish", full_driver);
    assert_eq!(
        (warm.points, warm.hits, warm.misses, warm.failed),
        (3, 3, 0, 0),
        "every point the vanished client submitted must have been cached"
    );
    assert_eq!(
        std::fs::read(&warm.archive).expect("read archive"),
        direct,
        "archive after an abandoned submission != direct canonical archive"
    );
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn slow_loris_is_timed_out_without_wedging_the_daemon() {
    let dir = scratch("loris");
    let opts = ServeOptions {
        read_timeout_ms: 200,
        ..serve_opts(&dir)
    };
    let (port, handle) = start_daemon(opts);

    // Half a request, then silence: the read timeout must reclaim the
    // connection instead of letting it pin a worker forever.
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream.write_all(b"{\"op\":\"pi").expect("send half");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut buf = [0u8; 64];
    let n = stream.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "a timed-out half-frame gets silence, not an answer");

    assert!(client::ping(port).expect("ping").contains("\"ok\":true"));
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn hostile_requests_get_errors_not_panics() {
    let dir = scratch("hostile");
    let (port, handle) = start_daemon(serve_opts(&dir));

    for request in [
        "this is not json\n",
        "{\"op\":\"frobnicate\"}\n",
        "{\"op\":\"submit\"}\n",
        "{\"op\":\"submit\",\"experiment\":\"../etc\",\"master_seed\":1,\"points\":[]}\n",
        // A zero OS-core slowdown, which validation refuses.
        "{\"op\":\"submit\",\"experiment\":\"x\",\"master_seed\":1,\"points\":[{\"id\":\"p\",\
         \"config\":{\"profile\":\"apache\",\"phases\":[],\"policy\":{\"kind\":\"baseline\"},\
         \"mechanism\":\"thread-migration\",\"migration_one_way\":0,\
         \"os_core_slowdown_milli\":0,\"os_core_contexts\":1,\"os_cores\":1,\
         \"dispatch\":\"least-loaded\",\"os_cold_penalty\":0,\"resource_adaptation\":null,\
         \"user_cores\":1,\"instructions\":1000,\"warmup\":100,\"seed\":1,\"tuner\":null,\
         \"mem\":null}}]}\n",
    ] {
        let err = client::submit(port, request, |_| {}).expect_err("must be refused");
        assert!(err.contains("refused") || err.contains("closed"), "{err}");
    }

    // Half a megabyte of nesting inside the line bound: the parser's
    // depth limit answers it; unbounded recursion would overflow the
    // handler's stack and abort the whole daemon.
    let deep = "[".repeat(1 << 19) + "\n";
    let answer = raw_request(port, deep.as_bytes());
    assert!(answer.contains("nesting too deep"), "{answer}");

    // The daemon survives all of it.
    assert!(client::ping(port).expect("ping").contains("\"ok\":true"));
    client::stop(port).expect("stop");
    handle.join().expect("daemon thread").expect("daemon exit");
}
