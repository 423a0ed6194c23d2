//! The serve daemon: a localhost TCP accept loop scheduling submitted
//! sweeps on the runner behind the result cache, concurrently and with
//! explicit admission control.
//!
//! The protocol is newline-delimited JSON over one connection per
//! request. A client connects, writes a single request line, and reads
//! response lines until the connection closes:
//!
//! - `{"op":"ping"}` → one `{"ok":true,...}` line.
//! - `{"op":"stats"}` → one line of cache/counter totals.
//! - `{"op":"shutdown"}` → graceful drain: in-flight submissions finish
//!   and fsync, queued ones get a `draining` refusal, then the
//!   acknowledgement line is written and the listener closes.
//! - `{"op":"submit","experiment":..,"master_seed":..,"points":[..]}` →
//!   an `accepted` event, one `point` event per point as it completes
//!   (cached points first, announced before any computation starts),
//!   and a final `done` event carrying hit/miss totals and the archive
//!   path.
//!
//! # Concurrency and admission control
//!
//! Accepted connections are handed to a bounded worker pool over a
//! bounded connection queue; when even that queue is full the daemon
//! answers `{"ok":false,"error":"overloaded","retry_after_ms":N}` and
//! closes, never blocking the accept loop. Submissions then pass an
//! admission gate: at most `submit_slots` sweeps run concurrently, at
//! most `admit_queue` wait behind them, and everything beyond that is
//! shed with the same structured `overloaded` line. Shedding is safe
//! because resubmission is idempotent — the digest cache serves
//! whatever already completed. WAL appends stay single-writer (the
//! cache sits behind one mutex), so concurrent submissions of
//! overlapping configurations dedupe through the digest index without
//! torn records.
//!
//! Requests are bounded in every dimension: a configurable max line
//! length (slow-loris / oversized-frame protection), configurable
//! read/write socket timeouts, and an optional per-request deadline
//! (`request_deadline_ms`) that bounds both the time queued at the
//! admission gate and — via the runner's per-point watchdog — the
//! execution itself.
//!
//! Every submitted configuration is rebuilt through
//! [`SystemConfig::from_json`] — and therefore through
//! `SystemConfig::try_build` — before it can reach the executor, so a
//! malformed or hostile request gets an error line, never a panic.
//! Completed points are appended to the cache WAL as they finish
//! (fsynced, inside the executor's completion callback), which is what
//! makes a `kill -9` mid-campaign recoverable: the restarted daemon
//! replays the WAL and serves every acknowledged point from cache.
//! (SIGTERM cannot be trapped without `unsafe` or a signal dependency;
//! use the `shutdown` op for a graceful drain, and rely on the WAL for
//! anything harsher.)
//!
//! Sweeps always run in canonical mode, and the daemon additionally
//! normalises the run-shape fields (`attempts`, `attempt_ms`,
//! `injected_faults`) of every row before archiving. A sweep served
//! from cache, recomputed after a crash, or retried under fault
//! injection therefore produces a byte-identical archive to a clean
//! direct `--canonical` run of the same plan.

use crate::cache::ResultCache;
use osoffload_obs::json::{self, Value};
use osoffload_obs::{atomic_write, MetricId, MetricsRegistry};
use osoffload_runner::journal::config_digest;
use osoffload_runner::report::write_sweep;
use osoffload_runner::{run_plan_hooked, ExecHooks, ExperimentPlan, Outcome, RunnerOptions};
use osoffload_system::SystemConfig;
use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default TCP port of the serve daemon.
pub const DEFAULT_PORT: u16 = 7411;

/// Default read/write socket timeout in milliseconds.
pub const DEFAULT_SOCKET_TIMEOUT_MS: u64 = 60_000;

/// Default maximum request line length in bytes (1 MiB).
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Port to listen on (localhost only); `0` picks an ephemeral port.
    pub port: u16,
    /// Path of the cache WAL file.
    pub cache: PathBuf,
    /// Directory archives and metrics are written into.
    pub out_dir: PathBuf,
    /// Maximum cached entries (`0` = unbounded); oldest evicted first.
    pub cache_capacity: usize,
    /// Cache entry TTL in virtual seconds (`0` = no age limit); entries
    /// older than this are evicted at open/compaction time.
    pub cache_ttl_secs: u64,
    /// Worker threads per sweep (`0` = one per hardware thread).
    pub workers: usize,
    /// Retries per failing point.
    pub retries: u32,
    /// Fault-injection seed (chaos testing; see `ROBUSTNESS.md`).
    pub fault_seed: Option<u64>,
    /// Concurrent submissions executed at once (minimum 1).
    pub submit_slots: usize,
    /// Submissions allowed to wait behind the running ones; anything
    /// beyond is shed with an `overloaded` response.
    pub admit_queue: usize,
    /// Connection-handling threads (`0` = sized from
    /// `submit_slots + admit_queue` with headroom for quick ops).
    pub conn_workers: usize,
    /// Socket read timeout in milliseconds (must be positive).
    pub read_timeout_ms: u64,
    /// Socket write timeout in milliseconds (must be positive).
    pub write_timeout_ms: u64,
    /// Per-request deadline in milliseconds (`0` = none): bounds the
    /// admission-queue wait, and the remaining budget bounds each point
    /// through the runner's watchdog.
    pub request_deadline_ms: u64,
    /// Maximum request line length in bytes.
    pub max_line_bytes: usize,
    /// Suppresses stderr chatter.
    pub quiet: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            port: DEFAULT_PORT,
            cache: PathBuf::from("results/serve/cache.wal"),
            out_dir: PathBuf::from("results/serve"),
            cache_capacity: 0,
            cache_ttl_secs: 0,
            workers: 0,
            retries: 0,
            fault_seed: None,
            submit_slots: 2,
            admit_queue: 4,
            conn_workers: 0,
            read_timeout_ms: DEFAULT_SOCKET_TIMEOUT_MS,
            write_timeout_ms: DEFAULT_SOCKET_TIMEOUT_MS,
            request_deadline_ms: 0,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            quiet: false,
        }
    }
}

impl ServeOptions {
    fn slots(&self) -> usize {
        self.submit_slots.max(1)
    }

    /// The connection pool is always large enough that every runnable
    /// and queued submission can hold a connection while at least one
    /// thread stays free for quick ops (`ping`/`stats`/`shutdown`) — a
    /// drain request must never be starved by the very load it is meant
    /// to resolve.
    fn pool(&self) -> usize {
        let floor = self.slots() + self.admit_queue + 1;
        if self.conn_workers == 0 {
            floor + 1
        } else {
            self.conn_workers.max(floor)
        }
    }
}

/// Totals across the daemon's lifetime, exported as epoch-sampled
/// metrics after every submission or shed.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    hits: u64,
    misses: u64,
    evictions: u64,
    submissions: u64,
    shed: u64,
    drain_refused: u64,
    deadline_refused: u64,
}

struct Metrics {
    registry: MetricsRegistry,
    hits: MetricId,
    misses: MetricId,
    evictions: MetricId,
    entries: MetricId,
    submissions: MetricId,
    depth: MetricId,
    shed: MetricId,
    drain_refused: MetricId,
}

impl Metrics {
    fn new() -> Metrics {
        let mut registry = MetricsRegistry::new();
        let hits = registry.register_counter("serve.cache.hits");
        let misses = registry.register_counter("serve.cache.misses");
        let evictions = registry.register_counter("serve.cache.evictions");
        let entries = registry.register_gauge("serve.cache.entries");
        let submissions = registry.register_counter("serve.submissions");
        let depth = registry.register_gauge("serve.queue.depth");
        let shed = registry.register_counter("serve.queue.shed");
        let drain_refused = registry.register_counter("serve.drain.refused");
        Metrics {
            registry,
            hits,
            misses,
            evictions,
            entries,
            submissions,
            depth,
            shed,
            drain_refused,
        }
    }
}

/// The admission gate: how many sweeps are running, how many are
/// parked waiting for a slot, and whether a drain is in progress.
#[derive(Debug, Default)]
struct Gate {
    running: usize,
    queued: usize,
    draining: bool,
}

/// State shared between the accept loop and the connection workers.
struct Shared {
    addr: SocketAddr,
    opts: ServeOptions,
    cache: Mutex<ResultCache>,
    gate: Mutex<Gate>,
    gate_cv: Condvar,
    totals: Mutex<Totals>,
    metrics: Mutex<Metrics>,
    samples: AtomicU64,
    stop: AtomicBool,
}

/// A bound serve daemon, ready to [`run`](Daemon::run).
pub struct Daemon {
    listener: TcpListener,
    shared: Shared,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("addr", &self.shared.addr)
            .field("cache_entries", &self.cache_len())
            .finish()
    }
}

fn err_line(why: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}\n", json::escape(why))
}

fn valid_experiment_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// One lowered, validated submission point.
struct SubmitPoint {
    id: String,
    wire: String,
    digest: String,
    config: SystemConfig,
}

/// A bounded handoff queue between the accept loop and the worker pool.
struct ConnQueue {
    state: Mutex<(VecDeque<TcpStream>, bool)>,
    cv: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Hands a connection to the pool, or returns it when the queue is
    /// full (the caller sheds it) or already closed.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.state.lock().expect("conn queue lock");
        if state.1 || state.0.len() >= self.capacity {
            return Err(stream);
        }
        state.0.push_back(stream);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once the queue is closed
    /// and empty (worker shutdown).
    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.state.lock().expect("conn queue lock");
        loop {
            if let Some(stream) = state.0.pop_front() {
                return Some(stream);
            }
            if state.1 {
                return None;
            }
            state = self.cv.wait(state).expect("conn queue wait");
        }
    }

    /// Closes the queue, waking every worker, and returns the
    /// connections nobody will serve so the caller can refuse them.
    fn close(&self) -> Vec<TcpStream> {
        let mut state = self.state.lock().expect("conn queue lock");
        state.1 = true;
        self.cv.notify_all();
        state.0.drain(..).collect()
    }
}

/// The admission verdict for one submission.
enum Admit {
    Go,
    Refuse { line: String, kind: RefuseKind },
}

#[derive(Clone, Copy)]
enum RefuseKind {
    Overloaded,
    Draining,
    Deadline,
}

impl Daemon {
    /// Opens the cache and binds the listener on `127.0.0.1`.
    pub fn bind(opts: ServeOptions) -> Result<Daemon, String> {
        if opts.read_timeout_ms == 0 || opts.write_timeout_ms == 0 {
            return Err("socket timeouts must be positive".into());
        }
        if opts.max_line_bytes == 0 {
            return Err("max_line_bytes must be positive".into());
        }
        let cache =
            ResultCache::open_limited(&opts.cache, opts.cache_capacity, opts.cache_ttl_secs)?;
        for warning in cache.warnings() {
            eprintln!("serve: {warning}");
        }
        let listener = TcpListener::bind(("127.0.0.1", opts.port))
            .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", opts.port))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        Ok(Daemon {
            listener,
            shared: Shared {
                addr,
                opts,
                cache: Mutex::new(cache),
                gate: Mutex::new(Gate::default()),
                gate_cv: Condvar::new(),
                totals: Mutex::new(Totals::default()),
                metrics: Mutex::new(Metrics::new()),
                samples: AtomicU64::new(0),
                stop: AtomicBool::new(false),
            },
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.shared.addr
    }

    /// Cached entry count.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.lock().expect("cache lock").len()
    }

    /// Serves connections until a `shutdown` request drains the daemon.
    pub fn run(&mut self) -> Result<(), String> {
        let shared = &self.shared;
        let pool = shared.opts.pool();
        let queue = ConnQueue::new(pool * 2);
        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| {
                    while let Some(stream) = queue.pop() {
                        handle_connection(shared, stream);
                    }
                });
            }
            let result = loop {
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) => break Err(format!("accept failed: {e}")),
                };
                if shared.stop.load(Ordering::SeqCst) {
                    // Drain complete: this is the shutdown wake-up (or a
                    // straggler, told cleanly to go away).
                    refuse_late(stream, "draining");
                    break Ok(());
                }
                if let Err(stream) = queue.push(stream) {
                    // Even the handoff queue is full: shed at the door
                    // rather than letting the accept loop block or the
                    // backlog grow without bound.
                    shed_connection(shared, stream);
                }
            };
            for stream in queue.close() {
                refuse_late(stream, "draining");
            }
            result
        })
    }
}

/// Writes one refusal line to a connection nobody will serve, bounded
/// by a short write timeout so teardown cannot wedge on a dead peer.
fn refuse_late(stream: TcpStream, why: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = (&stream).write_all(err_line(why).as_bytes());
}

fn overloaded_line(depth: usize) -> String {
    // A deterministic hint that grows with queue pressure; clients cap
    // and jitter it themselves (see `client::submit_with_retry`).
    format!(
        "{{\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":{}}}\n",
        250 * (depth as u64 + 1)
    )
}

fn shed_connection(shared: &Shared, stream: TcpStream) {
    let depth = {
        let gate = shared.gate.lock().expect("gate lock");
        gate.running + gate.queued
    };
    {
        let mut totals = shared.totals.lock().expect("totals lock");
        totals.shed += 1;
    }
    export_metrics(shared);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = (&stream).write_all(overloaded_line(depth).as_bytes());
}

/// How reading the request line failed.
enum ReadLineError {
    /// The line exceeded the configured maximum length.
    TooLong,
    /// The line was not valid UTF-8.
    BadUtf8,
    /// The peer vanished or the socket timed out; nothing to answer.
    Gone,
}

/// Reads one `\n`-terminated request line with a hard length bound, so
/// a slow-loris or oversized frame can never buffer unboundedly.
fn read_request_line(stream: &TcpStream, max: usize) -> Result<String, ReadLineError> {
    let mut reader = std::io::BufReader::with_capacity(8 * 1024, stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (found, used) = {
            let chunk = match reader.fill_buf() {
                Ok(c) => c,
                Err(_) => return Err(ReadLineError::Gone),
            };
            if chunk.is_empty() {
                return Err(ReadLineError::Gone);
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    line.extend_from_slice(&chunk[..pos]);
                    (true, pos + 1)
                }
                None => {
                    line.extend_from_slice(chunk);
                    (false, chunk.len())
                }
            }
        };
        reader.consume(used);
        if line.len() > max {
            return Err(ReadLineError::TooLong);
        }
        if found {
            return String::from_utf8(line).map_err(|_| ReadLineError::BadUtf8);
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let opts = &shared.opts;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(opts.read_timeout_ms)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(opts.write_timeout_ms)));
    let mut out = &stream;
    let line = match read_request_line(&stream, opts.max_line_bytes) {
        Ok(line) => line,
        Err(ReadLineError::TooLong) => {
            let _ = out.write_all(
                err_line(&format!(
                    "request line exceeds {} bytes",
                    opts.max_line_bytes
                ))
                .as_bytes(),
            );
            return;
        }
        Err(ReadLineError::BadUtf8) => {
            let _ = out.write_all(err_line("request is not UTF-8").as_bytes());
            return;
        }
        // A timed-out or vanished client gets dropped silently — there
        // is nobody left to answer, and answering a half-written frame
        // would only confuse a confused peer further.
        Err(ReadLineError::Gone) => return,
    };
    let request = match json::parse(line.trim_end()) {
        Ok(v) => v,
        Err(why) => {
            let _ = out.write_all(err_line(&format!("bad request: {why}")).as_bytes());
            return;
        }
    };
    match request.get("op").and_then(Value::as_str) {
        Some("ping") => {
            let draining = shared.gate.lock().expect("gate lock").draining;
            let _ = out.write_all(
                format!(
                    "{{\"ok\":true,\"service\":\"osoffload-serve\",\"version\":2,\
                     \"draining\":{draining}}}\n"
                )
                .as_bytes(),
            );
        }
        Some("stats") => {
            let (running, queued, draining) = {
                let gate = shared.gate.lock().expect("gate lock");
                (gate.running, gate.queued, gate.draining)
            };
            let t = *shared.totals.lock().expect("totals lock");
            let entries = shared.cache.lock().expect("cache lock").len();
            let _ = out.write_all(
                format!(
                    "{{\"ok\":true,\"entries\":{entries},\"hits\":{},\"misses\":{},\
                     \"evictions\":{},\"submissions\":{},\"shed\":{},\
                     \"drain_refused\":{},\"deadline_refused\":{},\"running\":{running},\
                     \"queued\":{queued},\"draining\":{draining}}}\n",
                    t.hits,
                    t.misses,
                    t.evictions,
                    t.submissions,
                    t.shed,
                    t.drain_refused,
                    t.deadline_refused,
                )
                .as_bytes(),
            );
        }
        Some("shutdown") => handle_shutdown(shared, out),
        Some("submit") => submit_entry(shared, &request, &stream),
        _ => {
            let _ = out.write_all(err_line("unknown op").as_bytes());
        }
    }
}

/// Graceful drain: flag the gate (waking every queued submission into a
/// `draining` refusal), wait until nothing is running or queued, then
/// acknowledge, raise the stop flag, and poke the accept loop awake.
fn handle_shutdown(shared: &Shared, mut out: &TcpStream) {
    {
        let mut gate = shared.gate.lock().expect("gate lock");
        gate.draining = true;
        shared.gate_cv.notify_all();
        while gate.running > 0 || gate.queued > 0 {
            gate = shared.gate_cv.wait(gate).expect("gate wait");
        }
    }
    export_metrics(shared);
    let _ = out.write_all(b"{\"ok\":true,\"stopping\":true,\"drained\":true}\n");
    shared.stop.store(true, Ordering::SeqCst);
    // The accept loop is blocked in accept(); a throwaway connection
    // wakes it to observe the stop flag.
    let _ = TcpStream::connect(shared.addr);
}

/// Decides whether a submission may run now, must wait, or is refused.
fn admit(shared: &Shared) -> Admit {
    let opts = &shared.opts;
    let deadline = (opts.request_deadline_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(opts.request_deadline_ms));
    let mut gate = shared.gate.lock().expect("gate lock");
    if gate.draining {
        return Admit::Refuse {
            line: err_line("draining"),
            kind: RefuseKind::Draining,
        };
    }
    if gate.running < opts.slots() {
        gate.running += 1;
        return Admit::Go;
    }
    if gate.queued >= opts.admit_queue {
        return Admit::Refuse {
            line: overloaded_line(gate.running + gate.queued),
            kind: RefuseKind::Overloaded,
        };
    }
    gate.queued += 1;
    loop {
        if gate.draining {
            gate.queued -= 1;
            shared.gate_cv.notify_all();
            return Admit::Refuse {
                line: err_line("draining"),
                kind: RefuseKind::Draining,
            };
        }
        if gate.running < opts.slots() {
            gate.queued -= 1;
            gate.running += 1;
            shared.gate_cv.notify_all();
            return Admit::Go;
        }
        match deadline {
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    gate.queued -= 1;
                    shared.gate_cv.notify_all();
                    return Admit::Refuse {
                        line: format!(
                            "{{\"ok\":false,\"error\":\"deadline\",\
                             \"deadline_ms\":{}}}\n",
                            opts.request_deadline_ms
                        ),
                        kind: RefuseKind::Deadline,
                    };
                }
                let (g, _) = shared
                    .gate_cv
                    .wait_timeout(gate, d - now)
                    .expect("gate wait");
                gate = g;
            }
            None => gate = shared.gate_cv.wait(gate).expect("gate wait"),
        }
    }
}

/// Admission wrapper around [`handle_submit`]: passes the gate, runs
/// the sweep, and releases the slot whatever happens.
fn submit_entry(shared: &Shared, request: &Value, out: &TcpStream) {
    let wait_start = Instant::now();
    match admit(shared) {
        Admit::Go => {}
        Admit::Refuse { line, kind } => {
            {
                let mut totals = shared.totals.lock().expect("totals lock");
                match kind {
                    RefuseKind::Overloaded => totals.shed += 1,
                    RefuseKind::Draining => totals.drain_refused += 1,
                    RefuseKind::Deadline => totals.deadline_refused += 1,
                }
            }
            export_metrics(shared);
            let mut w = out;
            let _ = w.write_all(line.as_bytes());
            return;
        }
    }
    let result = handle_submit(shared, request, out, wait_start.elapsed());
    {
        let mut gate = shared.gate.lock().expect("gate lock");
        gate.running -= 1;
        shared.gate_cv.notify_all();
    }
    if let Err(why) = result {
        let mut w = out;
        let _ = w.write_all(err_line(&why).as_bytes());
    }
}

fn lower_submit(request: &Value) -> Result<(String, u64, Vec<SubmitPoint>), String> {
    let experiment = request.field("submit", "experiment", Value::as_str)?;
    if !valid_experiment_name(experiment) {
        return Err(format!(
            "experiment name {experiment:?} must be 1-64 chars of [A-Za-z0-9._-]"
        ));
    }
    let master_seed = request.field("submit", "master_seed", Value::as_u64)?;
    let raw_points = request.field("submit", "points", Value::as_arr)?;
    if raw_points.is_empty() {
        return Err("submit has no points".into());
    }
    let mut points = Vec::with_capacity(raw_points.len());
    for (i, p) in raw_points.iter().enumerate() {
        let what = format!("point {i}:");
        let id = p.field(&what, "id", Value::as_str)?;
        let config = SystemConfig::from_json(p.field(&what, "config", Some)?)
            .map_err(|why| format!("{what} {why}"))?;
        // Re-canonicalise: cache comparisons use the daemon's own
        // rendering, never client-supplied bytes.
        let wire = config.to_json();
        points.push(SubmitPoint {
            id: id.to_string(),
            digest: config_digest(&wire),
            wire,
            config,
        });
    }
    Ok((experiment.to_string(), master_seed, points))
}

fn handle_submit(
    shared: &Shared,
    request: &Value,
    out: &TcpStream,
    queue_wait: Duration,
) -> Result<(), String> {
    let opts = &shared.opts;
    let (experiment, master_seed, points) = lower_submit(request)?;
    // Whatever request budget survived the admission queue bounds each
    // point through the runner's watchdog.
    let deadline_ms = if opts.request_deadline_ms > 0 {
        let remaining = opts
            .request_deadline_ms
            .saturating_sub(queue_wait.as_millis() as u64);
        if remaining == 0 {
            return Err("deadline".into());
        }
        Some(remaining)
    } else {
        None
    };
    let mut plan = ExperimentPlan::new(&experiment, master_seed);
    let mut prefill = Vec::with_capacity(points.len());
    {
        let cache = shared.cache.lock().expect("cache lock");
        for p in &points {
            let index = plan.push_pinned(p.id.clone(), p.config.clone());
            prefill.push(cache.serve(&p.digest, &p.wire, index, &p.id, p.config.seed));
        }
    }
    let mut writer = out;
    let _ = writer
        .write_all(format!("{{\"event\":\"accepted\",\"points\":{}}}\n", points.len()).as_bytes());

    let ropts = RunnerOptions {
        workers: opts.workers,
        retries: opts.retries,
        quiet: true,
        canonical: true,
        out_dir: opts.out_dir.clone(),
        fault_seed: opts.fault_seed,
        deadline_ms,
        ..RunnerOptions::default()
    };

    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let stream = Mutex::new(out);
    let wires: Vec<&str> = points.iter().map(|p| p.wire.as_str()).collect();
    let digests: Vec<&str> = points.iter().map(|p| p.digest.as_str()).collect();
    let on_point = |row: &osoffload_runner::PointResult, cached: bool| {
        if cached {
            hits.fetch_add(1, Ordering::Relaxed);
        } else {
            misses.fetch_add(1, Ordering::Relaxed);
            // Cache the fresh row before acknowledging it: after a
            // kill -9 the WAL holds everything the client saw done.
            match shared
                .cache
                .lock()
                .expect("cache lock")
                .insert(wires[row.index], row)
            {
                Ok(_) => {}
                Err(why) => eprintln!("serve: {why}"),
            }
        }
        let status = match &row.outcome {
            Outcome::Ok(_) => "ok",
            Outcome::Failed { .. } => "failed",
            Outcome::TimedOut { .. } => "timeout",
        };
        let line = format!(
            "{{\"event\":\"point\",\"index\":{},\"id\":\"{}\",\"digest\":\"{}\",\
             \"cached\":{},\"status\":\"{}\"}}\n",
            row.index,
            json::escape(&row.id),
            digests[row.index],
            cached,
            status
        );
        // A vanished client must not abort the sweep: results still
        // land in the cache for the next submission.
        let mut s = stream.lock().expect("stream lock");
        let _ = (&mut *s).write_all(line.as_bytes());
    };
    let hooks = ExecHooks {
        prefill,
        on_point: Some(&on_point),
    };
    let mut sweep = run_plan_hooked(&plan, &ropts, hooks);

    // Normalise run-shape fields so retried / fault-injected /
    // cache-served sweeps archive byte-identically to a clean
    // direct canonical run.
    for row in &mut sweep.rows {
        row.wall_ms = 0.0;
        row.start_ms = 0.0;
        row.worker = 0;
        row.attempts = 1;
        row.attempt_ms = vec![0.0];
        row.injected_faults = 0;
    }
    let archive =
        write_sweep(&sweep, &opts.out_dir).map_err(|e| format!("cannot write archive: {e}"))?;

    let hits = hits.into_inner();
    let misses = misses.into_inner();
    let failed = sweep.rows.iter().filter(|r| !r.is_ok()).count();
    let evicted = shared.cache.lock().expect("cache lock").enforce_limits()? as u64;

    {
        let mut totals = shared.totals.lock().expect("totals lock");
        totals.hits += hits;
        totals.misses += misses;
        totals.evictions += evicted;
        totals.submissions += 1;
    }
    export_metrics(shared);
    if !opts.quiet {
        eprintln!(
            "serve: {experiment}: {} points, {hits} hits, {misses} misses, {failed} failed",
            sweep.rows.len()
        );
    }

    let _ = writer.write_all(
        format!(
            "{{\"event\":\"done\",\"ok\":true,\"points\":{},\"hits\":{hits},\
             \"misses\":{misses},\"failed\":{failed},\"evicted\":{evicted},\
             \"archive\":\"{}\"}}\n",
            sweep.rows.len(),
            json::escape(&archive.display().to_string())
        )
        .as_bytes(),
    );
    Ok(())
}

/// Commits one epoch sample and writes `serve-metrics.csv` /
/// `serve-metrics.json` atomically.
fn export_metrics(shared: &Shared) {
    let t = *shared.totals.lock().expect("totals lock");
    let entries = shared.cache.lock().expect("cache lock").len();
    let depth = {
        let gate = shared.gate.lock().expect("gate lock");
        gate.running + gate.queued
    };
    let epoch = shared.samples.fetch_add(1, Ordering::Relaxed);
    let mut m = shared.metrics.lock().expect("metrics lock");
    let (hits, misses, evictions, entries_id, submissions, depth_id, shed, drain_refused) = (
        m.hits,
        m.misses,
        m.evictions,
        m.entries,
        m.submissions,
        m.depth,
        m.shed,
        m.drain_refused,
    );
    m.registry.set(hits, t.hits as f64);
    m.registry.set(misses, t.misses as f64);
    m.registry.set(evictions, t.evictions as f64);
    m.registry.set(entries_id, entries as f64);
    m.registry.set(submissions, t.submissions as f64);
    m.registry.set(depth_id, depth as f64);
    m.registry.set(shed, t.shed as f64);
    m.registry.set(drain_refused, t.drain_refused as f64);
    m.registry.commit_sample(epoch, 0, 0);
    let csv = shared.opts.out_dir.join("serve-metrics.csv");
    let json = shared.opts.out_dir.join("serve-metrics.json");
    if let Err(e) = atomic_write(&csv, m.registry.to_csv().as_bytes())
        .and_then(|()| atomic_write(&json, m.registry.to_json().as_bytes()))
    {
        eprintln!("serve: cannot write metrics: {e}");
    }
}
