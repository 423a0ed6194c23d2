//! The traced run: per-layer host costs on the workload's own inputs.
//!
//! The run sets up once, then sends requests in a closed loop for
//! `--seconds` of request time, every other one inside a `request`
//! span, so that `bench.trace_overhead` compares traced with untraced
//! latency. It then re-enacts one request through the public calls of
//! each layer, each call inside a span carrying the request's id, and
//! replays one sampled point through the single-layer models (workload
//! generator, TLB, memory system, predictor, OS-core pool).
//!
//! Spans stay in memory and are written once, at the end, to
//! `.bench_out/traces/<workload>-seed<n>.trace.json` (Chrome trace-event
//! JSON that Perfetto opens) and `.spans.json` (name, request, parent,
//! start and end of every span). A layer's self time is its span's
//! duration minus the union of its children's intervals.

use crate::stats::{self, Tally};
use crate::workloads::{self, check_setup, setup, BaseRefs, LocalDaemon, Reply, State, LANES};
use crate::{host_probe_ms, nproc, Args, Metric};
use osoffload_core::{AState, CamPredictor, RunLengthPredictor};
use osoffload_cpu::Tlb;
use osoffload_mem::{Access, AccessKind, CoreId, MemorySystem};
use osoffload_obs::{atomic_write, chrome_trace, Event, EventKind, MetricsRegistry, Track};
use osoffload_runner::journal::restore_from_stable;
use osoffload_runner::jsonv::{self, Value};
use osoffload_runner::report::write_sweep;
use osoffload_runner::{
    run_plan_hooked, ExecHooks, ExperimentPlan, PointResult, RunnerOptions, SweepResult,
};
use osoffload_serve::{client, wire, ResultCache};
use osoffload_sim::Cycle;
use osoffload_system::{
    tape_compatible, LaneStepper, OsCorePool, PolicyKind, Simulation, SystemConfig, TapeRegistry,
};
use osoffload_workload::{InstrSpec, Segment, TapedInstr, ThreadWorkload};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Rows inserted into a fresh cache to time `ResultCache::insert`.
const INSERTS: usize = 16;

/// Memory-system accesses replayed for `mem.access_ns`.
const MEM_REPLAY: usize = 1_500_000;

/// One recorded span.
struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start: u64,
    end: u64,
}

/// In-memory span recorder; timestamps are nanoseconds since creation.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    fn enter(&mut self, name: &'static str, req: u64) -> usize {
        let start = self.at(Instant::now());
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    fn exit(&mut self, id: usize) {
        let end = self.at(Instant::now());
        self.spans[id].end = end;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
    }

    /// Runs `f` inside a span.
    fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    /// Runs `f` inside a span; returns its result and the span's length
    /// in nanoseconds.
    fn span_ns<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        (out, self.dur_ns(id) as f64)
    }

    /// Records a finished span measured elsewhere (another thread) as a
    /// child of `parent`.
    fn add(&mut self, name: &'static str, parent: usize, start: Instant, end: Instant) {
        let (start, end) = (self.at(start), self.at(end));
        let req = self.spans[parent].req;
        self.spans.push(Span {
            name,
            req,
            parent: Some(parent),
            start,
            end,
        });
    }

    /// Whether span `id` lies under span `root`.
    fn descends(&self, mut id: usize, root: usize) -> bool {
        while let Some(parent) = self.spans[id].parent {
            if parent == root {
                return true;
            }
            id = parent;
        }
        false
    }

    fn dur_ns(&self, id: usize) -> u64 {
        self.spans[id].end - self.spans[id].start
    }

    fn self_ns(&self, id: usize) -> u64 {
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .collect();
        stats::self_time((self.spans[id].start, self.spans[id].end), &children)
    }

    /// Total duration of every span named `name`, in nanoseconds.
    fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Writes the Chrome trace (one track per request id) and the raw
    /// span list next to each other.
    fn write(&self, base: &Path) -> std::io::Result<()> {
        let events: Vec<Event> = self
            .spans
            .iter()
            .map(|s| Event {
                ts: s.start / 1_000,
                dur: ((s.end - s.start) / 1_000).max(1),
                track: Track::Worker(s.req as usize),
                kind: EventKind::Task {
                    name: s.name.to_string(),
                    ok: true,
                },
            })
            .collect();
        atomic_write(
            &base.with_extension("trace.json"),
            chrome_trace(&events, None, &[]).as_bytes(),
        )?;
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.name,
                    s.req,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.start,
                    s.end
                )
            })
            .collect();
        atomic_write(
            &base.with_extension("spans.json"),
            format!("[{}]\n", rows.join(",\n")).as_bytes(),
        )
    }
}

/// The runner's lane packs for `plan`: points grouped by workload shape
/// in plan order, each group chunked into packs of [`LANES`].
fn lane_groups(plan: &ExperimentPlan) -> Vec<Vec<Vec<usize>>> {
    let points = plan.points();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for p in points {
        match groups
            .iter_mut()
            .find(|g| tape_compatible(&points[g[0]].config, &p.config))
        {
            Some(g) => g.push(p.index),
            None => groups.push(vec![p.index]),
        }
    }
    groups
        .into_iter()
        .map(|g| g.chunks(LANES).map(<[usize]>::to_vec).collect())
        .collect()
}

fn budget(cfg: &SystemConfig) -> u64 {
    cfg.warmup + cfg.instructions
}

/// Lane-engine costs of the packs re-enacted.
#[derive(Default)]
struct LaneCost {
    tape_ns: f64,
    lanes_ns: f64,
    lane_instr: u64,
    tape_bytes: u64,
    used_specs: u64,
    tape_specs: u64,
    /// Per sampled pack: member indices and lane time with the group's
    /// tape build amortised over its points.
    sampled: Vec<(Vec<usize>, f64)>,
}

/// Re-enacts the runner's lane packs single-threaded: per shape group,
/// `TapeRegistry::tape_for` plus `extend_to` the depth the stepper
/// requests (`workload.tape_build`), then each pack's
/// `LaneStepper::with_registry(..).run()` (`system.lanes`). Runs at most
/// `max_packs` packs; the first pack of each group is also returned as
/// a sample for the scalar comparison, up to `samples`.
fn lanes_reenact(
    tr: &mut Tracer,
    req: u64,
    plan: &ExperimentPlan,
    max_packs: usize,
    samples: usize,
) -> LaneCost {
    let points = plan.points();
    let mut cost = LaneCost::default();
    let mut packs_run = 0;
    for group in lane_groups(plan) {
        if packs_run >= max_packs {
            break;
        }
        let rep = &points[group[0][0]].config;
        let depth = budget(rep) as usize;
        let mut registry = TapeRegistry::new();
        let (tape, tape_ns) = tr.span_ns("workload.tape_build", req, || {
            let tape = registry.tape_for(rep);
            {
                let mut tape = tape.borrow_mut();
                for th in 0..tape.thread_count() {
                    tape.extend_to(th, depth);
                }
            }
            tape
        });
        cost.tape_ns += tape_ns;
        let group_points: usize = group.iter().map(Vec::len).sum();
        for (i, pack) in group.iter().enumerate() {
            if packs_run >= max_packs {
                break;
            }
            packs_run += 1;
            let configs: Vec<SystemConfig> =
                pack.iter().map(|&p| points[p].config.clone()).collect();
            let (reports, ns) = tr.span_ns("system.lanes", req, || {
                LaneStepper::with_registry(configs, &mut registry)
                    .expect("plan configurations are valid")
                    .run()
            });
            cost.lanes_ns += ns;
            cost.lane_instr += pack.iter().map(|&p| budget(&points[p].config)).sum::<u64>();
            std::hint::black_box(reports);
            if i == 0 && cost.sampled.len() < samples {
                let amortised = tape_ns * pack.len() as f64 / group_points as f64;
                cost.sampled.push((pack.clone(), ns + amortised));
            }
        }
        let tape = tape.borrow();
        let specs: u64 = (0..tape.thread_count())
            .map(|th| tape.spec_len(th) as u64)
            .sum();
        cost.tape_specs += specs;
        cost.tape_bytes += specs * std::mem::size_of::<TapedInstr>() as u64;
        cost.used_specs += depth as u64;
    }
    cost
}

/// Single-layer replays of one sampled point.
#[derive(Default)]
struct Micro {
    gen_ns: f64,
    gen_instr: f64,
    data_refs: f64,
    tlb_ns: f64,
    mem_ns: f64,
    mem_ops: f64,
    predict_ns: f64,
    entries: f64,
    dispatch_ns: f64,
    offloads: f64,
    /// From the point's report: (l1d + l1i + l2) accesses, l1 accesses,
    /// OS entries and off-loads per measured instruction.
    accesses_per_instr: f64,
    l1_per_instr: f64,
    entries_per_instr: f64,
    offloads_per_instr: f64,
}

/// The point the single-layer replays use: the off-loading point with
/// the most cores, then the lowest threshold, first in plan order.
fn sample_point(plan: &ExperimentPlan) -> &SystemConfig {
    let key = |c: &SystemConfig| {
        let threshold = match c.policy {
            PolicyKind::HardwarePredictor { threshold } => threshold,
            _ => u64::MAX,
        };
        (std::cmp::Reverse(c.total_cores()), threshold)
    };
    plan.points()
        .iter()
        .map(|p| &p.config)
        .filter(|c| !c.policy.is_baseline())
        .min_by_key(|c| key(c))
        .unwrap_or(&plan.points()[0].config)
}

/// Replays one point through each single-layer model on its own
/// reference stream.
fn micro(tr: &mut Tracer, req: u64, cfg: &SystemConfig) -> Micro {
    let mut m = Micro::default();
    let threads = cfg.thread_count();
    let quota = budget(cfg) / threads as u64;
    // Workload generator: each thread's stream, segment by segment and
    // instruction by instruction, kept as the memory accesses it makes.
    let (streams, ns) = tr.span_ns("workload.gen", req, || {
        (0..threads)
            .map(|th| {
                let seed = workloads::derive_seed(cfg.seed, th as u64);
                let mut wl = ThreadWorkload::new(cfg.profile.clone(), th, seed);
                let mut accesses = Vec::with_capacity(quota as usize * 3 / 2);
                let mut keep = |spec: InstrSpec| {
                    accesses.push(Access::fetch(spec.pc.into()));
                    if let Some(mem) = spec.mem {
                        accesses.push(if mem.write {
                            Access::write(mem.addr.into())
                        } else {
                            Access::read(mem.addr.into())
                        });
                    }
                };
                while wl.generated() < quota {
                    match wl.next_segment() {
                        Segment::User { len } => (0..len).for_each(|_| keep(wl.user_instr())),
                        Segment::Os(inv) => {
                            (0..inv.actual_len).for_each(|j| keep(wl.os_instr(&inv, j)))
                        }
                    }
                }
                accesses
            })
            .collect::<Vec<Vec<Access>>>()
    });
    m.gen_ns = ns;
    let total: usize = streams.iter().map(Vec::len).sum();
    m.gen_instr = streams
        .iter()
        .flatten()
        .filter(|a| a.kind == AccessKind::Fetch)
        .count() as f64;
    m.data_refs = total as f64 - m.gen_instr;

    // TLB: one per thread, on its data addresses.
    ((), m.tlb_ns) = tr.span_ns("cpu.tlb", req, || {
        for stream in &streams {
            let mut tlb = Tlb::paper_default();
            let mut added = Cycle::ZERO;
            for a in stream.iter().filter(|a| a.kind != AccessKind::Fetch) {
                added += tlb.translate(a.addr.as_u64());
            }
            std::hint::black_box(added);
        }
    });

    // Memory system at the point's core count: threads interleaved in
    // chunks of 256 accesses, each on its user core.
    let tpc = cfg.profile.threads_per_core.max(1);
    let mut mem = MemorySystem::new(cfg.mem_config());
    (m.mem_ops, m.mem_ns) = tr.span_ns("mem.access", req, || {
        let mut pos = vec![0usize; threads];
        let mut ops = 0;
        while ops < MEM_REPLAY {
            let before = ops;
            for (th, stream) in streams.iter().enumerate() {
                let chunk = &stream[pos[th]..(pos[th] + 256).min(stream.len())];
                for &a in chunk {
                    std::hint::black_box(mem.access(CoreId::new(th / tpc), a));
                }
                pos[th] += chunk.len();
                ops += chunk.len();
            }
            if ops == before {
                break;
            }
        }
        ops as f64
    });
    drop(streams);

    // Predictor and OS-core pool: replay the point's invocation trace.
    let mut traced = cfg.clone();
    traced.trace_capacity = 1 << 22;
    let (report, trace) = Simulation::new(traced).run_traced();
    let records: Vec<_> = trace.iter().cloned().collect();
    ((), m.predict_ns) = tr.span_ns("core.predict", req, || {
        let mut predictor = CamPredictor::paper_default();
        for r in &records {
            let astate = AState::from_registers([r.astate, 0, 0, 0, 0]);
            let prediction = predictor.predict(astate);
            predictor.learn(astate, prediction, r.actual_len);
        }
        std::hint::black_box(predictor.resident());
    });
    m.entries = records.len() as f64;
    let mut offloaded: Vec<_> = records.iter().filter(|r| r.offloaded).collect();
    if offloaded.is_empty() {
        offloaded = records.iter().collect();
    }
    offloaded.sort_by_key(|r| r.entry_cycle);
    ((), m.dispatch_ns) = tr.span_ns("system.dispatch", req, || {
        let mut pool = OsCorePool::new(
            cfg.os_cores.max(1),
            cfg.os_core_contexts,
            cfg.dispatch,
            cfg.os_cold_penalty,
        );
        for r in &offloaded {
            let d = pool.dispatch(Cycle::new(r.entry_cycle), r.thread / tpc, r.astate);
            pool.release(d.token, d.start + Cycle::new(r.actual_len));
        }
        std::hint::black_box(pool.requests());
    });
    m.offloads = offloaded.len() as f64;

    let instr = report.instructions.max(1) as f64;
    m.accesses_per_instr =
        (report.l1d_accesses + report.l1i_accesses + report.l2_accesses) as f64 / instr;
    m.l1_per_instr = (report.l1d_accesses + report.l1i_accesses) as f64 / instr;
    m.entries_per_instr = (report.offloads + report.local_invocations) as f64 / instr;
    m.offloads_per_instr = report.offloads as f64 / instr;
    m
}

/// What an in-process re-enactment of one submit produced.
struct ServeReenact {
    root: usize,
    sweep: SweepResult,
    plan: ExperimentPlan,
    line_bytes: usize,
    points: usize,
    hits: usize,
}

/// A metrics registry shaped like the daemon's, holding `samples`
/// epoch samples (the daemon appends one per submission).
fn daemon_registry(samples: u64) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    let mut ids = Vec::new();
    for name in [
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.evictions",
        "serve.submissions",
        "serve.queue.shed",
        "serve.drain.refused",
    ] {
        ids.push(reg.register_counter(name));
    }
    for name in ["serve.cache.entries", "serve.queue.depth"] {
        ids.push(reg.register_gauge(name));
    }
    for epoch in 0..samples {
        for (i, &id) in ids.iter().enumerate() {
            reg.set(id, (epoch * (i as u64 + 1)) as f64);
        }
        reg.commit_sample(epoch, 0, 0);
    }
    reg
}

/// Re-enacts one submit of `line` in process, on a copy of the WAL at
/// `wal`: the daemon's parse, wire lowering, cache serve, hooked
/// `run_plan` (fresh rows inserted into the cache), archive write and
/// metrics export, each in its span under a `reenact` root.
fn serve_reenact(
    tr: &mut Tracer,
    req: u64,
    wal: &Path,
    work: &Path,
    line: &str,
    samples: u64,
) -> Result<ServeReenact, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let copy = work.join("cache.wal");
    std::fs::copy(wal, &copy).map_err(|e| format!("cannot copy the cache WAL: {e}"))?;
    let cache = tr.span("serve.cache_open", req, || ResultCache::open(&copy, 0))?;
    let registry = daemon_registry(samples);
    let root = tr.enter("reenact", req);
    let request = tr.span("runner.json_parse", req, || jsonv::parse(line.trim_end()))?;
    let lowered = tr.span("serve.wire_decode", req, || -> Result<_, String> {
        let raw = request
            .get("points")
            .and_then(Value::as_arr)
            .ok_or("submit without points")?;
        raw.iter()
            .map(|p| {
                let id = p
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or("point without id")?;
                let cfg = wire::config_from_json(p.get("config").ok_or("point without config")?)?;
                let text = wire::config_to_json(&cfg)?;
                Ok((id.to_string(), wire::digest(&cfg), text, cfg))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let name = request
        .get("experiment")
        .and_then(Value::as_str)
        .unwrap_or("reenact");
    let seed = request
        .get("master_seed")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let (plan, prefill) = tr.span("serve.cache_serve", req, || {
        let mut plan = ExperimentPlan::new(name, seed);
        let prefill: Vec<Option<PointResult>> = lowered
            .iter()
            .map(|(id, digest, text, cfg)| {
                let index = plan.push_pinned(id.clone(), cfg.clone());
                cache.serve(digest, text, index, id, cfg.seed)
            })
            .collect();
        (plan, prefill)
    });
    let hits = prefill.iter().filter(|p| p.is_some()).count();
    let cache = Mutex::new(cache);
    let inserts = Mutex::new(Vec::new());
    let run = tr.enter("runner.run_plan", req);
    let on_point = |row: &PointResult, cached: bool| {
        if !cached {
            let t = Instant::now();
            let done = cache
                .lock()
                .expect("cache lock")
                .insert(&lowered[row.index].2, row);
            inserts
                .lock()
                .expect("insert log")
                .push((t, Instant::now()));
            if let Err(why) = done {
                eprintln!("perfbench: re-enacted insert failed: {why}");
            }
        }
    };
    let opts = RunnerOptions {
        quiet: true,
        out_dir: work.to_path_buf(),
        ..RunnerOptions::default()
    };
    let mut sweep = run_plan_hooked(
        &plan,
        &opts,
        ExecHooks {
            prefill,
            on_point: Some(&on_point),
        },
    );
    tr.exit(run);
    for (start, end) in inserts.into_inner().expect("insert log") {
        tr.add("serve.cache_insert", run, start, end);
    }
    let mut canonical = sweep.rows.clone();
    for row in &mut canonical {
        row.wall_ms = 0.0;
        row.start_ms = 0.0;
        row.worker = 0;
        row.attempts = 1;
        row.attempt_ms = vec![0.0];
        row.injected_faults = 0;
    }
    std::mem::swap(&mut sweep.rows, &mut canonical);
    let archived = tr.span("runner.archive", req, || write_sweep(&sweep, work));
    std::mem::swap(&mut sweep.rows, &mut canonical);
    archived.map_err(|e| format!("archive write: {e}"))?;
    tr.span("obs.metrics_export", req, || {
        atomic_write(
            &work.join("serve-metrics.csv"),
            registry.to_csv().as_bytes(),
        )
        .and_then(|()| {
            atomic_write(
                &work.join("serve-metrics.json"),
                registry.to_json().as_bytes(),
            )
        })
    })
    .map_err(|e| format!("metrics export: {e}"))?;
    tr.exit(root);
    Ok(ServeReenact {
        root,
        points: plan.len(),
        sweep,
        plan,
        line_bytes: line.len(),
        hits,
    })
}

/// An empty cache in a fresh directory `dir`.
fn fresh_cache(dir: &Path) -> Result<ResultCache, String> {
    let _ = std::fs::remove_dir_all(dir);
    ResultCache::open(&dir.join("cache.wal"), 0)
}

/// Inserts `rows` into `cache`, as the daemon caches fresh rows.
fn fill_cache(
    cache: &mut ResultCache,
    plan: &ExperimentPlan,
    rows: &[PointResult],
) -> Result<(), String> {
    for row in rows {
        let config = wire::config_to_json(&plan.points()[row.index].config)?;
        cache.insert(&config, row)?;
    }
    Ok(())
}

/// Times `ResultCache::insert` (WAL append + fsync) of up to
/// [`INSERTS`] rows into a fresh cache at `dir`; returns ms per insert.
fn time_inserts(
    tr: &mut Tracer,
    req: u64,
    dir: &Path,
    plan: &ExperimentPlan,
    rows: &[PointResult],
) -> Result<f64, String> {
    let rows = &rows[..rows.len().min(INSERTS)];
    let mut cache = fresh_cache(dir)?;
    let (filled, ns) = tr.span_ns("serve.cache_insert", req, || {
        fill_cache(&mut cache, plan, rows)
    });
    filled?;
    Ok(ns / 1e6 / rows.len().max(1) as f64)
}

/// The per-layer metric list, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("workload.gen_ns_per_instr", "ns"),
    ("workload.tape_build_ms", "ms"),
    ("workload.tape_mb", "MB"),
    ("workload.tape_used_ratio", "1"),
    ("core.predict_ns", "ns"),
    ("cpu.tlb_ns", "ns"),
    ("mem.access_ns", "ns"),
    ("mem.accesses_per_instr", "count"),
    ("system.sim_ns_per_instr", "ns"),
    ("system.lanes_ns_per_instr", "ns"),
    ("system.lanes_speedup", "1"),
    ("system.dispatch_ns", "ns"),
    ("system.unattributed_ns_per_instr", "ns"),
    ("runner.parallel_efficiency", "1"),
    ("runner.idle_ms", "ms"),
    ("runner.prefill_ms", "ms"),
    ("runner.archive_ms", "ms"),
    ("runner.json_parse_ms", "ms"),
    ("runner.json_parse_ns_per_byte", "ns"),
    ("serve.wire_decode_us", "us"),
    ("serve.cache_serve_us", "us"),
    ("serve.cache_insert_ms", "ms"),
    ("serve.cache_open_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("obs.atomic_write_ms", "ms"),
    ("obs.metrics_export_ms", "ms"),
    ("bench.trace_overhead", "1"),
    ("bench.host_probe_ms", "ms"),
    ("bench.host_probe_drift", "1"),
    ("bench.reconcile_request_ms", "ms"),
    ("bench.reconcile_layers_ms", "ms"),
    ("bench.reconcile_remainder_ms", "ms"),
];

/// The traced run. Returns the tally, the per-layer metrics and the run
/// facts.
pub fn traced_run(
    args: &Args,
    dir: &Path,
    root: &Path,
    probe_start: f64,
) -> (Tally, Vec<Metric>, String) {
    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let mut refs = BaseRefs::default();
    let sid = tr.enter("setup", 0);
    let built = setup(args.kind, args.seed, &dir.join("setup"));
    tr.exit(sid);
    let (state, reply) = match built {
        Ok(built) => built,
        Err(why) => {
            tally.record("setup", Err(why));
            return (tally, Vec::new(), "{}".into());
        }
    };
    tally.record("setup", check_setup(&state, &reply, &mut refs, 1));
    drop(reply);

    // Closed loop, every other request traced.
    let budget_ns = (args.seconds * 1e9) as u64;
    let (mut busy, mut k) = (0u64, 0u64);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last: Option<(usize, Reply)> = None;
    while busy < budget_ns || plain.is_empty() || traced.is_empty() {
        let t = Instant::now();
        let (reply, span) = if k % 2 == 1 {
            let id = tr.enter("request", k);
            let reply = state.request(k);
            tr.exit(id);
            (reply, Some(id))
        } else {
            (state.request(k), None)
        };
        let ns = t.elapsed().as_nanos() as u64;
        busy += ns;
        tally.record(&format!("{k}"), state.check(k, &reply, &mut refs));
        match span {
            Some(id) => {
                traced.push(ns as f64 / 1e6);
                last = Some((id, reply));
            }
            None => plain.push(ns as f64 / 1e6),
        }
        k += 1;
    }
    let (last_span, last_reply) = last.expect("one traced request");
    let work = dir.join("ledger");
    let mut metrics = Ledger::default();
    let outcome = match &state {
        State::Sweep { plan, .. } => {
            let Reply::Sweep(sweep, _) = &last_reply else {
                unreachable!("sweep workloads reply with sweeps")
            };
            ledger_sweep(
                &mut tr,
                &mut tally,
                &mut metrics,
                plan,
                sweep,
                last_span,
                &work,
                k,
            )
        }
        State::Warm { daemon, line, .. } => ledger_serve(
            &mut tr,
            &mut tally,
            &mut refs,
            &mut metrics,
            &state,
            daemon,
            line,
            k,
            &work,
        ),
        State::Mixed { daemon, gen } => {
            client::submit_request_line(&gen.request(k).0).and_then(|line| {
                ledger_serve(
                    &mut tr,
                    &mut tally,
                    &mut refs,
                    &mut metrics,
                    &state,
                    daemon,
                    &line,
                    k,
                    &work,
                )
            })
        }
    };
    if let Err(why) = outcome {
        tally.record("ledger", Err(why));
    }
    let probe_end = host_probe_ms();
    metrics.set(
        "bench.trace_overhead",
        stats::median(&traced).unwrap_or(0.0) / stats::median(&plain).unwrap_or(1.0) - 1.0,
    );
    metrics.set("bench.host_probe_ms", probe_start);
    metrics.set("bench.host_probe_drift", probe_end / probe_start - 1.0);
    let points = state.points_per_request();
    if let Err(why) = state.teardown() {
        eprintln!("perfbench: teardown: {why}");
    }
    let traces = root.join("traces");
    let base = traces.join(format!("{}-seed{}", args.kind.name(), args.seed));
    if let Err(e) = std::fs::create_dir_all(&traces).and_then(|()| tr.write(&base)) {
        eprintln!("perfbench: cannot write spans: {e}");
    }
    let facts = crate::facts(
        args,
        points,
        &[
            ("requests", k.to_string()),
            ("traced_requests", traced.len().to_string()),
            ("spans", tr.spans.len().to_string()),
            (
                "trace_file",
                format!("\"{}\"", base.with_extension("trace.json").display()),
            ),
            (
                "hit_ratio",
                metrics
                    .hit_ratio
                    .map_or("null".to_string(), |h| h.to_string()),
            ),
            ("host_probe_ms_start", probe_start.to_string()),
            ("host_probe_ms_end", probe_end.to_string()),
        ],
    );
    (tally, metrics.into_metrics(), facts)
}

/// Per-layer values gathered so far.
#[derive(Default)]
struct Ledger {
    values: BTreeMap<&'static str, f64>,
    hit_ratio: Option<f64>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Every metric of [`PER_LAYER`]; one the run did not reach (it
    /// failed first, and says so in its tally) reads 0.
    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.values.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }

    /// Compute-layer metrics shared by every workload: lane engine,
    /// scalar sample, single-layer replays and the unattributed gap.
    fn compute(&mut self, tr: &mut Tracer, req: u64, plan: &ExperimentPlan, lanes: &LaneCost) {
        let points = plan.points();
        let (mut scalar_ns, mut scalar_instr, mut lane_ns) = (0.0, 0u64, 0.0);
        for (pack, ns) in &lanes.sampled {
            for &p in pack {
                let cfg = points[p].config.clone();
                let (report, ns) = tr.span_ns("system.sim", req, || Simulation::new(cfg).run());
                std::hint::black_box(report);
                scalar_ns += ns;
                scalar_instr += budget(&points[p].config);
            }
            lane_ns += ns;
        }
        let sim_ns = scalar_ns / scalar_instr.max(1) as f64;
        self.set("system.sim_ns_per_instr", sim_ns);
        self.set("system.lanes_speedup", scalar_ns / lane_ns.max(1.0));
        self.set(
            "system.lanes_ns_per_instr",
            (lanes.lanes_ns + lanes.tape_ns) / lanes.lane_instr.max(1) as f64,
        );
        self.set("workload.tape_build_ms", lanes.tape_ns / 1e6);
        self.set(
            "workload.tape_mb",
            lanes.tape_bytes as f64 / (1024.0 * 1024.0),
        );
        self.set(
            "workload.tape_used_ratio",
            lanes.used_specs as f64 / lanes.tape_specs.max(1) as f64,
        );
        let m = micro(tr, req, sample_point(plan));
        let per = |ns: f64, ops: f64| ns / ops.max(1.0);
        let gen = per(m.gen_ns, m.gen_instr);
        let tlb = per(m.tlb_ns, m.data_refs);
        let mem = per(m.mem_ns, m.mem_ops);
        let predict = per(m.predict_ns, m.entries);
        let dispatch = per(m.dispatch_ns, m.offloads);
        self.set("workload.gen_ns_per_instr", gen);
        self.set("cpu.tlb_ns", tlb);
        self.set("mem.access_ns", mem);
        self.set("core.predict_ns", predict);
        self.set("system.dispatch_ns", dispatch);
        self.set("mem.accesses_per_instr", m.accesses_per_instr);
        let attributed = gen
            + tlb * m.data_refs / m.gen_instr.max(1.0)
            + mem * m.l1_per_instr
            + predict * m.entries_per_instr
            + dispatch * m.offloads_per_instr;
        self.set("system.unattributed_ns_per_instr", sim_ns - attributed);
    }

    /// Runner and obs metrics on a finished sweep of `plan`.
    fn runner_obs(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        plan: &ExperimentPlan,
        rows: &[PointResult],
        dir: &Path,
    ) -> Result<(), String> {
        let prefill: Vec<Option<PointResult>> = rows
            .iter()
            .map(|r| restore_from_stable(&r.stable_json()))
            .collect();
        let opts = RunnerOptions {
            quiet: true,
            canonical: true,
            out_dir: dir.to_path_buf(),
            ..RunnerOptions::default()
        };
        let (sweep, ns) = tr.span_ns("runner.prefill", req, || {
            run_plan_hooked(
                plan,
                &opts,
                ExecHooks {
                    prefill,
                    on_point: None,
                },
            )
        });
        self.set("runner.prefill_ms", ns / 1e6);
        let bytes = sweep.to_json().into_bytes();
        let mut times = Vec::new();
        for i in 0..5 {
            let path = dir.join(format!("atomic{i}.json"));
            let (written, ns) = tr.span_ns("obs.atomic_write", req, || atomic_write(&path, &bytes));
            written.map_err(|e| format!("atomic write: {e}"))?;
            times.push(ns / 1e6);
        }
        self.set("obs.atomic_write_ms", stats::median(&times).unwrap_or(0.0));
        Ok(())
    }

    /// Serve-layer metrics from a re-enactment and the client round
    /// trip of the same request.
    fn serve(&mut self, tr: &Tracer, re: &ServeReenact, rtt_ms: f64) {
        let ms = |name: &str| tr.total_ns(name) as f64 / 1e6;
        self.set("serve.cache_open_ms", ms("serve.cache_open"));
        self.set("runner.json_parse_ms", ms("runner.json_parse"));
        self.set(
            "runner.json_parse_ns_per_byte",
            ms("runner.json_parse") * 1e6 / re.line_bytes.max(1) as f64,
        );
        self.set(
            "serve.wire_decode_us",
            ms("serve.wire_decode") * 1e3 / re.points.max(1) as f64,
        );
        self.set(
            "serve.cache_serve_us",
            ms("serve.cache_serve") * 1e3 / re.points.max(1) as f64,
        );
        self.set("obs.metrics_export_ms", ms("obs.metrics_export"));
        self.set(
            "serve.transport_ms",
            rtt_ms - tr.dur_ns(re.root) as f64 / 1e6,
        );
        self.hit_ratio = Some(re.hits as f64 / re.points.max(1) as f64);
    }

    /// The reconciliation row: the measured request against the sum of
    /// the self time of every span under the re-enactment's `root`.
    /// Spans listed in `parallel` ran on the runner's workers in the
    /// request and single-threaded in the re-enactment, so they count
    /// divided by the worker count.
    fn reconcile(
        &mut self,
        tr: &Tracer,
        request: usize,
        root: usize,
        parallel: &[&str],
        workers: f64,
    ) {
        let request_ms = tr.dur_ns(request) as f64 / 1e6;
        let layers_ms: f64 = (0..tr.spans.len())
            .filter(|&i| i != root && tr.descends(i, root))
            .map(|i| {
                let ms = tr.self_ns(i) as f64 / 1e6;
                if parallel.contains(&tr.spans[i].name) {
                    ms / workers
                } else {
                    ms
                }
            })
            .sum();
        self.set("bench.reconcile_request_ms", request_ms);
        self.set("bench.reconcile_layers_ms", layers_ms);
        self.set("bench.reconcile_remainder_ms", request_ms - layers_ms);
    }
}

/// The ledger of a sweep workload. The re-enacted request is the last
/// traced one; its compute is every lane pack, re-run single-threaded.
/// Serve-layer metrics come from a warm submission of the same plan to
/// a daemon whose cache holds the sweep's rows.
#[allow(clippy::too_many_arguments)]
fn ledger_sweep(
    tr: &mut Tracer,
    tally: &mut Tally,
    led: &mut Ledger,
    plan: &ExperimentPlan,
    sweep: &SweepResult,
    request: usize,
    work: &Path,
    next: u64,
) -> Result<(), String> {
    let req = tr.spans[request].req;
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let root = tr.enter("reenact", req);
    let lanes = lanes_reenact(tr, req, plan, usize::MAX, 4);
    let archived = tr.span("runner.archive", req, || write_sweep(sweep, work));
    tr.exit(root);
    archived.map_err(|e| format!("archive write: {e}"))?;
    led.set(
        "runner.archive_ms",
        tr.total_ns("runner.archive") as f64 / 1e6,
    );
    let workers = nproc().min(plan.len()) as f64;
    let wall_ms = tr.dur_ns(request) as f64 / 1e6;
    let compute_ms = (lanes.lanes_ns + lanes.tape_ns) / 1e6;
    led.set(
        "runner.parallel_efficiency",
        compute_ms / (wall_ms * workers),
    );
    led.set("runner.idle_ms", wall_ms * workers - compute_ms);
    led.reconcile(
        tr,
        request,
        root,
        &["workload.tape_build", "system.lanes"],
        workers,
    );
    led.compute(tr, req, plan, &lanes);
    led.runner_obs(tr, req, plan, &sweep.rows, work)?;
    led.set(
        "serve.cache_insert_ms",
        time_inserts(tr, req, &work.join("inserts"), plan, &sweep.rows)?,
    );

    // Warm submission of the sweep's plan through a daemon.
    let probe = work.join("probe");
    fill_cache(&mut fresh_cache(&probe)?, plan, &sweep.rows)?;
    let daemon = LocalDaemon::start(&probe)?;
    let line = client::submit_request_line(plan)?;
    let re = serve_reenact(
        tr,
        next,
        &probe.join("cache.wal"),
        &work.join("probe-reenact"),
        &line,
        next + 1,
    )?;
    let id = tr.enter("request", next);
    let (reply, events) = daemon.submit(&line);
    tr.exit(id);
    // Points whose digests collide (the archive-side config omits the
    // topology) are recomputed rather than served, so the hit count is
    // not fixed here; the archive must still equal the sweep's.
    let verdict = match &reply {
        Ok(o) if o.failed == 0 => workloads::read_archive(Path::new(&o.archive)).and_then(|a| {
            let reference = sweep.to_json();
            (a == reference)
                .then_some(())
                .ok_or_else(|| "served archive differs from the sweep's".to_string())
        }),
        Ok(o) => Err(format!("{} points failed", o.failed)),
        Err(e) => Err(e.to_string()),
    };
    tally.record("serve-probe", verdict);
    drop(events);
    led.serve(tr, &re, tr.dur_ns(id) as f64 / 1e6);
    daemon.stop()
}

/// The ledger of a serve workload: re-enact request `k` on a copy of
/// the daemon's WAL, then send the same request to the daemon.
#[allow(clippy::too_many_arguments)]
fn ledger_serve(
    tr: &mut Tracer,
    tally: &mut Tally,
    refs: &mut BaseRefs,
    led: &mut Ledger,
    state: &State,
    daemon: &LocalDaemon,
    line: &str,
    k: u64,
    work: &Path,
) -> Result<(), String> {
    // The daemon appended one metrics sample per submission so far:
    // the set-up fill plus `k` requests, and this one.
    let re = serve_reenact(tr, k, &daemon.dir.join("cache.wal"), work, line, k + 2)?;
    let id = tr.enter("request", k);
    let reply = state.request(k);
    tr.exit(id);
    tally.record(&format!("{k}"), state.check(k, &reply, refs));
    led.serve(tr, &re, tr.dur_ns(id) as f64 / 1e6);
    led.set(
        "runner.archive_ms",
        tr.total_ns("runner.archive") as f64 / 1e6,
    );
    let run = tr
        .spans
        .iter()
        .position(|s| s.name == "runner.run_plan" && s.req == k)
        .expect("re-enactment ran the plan");
    let run_ms = tr.dur_ns(run) as f64 / 1e6;
    let workers = nproc().min(re.points) as f64;
    let compute_ms: f64 = re.sweep.rows.iter().map(|r| r.wall_ms).sum();
    led.set(
        "runner.parallel_efficiency",
        compute_ms / (run_ms * workers),
    );
    led.set("runner.idle_ms", run_ms * workers - compute_ms);
    led.reconcile(tr, id, re.root, &[], workers);
    let lanes = lanes_reenact(tr, k, &re.plan, 1, 1);
    led.compute(tr, k, &re.plan, &lanes);
    led.runner_obs(tr, k, &re.plan, &re.sweep.rows, work)?;
    led.set(
        "serve.cache_insert_ms",
        time_inserts(tr, k, &work.join("inserts"), &re.plan, &re.sweep.rows)?,
    );
    Ok(())
}
