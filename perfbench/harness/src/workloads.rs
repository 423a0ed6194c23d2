//! The four closed-loop workloads: how each builds its inputs from the
//! seed, sets up, sends one request, and checks the reply against a
//! reference the timed path did not produce.

use osoffload_runner::journal::{rekey_stable, restore_from_stable};
use osoffload_runner::jsonv::{self, Value};
use osoffload_runner::report::{config_json, write_sweep};
use osoffload_runner::{
    record_plan, run_plan, ExperimentPlan, Outcome, PointResult, RunnerOptions, SweepResult,
};
use osoffload_serve::client::{self, SubmitError, SubmitOutcome};
use osoffload_serve::daemon::{Daemon, ServeOptions};
use osoffload_serve::wire;
use osoffload_system::experiments::{
    fig4_grid_with, fig6_scalability_grid_with, single_config, workload_groups, Scale,
    FIG4_LATENCIES, FIG4_THRESHOLDS,
};
use osoffload_system::{DispatchPolicy, PolicyKind, Simulation, SystemConfig};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// The workloads, by their benchmark names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The fig4 quick sweep through `run_plan`.
    SweepFig4,
    /// The 32-point fig6 sub-grid through `run_plan`.
    SweepFig6,
    /// Warm resubmission of the fig4 quick plan to the serve daemon.
    ServeWarm,
    /// 16-point serve submissions, 12 cached and 4 new points each.
    ServeMixed,
}

impl Kind {
    /// Every workload, in benchmark order.
    pub const ALL: [Kind; 4] = [
        Kind::SweepFig4,
        Kind::SweepFig6,
        Kind::ServeWarm,
        Kind::ServeMixed,
    ];

    /// The benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SweepFig4 => "sweep-fig4",
            Kind::SweepFig6 => "sweep-fig6",
            Kind::ServeWarm => "serve-warm",
            Kind::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a benchmark name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Lane-pack width the runner resolves `lanes = 0` (auto) to.
pub const LANES: usize = 4;

/// SplitMix64 of `seed` and `salt`: distinct, well-mixed seeds for each
/// generated input, all determined by the workload seed.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The quick scale with its seed taken from the workload seed.
fn quick(seed: u64) -> Scale {
    Scale {
        seed: derive_seed(seed, 0),
        ..Scale::quick()
    }
}

/// The fig4 quick plan: 124 points, one user and one OS core.
pub fn fig4_plan(seed: u64) -> ExperimentPlan {
    let scale = quick(seed);
    record_plan("fig4", scale.seed, |ev| {
        fig4_grid_with(scale, FIG4_LATENCIES, FIG4_THRESHOLDS, ev)
    })
}

/// The fig6 quick sub-grid: ratios 4:1 and 16:4 × 4 dispatch policies ×
/// 4 workload groups = 32 points.
pub fn fig6_plan(seed: u64) -> ExperimentPlan {
    let scale = quick(seed);
    record_plan("fig6-sub", scale.seed, |ev| {
        fig6_scalability_grid_with(scale, &[(4, 1), (16, 4)], &DispatchPolicy::ALL, ev)
    })
}

/// The serve-mixed input generator: a base set the set-up caches, and
/// per request 12 of those plus 4 configurations with fresh seeds.
#[derive(Debug, Clone)]
pub struct MixedGen {
    seed: u64,
    base: Vec<SystemConfig>,
}

impl MixedGen {
    /// Base configurations cached at set-up.
    pub const BASE: usize = 24;
    /// Cached points per request.
    pub const HITS: usize = 12;
    /// New points per request.
    pub const MISSES: usize = 4;

    /// The generator for workload seed `seed`.
    pub fn new(seed: u64) -> MixedGen {
        let base = (0..Self::BASE)
            .map(|i| Self::config(i, derive_seed(seed, 1_000 + i as u64)))
            .collect();
        MixedGen { seed, base }
    }

    /// A fig4-shaped quick configuration (one user core, the hardware
    /// predictor) of workload group `group` (modulo the group count),
    /// whose threshold, latency and seed follow from `draw`. Cycling
    /// the groups keeps every request's simulation work alike, whatever
    /// the seed.
    fn config(group: usize, draw: u64) -> SystemConfig {
        let groups = workload_groups(Scale::quick());
        let (_, profiles) = &groups[group % groups.len()];
        let threshold = FIG4_THRESHOLDS[((draw >> 8) % FIG4_THRESHOLDS.len() as u64) as usize];
        let latency = FIG4_LATENCIES[((draw >> 16) % FIG4_LATENCIES.len() as u64) as usize];
        let scale = Scale {
            seed: draw >> 24,
            ..Scale::quick()
        };
        single_config(
            profiles[0].clone(),
            PolicyKind::HardwarePredictor { threshold },
            latency,
            1,
            scale,
        )
    }

    /// The base plan the set-up submits cold.
    pub fn base_plan(&self) -> ExperimentPlan {
        let mut plan = ExperimentPlan::new("mixed-base", self.seed);
        for (i, cfg) in self.base.iter().enumerate() {
            plan.push_pinned(format!("base{i:02}"), cfg.clone());
        }
        plan
    }

    /// The base configurations.
    pub fn base(&self) -> &[SystemConfig] {
        &self.base
    }

    /// Request `k`: a 16-point plan in shuffled order, and for each point
    /// whether the base set holds it (`true`) or it is new (`false`).
    /// The new points are one per workload group.
    pub fn request(&self, k: u64) -> (ExperimentPlan, Vec<bool>) {
        let mut draw = derive_seed(self.seed, 2_000_000 + k);
        let mut next = move || {
            draw = derive_seed(draw, 1);
            draw
        };
        // 12 distinct base members by a partial Fisher-Yates shuffle.
        let mut idx: Vec<usize> = (0..Self::BASE).collect();
        for i in 0..Self::HITS {
            let j = i + (next() % (Self::BASE - i) as u64) as usize;
            idx.swap(i, j);
        }
        let mut points: Vec<(SystemConfig, bool)> = idx[..Self::HITS]
            .iter()
            .map(|&i| (self.base[i].clone(), true))
            .collect();
        for j in 0..Self::MISSES {
            let fresh = derive_seed(self.seed, 3_000_000 + k * Self::MISSES as u64 + j as u64);
            points.push((Self::config(j, fresh), false));
        }
        for i in (1..points.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            points.swap(i, j);
        }
        let mut plan = ExperimentPlan::new("mixed", self.seed);
        let cached = points.iter().map(|(_, c)| *c).collect();
        for (i, (cfg, _)) in points.into_iter().enumerate() {
            plan.push_pinned(format!("r{k}-p{i:02}"), cfg);
        }
        (plan, cached)
    }
}

/// The archive row a correct run produces for `cfg` at plan position
/// `index`, computed on the scalar `Simulation::run` path.
pub fn reference_row(index: usize, id: &str, cfg: &SystemConfig) -> PointResult {
    PointResult {
        index,
        id: id.to_string(),
        seed: cfg.seed,
        config_json: config_json(cfg),
        outcome: Outcome::Ok(Box::new(Simulation::new(cfg.clone()).run())),
        wall_ms: 0.0,
        start_ms: 0.0,
        worker: 0,
        attempts: 1,
        attempt_ms: vec![0.0],
        injected_faults: 0,
        restored: None,
    }
}

/// Checks that the archive text holds `expected` as one of its rows.
pub fn check_row(archive: &str, expected: &PointResult) -> Result<(), String> {
    if archive.contains(&expected.row_json()) {
        Ok(())
    } else {
        Err(format!(
            "row {} ({}) differs from the scalar reference",
            expected.index, expected.id
        ))
    }
}

/// Checks a sweep reply: no failed point, archive bytes equal to the
/// reference archive, and point `sample` equal to its scalar reference.
pub fn check_sweep(
    plan: &ExperimentPlan,
    sweep: &SweepResult,
    archive: &str,
    reference: Option<&str>,
    sample: usize,
) -> Result<(), String> {
    if let Some(bad) = sweep.failures().next() {
        return Err(format!("point {} ({}) failed", bad.index, bad.id));
    }
    if let Some(reference) = reference {
        if archive != reference {
            return Err("archive differs from the reference archive".into());
        }
    }
    let p = &plan.points()[sample % plan.len()];
    check_row(archive, &reference_row(p.index, &p.id, &p.config))
}

/// What a serve reply must show.
pub struct ServeExpect<'a> {
    /// Per point: whether it must be served from cache.
    pub cached: &'a [bool],
    /// Per point: the configuration digest its event must carry.
    pub digests: &'a [String],
}

/// Checks a serve reply: a `done` event with the expected totals, one
/// `ok` point event per point with the expected digest and cache flag.
/// A refusal or transport error fails the request.
pub fn check_serve(
    reply: &Result<SubmitOutcome, SubmitError>,
    events: &[String],
    expect: &ServeExpect<'_>,
) -> Result<(), String> {
    let outcome = reply.as_ref().map_err(|e| match e {
        SubmitError::Refused { error, .. } => format!("refused: {error}"),
        SubmitError::Transport(why) => format!("transport error: {why}"),
        SubmitError::Protocol(why) => format!("protocol error: {why}"),
    })?;
    let n = expect.cached.len();
    let hits = expect.cached.iter().filter(|&&c| c).count() as u64;
    if (outcome.points, outcome.hits, outcome.misses, outcome.failed)
        != (n as u64, hits, n as u64 - hits, 0)
    {
        return Err(format!(
            "done event has {} points, {} hits, {} misses, {} failed; expected {n}, {hits}, {}, 0",
            outcome.points,
            outcome.hits,
            outcome.misses,
            outcome.failed,
            n as u64 - hits
        ));
    }
    let mut seen = vec![false; n];
    for line in events {
        let ev = jsonv::parse(line).map_err(|e| format!("bad event line: {e}"))?;
        if ev.get("event").and_then(Value::as_str) != Some("point") {
            continue;
        }
        let index = ev
            .get("index")
            .and_then(Value::as_usize)
            .filter(|&i| i < n)
            .ok_or("point event without a valid index")?;
        if std::mem::replace(&mut seen[index], true) {
            return Err(format!("point {index} reported twice"));
        }
        if ev.get("status").and_then(Value::as_str) != Some("ok") {
            return Err(format!("point {index} did not complete"));
        }
        if ev.get("digest").and_then(Value::as_str) != Some(expect.digests[index].as_str()) {
            return Err(format!("point {index} carries a wrong digest"));
        }
        let cached = matches!(ev.get("cached"), Some(Value::Bool(true)));
        if cached != expect.cached[index] {
            return Err(format!(
                "point {index} served {}, expected {}",
                if cached { "cached" } else { "fresh" },
                if expect.cached[index] {
                    "cached"
                } else {
                    "fresh"
                }
            ));
        }
    }
    match seen.iter().position(|s| !s) {
        Some(missing) => Err(format!("no event for point {missing}")),
        None => Ok(()),
    }
}

/// An in-process serve daemon on an ephemeral loopback port, with its
/// cache and archives in a directory of its own.
pub struct LocalDaemon {
    /// The daemon's directory (cache WAL, archives, metrics).
    pub dir: PathBuf,
    /// The bound port.
    pub port: u16,
    handle: Option<JoinHandle<Result<(), String>>>,
}

impl LocalDaemon {
    /// Binds a daemon on the cache WAL in `dir` (opening it, or creating
    /// an empty one) and starts serving.
    pub fn start(dir: &Path) -> Result<LocalDaemon, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let mut daemon = Daemon::bind(ServeOptions {
            port: 0,
            cache: dir.join("cache.wal"),
            out_dir: dir.join("served"),
            quiet: true,
            ..ServeOptions::default()
        })?;
        let port = daemon.local_addr().port();
        let handle = std::thread::spawn(move || daemon.run());
        Ok(LocalDaemon {
            dir: dir.to_path_buf(),
            port,
            handle: Some(handle),
        })
    }

    /// Submits one request line, collecting its event lines.
    pub fn submit(&self, line: &str) -> (Result<SubmitOutcome, SubmitError>, Vec<String>) {
        let mut events = Vec::new();
        let reply = client::submit_once(self.port, line, |ev| events.push(ev.to_string()));
        (reply, events)
    }

    /// Drains and stops the daemon and waits for its thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let ack = client::stop(self.port);
        let joined = handle
            .join()
            .map_err(|_| "serve daemon panicked".to_string())?;
        ack.and(joined)
    }
}

impl Drop for LocalDaemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Reads an archive written by a request.
pub fn read_archive(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Digests of a plan's configurations, as the daemon reports them.
pub fn plan_digests(plan: &ExperimentPlan) -> Vec<String> {
    plan.points()
        .iter()
        .map(|p| wire::digest(&p.config))
        .collect()
}

/// Runner options of the sweep workloads: the runner's defaults
/// (workers = hardware threads, lanes = auto), quiet and canonical.
pub fn sweep_options(out_dir: &Path) -> RunnerOptions {
    RunnerOptions {
        quiet: true,
        canonical: true,
        out_dir: out_dir.to_path_buf(),
        ..RunnerOptions::default()
    }
}

/// One sweep request: `run_plan` plus `write_sweep` of the canonical
/// archive.
pub fn sweep_request(
    plan: &ExperimentPlan,
    opts: &RunnerOptions,
) -> (SweepResult, Result<PathBuf, String>) {
    let sweep = run_plan(plan, opts);
    let path = write_sweep(&sweep, &opts.out_dir).map_err(|e| format!("archive write: {e}"));
    (sweep, path)
}

/// The state one workload's requests run on.
pub enum State {
    /// A sweep workload: the plan, runner options, and the reference
    /// archive every request must reproduce.
    Sweep {
        /// The plan.
        plan: ExperimentPlan,
        /// Runner options.
        opts: RunnerOptions,
        /// The reference archive text.
        reference: String,
    },
    /// serve-warm: the daemon, the request line, and the cold fill's
    /// archive every warm reply must reproduce.
    Warm {
        /// The daemon.
        daemon: LocalDaemon,
        /// The plan.
        plan: ExperimentPlan,
        /// The submit line.
        line: String,
        /// The plan's digests.
        digests: Vec<String>,
        /// The cold fill's archive text.
        reference: String,
    },
    /// serve-mixed: the daemon and the generator.
    Mixed {
        /// The daemon.
        daemon: LocalDaemon,
        /// The generator.
        gen: MixedGen,
    },
}

/// What one timed request returned, checked after the clock stops.
pub enum Reply {
    /// A sweep's result and archive path.
    Sweep(SweepResult, Result<PathBuf, String>),
    /// A serve reply, its events, and the plan and cache flags the
    /// request carried.
    Serve {
        /// The client's result.
        reply: Result<SubmitOutcome, SubmitError>,
        /// Event lines received.
        events: Vec<String>,
        /// The request's plan (serve-mixed; `None` for serve-warm).
        plan: Option<(ExperimentPlan, Vec<bool>)>,
    },
}

/// Builds the workload's state: the plan, and for serve workloads a
/// fresh daemon in `dir` plus its cache fill. For sweeps this includes
/// one untimed warm-up request. Returns the state and, for checking,
/// the warm-up or fill reply.
pub fn setup(kind: Kind, seed: u64, dir: &Path) -> Result<(State, Reply), String> {
    let _ = std::fs::remove_dir_all(dir);
    match kind {
        Kind::SweepFig4 | Kind::SweepFig6 => {
            let plan = if kind == Kind::SweepFig4 {
                fig4_plan(seed)
            } else {
                fig6_plan(seed)
            };
            let opts = sweep_options(dir);
            let (sweep, path) = sweep_request(&plan, &opts);
            let reference = read_archive(&path.clone()?)?;
            Ok((
                State::Sweep {
                    plan,
                    opts,
                    reference,
                },
                Reply::Sweep(sweep, path),
            ))
        }
        Kind::ServeWarm => {
            let daemon = LocalDaemon::start(dir)?;
            let plan = fig4_plan(seed);
            let line = client::submit_request_line(&plan)?;
            let (reply, events) = daemon.submit(&line);
            let reference = match &reply {
                Ok(o) => read_archive(Path::new(&o.archive))?,
                Err(e) => return Err(format!("cold fill failed: {e}")),
            };
            let digests = plan_digests(&plan);
            Ok((
                State::Warm {
                    daemon,
                    plan,
                    line,
                    digests,
                    reference,
                },
                Reply::Serve {
                    reply,
                    events,
                    plan: None,
                },
            ))
        }
        Kind::ServeMixed => {
            let daemon = LocalDaemon::start(dir)?;
            let gen = MixedGen::new(seed);
            let base = gen.base_plan();
            let (reply, events) = daemon.submit(&client::submit_request_line(&base)?);
            let cached = vec![false; base.len()];
            Ok((
                State::Mixed { daemon, gen },
                Reply::Serve {
                    reply,
                    events,
                    plan: Some((base, cached)),
                },
            ))
        }
    }
}

impl State {
    /// Sends request `k` (the timed part).
    pub fn request(&self, k: u64) -> Reply {
        match self {
            State::Sweep { plan, opts, .. } => {
                let (sweep, path) = sweep_request(plan, opts);
                Reply::Sweep(sweep, path)
            }
            State::Warm { daemon, line, .. } => {
                let (reply, events) = daemon.submit(line);
                Reply::Serve {
                    reply,
                    events,
                    plan: None,
                }
            }
            State::Mixed { daemon, gen } => {
                let (plan, cached) = gen.request(k);
                match client::submit_request_line(&plan) {
                    Ok(line) => {
                        let (reply, events) = daemon.submit(&line);
                        Reply::Serve {
                            reply,
                            events,
                            plan: Some((plan, cached)),
                        }
                    }
                    Err(why) => Reply::Serve {
                        reply: Err(SubmitError::Protocol(why)),
                        events: Vec::new(),
                        plan: Some((plan, cached)),
                    },
                }
            }
        }
    }

    /// Checks request `k`'s reply. `refs` memoises scalar reference rows
    /// of serve-mixed's base set across requests.
    pub fn check(&self, k: u64, reply: &Reply, refs: &mut BaseRefs) -> Result<(), String> {
        match (self, reply) {
            (
                State::Sweep {
                    plan, reference, ..
                },
                Reply::Sweep(sweep, path),
            ) => {
                let archive = read_archive(path.as_ref()?)?;
                check_sweep(plan, sweep, &archive, Some(reference), sample_index(k))
            }
            (
                State::Warm {
                    digests, reference, ..
                },
                Reply::Serve { reply, events, .. },
            ) => {
                let cached = vec![true; digests.len()];
                check_serve(
                    reply,
                    events,
                    &ServeExpect {
                        cached: &cached,
                        digests,
                    },
                )?;
                let archive = read_archive(Path::new(&reply.as_ref().expect("checked").archive))?;
                if &archive != reference {
                    return Err("warm archive differs from the cold fill's archive".into());
                }
                Ok(())
            }
            (
                State::Mixed { gen, .. },
                Reply::Serve {
                    reply,
                    events,
                    plan: Some((plan, cached)),
                },
            ) => {
                let digests = plan_digests(plan);
                check_serve(
                    reply,
                    events,
                    &ServeExpect {
                        cached,
                        digests: &digests,
                    },
                )?;
                let archive = read_archive(Path::new(&reply.as_ref().expect("checked").archive))?;
                // Every cached row against the base set's scalar
                // reference, and one new row (rotating) against its own.
                let misses: Vec<usize> = (0..plan.len()).filter(|&i| !cached[i]).collect();
                let checked_miss = misses[sample_index(k) % misses.len()];
                for p in plan.points() {
                    let expected = if cached[p.index] {
                        refs.rekeyed(gen, p.index, &p.id, &p.config)?
                    } else if p.index == checked_miss {
                        reference_row(p.index, &p.id, &p.config)
                    } else {
                        continue;
                    };
                    check_row(&archive, &expected)?;
                }
                Ok(())
            }
            _ => Err("reply does not match the workload".into()),
        }
    }

    /// The output every set-up of this workload must reproduce: the
    /// sweep's or the cold fill's archive (`None` for serve-mixed, whose
    /// base fill is checked row by row).
    pub fn reference(&self) -> Option<&str> {
        match self {
            State::Sweep { reference, .. } | State::Warm { reference, .. } => Some(reference),
            State::Mixed { .. } => None,
        }
    }

    /// Points per request.
    pub fn points_per_request(&self) -> usize {
        match self {
            State::Sweep { plan, .. } | State::Warm { plan, .. } => plan.len(),
            State::Mixed { .. } => MixedGen::HITS + MixedGen::MISSES,
        }
    }

    /// Stops the workload's daemon, if any.
    pub fn teardown(self) -> Result<(), String> {
        match self {
            State::Sweep { .. } => Ok(()),
            State::Warm { daemon, .. } | State::Mixed { daemon, .. } => daemon.stop(),
        }
    }
}

/// Checks a set-up's warm-up or fill reply: sweeps and serve-warm's
/// cold fill as sweep-fig4 checks its requests (scalar references of
/// sampled points); serve-mixed's base fill row by row.
pub fn check_setup(
    state: &State,
    reply: &Reply,
    refs: &mut BaseRefs,
    samples: usize,
) -> Result<(), String> {
    match (state, reply) {
        (
            State::Sweep {
                plan, reference, ..
            },
            Reply::Sweep(sweep, _),
        ) => {
            if let Some(bad) = sweep.failures().next() {
                return Err(format!("point {} ({}) failed", bad.index, bad.id));
            }
            (0..samples)
                .try_for_each(|s| check_sweep(plan, sweep, reference, None, spread_index(s, plan)))
        }
        (
            State::Warm {
                plan,
                digests,
                reference,
                ..
            },
            Reply::Serve { reply, events, .. },
        ) => {
            let cached = vec![false; plan.len()];
            check_serve(
                reply,
                events,
                &ServeExpect {
                    cached: &cached,
                    digests,
                },
            )?;
            (0..samples).try_for_each(|s| {
                let p = &plan.points()[spread_index(s, plan)];
                check_row(reference, &reference_row(p.index, &p.id, &p.config))
            })
        }
        (
            State::Mixed { gen, .. },
            Reply::Serve {
                reply,
                events,
                plan: Some((plan, cached)),
            },
        ) => {
            let digests = plan_digests(plan);
            check_serve(
                reply,
                events,
                &ServeExpect {
                    cached,
                    digests: &digests,
                },
            )?;
            let archive = read_archive(Path::new(&reply.as_ref().expect("checked").archive))?;
            for p in plan.points() {
                check_row(&archive, &refs.rekeyed(gen, p.index, &p.id, &p.config)?)?;
            }
            Ok(())
        }
        _ => Err("set-up reply does not match the workload".into()),
    }
}

/// Sampled point for request `k`'s scalar check (a stride coprime with
/// the plan sizes, so successive requests check different points).
fn sample_index(k: u64) -> usize {
    (k as usize).wrapping_mul(37).wrapping_add(11)
}

/// The `s`-th of the set-up's evenly spread sample points.
fn spread_index(s: usize, plan: &ExperimentPlan) -> usize {
    (s * plan.len() / 4 + s) % plan.len()
}

/// Scalar reference rows of serve-mixed's base set, computed once per
/// run and re-keyed to each request's plan positions.
#[derive(Default)]
pub struct BaseRefs {
    rows: Vec<Option<String>>,
}

impl BaseRefs {
    /// The reference row for base configuration `cfg` placed at `index`
    /// with `id`, as the daemon re-keys a cached row.
    fn rekeyed(
        &mut self,
        gen: &MixedGen,
        index: usize,
        id: &str,
        cfg: &SystemConfig,
    ) -> Result<PointResult, String> {
        let base = gen
            .base()
            .iter()
            .position(|b| wire::digest(b) == wire::digest(cfg))
            .ok_or("cached point is not in the base set")?;
        if self.rows.len() < gen.base().len() {
            self.rows.resize(gen.base().len(), None);
        }
        let stable = self.rows[base]
            .get_or_insert_with(|| reference_row(base, "base", &gen.base()[base]).stable_json());
        let text = rekey_stable(stable, index, id, cfg.seed).ok_or("cannot re-key a base row")?;
        restore_from_stable(&text).ok_or_else(|| "cannot restore a base row".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Tally;
    use std::collections::HashSet;

    #[test]
    fn mixed_generator_yields_twelve_cached_and_four_new_points() {
        for seed in [1u64, 7, 1234] {
            let gen = MixedGen::new(seed);
            let base: HashSet<String> = gen.base().iter().map(wire::digest).collect();
            assert_eq!(base.len(), MixedGen::BASE, "base set is distinct");
            let mut fresh_seen = HashSet::new();
            for k in 0..50 {
                let (plan, cached) = gen.request(k);
                assert_eq!(plan.len(), 16);
                let digests: Vec<String> = plan_digests(&plan);
                let distinct: HashSet<&String> = digests.iter().collect();
                assert_eq!(distinct.len(), 16, "points within a request are distinct");
                let hits = digests.iter().filter(|d| base.contains(*d)).count();
                assert_eq!(hits, 12);
                for (d, c) in digests.iter().zip(&cached) {
                    assert_eq!(base.contains(d), *c, "cache flag matches the base set");
                    if !c {
                        assert!(fresh_seen.insert(d.clone()), "new points never repeat");
                    }
                }
            }
            let (again, _) = gen.request(3);
            let (first, _) = MixedGen::new(seed).request(3);
            assert_eq!(
                plan_digests(&again),
                plan_digests(&first),
                "same seed, same inputs"
            );
        }
        let a = plan_digests(&MixedGen::new(1).request(0).0);
        let b = plan_digests(&MixedGen::new(2).request(0).0);
        assert_ne!(a, b, "another seed gives other inputs");
    }

    #[test]
    fn plans_have_the_documented_sizes() {
        assert_eq!(fig4_plan(1).len(), 124);
        assert_eq!(fig6_plan(1).len(), 32);
        assert_ne!(
            plan_digests(&fig4_plan(1)),
            plan_digests(&fig4_plan(2)),
            "the seed reaches the plan"
        );
    }

    fn tiny_plan() -> ExperimentPlan {
        let scale = Scale {
            instructions: 20_000,
            warmup: 5_000,
            seed: 3,
            compute_profiles: 1,
        };
        record_plan("tiny", 3, |ev| {
            fig4_grid_with(scale, &[100], &[500, 1_000], ev)
        })
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perfbench_{tag}_{}", std::process::id()))
    }

    /// A tampered row digest, a refused submit and a transport error
    /// each count as one failed request; a good reply counts none.
    #[test]
    fn failed_ratio_counts_tampered_refused_and_transport_failures() {
        let dir = scratch("tally");
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = LocalDaemon::start(&dir).expect("daemon");
        let plan = tiny_plan();
        let line = client::submit_request_line(&plan).expect("line");
        let digests = plan_digests(&plan);
        let fresh = vec![false; plan.len()];
        let expect = ServeExpect {
            cached: &fresh,
            digests: &digests,
        };
        let mut tally = Tally::default();

        let (reply, events) = daemon.submit(&line);
        tally.record("good", check_serve(&reply, &events, &expect));
        assert_eq!(tally.failed, 0, "a correct cold reply passes");

        let cached = vec![true; plan.len()];
        let warm = ServeExpect {
            cached: &cached,
            digests: &digests,
        };
        let (reply, mut events) = daemon.submit(&line);
        tally.record("warm", check_serve(&reply, &events, &warm));
        let victim = events
            .iter()
            .position(|e| e.contains("\"event\":\"point\""))
            .expect("a point event");
        events[victim] = events[victim].replacen("\"digest\":\"", "\"digest\":\"f", 1);
        tally.record("tampered", check_serve(&reply, &events, &warm));
        assert_eq!(tally.failed, 1, "a tampered digest counts once");

        let refused: Result<SubmitOutcome, SubmitError> = Err(SubmitError::Refused {
            error: "overloaded".into(),
            retry_after_ms: Some(250),
        });
        tally.record("refused", check_serve(&refused, &[], &warm));
        let lost: Result<SubmitOutcome, SubmitError> =
            Err(SubmitError::Transport("connection reset".into()));
        tally.record("transport", check_serve(&lost, &[], &warm));
        assert_eq!((tally.attempted, tally.failed), (5, 3));

        daemon.stop().expect("stop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_check_rejects_a_tampered_row() {
        let plan = tiny_plan();
        let dir = scratch("sweep");
        let opts = sweep_options(&dir);
        let (sweep, path) = sweep_request(&plan, &opts);
        let archive = read_archive(&path.expect("archive")).expect("read");
        for s in 0..plan.len() {
            check_sweep(&plan, &sweep, &archive, Some(&archive), s).expect("correct sweep");
        }
        let tampered = archive.replacen("\"cycles\":", "\"cycles\":1", 1);
        let mut tally = Tally::default();
        tally.record(
            "tampered",
            check_sweep(&plan, &sweep, &tampered, Some(&archive), 0),
        );
        assert_eq!(tally.failed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
