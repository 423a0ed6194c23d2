//! Lane-parallel sweep execution: run K co-resident simulations over a
//! shared workload tape.
//!
//! Every figure/table sweep evaluates the *same* workload shape
//! (profile, phase schedule, thread count, seed) under many policy ×
//! latency × threshold points. Run scalar, each point regenerates and
//! re-draws the whole instruction stream — roughly a third of point
//! runtime on the fig4 grid. The [`LaneStepper`] instead records the
//! stream once into a [`WorkloadTape`] and replays it into K lanes:
//! the generation cost of a whole sweep group is paid once (see
//! [`TapeRegistry`]), and replay is a linear scan over packed
//! 17-byte records instead of a chain of RNG and sampler draws.
//!
//! Each phase (warm-up, then the measured region) runs every lane to
//! its target in turn. With tapes fully materialised up front this is
//! the fastest schedule: interleaving lanes in lockstep quanta evicts
//! every other lane's simulated cache/TLB/predictor arrays from the
//! host cache and measured 10-20% slower (64 Ki-instruction quanta on
//! the fig4 grid). A tape's contents depend only on its workload shape,
//! never on when or for which lane it is extended, and each lane owns
//! its complete architectural state, so lane order cannot change a
//! report: each is **bit-identical** to [`Simulation::run`] on the same
//! configuration by construction (`tests/bit_identity.rs` lane matrix
//! and fuzz oracle 8 prove it).
//!
//! The measured regions of all lanes run under a single
//! `alloc_audit` region. That requires the tape to be fully
//! materialised up front: after warm-up the stepper extends every
//! thread's tape past the deepest position any lane can legally reach
//! (its cursor depth plus its measured budget), so replay never grows
//! an array inside the audited region.
//!
//! [`WorkloadTape`]: osoffload_workload::WorkloadTape

use crate::config::{ConfigError, SystemConfig};
use crate::metrics::SimReport;
use crate::simulation::Simulation;
use osoffload_sim::{alloc_audit, Cycle, Instret};
use osoffload_workload::{SharedTape, WorkloadTape};

/// Whether two configurations draw bit-identical workload streams and
/// can therefore share one [`WorkloadTape`](osoffload_workload::WorkloadTape).
///
/// The stream depends only on the profile, the phase schedule, the
/// thread count, and the seed — never on policy, topology, latency, or
/// the memory system, because every policy path executes each drawn
/// segment to exactly its drawn length.
pub fn tape_compatible(a: &SystemConfig, b: &SystemConfig) -> bool {
    a.seed == b.seed
        && a.thread_count() == b.thread_count()
        && a.profile == b.profile
        && a.phases == b.phases
}

/// A cache of workload tapes keyed by [`tape_compatible`] shape.
///
/// Hold one registry across many [`LaneStepper`] packs and every pack
/// whose configurations share a shape replays the same tape — the
/// generation cost of a whole sweep group is paid exactly once, no
/// matter how the group is chunked into packs.
#[derive(Default)]
pub struct TapeRegistry {
    shapes: Vec<(SystemConfig, SharedTape)>,
}

impl TapeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tape for `cfg`'s workload shape, building it on first use.
    pub fn tape_for(&mut self, cfg: &SystemConfig) -> SharedTape {
        match self
            .shapes
            .iter()
            .find(|(rep, _)| tape_compatible(rep, cfg))
        {
            Some((_, tape)) => tape.clone(),
            None => {
                let tape =
                    WorkloadTape::new(&cfg.profile, &cfg.phases, cfg.thread_count(), cfg.seed)
                        .into_shared();
                self.shapes.push((cfg.clone(), tape.clone()));
                tape
            }
        }
    }
}

struct Lane {
    sim: Simulation,
    /// Index into the pack's tape list of the tape this lane replays.
    tape_idx: usize,
    /// Measured-region instruction budget.
    measure: u64,
    /// Warm-up instruction budget.
    warmup: u64,
}

/// K co-resident simulations run over shared workload tapes.
///
/// Configurations that are [`tape_compatible`] share one tape; a pack
/// may mix several shapes (each gets its own tape) — scheduling is
/// oblivious to which tape a lane reads.
///
/// # Examples
///
/// ```
/// use osoffload_system::{LaneStepper, Simulation, SystemConfig, PolicyKind};
/// use osoffload_workload::Profile;
///
/// let cfg = |threshold| {
///     SystemConfig::builder()
///         .profile(Profile::apache())
///         .policy(PolicyKind::HardwarePredictor { threshold })
///         .migration_latency(1_000)
///         .instructions(20_000)
///         .warmup(5_000)
///         .seed(42)
///         .build()
/// };
/// let lanes = LaneStepper::new(vec![cfg(100), cfg(5_000)]).unwrap().run();
/// assert_eq!(lanes[0], Simulation::new(cfg(100)).run());
/// assert_eq!(lanes[1], Simulation::new(cfg(5_000)).run());
/// ```
pub struct LaneStepper {
    lanes: Vec<Lane>,
    tapes: Vec<SharedTape>,
}

impl LaneStepper {
    /// Builds one lane per configuration, sharing tapes between
    /// [`tape_compatible`] configurations. Rejects any configuration
    /// that fails [`SystemConfig::validate`].
    pub fn new(configs: Vec<SystemConfig>) -> Result<Self, ConfigError> {
        Self::with_registry(configs, &mut TapeRegistry::new())
    }

    /// Like [`new`](Self::new), but resolves tapes through a
    /// caller-held [`TapeRegistry`], so generation work is shared not
    /// just between the lanes of this pack but across every pack built
    /// from the same registry. [`run_lanes`] uses this to generate each
    /// workload shape exactly once per sweep, however narrow the packs.
    pub fn with_registry(
        configs: Vec<SystemConfig>,
        registry: &mut TapeRegistry,
    ) -> Result<Self, ConfigError> {
        for cfg in &configs {
            cfg.validate()?;
        }
        // Tapes used by this pack, indexed by `Lane::tape_idx`.
        let mut shapes: Vec<(SystemConfig, SharedTape)> = Vec::new();
        let mut lanes = Vec::with_capacity(configs.len());
        for cfg in configs {
            let tape_idx = match shapes
                .iter()
                .position(|(rep, _)| tape_compatible(rep, &cfg))
            {
                Some(idx) => idx,
                None => {
                    shapes.push((cfg.clone(), registry.tape_for(&cfg)));
                    shapes.len() - 1
                }
            };
            let tape = shapes[tape_idx].1.clone();
            // Materialise this lane's whole stream up front (a thread
            // can consume at most the run's total budget): generation
            // is one contiguous pass here instead of being interleaved
            // a segment at a time with warm-up replay.
            {
                let depth = (cfg.warmup + cfg.instructions) as usize;
                let mut tape = tape.borrow_mut();
                for t in 0..tape.thread_count() {
                    tape.extend_to(t, depth);
                }
            }
            lanes.push(Lane {
                tape_idx,
                warmup: cfg.warmup,
                measure: cfg.instructions,
                sim: Simulation::build_on_tape(cfg, tape),
            });
        }
        let tapes = shapes.into_iter().map(|(_, t)| t).collect();
        Ok(LaneStepper { lanes, tapes })
    }

    /// Number of lanes in the pack.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Runs every lane to completion and returns one report per lane,
    /// in construction order, each bit-identical to
    /// [`Simulation::run`] on the lane's configuration.
    pub fn run(mut self) -> Vec<SimReport> {
        Self::run_each(&mut self.lanes, |l| l.warmup);

        // Warm-up → measured transition per lane. All allocating setup
        // (trace, tuner, telemetry) happens here, before the single
        // audited region below.
        let starts: Vec<Cycle> = self
            .lanes
            .iter_mut()
            .map(|l| l.sim.begin_measured())
            .collect();

        // Materialise every thread's tape past the deepest position any
        // lane can legally request. A lane fetches a new segment only
        // while its measured retirement is below its budget, and its
        // per-thread consumption is bounded by total retirement, so a
        // request always starts below `depth-after-warmup + budget`.
        // With whole segments materialised up to that bound, replay
        // inside the audited region never allocates.
        for (ti, tape) in self.tapes.iter().enumerate() {
            let threads = tape.borrow().thread_count();
            for t in 0..threads {
                let need = self
                    .lanes
                    .iter()
                    .filter(|l| l.tape_idx == ti)
                    .map(|l| l.sim.tape_depth(t) + l.measure as usize)
                    .max()
                    .unwrap_or(0);
                tape.borrow_mut().extend_to(t, need);
            }
        }

        // One audited measured region across the whole pack.
        alloc_audit::region_enter();
        Self::run_each(&mut self.lanes, |l| l.measure);
        alloc_audit::region_exit();

        self.lanes
            .into_iter()
            .zip(starts)
            .map(|(l, start)| l.sim.finish(start))
            .collect()
    }

    /// Steps each lane, in order, segment by segment until it has
    /// retired `target` instructions.
    fn run_each(lanes: &mut [Lane], target: impl Fn(&Lane) -> u64) {
        for lane in lanes {
            let stop = Instret::new(target(lane));
            while lane.sim.retired() < stop {
                lane.sim.step_segment();
            }
        }
    }
}

/// Runs `configs` through lane packs of at most `width` lanes and
/// returns the reports in input order, each bit-identical to
/// [`Simulation::run`] on that configuration.
///
/// Configurations are grouped by [`tape_compatible`] shape first, so
/// every pack shares a single tape; a `width` of 0 or 1 still goes
/// through the tape machinery one lane at a time (useful for
/// differential testing, but all replay and no sharing — the runner
/// treats `--lanes=1` as "scalar path" instead).
pub fn run_lanes(configs: &[SystemConfig], width: usize) -> Result<Vec<SimReport>, ConfigError> {
    let width = width.max(1);
    // Group input indices by shape, preserving input order per group.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new(); // (representative idx, members)
    for (i, cfg) in configs.iter().enumerate() {
        match groups
            .iter_mut()
            .find(|(rep, _)| tape_compatible(&configs[*rep], cfg))
        {
            Some((_, members)) => members.push(i),
            None => groups.push((i, vec![i])),
        }
    }
    let mut out: Vec<Option<SimReport>> = (0..configs.len()).map(|_| None).collect();
    let mut registry = TapeRegistry::new();
    for (_, members) in groups {
        for pack in members.chunks(width) {
            let stepper = LaneStepper::with_registry(
                pack.iter().map(|&i| configs[i].clone()).collect(),
                &mut registry,
            )?;
            for (&i, report) in pack.iter().zip(stepper.run()) {
                out[i] = Some(report);
            }
        }
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every index filled"))
        .collect())
}
