//! Lane sweeps: the points of one workload shape replay one recorded
//! workload tape.
//!
//! Every figure/table sweep evaluates the *same* workload shape
//! (profile, phase schedule, thread count, seed) under many policy ×
//! latency × threshold points. Generated live, each point re-draws the
//! whole instruction stream — roughly a third of point runtime on the
//! fig4 grid. A [`TapeRegistry`] records the stream once into a
//! [`WorkloadTape`], and each point replays it through an ordinary
//! [`Simulation`]: a linear scan over packed 17-byte records instead of
//! a chain of RNG and sampler draws. The runner replays every shape
//! that has more than one point to evaluate this way; a shape with one
//! point runs live, since its recording would serve no second replay.
//!
//! Points replay one at a time, and a tape grows only as deep as the
//! deepest replay of its shape reads (see [`osoffload_workload::tape`]).
//! Its contents depend only on the shape, never on which point extends
//! it, and each point owns its complete architectural state, so every
//! report is **bit-identical** to [`Simulation::run`] on the same
//! configuration by construction (`tests/bit_identity.rs` lane matrix
//! and fuzz oracle 8 prove it).
//!
//! [`WorkloadTape`]: osoffload_workload::WorkloadTape

use crate::config::{ConfigError, SystemConfig};
use crate::metrics::SimReport;
use crate::simulation::Simulation;
use osoffload_workload::{SharedTape, WorkloadTape};
use std::rc::Rc;

/// Whether two configurations draw bit-identical workload streams and
/// can therefore share one [`WorkloadTape`].
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

/// The tape of the workload shape being replayed.
///
/// A registry holds one shape; asking for another replaces it, so
/// callers order work by shape (the runner's claim units, [`run_lanes`]'s
/// groups). A tape nobody else holds is [reset](WorkloadTape::reset)
/// for the next shape rather than freed, so its arrays keep their pages.
#[derive(Default)]
pub struct TapeRegistry {
    /// The configuration whose shape `tape` records, once there is one.
    shape: Option<SystemConfig>,
    tape: SharedTape,
}

impl TapeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tape for `cfg`'s workload shape: the held one if it is
    /// [`tape_compatible`], otherwise a fresh one that replaces it.
    pub fn tape_for(&mut self, cfg: &SystemConfig) -> SharedTape {
        if !self
            .shape
            .as_ref()
            .is_some_and(|rep| tape_compatible(rep, cfg))
        {
            let (profile, phases, threads) = (&cfg.profile, &cfg.phases, cfg.thread_count());
            match Rc::get_mut(&mut self.tape) {
                Some(held) => held.get_mut().reset(profile, phases, threads, cfg.seed),
                None => {
                    self.tape = WorkloadTape::new(profile, phases, threads, cfg.seed).into_shared()
                }
            }
            self.shape = Some(cfg.clone());
        }
        self.tape.clone()
    }

    /// A simulation of `cfg` that replays this registry's tape for its
    /// shape; its [`run`](Simulation::run) is bit-identical to
    /// `Simulation::new(cfg).run()`. Rejects any configuration that
    /// fails [`SystemConfig::validate`].
    pub fn simulation(&mut self, cfg: SystemConfig) -> Result<Simulation, ConfigError> {
        cfg.validate()?;
        let tape = self.tape_for(&cfg);
        Ok(Simulation::build(cfg, Some(tape)))
    }
}

/// A pack of configurations replayed one after another, sharing a
/// tape between [`tape_compatible`] configurations.
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
    lanes: Vec<(SystemConfig, SharedTape)>,
}

impl LaneStepper {
    /// One lane per configuration, sharing tapes between
    /// [`tape_compatible`] configurations. Rejects any configuration
    /// that fails [`SystemConfig::validate`].
    pub fn new(configs: Vec<SystemConfig>) -> Result<Self, ConfigError> {
        Self::with_registry(configs, &mut TapeRegistry::new())
    }

    /// Like [`new`](Self::new), but resolves tapes through a
    /// caller-held [`TapeRegistry`], so a shape's recording is shared
    /// not just between the lanes of this pack but with every pack of
    /// the same shape built from the registry after it.
    pub fn with_registry(
        configs: Vec<SystemConfig>,
        registry: &mut TapeRegistry,
    ) -> Result<Self, ConfigError> {
        for cfg in &configs {
            cfg.validate()?;
        }
        let lanes = configs
            .into_iter()
            .map(|cfg| {
                let tape = registry.tape_for(&cfg);
                (cfg, tape)
            })
            .collect();
        Ok(LaneStepper { lanes })
    }

    /// Runs every lane to completion, one after another, and returns
    /// one report per lane in construction order, each bit-identical to
    /// [`Simulation::run`] on the lane's configuration.
    pub fn run(self) -> Vec<SimReport> {
        self.lanes
            .into_iter()
            .map(|(cfg, tape)| Simulation::build(cfg, Some(tape)).run())
            .collect()
    }
}

/// The indices of `configs` grouped by [`tape_compatible`] shape, one
/// unit per shape, in order of each shape's first appearance. Input
/// order is kept within a shape, so a [`TapeRegistry`] that works
/// through the units in order records each shape once.
pub fn shape_units<'a>(configs: impl IntoIterator<Item = &'a SystemConfig>) -> Vec<Vec<usize>> {
    let mut groups: Vec<(&SystemConfig, Vec<usize>)> = Vec::new();
    for (i, cfg) in configs.into_iter().enumerate() {
        match groups.iter_mut().find(|(rep, _)| tape_compatible(rep, cfg)) {
            Some((_, members)) => members.push(i),
            None => groups.push((cfg, vec![i])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// Runs `configs` one [`shape_units`] pack at a time and returns the
/// reports in input order, each bit-identical to [`Simulation::run`] on
/// that configuration. One registry serves every pack, so each shape is
/// recorded once, and even a shape with a single configuration replays
/// through its tape (useful for differential testing).
pub fn run_lanes(configs: &[SystemConfig]) -> Result<Vec<SimReport>, ConfigError> {
    let mut out: Vec<Option<SimReport>> = vec![None; configs.len()];
    let mut registry = TapeRegistry::new();
    for pack in shape_units(configs) {
        let stepper = LaneStepper::with_registry(
            pack.iter().map(|&i| configs[i].clone()).collect(),
            &mut registry,
        )?;
        for (&i, report) in pack.iter().zip(stepper.run()) {
            out[i] = Some(report);
        }
    }
    Ok(out
        .into_iter()
        .map(|r| r.expect("every index filled"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::DispatchPolicy;
    use crate::PolicyKind;
    use osoffload_obs::TelemetryMode;
    use osoffload_workload::Profile;

    /// Observation builds on the same constructor a replay does: with
    /// full telemetry, profiling and tracing on, a simulation over a
    /// tape exports the same report, Chrome trace, metrics, collapsed
    /// stacks and trace CSV as a live one.
    #[test]
    fn observed_replay_matches_observed_live_run() {
        let cfg = SystemConfig::builder()
            .profile(Profile::apache())
            .policy(PolicyKind::HardwarePredictor { threshold: 100 })
            .user_cores(2)
            .instructions(40_000)
            .warmup(10_000)
            .seed(9)
            .telemetry(TelemetryMode::Full)
            .profiling(true)
            .trace(1 << 12)
            .build();
        let (report, replayed) = TapeRegistry::new()
            .simulation(cfg.clone())
            .unwrap()
            .run_observed();
        let (live, observed) = Simulation::new(cfg).run_observed();
        assert_eq!(report, live);
        let (telemetry, live_telemetry) = (&replayed.telemetry, &observed.telemetry);
        assert!(!telemetry.events.is_empty() && !replayed.profile.to_collapsed().is_empty());
        assert!(!replayed.trace.is_empty());
        assert_eq!(telemetry.chrome_trace(), live_telemetry.chrome_trace());
        assert_eq!(telemetry.metrics_csv(), live_telemetry.metrics_csv());
        assert_eq!(telemetry.metrics_json(), live_telemetry.metrics_json());
        assert_eq!(
            replayed.profile.to_collapsed(),
            observed.profile.to_collapsed()
        );
        assert_eq!(replayed.trace.to_csv(), observed.trace.to_csv());
    }

    /// A 16:4 apache shape has 32 threads, each retiring about 1/32 of
    /// the budget, so its tape grows only as deep as the four dispatch
    /// variants read: under 2× the budget, where recording every thread
    /// to the whole budget cost 32×.
    #[test]
    fn many_thread_tape_grows_only_as_deep_as_replay_reads() {
        let configs: Vec<SystemConfig> = DispatchPolicy::ALL
            .into_iter()
            .map(|dispatch| {
                SystemConfig::builder()
                    .profile(Profile::apache())
                    .policy(PolicyKind::HardwarePredictor { threshold: 100 })
                    .user_cores(16)
                    .os_cores(4)
                    .dispatch(dispatch)
                    .instructions(100_000)
                    .warmup(50_000)
                    .seed(5)
                    .build()
            })
            .collect();
        let mut registry = TapeRegistry::new();
        let reports = LaneStepper::with_registry(configs.clone(), &mut registry)
            .unwrap()
            .run();
        for (report, cfg) in reports.iter().zip(&configs) {
            assert_eq!(report, &Simulation::new(cfg.clone()).run());
        }
        let tape = registry.tape_for(&configs[0]);
        let tape = tape.borrow();
        assert_eq!(tape.thread_count(), 32);
        let recorded: usize = (0..32).map(|t| tape.spec_len(t)).sum();
        assert!(recorded < 2 * 150_000, "recorded {recorded} instructions");
    }
}
