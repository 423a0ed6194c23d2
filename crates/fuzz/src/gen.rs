//! Deterministic case generation.
//!
//! The generator reuses the runner's RNG-splitting scheme
//! ([`SeedSequence`]): a master seed derives one *case seed* per
//! position, and each case is a pure function of its case seed alone.
//! Two consequences the CLI leans on:
//!
//! * the whole campaign replays bit-identically from `--master-seed`;
//! * any single case replays from just its case seed (which is what the
//!   corpus archives), without re-running the cases before it.

use osoffload_core::TunerConfig;
use osoffload_mem::MemConfig;
use osoffload_sim::{Rng64, SeedSequence};
use osoffload_system::{
    DispatchPolicy, MigrationModel, OffloadMechanism, PolicyKind, SystemConfig,
};
use osoffload_workload::Profile;

/// Streams configurations derived from a master seed.
#[derive(Debug)]
pub struct CaseGen {
    seeder: SeedSequence,
}

impl CaseGen {
    /// Creates a generator over `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        CaseGen {
            seeder: SeedSequence::new(master_seed),
        }
    }

    /// The next case and the seed it was derived from.
    pub fn next_case(&mut self) -> (u64, SystemConfig) {
        let case_seed = self.seeder.next_seed();
        (case_seed, generate(case_seed))
    }
}

fn pick<T: Clone>(rng: &mut Rng64, options: &[T]) -> T {
    options[(rng.next_u64() % options.len() as u64) as usize].clone()
}

/// One-in-`n` event.
fn rare(rng: &mut Rng64, n: u64) -> bool {
    rng.next_u64().is_multiple_of(n)
}

/// Sizes a memory override for the configuration's own core count, so
/// an edit that adds or removes a core (a policy or resource-adaptation
/// change) keeps the override valid.
pub fn fit_memory(cfg: &mut SystemConfig) {
    let cores = cfg.total_cores().clamp(1, 64);
    if let Some(mem) = &mut cfg.mem_override {
        mem.cores = cores;
    }
}

/// Builds the case for `case_seed` — a pure function, so an archived
/// seed reproduces its case forever. Every case passes
/// [`SystemConfig::validate`].
pub fn generate(case_seed: u64) -> SystemConfig {
    let mut rng = Rng64::seed_from(case_seed);
    let profiles: Vec<Profile> = Profile::all_server()
        .into_iter()
        .chain(Profile::all_compute())
        .collect();

    let profile = pick(&mut rng, &profiles);
    let threshold = pick(&mut rng, &[0u64, 100, 500, 1_000, 5_000, 10_000]);
    let policy = match rng.next_u64() % 10 {
        0 => PolicyKind::Baseline,
        1 => PolicyKind::AlwaysOffload,
        2 | 3 => PolicyKind::HardwarePredictor { threshold },
        4 => PolicyKind::HardwarePredictorDirectMapped { threshold },
        5 => PolicyKind::HardwarePredictorSized {
            threshold,
            entries: pick(&mut rng, &[1usize, 8, 64, 200]),
        },
        6 | 7 => PolicyKind::DynamicInstrumentation {
            threshold,
            cost: pick(&mut rng, &[50u64, 120, 250]),
        },
        8 => PolicyKind::StaticInstrumentation {
            stub_cost: pick(&mut rng, &[10u64, 25]),
        },
        _ => PolicyKind::Oracle { threshold },
    };

    // Sizes kept small enough that a full oracle battery on one case is
    // tens of milliseconds, large enough to cross epoch and phase
    // boundaries.
    let instructions = 20_000 + (rng.next_u64() % 81) * 1_000; // 20k..=100k
    let warmup = match rng.next_u64() % 4 {
        0 => 0,
        1 => instructions / 8,
        2 => instructions / 4,
        _ => instructions / 2,
    };

    // Drawn in this order (the RNG order is the seed → case mapping);
    // every field not drawn starts at the shrinker's target.
    let offloading = !policy.is_baseline();
    let mut cfg = SystemConfig {
        profile,
        policy,
        migration: MigrationModel::new(pick(&mut rng, &[100u64, 1_000, 5_000])),
        mechanism: if offloading && rare(&mut rng, 4) {
            OffloadMechanism::RemoteCall
        } else {
            OffloadMechanism::ThreadMigration
        },
        os_core_slowdown_milli: pick(&mut rng, &[600u64, 1_000, 1_667]),
        os_core_contexts: if rare(&mut rng, 8) { 2 } else { 1 },
        user_cores: 1 + (rng.next_u64() % 4) as usize,
        instructions,
        warmup,
        seed: rng.next_u64(),
        ..crate::shrink::target()
    };
    let half_l2 = rare(&mut rng, 8);

    if offloading && rare(&mut rng, 8) {
        cfg.resource_adaptation = Some(pick(&mut rng, &[600u64, 800]));
        cfg.mechanism = OffloadMechanism::ThreadMigration;
    }
    // The tuner only composes with threshold policies.
    if matches!(
        cfg.policy,
        PolicyKind::HardwarePredictor { .. }
            | PolicyKind::HardwarePredictorDirectMapped { .. }
            | PolicyKind::HardwarePredictorSized { .. }
    ) && rare(&mut rng, 6)
    {
        // paper epochs / 2500 ≈ 10k-instruction sample epochs — several
        // tuner decisions inside one short run.
        cfg.tuner = Some(TunerConfig::scaled_down(pick(
            &mut rng,
            &[2_500u64, 10_000],
        )));
    }
    if rare(&mut rng, 6) {
        let other = pick(&mut rng, &profiles);
        cfg.phases.push((instructions / 2, other));
    }
    // Multi-OS-core topologies, so every oracle exercises the dispatch
    // pool (the single-core default reduces to the legacy queue).
    if offloading && rare(&mut rng, 3) {
        cfg.os_cores = 2 + (rng.next_u64() % 3) as usize; // 2..=4
        cfg.dispatch = pick(&mut rng, &DispatchPolicy::ALL);
        if rare(&mut rng, 2) {
            cfg.os_cold_penalty = pick(&mut rng, &[100u64, 500, 2_000]);
        }
    }
    // The §V-B half-size-L2 variant, sized for the final topology.
    if half_l2 {
        cfg.mem_override = Some(MemConfig::half_l2_variant(cfg.total_cores().clamp(1, 64)));
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_case_seed() {
        let mut g1 = CaseGen::new(42);
        let mut g2 = CaseGen::new(42);
        for _ in 0..64 {
            let (s1, c1) = g1.next_case();
            let (s2, c2) = g2.next_case();
            assert_eq!(s1, s2);
            assert_eq!(format!("{c1:?}"), format!("{c2:?}"));
            assert_eq!(
                format!("{:?}", generate(s1)),
                format!("{c1:?}"),
                "case must replay from its seed alone"
            );
        }
    }

    #[test]
    fn case_seeds_match_the_runners_derivation() {
        // The fuzzer promises the same seed schedule as ExperimentPlan:
        // master → SeedSequence → one split per position.
        let mut gen = CaseGen::new(7);
        let mut seq = SeedSequence::new(7);
        for _ in 0..16 {
            assert_eq!(gen.next_case().0, seq.next_seed());
        }
    }

    #[test]
    fn every_generated_case_is_valid() {
        let mut gen = CaseGen::new(0xF00D);
        for i in 0..300 {
            let (seed, cfg) = gen.next_case();
            assert!(
                cfg.validate().is_ok(),
                "case {i} (seed {seed:#x}) invalid: {}",
                cfg.to_json()
            );
        }
    }

    #[test]
    fn generation_covers_the_config_space() {
        let mut gen = CaseGen::new(1);
        let cases: Vec<SystemConfig> = (0..400).map(|_| gen.next_case().1).collect();
        assert!(cases.iter().any(|c| !c.phases.is_empty()), "phases");
        assert!(cases.iter().any(|c| c.tuner.is_some()), "tuner");
        assert!(cases.iter().any(|c| c.mem_override.is_some()), "half_l2");
        assert!(
            cases
                .iter()
                .any(|c| c.mechanism == OffloadMechanism::RemoteCall),
            "remote_call"
        );
        assert!(
            cases.iter().any(|c| c.resource_adaptation.is_some()),
            "adaptation"
        );
        assert!(cases.iter().any(|c| c.os_core_contexts > 1), "smt contexts");
        assert!(cases.iter().any(|c| c.os_cores > 1), "multi OS cores");
        assert!(cases.iter().any(|c| c.os_cold_penalty > 0), "cold penalty");
        let dispatches: std::collections::HashSet<&'static str> = cases
            .iter()
            .filter(|c| c.os_cores > 1)
            .map(|c| c.dispatch.label())
            .collect();
        assert_eq!(dispatches.len(), 4, "all dispatch policies generated");
        let policies: std::collections::HashSet<&'static str> =
            cases.iter().map(|c| c.policy.label()).collect();
        assert_eq!(policies.len(), 8, "all policy kinds generated");
    }
}
