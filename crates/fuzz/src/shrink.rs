//! Delta-debugging shrinker: reduce a failing configuration toward
//! [`target`] while it keeps failing the same oracle.
//!
//! The shrinker is a fixpoint loop over a list of *passes*. Each pass
//! proposes one simplified candidate (drop the phases, halve the
//! instruction budget, reset a field to the target's…); a candidate is
//! adopted iff it is still a valid configuration **and** still fails
//! the oracle under investigation. When a full sweep adopts nothing,
//! the configuration is locally minimal: every single remaining
//! deviation from the target is necessary to reproduce the failure.

use crate::gen::fit_memory;
use crate::oracle::{self, OracleKind};
use osoffload_obs::json::{self, Value};
use osoffload_system::{MigrationModel, OffloadMechanism, PolicyKind, SystemConfig};
use osoffload_workload::Profile;

/// The shrinker's target: the simplest interesting run — one user
/// core, apache, the paper's HI policy, defaults everywhere else.
pub fn target() -> SystemConfig {
    SystemConfig::builder()
        .profile(Profile::apache())
        .policy(PolicyKind::HardwarePredictor { threshold: 500 })
        .migration_latency(5_000)
        .instructions(40_000)
        .warmup(10_000)
        .seed(0)
        .build()
}

/// The fields where `cfg` differs from [`target`], as `(key, value)`
/// pairs of their codec encoding (compared over the union of both
/// configurations' keys) — the "distance from trivial" a shrunken repro
/// is judged by.
pub fn off_target(cfg: &SystemConfig) -> Vec<(String, String)> {
    let encode = |c: &SystemConfig| json::parse(&c.to_json()).expect("the codec writes JSON");
    let (ours, theirs) = (encode(cfg), encode(&target()));
    let (Value::Obj(ours_fields), Value::Obj(theirs_fields)) = (&ours, &theirs) else {
        unreachable!("the codec writes an object")
    };
    let mut keys: Vec<&String> = ours_fields.iter().map(|(k, _)| k).collect();
    keys.extend(
        theirs_fields
            .iter()
            .map(|(k, _)| k)
            .filter(|k| ours.get(k).is_none()),
    );
    keys.into_iter()
        .filter_map(|k| {
            let value = ours.get(k);
            (value != theirs.get(k))
                .then(|| (k.clone(), value.map_or("absent".into(), Value::to_json)))
        })
        .collect()
}

/// Result of a shrink run.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The locally-minimal failing configuration.
    pub config: SystemConfig,
    /// Candidates tried (adopted or not) — the cost of the shrink.
    pub attempts: usize,
    /// Candidates adopted.
    pub steps: usize,
}

/// Whether `candidate` still reproduces the failure under `oracle`.
fn still_fails(candidate: &SystemConfig, oracle: OracleKind) -> bool {
    // A candidate that is no longer a valid config is a different bug
    // (or none); never adopt it.
    candidate.validate().is_ok() && oracle::check(candidate, oracle).is_err()
}

/// One shrink pass: propose a simplified candidate, or `None` when the
/// field already matches the target.
type Pass = fn(&SystemConfig) -> Option<SystemConfig>;

/// `c` with `change` applied, when `applies`; a memory override then
/// follows the candidate's core count.
fn propose(
    applies: bool,
    c: &SystemConfig,
    change: impl FnOnce(&mut SystemConfig),
) -> Option<SystemConfig> {
    applies.then(|| {
        let mut n = c.clone();
        change(&mut n);
        fit_memory(&mut n);
        n
    })
}

fn passes() -> Vec<Pass> {
    vec![
        // Structure first: the big optional machinery.
        |c| propose(!c.phases.is_empty(), c, |n| n.phases.clear()),
        |c| propose(c.tuner.is_some(), c, |n| n.tuner = None),
        |c| {
            propose(c.resource_adaptation.is_some(), c, |n| {
                n.resource_adaptation = None
            })
        },
        |c| propose(c.mem_override.is_some(), c, |n| n.mem_override = None),
        |c| {
            propose(c.mechanism != OffloadMechanism::ThreadMigration, c, |n| {
                n.mechanism = OffloadMechanism::ThreadMigration
            })
        },
        // Policy: straight to the target's kind and threshold.
        |c| {
            let t = target().policy;
            propose(c.policy != t, c, |n| n.policy = t)
        },
        // Topology and core parameters.
        |c| {
            propose(c.user_cores > 1, c, |n| {
                n.user_cores = 1.max(c.user_cores / 2)
            })
        },
        |c| propose(c.os_cores > 1, c, |n| n.os_cores = 1.max(c.os_cores / 2)),
        |c| {
            let t = target().dispatch;
            propose(c.dispatch != t, c, |n| n.dispatch = t)
        },
        |c| propose(c.os_cold_penalty != 0, c, |n| n.os_cold_penalty = 0),
        |c| propose(c.os_core_contexts != 1, c, |n| n.os_core_contexts = 1),
        |c| {
            propose(c.os_core_slowdown_milli != 1_000, c, |n| {
                n.os_core_slowdown_milli = 1_000
            })
        },
        |c| {
            propose(c.migration.one_way().as_u64() != 5_000, c, |n| {
                n.migration = MigrationModel::new(5_000)
            })
        },
        |c| {
            let t = target().profile;
            propose(c.profile != t, c, |n| n.profile = t)
        },
        // Run length: halve toward a 1k floor, keeping warm-up in
        // proportion. (Never grow back toward the target: that would
        // ping-pong with this pass and the fixpoint would not terminate.)
        |c| {
            propose(c.instructions / 2 >= 1_000, c, |n| {
                n.instructions = c.instructions / 2;
                n.warmup = c.warmup / 2;
            })
        },
        |c| propose(c.warmup != 0, c, |n| n.warmup = 0),
        // Seed last: the failure often survives on a canonical seed.
        |c| propose(c.seed != 0, c, |n| n.seed = 0),
        |c| propose(c.seed != 42 && c.seed != 0, c, |n| n.seed = 42),
    ]
}

/// Shrinks `cfg` to a locally-minimal configuration still failing
/// `oracle`.
///
/// `cfg` itself must fail `oracle` (the caller just observed that);
/// the result is guaranteed to fail it too.
pub fn shrink(cfg: &SystemConfig, oracle: OracleKind) -> Shrunk {
    let mut current = cfg.clone();
    let mut attempts = 0usize;
    let mut steps = 0usize;
    let passes = passes();
    loop {
        let mut adopted = false;
        for pass in &passes {
            // Re-apply each pass until it stops helping (e.g. repeated
            // halving of the instruction budget).
            while let Some(candidate) = pass(&current) {
                attempts += 1;
                if still_fails(&candidate, oracle) {
                    current = candidate;
                    steps += 1;
                    adopted = true;
                } else {
                    break;
                }
            }
        }
        if !adopted {
            return Shrunk {
                config: current,
                attempts,
                steps,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use osoffload_mem::MemConfig;
    use osoffload_system::DispatchPolicy;

    /// A synthetic "bug": an oracle that fails whenever the case uses
    /// the remote-call mechanism with more than one user core. The
    /// shrinker cannot know that; it must discover the minimal form.
    fn synthetic_fails(c: &SystemConfig) -> bool {
        c.mechanism == OffloadMechanism::RemoteCall && c.user_cores >= 2
    }

    /// Drives the shrink loop against a synthetic predicate (the
    /// pass/fixpoint machinery, without needing a real simulator bug).
    fn shrink_synthetic(cfg: &SystemConfig, fails: fn(&SystemConfig) -> bool) -> SystemConfig {
        let mut current = cfg.clone();
        loop {
            let mut adopted = false;
            for pass in passes() {
                while let Some(candidate) = pass(&current) {
                    if candidate.validate().is_ok() && fails(&candidate) {
                        current = candidate;
                        adopted = true;
                    } else {
                        break;
                    }
                }
            }
            if !adopted {
                return current;
            }
        }
    }

    fn off_target_keys(cfg: &SystemConfig) -> Vec<String> {
        off_target(cfg).into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn the_target_is_valid_and_on_target() {
        let t = target();
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(t.user_cores, 1);
        assert_eq!(t.instructions, 40_000);
        assert!(matches!(
            t.policy,
            PolicyKind::HardwarePredictor { threshold: 500 }
        ));
        assert!(off_target(&t).is_empty());
    }

    #[test]
    fn off_target_lists_each_changed_key_once() {
        let cfg = SystemConfig {
            seed: 42,
            user_cores: 2,
            ..target()
        };
        assert_eq!(
            off_target(&cfg),
            [
                ("user_cores".into(), "2".into()),
                ("seed".into(), "42".into())
            ]
        );
        // A key only one side encodes counts too.
        let mut traps = target();
        traps.profile.include_spill_fill = true;
        assert_eq!(off_target(&traps), [("spill_fill".into(), "true".into())]);
    }

    #[test]
    fn shrinks_to_the_essential_fields() {
        // A noisy case where only {remote_call, user_cores>=2} matter.
        let mut cfg = gen::generate(0xDEAD_BEEF);
        cfg.mechanism = OffloadMechanism::RemoteCall;
        cfg.resource_adaptation = None;
        cfg.user_cores = 4;
        cfg.policy = PolicyKind::DynamicInstrumentation {
            threshold: 5_000,
            cost: 250,
        };
        cfg.phases = vec![(10_000, Profile::mcf())];
        cfg.tuner = None;
        cfg.os_cores = 4;
        cfg.dispatch = DispatchPolicy::RoundRobin;
        cfg.os_cold_penalty = 500;
        cfg.mem_override = Some(MemConfig::half_l2_variant(cfg.total_cores()));
        assert_eq!(cfg.validate(), Ok(()));
        assert!(synthetic_fails(&cfg));

        let min = shrink_synthetic(&cfg, synthetic_fails);
        assert!(synthetic_fails(&min));
        assert!(min.phases.is_empty());
        assert!(min.mem_override.is_none());
        assert_eq!(
            (min.os_cores, min.dispatch, min.os_cold_penalty),
            (1, DispatchPolicy::LeastLoaded, 0),
            "the topology shrinks to the one-OS-core default"
        );
        assert_eq!(min.user_cores, 2, "halved to the smallest failing value");
        assert_eq!(min.policy, target().policy);
        assert_eq!(min.seed, 0);
        assert!(
            min.instructions < 2_000,
            "halved to the floor: {}",
            min.instructions
        );
        // Only the two essential deviations (plus the shrunken run
        // length) remain.
        let fields = off_target_keys(&min);
        assert!(fields.contains(&"mechanism".to_string()), "{fields:?}");
        assert!(fields.contains(&"user_cores".to_string()), "{fields:?}");
        assert!(fields.len() <= 5, "not locally minimal: {fields:?}");
    }

    #[test]
    fn os_cores_halve_to_the_smallest_failing_count() {
        // A "bug" that needs two OS cores and a cold penalty.
        let fails = |c: &SystemConfig| c.os_cores >= 2 && c.os_cold_penalty > 0;
        let mut cfg = gen::generate(0xC0FF_EE00);
        cfg.resource_adaptation = None;
        cfg.os_cores = 4;
        cfg.dispatch = DispatchPolicy::AStateAffinity;
        cfg.os_cold_penalty = 2_000;
        fit_memory(&mut cfg);
        let min = shrink_synthetic(&cfg, fails);
        assert_eq!(
            (min.os_cores, min.dispatch, min.os_cold_penalty),
            (2, DispatchPolicy::LeastLoaded, 2_000)
        );
    }

    #[test]
    fn dropping_resource_adaptation_resizes_the_memory_override() {
        // Adaptation provisions no OS core; dropping it adds one, which
        // a half-L2 override sized for the old topology cannot hold.
        let mut cfg = SystemConfig {
            resource_adaptation: Some(600),
            ..target()
        };
        cfg.mem_override = Some(MemConfig::half_l2_variant(cfg.total_cores()));
        let candidate = passes()
            .iter()
            .find_map(|pass| pass(&cfg))
            .expect("adaptation is off target");
        assert_eq!(candidate.resource_adaptation, None);
        assert_eq!(candidate.mem_override.as_ref().map(|m| m.cores), Some(2));
        assert_eq!(candidate.validate(), Ok(()));
    }

    #[test]
    fn passes_only_reduce_run_length_for_the_target() {
        // From the target the only proposals left are run-length
        // reductions (the target is not at the 1k floor); nothing may
        // move a field *away* from the target.
        let t = target();
        for (i, pass) in passes().into_iter().enumerate() {
            let Some(candidate) = pass(&t) else { continue };
            for (field, value) in off_target(&candidate) {
                assert!(
                    field == "instructions" || field == "warmup",
                    "pass {i} moved {field} off target (to {value})"
                );
            }
        }
    }
}
