//! Delta-debugging shrinker: reduce a failing case toward
//! [`FuzzCase::default`] while it keeps failing the same oracle.
//!
//! The shrinker is a fixpoint loop over a list of *passes*. Each pass
//! proposes one simplified candidate (drop the phases, halve the
//! instruction budget, reset a field to its default…); a candidate is
//! adopted iff it still lowers to a valid configuration **and** still
//! fails the oracle under investigation. When a full sweep adopts
//! nothing, the case is locally minimal: every single remaining
//! deviation from the default is necessary to reproduce the failure.

use crate::case::FuzzCase;
use crate::oracle::{self, OracleKind};

/// Result of a shrink run.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The locally-minimal failing case.
    pub case: FuzzCase,
    /// Candidates tried (adopted or not) — the cost of the shrink.
    pub attempts: usize,
    /// Candidates adopted.
    pub steps: usize,
}

/// Whether `candidate` still reproduces the failure under `oracle`.
fn still_fails(candidate: &FuzzCase, oracle: OracleKind) -> bool {
    // A candidate that no longer lowers to a valid config is a different
    // bug (or none); never adopt it.
    if candidate.to_config().is_err() {
        return false;
    }
    oracle::check(candidate, oracle).is_err()
}

/// One shrink pass: propose a simplified candidate, or `None` when the
/// field already matches the target.
type Pass = fn(&FuzzCase) -> Option<FuzzCase>;

fn passes() -> Vec<Pass> {
    vec![
        // Structure first: the big optional machinery.
        |c| {
            (!c.phases.is_empty()).then(|| {
                let mut n = c.clone();
                n.phases.clear();
                n
            })
        },
        |c| {
            c.tuner_scale.map(|_| {
                let mut n = c.clone();
                n.tuner_scale = None;
                n
            })
        },
        |c| {
            c.resource_adaptation.map(|_| {
                let mut n = c.clone();
                n.resource_adaptation = None;
                n
            })
        },
        |c| {
            c.half_l2.then(|| {
                let mut n = c.clone();
                n.half_l2 = false;
                n
            })
        },
        |c| {
            c.remote_call.then(|| {
                let mut n = c.clone();
                n.remote_call = false;
                n
            })
        },
        // Policy: first to the default kind, then the default threshold.
        |c| {
            let d = FuzzCase::default();
            (c.policy != d.policy).then(|| {
                let mut n = c.clone();
                n.policy = d.policy;
                n
            })
        },
        // Topology and core parameters.
        |c| {
            (c.user_cores > 1).then(|| {
                let mut n = c.clone();
                n.user_cores = 1.max(c.user_cores / 2);
                n
            })
        },
        |c| {
            (c.os_core_contexts != 1).then(|| {
                let mut n = c.clone();
                n.os_core_contexts = 1;
                n
            })
        },
        |c| {
            (c.os_core_slowdown_milli != 1_000).then(|| {
                let mut n = c.clone();
                n.os_core_slowdown_milli = 1_000;
                n
            })
        },
        |c| {
            (c.migration_one_way != 5_000).then(|| {
                let mut n = c.clone();
                n.migration_one_way = 5_000;
                n
            })
        },
        |c| {
            let d = FuzzCase::default();
            (c.profile != d.profile).then(|| {
                let mut n = c.clone();
                n.profile = d.profile;
                n
            })
        },
        // Run length: halve toward a 1k floor, keeping warm-up in
        // proportion. (Never grow back toward the default: that would
        // ping-pong with this pass and the fixpoint would not terminate.)
        |c| {
            (c.instructions / 2 >= 1_000).then(|| {
                let mut n = c.clone();
                n.instructions = c.instructions / 2;
                n.warmup = c.warmup / 2;
                n
            })
        },
        |c| {
            (c.warmup != 0).then(|| {
                let mut n = c.clone();
                n.warmup = 0;
                n
            })
        },
        // Seed last: the failure often survives on a canonical seed.
        |c| {
            (c.seed != 0).then(|| {
                let mut n = c.clone();
                n.seed = 0;
                n
            })
        },
        |c| {
            (c.seed != 42 && c.seed != 0).then(|| {
                let mut n = c.clone();
                n.seed = 42;
                n
            })
        },
    ]
}

/// Shrinks `case` to a locally-minimal case still failing `oracle`.
///
/// `case` itself must fail `oracle` (the caller just observed that);
/// the result is guaranteed to fail it too.
pub fn shrink(case: &FuzzCase, oracle: OracleKind) -> Shrunk {
    let mut current = case.clone();
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
                case: current,
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
    use osoffload_system::PolicyKind;

    /// A synthetic "bug": an oracle that fails whenever the case uses
    /// the remote-call mechanism with more than one user core. The
    /// shrinker cannot know that; it must discover the minimal form.
    fn synthetic_fails(c: &FuzzCase) -> bool {
        c.remote_call && c.user_cores >= 2
    }

    /// Drives the shrink loop against the synthetic predicate (the
    /// pass/fixpoint machinery, without needing a real simulator bug).
    fn shrink_synthetic(case: &FuzzCase) -> FuzzCase {
        let mut current = case.clone();
        loop {
            let mut adopted = false;
            for pass in passes() {
                while let Some(candidate) = pass(&current) {
                    if candidate.to_config().is_ok() && synthetic_fails(&candidate) {
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

    #[test]
    fn shrinks_to_the_essential_fields() {
        // A noisy case where only {remote_call, user_cores>=2} matter.
        let mut case = gen::generate(0xDEAD_BEEF);
        case.remote_call = true;
        case.resource_adaptation = None;
        case.user_cores = 4;
        case.policy = PolicyKind::DynamicInstrumentation {
            threshold: 5_000,
            cost: 250,
        };
        case.phases = vec![(10_000, "mcf".into())];
        case.tuner_scale = None;
        case.half_l2 = true;
        assert!(synthetic_fails(&case));

        let min = shrink_synthetic(&case);
        assert!(synthetic_fails(&min));
        assert!(min.phases.is_empty());
        assert!(!min.half_l2);
        assert_eq!(min.user_cores, 2, "halved to the smallest failing value");
        assert_eq!(min.policy, FuzzCase::default().policy);
        assert_eq!(min.seed, 0);
        assert!(
            min.instructions < 2_000,
            "halved to the floor: {}",
            min.instructions
        );
        // Only the two essential deviations (plus the shrunken run
        // length) remain.
        let fields: Vec<&str> = min
            .diff_from_default()
            .into_iter()
            .map(|(f, _)| f)
            .collect();
        assert!(fields.contains(&"remote_call"), "{fields:?}");
        assert!(fields.contains(&"user_cores"), "{fields:?}");
        assert!(fields.len() <= 5, "not locally minimal: {fields:?}");
    }

    #[test]
    fn passes_only_reduce_run_length_for_the_default_case() {
        // From the default case the only proposals left are run-length
        // reductions (default is not at the 1k floor); nothing may move
        // a field *away* from its default.
        let d = FuzzCase::default();
        for (i, pass) in passes().into_iter().enumerate() {
            let Some(candidate) = pass(&d) else { continue };
            for (field, value) in candidate.diff_from_default() {
                assert!(
                    field == "instructions" || field == "warmup",
                    "pass {i} moved {field} off default (to {value})"
                );
            }
        }
    }
}
