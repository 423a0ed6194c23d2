//! Tape replay for the parallel executor.
//!
//! Sweep points almost always share workload shapes (a grid varies
//! policy and latency, not the workload), so instead of regenerating
//! each point's stream, the points of a shape replay one recorded tape
//! ([`osoffload_system::lanes`]). The executor gives each
//! [`tape_compatible`] shape one claim unit ([`shape_units`]); every
//! member of a unit that holds more than one point replays through an
//! ordinary [`Simulation`] on its worker's thread-local
//! [`TapeRegistry`]. Every member is still its own attempt, with its own
//! retries, journal record, progress line and `on_point` event. Once
//! every unit is claimed, idle workers help finish the units still in
//! progress a member at a time, recording the shape on their own tape,
//! so the sweep ends within about one point on every worker. Workers
//! share nothing and never wait on one another. Reports are
//! bit-identical to a live run, so rows, archives, and journals are the
//! same whichever points replay.
//!
//! [`tape_compatible`]: osoffload_system::tape_compatible
//! [`shape_units`]: osoffload_system::shape_units

use osoffload_system::{Simulation, SystemConfig, TapeRegistry};
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

thread_local! {
    /// This worker's tape of the shape it is replaying. Every worker is
    /// a scoped thread of one `run_plan` call, so the registry dies
    /// with its sweep.
    static REGISTRY: RefCell<TapeRegistry> = RefCell::new(TapeRegistry::new());
}

/// Hands `run` a simulation of `cfg` that replays this worker's tape
/// for its shape.
pub(crate) fn replay<R>(cfg: SystemConfig, run: impl FnOnce(Simulation) -> R) -> R {
    with_registry(|registry| run(registry.simulation(cfg).unwrap_or_else(|e| panic!("{e}"))))
}

/// Runs `f` on this worker's registry, emptying the registry if `f`
/// unwinds: a panic or a watchdog cancellation mid-recording can leave
/// a half-written segment, which no later point may replay.
fn with_registry<R>(f: impl FnOnce(&mut TapeRegistry) -> R) -> R {
    REGISTRY.with(|cell| {
        let mut registry = cell.borrow_mut();
        match catch_unwind(AssertUnwindSafe(|| f(&mut registry))) {
            Ok(r) => r,
            Err(payload) => {
                *registry = TapeRegistry::new();
                resume_unwind(payload)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::record_plan;
    use osoffload_system::experiments::{fig6_scalability_with, Scale};
    use osoffload_system::{shape_units, tape_compatible, PolicyKind};
    use osoffload_workload::Profile;
    use std::rc::Rc;

    /// fig6 requests its points dispatch-major, so consecutive points
    /// change shape. Units regroup them: one unit per shape, in plan
    /// order, every point in exactly one unit, and no two units of one
    /// shape.
    #[test]
    fn claim_units_are_contiguous_per_shape() {
        let plan = record_plan("fig6", 0, |ev| fig6_scalability_with(Scale::quick(), ev));
        let configs: Vec<&SystemConfig> = plan.points().iter().map(|p| &p.config).collect();
        assert!(!tape_compatible(configs[0], configs[1]), "plan interleaves");
        let units = shape_units(configs.iter().copied());
        let mut sorted = units.concat();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..configs.len()).collect::<Vec<_>>());
        for (u, unit) in units.iter().enumerate() {
            assert!(unit.windows(2).all(|w| w[0] < w[1]));
            assert!(unit
                .iter()
                .all(|&i| tape_compatible(configs[unit[0]], configs[i])));
            assert!(units[..u]
                .iter()
                .all(|other| !tape_compatible(configs[other[0]], configs[unit[0]])));
        }
        assert!(units.len() < configs.len(), "shapes hold several points");
    }

    /// A tape an evaluation was recording when it unwound is dropped, so
    /// the next point of the shape records afresh.
    #[test]
    fn an_unwinding_evaluation_empties_the_registry() {
        let cfg = SystemConfig::builder()
            .profile(Profile::apache())
            .policy(PolicyKind::HardwarePredictor { threshold: 100 })
            .instructions(20_000)
            .warmup(5_000)
            .seed(7)
            .build();
        let mut held = None;
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_registry(|registry| {
                held = Some(registry.tape_for(&cfg));
                panic!("mid-replay");
            })
        }));
        assert!(result.is_err());
        let tape = held.expect("tape acquired");
        assert_eq!(Rc::strong_count(&tape), 1, "the registry let go");
        assert_eq!(
            replay(cfg.clone(), Simulation::run),
            Simulation::new(cfg).run()
        );
    }
}
