//! The lane path of the parallel executor.
//!
//! Sweep points almost always share workload shapes (a grid varies
//! policy and latency, not the workload), so instead of regenerating
//! each point's stream, the points of a shape replay one recorded tape
//! ([`osoffload_system::lanes`]). Workers claim *units*: up to
//! `--lanes` points of one [`tape_compatible`] shape, each shape's units
//! contiguous in the claim order ([`shape_units`]). Every member is
//! still its own attempt, with its own retries, journal record,
//! progress line and `on_point` event, and replays through an ordinary
//! [`Simulation::run`] on its worker's thread-local [`TapeRegistry`].
//! Once every unit is claimed, idle workers help finish the units still
//! in progress a member at a time, recording the shape on their own
//! tape, so the sweep ends within about one point on every worker.
//! Workers share nothing and never wait on one another. Reports are
//! bit-identical to the scalar path, so rows, archives, and journals
//! are unchanged in content.
//!
//! [`Simulation::run`]: osoffload_system::Simulation::run
//! [`tape_compatible`]: osoffload_system::tape_compatible
//! [`shape_units`]: osoffload_system::shape_units

use crate::executor::RunnerOptions;
use osoffload_system::{SimReport, SystemConfig, TapeRegistry};
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Unit width when `--lanes=0` (auto). Points replay one at a time, so
/// the width is only a claim granularity: a wider unit lets a worker
/// replay more points per recording of a shape, while the sweep's tail
/// is shared out a point at a time whatever the width. Four keeps each
/// fig6 shape's four dispatch policies in one unit; the benchmark
/// harness's `LANES` constant mirrors it.
pub(crate) const AUTO_LANES: usize = 4;

/// The unit width `opts` asks for (resolving `0` = auto).
pub(crate) fn effective_lanes(opts: &RunnerOptions) -> usize {
    if opts.lanes == 0 {
        AUTO_LANES
    } else {
        opts.lanes
    }
}

/// Whether this sweep runs on the lane path. Telemetry and profiling
/// attach observers to the simulation (a different constructor path),
/// fault injection and watchdog deadlines need per-point attempt
/// control, and `--lanes=1` explicitly requests the scalar path.
pub(crate) fn eligible(opts: &RunnerOptions) -> bool {
    effective_lanes(opts) > 1
        && !opts.telemetry
        && !opts.profile
        && opts.fault_plan.is_none()
        && opts.fault_seed.is_none()
        && opts.deadline_ms.is_none()
}

thread_local! {
    /// This worker's tape of the shape it is replaying. Every worker is
    /// a scoped thread of one `run_plan` call, so the registry dies
    /// with its sweep.
    static REGISTRY: RefCell<TapeRegistry> = RefCell::new(TapeRegistry::new());
}

/// Evaluates one point by replaying this worker's tape for its shape.
pub(crate) fn eval(cfg: &SystemConfig) -> SimReport {
    with_registry(|registry| {
        registry
            .simulation(cfg.clone())
            .unwrap_or_else(|e| panic!("{e}"))
            .run()
    })
}

/// Runs `f` on this worker's registry, emptying the registry if `f`
/// unwinds: a panic mid-recording can leave a half-written segment,
/// which no later point may replay.
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
    use osoffload_system::{shape_units, tape_compatible, PolicyKind, Simulation};
    use osoffload_workload::Profile;
    use std::rc::Rc;

    /// fig6 requests its points dispatch-major, so consecutive points
    /// change shape. Units regroup them: up to `AUTO_LANES` points of one
    /// shape each, in plan order, every point in exactly one unit, and a
    /// shape's units adjacent in the claim order.
    #[test]
    fn claim_units_are_contiguous_per_shape() {
        let plan = record_plan("fig6", 0, |ev| fig6_scalability_with(Scale::quick(), ev));
        let configs: Vec<&SystemConfig> = plan.points().iter().map(|p| &p.config).collect();
        assert!(!tape_compatible(configs[0], configs[1]), "plan interleaves");
        let units = shape_units(configs.iter().copied(), AUTO_LANES);
        let order: Vec<usize> = units.concat();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..configs.len()).collect::<Vec<_>>());
        for unit in &units {
            assert!((1..=AUTO_LANES).contains(&unit.len()));
            assert!(unit.windows(2).all(|w| w[0] < w[1]));
            assert!(unit
                .iter()
                .all(|&i| tape_compatible(configs[unit[0]], configs[i])));
        }
        // Shape changes along the claim order = number of shapes - 1.
        let changes = order
            .windows(2)
            .filter(|w| !tape_compatible(configs[w[0]], configs[w[1]]))
            .count();
        let shapes = shape_units(configs.iter().copied(), usize::MAX).len();
        assert_eq!(changes + 1, shapes);
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
        assert_eq!(eval(&cfg), Simulation::new(cfg).run());
    }
}
