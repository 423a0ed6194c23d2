//! The simulation's one observation handle.
//!
//! Everything a run can observe — the telemetry ring with its
//! epoch-sampled metrics, the per-invocation trace and the cycle
//! profile — consumes one stream of [`Event`]s. The simulation holds an
//! `Option<Box<Observer>>` that is `None` when the configuration
//! observes nothing, so an unobserved run pays one never-taken branch
//! per emission site and never builds an event; otherwise each event is
//! built once and handed to the consumers the configuration enabled.
//! The handle is created when measurement starts, so warm-up is never
//! observed.

use crate::config::SystemConfig;
use crate::profile::{CycleProfile, CycleProfiler};
use crate::trace::InvocationTrace;
use osoffload_core::TunerEvent;
use osoffload_mem::{MemSnapshot, MemorySystem};
use osoffload_obs::{BoundedRing, Event, MetricId, MetricsRegistry, RunTelemetry, TelemetryMode};
use osoffload_sim::{Cycle, EpochClock, Instret};

/// Events a telemetry-observed run retains; the newest win.
pub(crate) const TELEMETRY_CAPACITY: usize = 1 << 16;

/// Everything an observed run hands back beside its report; see
/// [`Simulation::run_observed`](crate::Simulation::run_observed).
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// Telemetry events and epoch-sampled metrics (empty unless the
    /// configuration's telemetry mode is `Full`).
    pub telemetry: RunTelemetry,
    /// The cycle-attribution profile (disabled unless `profiling`).
    pub profile: CycleProfile,
    /// The per-invocation trace (empty unless `trace_capacity > 0`).
    pub trace: InvocationTrace,
    /// The §III-B tuner's decision log (empty without a tuner).
    pub tuner: Vec<TunerEvent>,
}

/// The metrics registry the simulation samples at each observation
/// epoch, with its column handles.
pub(crate) struct Metrics {
    pub(crate) reg: MetricsRegistry,
    pub(crate) offloads: MetricId,
    pub(crate) locals: MetricId,
    pub(crate) overhead: MetricId,
    pub(crate) queue_requests: MetricId,
    pub(crate) queue_stalled: MetricId,
    pub(crate) os_busy: MetricId,
    pub(crate) os_share: MetricId,
    pub(crate) l2_hit_rate: MetricId,
    pub(crate) queue_mean_delay: MetricId,
    pub(crate) queue_p95_delay: MetricId,
    pub(crate) threshold: MetricId,
    /// Per-OS-core busy-cycle counters, indexed by pool position.
    pub(crate) core_busy: Vec<MetricId>,
    /// Per-OS-core utilisation gauges, indexed by pool position.
    pub(crate) core_util: Vec<MetricId>,
    /// Dispatches in flight at the sample instant.
    pub(crate) queue_depth: MetricId,
}

impl Metrics {
    fn register(os_cores: usize) -> Self {
        let mut reg = MetricsRegistry::new();
        // Fields initialise in order, so the registry's columns keep
        // this order: the scalar series, then the topology's per-OS-core
        // busy/utilisation and the dispatch queue depth, so they show up
        // in the Chrome-trace counter tracks and the metrics CSV.
        Metrics {
            offloads: reg.register_counter("offloads"),
            locals: reg.register_counter("local_invocations"),
            overhead: reg.register_counter("decision_overhead_cycles"),
            queue_requests: reg.register_counter("queue_requests"),
            queue_stalled: reg.register_counter("queue_stalled"),
            os_busy: reg.register_counter("os_core_busy_cycles"),
            os_share: reg.register_gauge("os_share"),
            l2_hit_rate: reg.register_gauge("l2_hit_rate"),
            queue_mean_delay: reg.register_gauge("queue_mean_delay"),
            queue_p95_delay: reg.register_gauge("queue_p95_delay"),
            threshold: reg.register_gauge("threshold"),
            core_busy: (0..os_cores)
                .map(|i| reg.register_counter(&format!("os_core{i}_busy_cycles")))
                .collect(),
            core_util: (0..os_cores)
                .map(|i| reg.register_gauge(&format!("os_core{i}_utilisation")))
                .collect(),
            queue_depth: reg.register_gauge("dispatch_queue_depth"),
            reg,
        }
    }
}

/// Telemetry's consumer: the event ring and the metrics sampled beside
/// it.
struct Telemetry {
    events: BoundedRing<Event>,
    metrics: Metrics,
}

/// The observation handle of one measured region.
pub(crate) struct Observer {
    telemetry: Option<Telemetry>,
    trace: InvocationTrace,
    profile: Option<CycleProfiler>,
    /// The sampling clock (~64 epochs per measured run), independent of
    /// the tuner's so series exist for every policy. Samples only read
    /// engine state, so arming it perturbs nothing.
    pub(crate) clock: EpochClock,
    /// Memory statistics at the previous sample.
    pub(crate) snapshot: MemSnapshot,
    /// Cycle the measured region began at; utilisation gauges divide
    /// busy cycles by the window elapsed since it.
    pub(crate) start: Cycle,
}

impl Observer {
    /// The handle for `cfg`'s measured region, which starts at `start`
    /// on a topology with `os_cores` OS cores; `None` when the
    /// configuration observes nothing.
    pub(crate) fn for_config(
        cfg: &SystemConfig,
        os_cores: usize,
        mem: &MemorySystem,
        start: Cycle,
    ) -> Option<Box<Observer>> {
        let telemetry = cfg.telemetry == TelemetryMode::Full;
        if !telemetry && cfg.trace_capacity == 0 && !cfg.profiling {
            return None;
        }
        Some(Box::new(Observer {
            telemetry: telemetry.then(|| Telemetry {
                events: BoundedRing::new(TELEMETRY_CAPACITY),
                metrics: Metrics::register(os_cores),
            }),
            trace: InvocationTrace::new(cfg.trace_capacity),
            profile: cfg
                .profiling
                .then(|| CycleProfiler::new(cfg.migration.one_way().as_u64())),
            clock: EpochClock::new(Instret::new((cfg.instructions / 64).max(1))),
            snapshot: mem.snapshot(),
            start,
        }))
    }

    /// Hands one event to every enabled consumer.
    pub(crate) fn consume(&mut self, ev: Event) {
        self.trace.consume(&ev);
        if let Some(p) = self.profile.as_mut() {
            p.consume(&ev);
        }
        if let Some(t) = self.telemetry.as_mut() {
            t.events.push(ev);
        }
    }

    /// The metrics to sample at an epoch boundary (`None` unless
    /// telemetry is on).
    pub(crate) fn metrics(&mut self) -> Option<&mut Metrics> {
        self.telemetry.as_mut().map(|t| &mut t.metrics)
    }

    /// Freezes every consumer into the run's [`Observation`] (without
    /// the tuner log, which the simulation owns).
    pub(crate) fn finish(self) -> Observation {
        let telemetry = self.telemetry.map_or_else(RunTelemetry::default, |t| {
            let dropped = t.events.dropped();
            RunTelemetry {
                events_seen: t.events.len() as u64 + dropped,
                events_dropped: dropped,
                events: t.events.into_vec(),
                metrics: t.metrics.reg,
                mode: TelemetryMode::Full,
            }
        });
        Observation {
            telemetry,
            profile: self.profile.map(CycleProfiler::finish).unwrap_or_default(),
            trace: self.trace,
            tuner: Vec::new(),
        }
    }
}
