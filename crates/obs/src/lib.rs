//! Unified telemetry substrate for the off-loading simulator.
//!
//! This crate is the observability layer the rest of the workspace
//! plugs into: structured spans and instants ([`Event`]) recorded
//! through a zero-overhead-when-disabled handle ([`Telemetry`]),
//! epoch-sampled metric time series ([`MetricsRegistry`]), and
//! exporters ([`RunTelemetry`], [`chrome_trace`]) that render a run as
//! Chrome trace-event JSON, CSV, and stable-key JSON. It also owns the
//! workspace's JSON ([`json`]): the one value tree, parser, writer and
//! string escaper every other crate reads and writes archives, journals,
//! wire messages and corpus files with.
//!
//! Design constraints, in order:
//!
//! 1. **Never perturb the simulation.** Recording is observational:
//!    timestamps come from the simulated clocks, metrics snapshot
//!    accumulators the simulator already keeps, and nothing here feeds
//!    back into scheduling or policy decisions.
//! 2. **Cost nothing when off.** [`Telemetry::emit_with`] takes a
//!    closure; with no sink installed the event is never constructed.
//! 3. **No dependencies.** JSON and CSV are rendered by hand so the
//!    crate builds in a hermetic container.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod event;
pub mod export;
pub mod fsio;
pub mod json;
pub mod metrics;
pub mod telemetry;

pub use event::{Event, EventKind, Track};
pub use export::{chrome_trace, RunTelemetry};
pub use fsio::atomic_write;
pub use metrics::{MetricId, MetricKind, MetricsRegistry, SampleRow};
pub use telemetry::{EventBuffer, Telemetry, TelemetryMode};
