//! The assembled CMP system: simulation engine, migration machinery,
//! configuration, metrics, and the experiment drivers that regenerate
//! every table and figure of the paper.
//!
//! See the [`simulation`] module for the timing model and the
//! [`experiments`] module for the per-figure drivers.
//!
//! # Examples
//!
//! ```
//! use osoffload_system::{Simulation, SystemConfig, PolicyKind};
//! use osoffload_workload::Profile;
//!
//! let cfg = SystemConfig::builder()
//!     .profile(Profile::apache())
//!     .policy(PolicyKind::HardwarePredictor { threshold: 500 })
//!     .migration_latency(1_000)
//!     .instructions(100_000)
//!     .seed(42)
//!     .build();
//! let report = Simulation::new(cfg).run();
//! assert!(report.offloads > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod config;
pub mod experiments;
pub mod lanes;
pub mod metrics;
pub mod migration;
pub mod profile;
pub mod simulation;
pub mod topology;
pub mod trace;

pub use config::{ConfigError, PolicyKind, SystemConfig, SystemConfigBuilder};
pub use lanes::{run_lanes, shape_units, tape_compatible, LaneStepper, TapeRegistry};
pub use metrics::{BinaryPoint, CycleBreakdown, PredictorReport, QueueReport, SimReport};
pub use migration::{MigrationModel, OffloadMechanism, OsCoreQueue};
pub use profile::{CycleProfile, Phase, ProfileEntry, ProfileEpoch};
pub use simulation::Simulation;
pub use topology::{DispatchPolicy, OsCorePool, OsDispatch, OsToken, Topology};
pub use trace::{InvocationRecord, InvocationTrace};
