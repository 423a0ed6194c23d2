//! Deterministic differential fuzzer for the off-loading simulator.
//!
//! The fuzzer draws arbitrary-but-valid system configurations
//! ([`SystemConfig`] values: workload mixes, topologies, policies and
//! seeds) from a master-seeded RNG (the same splitting scheme the
//! experiment runner uses, so campaigns replay bit-identically) and
//! executes each case under eight oracles:
//!
//! 1. **differential** — the batched fast path ([`run`]) against the
//!    retained per-instruction reference stepper ([`run_reference`]);
//!    full-report equality.
//! 2. **predictor** — the indexed CAM predictor against the linear-scan
//!    reference model, step by step, plus a state-fingerprint match.
//! 3. **invariants** — conservation laws on the final report (cycles,
//!    instruction counts, rates in range, percentile ordering…).
//! 4. **telemetry** — telemetry on vs off must not change the report.
//! 5. **alloc** — the steady-state simulation loop must not allocate.
//! 6. **crash-recovery** — a journaled campaign built from the case,
//!    fault-injected from the case seed, killed by truncating its
//!    journal and resumed, must finish with a byte-identical archive
//!    (see `ROBUSTNESS.md`).
//! 7. **profile** — the cycle-attribution profiler must not change the
//!    report, and its phase totals must reconcile with the report's
//!    cycle accounting (see `TELEMETRY.md`).
//! 8. **lane-stepper** — the lane engine at widths 1, 2, 4 and 8, on one
//!    tape with variants of the case, against scalar runs.
//!
//! Failures are automatically shrunk ([`shrink`]) to a locally-minimal
//! case and archived as self-contained JSON repros ([`corpus`]), the
//! configuration in the system codec's encoding, with an exact replay
//! command. See `FUZZING.md` at the repo root.
//!
//! [`run`]: osoffload_system::Simulation::run
//! [`run_reference`]: osoffload_system::Simulation::run_reference
//! [`shrink`]: shrink::shrink
//! [`SystemConfig`]: osoffload_system::SystemConfig

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use corpus::CorpusEntry;
pub use gen::CaseGen;
pub use oracle::{OracleFailure, OracleKind};
pub use shrink::Shrunk;
