//! System-level configuration: topology, policy selection, migration
//! latency, and run lengths.

use crate::migration::{MigrationModel, OffloadMechanism};
use crate::topology::{DispatchPolicy, Topology};
use core::fmt;
use osoffload_core::{
    AlwaysOffload, CamPredictor, DirectMappedPredictor, DynamicInstrumentation, HardwarePredictor,
    NeverOffload, OffloadPolicy, OraclePolicy, RoutineId, StaticInstrumentation, TunerConfig,
};
use osoffload_mem::MemConfig;
use osoffload_obs::TelemetryMode;
use osoffload_workload::Profile;
use std::collections::HashMap;

/// Which decision policy drives off-loading (see
/// [`osoffload_core::policy`] for the mechanisms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// No off-loading: the single-core baseline every figure normalises
    /// against.
    Baseline,
    /// Off-load every privileged invocation (ablation; ≈ `N = 0`).
    AlwaysOffload,
    /// **HI** with the 200-entry CAM predictor and a static threshold.
    HardwarePredictor {
        /// Off-load threshold `N` in instructions.
        threshold: u64,
    },
    /// **HI** with the 1,500-entry direct-mapped predictor.
    HardwarePredictorDirectMapped {
        /// Off-load threshold `N` in instructions.
        threshold: u64,
    },
    /// **HI** with a custom-capacity CAM (predictor-sizing ablations).
    HardwarePredictorSized {
        /// Off-load threshold `N` in instructions.
        threshold: u64,
        /// CAM entry count.
        entries: usize,
    },
    /// **HI** with a custom-capacity direct-mapped table.
    HardwarePredictorDmSized {
        /// Off-load threshold `N` in instructions.
        threshold: u64,
        /// Table entry count.
        entries: usize,
    },
    /// **HI** over a set-associative partial-tag predictor (the
    /// realistic hardware midpoint between the paper's CAM and RAM).
    HardwarePredictorSetAssoc {
        /// Off-load threshold `N` in instructions.
        threshold: u64,
        /// Number of sets.
        sets: usize,
        /// Associativity.
        ways: usize,
    },
    /// **HI** over the global-only ablation predictor (no per-AState
    /// table).
    HardwarePredictorGlobalOnly {
        /// Off-load threshold `N` in instructions.
        threshold: u64,
    },
    /// **HI** over the infinite last-value ablation predictor (no
    /// confidence filter, no fallback).
    HardwarePredictorLastValue {
        /// Off-load threshold `N` in instructions.
        threshold: u64,
    },
    /// **DI**: software instrumentation of every OS entry point.
    DynamicInstrumentation {
        /// Off-load threshold `N` in instructions.
        threshold: u64,
        /// Per-entry instrumentation cost in cycles.
        cost: u64,
    },
    /// **SI**: off-line profiling + static instrumentation of long
    /// routines only.
    StaticInstrumentation {
        /// Fixed stub cost of instrumented routines, in cycles.
        stub_cost: u64,
    },
    /// Oracle decisions on the true run length (ablation).
    Oracle {
        /// Off-load threshold `N` in instructions.
        threshold: u64,
    },
}

impl PolicyKind {
    /// Whether this run models the no-off-loading baseline (single-core
    /// topology, no OS core).
    pub fn is_baseline(&self) -> bool {
        matches!(self, PolicyKind::Baseline)
    }

    /// Short figure label.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Baseline => "baseline",
            PolicyKind::AlwaysOffload => "always",
            PolicyKind::HardwarePredictor { .. } => "HI",
            PolicyKind::HardwarePredictorDirectMapped { .. } => "HI-dm",
            PolicyKind::HardwarePredictorSized { .. } => "HI-sized",
            PolicyKind::HardwarePredictorDmSized { .. } => "HI-dm-sized",
            PolicyKind::HardwarePredictorSetAssoc { .. } => "HI-sa",
            PolicyKind::HardwarePredictorGlobalOnly { .. } => "HI-global-only",
            PolicyKind::HardwarePredictorLastValue { .. } => "HI-last-value",
            PolicyKind::DynamicInstrumentation { .. } => "DI",
            PolicyKind::StaticInstrumentation { .. } => "SI",
            PolicyKind::Oracle { .. } => "oracle",
        }
    }

    /// The off-line profile SI consumes: `routine → mean service length`
    /// over the workload's invocation mix (this plays the role of the
    /// paper's "off-line profiling" step).
    ///
    /// Only ordinary **system calls** appear: static instrumentation
    /// patches syscall entry points, and cannot intercept page faults,
    /// TLB refills, or asynchronous device interrupts — prior work
    /// "examined only system calls, or a subset of them" (§IV), which is
    /// one of the structural advantages of the hardware scheme.
    pub fn offline_profile(profile: &Profile) -> HashMap<RoutineId, f64> {
        profile
            .syscall_mix
            .iter()
            .filter(|&&(id, _)| id.spec().class == osoffload_workload::OsClass::Syscall)
            .map(|&(id, _)| {
                let contexts = profile.io_contexts(id);
                let spec = id.spec();
                let mean = contexts
                    .iter()
                    .map(|&(_, arg1)| spec.service_len(arg1) as f64)
                    .sum::<f64>()
                    / contexts.len() as f64;
                (id.trap_number(), mean)
            })
            .collect()
    }

    /// Instantiates the policy for one user core.
    pub fn build(&self, profile: &Profile, migration: MigrationModel) -> Box<dyn OffloadPolicy> {
        match *self {
            PolicyKind::Baseline => Box::new(NeverOffload),
            PolicyKind::AlwaysOffload => Box::new(AlwaysOffload),
            PolicyKind::HardwarePredictor { threshold } => Box::new(HardwarePredictor::new(
                CamPredictor::paper_default(),
                threshold,
            )),
            PolicyKind::HardwarePredictorDirectMapped { threshold } => Box::new(
                HardwarePredictor::new(DirectMappedPredictor::paper_default(), threshold),
            ),
            PolicyKind::HardwarePredictorSized { threshold, entries } => Box::new(
                HardwarePredictor::new(CamPredictor::new(entries), threshold),
            ),
            PolicyKind::HardwarePredictorDmSized { threshold, entries } => Box::new(
                HardwarePredictor::new(DirectMappedPredictor::new(entries), threshold),
            ),
            PolicyKind::HardwarePredictorSetAssoc {
                threshold,
                sets,
                ways,
            } => Box::new(HardwarePredictor::new(
                osoffload_core::SetAssocPredictor::new(sets, ways),
                threshold,
            )),
            PolicyKind::HardwarePredictorGlobalOnly { threshold } => Box::new(
                HardwarePredictor::new(osoffload_core::GlobalOnlyPredictor::new(), threshold),
            ),
            PolicyKind::HardwarePredictorLastValue { threshold } => Box::new(
                HardwarePredictor::new(osoffload_core::LastValuePredictor::new(), threshold),
            ),
            PolicyKind::DynamicInstrumentation { threshold, cost } => Box::new(
                DynamicInstrumentation::new(CamPredictor::paper_default(), threshold, cost),
            ),
            PolicyKind::StaticInstrumentation { stub_cost } => {
                let offline = Self::offline_profile(profile);
                Box::new(StaticInstrumentation::from_profile(
                    &offline,
                    migration.one_way().as_u64(),
                    stub_cost,
                ))
            }
            PolicyKind::Oracle { threshold } => Box::new(OraclePolicy::new(threshold)),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::HardwarePredictor { threshold }
            | PolicyKind::HardwarePredictorDirectMapped { threshold }
            | PolicyKind::Oracle { threshold } => {
                write!(f, "{} (N={})", self.label(), threshold)
            }
            PolicyKind::DynamicInstrumentation { threshold, cost } => {
                write!(f, "DI (N={threshold}, {cost} cyc)")
            }
            PolicyKind::HardwarePredictorGlobalOnly { threshold }
            | PolicyKind::HardwarePredictorLastValue { threshold } => {
                write!(f, "{} (N={})", self.label(), threshold)
            }
            _ => write!(f, "{}", self.label()),
        }
    }
}

/// Largest predictor table a configuration may ask for, in entries:
/// tables are allocated up front, so an unbounded size would exhaust
/// the host's memory instead of failing validation.
pub const MAX_PREDICTOR_ENTRIES: usize = 1 << 20;

/// Why a [`SystemConfig`] cannot be simulated.
///
/// Every variant corresponds to a degenerate geometry that would
/// otherwise surface as a panic deep inside the simulation (an empty
/// candidate grid asserts in `ThresholdTuner::new`, a zero epoch in
/// `EpochClock::new`, an oversized topology in
/// `MemConfig::paper_baseline`, …). [`SystemConfig::validate`] and
/// [`SystemConfigBuilder::try_build`] report them up front as typed
/// errors instead, which is what lets the fuzzer treat "config rejected"
/// and "simulation panicked" as different outcomes.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// No workload profile was supplied to the builder.
    MissingProfile,
    /// The base profile or a phase profile fails its own validation.
    Profile {
        /// Which profile: `"profile"` or `"phase i"`.
        context: String,
        /// The underlying violation.
        error: osoffload_workload::ProfileError,
    },
    /// `user_cores` is zero.
    NoUserCores,
    /// `instructions` is zero: there is no measured region.
    NoInstructions,
    /// `os_core_slowdown_milli` is zero (an infinitely fast OS core).
    ZeroOsCoreSlowdown,
    /// `os_core_contexts` is zero.
    NoOsCoreContexts,
    /// `os_cores` is zero: off-loading needs somewhere to off-load to.
    NoOsCores,
    /// `resource_adaptation` is `Some(0)` (an infinitely fast throttled
    /// mode).
    ZeroAdaptationSlowdown,
    /// The one-way migration latency is so large that a round trip would
    /// overflow 64-bit cycle accounting.
    MigrationOverflow {
        /// The offending one-way latency, cycles.
        one_way: u64,
    },
    /// The topology exceeds the memory model's 64-core ceiling.
    TooManyCores {
        /// Total cores the topology needs (user cores + OS core).
        total: usize,
    },
    /// A sized predictor policy was given zero entries / sets / ways.
    ZeroPredictorCapacity,
    /// A sized predictor policy asks for more than
    /// [`MAX_PREDICTOR_ENTRIES`] entries; tables are allocated up front.
    PredictorTooLarge {
        /// Entries asked for, or `None` when `sets × ways` overflows.
        entries: Option<usize>,
    },
    /// The tuner's candidate grid is empty.
    TunerEmptyCandidates,
    /// The tuner's candidate grid is not strictly ascending.
    TunerUnsortedCandidates,
    /// A tuner epoch length is zero (`EpochClock` requires positive
    /// epochs).
    TunerZeroEpoch {
        /// Which field: `"sample_epoch"`, `"stable_base"`, or
        /// `"stable_cap"`.
        field: &'static str,
    },
    /// The memory override provisions fewer cores than the topology
    /// needs.
    MemTooFewCores {
        /// Cores in the override.
        cores: usize,
        /// Cores the topology needs.
        need: usize,
    },
    /// The memory override's core count is outside `1..=64`.
    MemBadCoreCount {
        /// Cores in the override.
        cores: usize,
    },
    /// The memory override's L2 hit latency is below its L1 hit latency
    /// (the hierarchy model charges the L1 probe as part of every
    /// access).
    MemLatencyInversion {
        /// L1 hit latency, cycles.
        l1: u64,
        /// L2 hit latency, cycles.
        l2: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MissingProfile => write!(f, "SystemConfig: profile is required"),
            ConfigError::Profile { context, error } => {
                write!(f, "SystemConfig: {context} is invalid: {error}")
            }
            ConfigError::NoUserCores => write!(f, "SystemConfig: need at least one user core"),
            ConfigError::NoInstructions => write!(f, "SystemConfig: need a measured region"),
            ConfigError::ZeroOsCoreSlowdown => {
                write!(f, "SystemConfig: slowdown must be positive")
            }
            ConfigError::NoOsCoreContexts => {
                write!(f, "SystemConfig: need at least one OS-core context")
            }
            ConfigError::NoOsCores => {
                write!(f, "SystemConfig: need at least one OS core")
            }
            ConfigError::ZeroAdaptationSlowdown => {
                write!(f, "SystemConfig: adaptation slowdown must be positive")
            }
            ConfigError::MigrationOverflow { one_way } => {
                write!(
                    f,
                    "SystemConfig: migration latency {one_way} cycles overflows cycle accounting"
                )
            }
            ConfigError::TooManyCores { total } => {
                write!(
                    f,
                    "SystemConfig: topology needs {total} cores, the memory model supports at most 64"
                )
            }
            ConfigError::ZeroPredictorCapacity => {
                write!(f, "SystemConfig: predictor must have at least one entry")
            }
            ConfigError::PredictorTooLarge { entries } => {
                let entries = entries.map_or("an overflowing number of".into(), |n| n.to_string());
                write!(
                    f,
                    "SystemConfig: predictor table of {entries} entries exceeds \
                     the {MAX_PREDICTOR_ENTRIES}-entry limit"
                )
            }
            ConfigError::TunerEmptyCandidates => {
                write!(f, "SystemConfig: tuner candidate grid is empty")
            }
            ConfigError::TunerUnsortedCandidates => {
                write!(
                    f,
                    "SystemConfig: tuner candidates must be strictly ascending"
                )
            }
            ConfigError::TunerZeroEpoch { field } => {
                write!(f, "SystemConfig: tuner {field} must be positive")
            }
            ConfigError::MemTooFewCores { cores, need } => {
                write!(
                    f,
                    "SystemConfig: memory override provisions {cores} cores but the topology needs {need}"
                )
            }
            ConfigError::MemBadCoreCount { cores } => {
                write!(
                    f,
                    "SystemConfig: memory override has {cores} cores, supported range is 1..=64"
                )
            }
            ConfigError::MemLatencyInversion { l1, l2 } => {
                write!(
                    f,
                    "SystemConfig: memory override L2 latency {l2} is below L1 latency {l1}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Profile { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Workload model.
    pub profile: Profile,
    /// Program phases: `(start_instruction, profile)` switches applied to
    /// every thread's stream (the §III-B phase-change scenario). Empty =
    /// single-phase.
    pub phases: Vec<(u64, Profile)>,
    /// Decision policy.
    pub policy: PolicyKind,
    /// Migration latency model.
    pub migration: MigrationModel,
    /// How off-loaded work reaches the OS core (§II).
    pub mechanism: OffloadMechanism,
    /// Per-instruction slowdown of the OS core in milli-units (1,000 =
    /// homogeneous; 1,667 ≈ a 0.6× frequency efficiency core à la Mogul
    /// et al. \[17\]). Only affects instructions executed on the OS core.
    pub os_core_slowdown_milli: u64,
    /// SMT hardware contexts on the OS core (1 = the paper's non-SMT
    /// core; more contexts serve that many off-loads concurrently).
    pub os_core_contexts: usize,
    /// Number of OS cores serving off-loaded work (default 1 = the
    /// paper's topology; the §V-C extension provisions up to 8).
    pub os_cores: usize,
    /// How off-loaded invocations are spread over the OS cores (only
    /// observable when `os_cores > 1` or `os_cold_penalty > 0`).
    pub dispatch: DispatchPolicy,
    /// Extra service cycles when the chosen OS core has not served the
    /// request's AState recently (0 = warmth model off; see
    /// [`topology`](crate::topology)).
    pub os_cold_penalty: u64,
    /// Li & John-style resource adaptation (§VI-B): instead of migrating,
    /// invocations the policy selects run *locally* with this
    /// per-instruction slowdown (milli-units) while the core throttles to
    /// a low-power mode. No OS core exists in this topology. `None`
    /// disables adaptation (normal off-loading).
    pub resource_adaptation: Option<u64>,
    /// Number of user cores (§V-C scales this against one OS core).
    pub user_cores: usize,
    /// Instructions to retire in the measured region of interest.
    pub instructions: u64,
    /// Warm-up instructions before measurement (caches stay warm,
    /// statistics reset; paper: 50 M).
    pub warmup: u64,
    /// Master seed.
    pub seed: u64,
    /// Dynamic-threshold estimation (§III-B); `None` keeps the policy's
    /// static threshold.
    pub tuner: Option<TunerConfig>,
    /// Memory-system override (e.g. the §V-B half-size-L2 comparison);
    /// `None` uses the Table II baseline for the run's core count.
    pub mem_override: Option<MemConfig>,
    /// Per-invocation trace capacity (0 = tracing off). See
    /// [`trace`](crate::trace).
    pub trace_capacity: usize,
    /// Structured-telemetry mode (spans, epoch-sampled metrics, Chrome
    /// traces); [`TelemetryMode::Full`] retains the newest 65,536
    /// events. [`TelemetryMode::Off`] costs nothing on the hot path.
    pub telemetry: TelemetryMode,
    /// Cycle-attribution profiler (per-syscall × per-phase accounting,
    /// sampled on the observation clock). Purely observational: the
    /// report is bit-identical either way, and `false` costs nothing on
    /// the hot path — the same contract as telemetry.
    pub profiling: bool,
}

impl SystemConfig {
    /// Starts a builder with the mandatory profile.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder::default()
    }

    /// Total core count of this topology (user cores plus the OS cores
    /// when off-loading is enabled; resource adaptation reconfigures the
    /// existing cores instead of adding any).
    pub fn total_cores(&self) -> usize {
        if self.policy.is_baseline() || self.resource_adaptation.is_some() {
            self.user_cores
        } else {
            self.user_cores + self.os_cores
        }
    }

    /// The run's core-count geometry as a [`Topology`] (OS cores are 0
    /// for baseline and resource-adaptation runs, which provision none).
    pub fn topology(&self) -> Topology {
        let os_cores = if self.policy.is_baseline() || self.resource_adaptation.is_some() {
            0
        } else {
            self.os_cores
        };
        Topology {
            user_cores: self.user_cores,
            os_cores,
            contexts_per_core: self.os_core_contexts,
        }
    }

    /// Number of software threads in the run.
    pub fn thread_count(&self) -> usize {
        self.user_cores * self.profile.threads_per_core
    }

    /// The memory configuration this run uses.
    pub fn mem_config(&self) -> MemConfig {
        self.mem_override
            .clone()
            .unwrap_or_else(|| MemConfig::paper_baseline(self.total_cores()))
    }

    /// Checks every constructive precondition of the simulation,
    /// returning the first violation found.
    ///
    /// A config that validates will not panic while *building* the
    /// simulation (topology, caches, policies, tuner, workload streams).
    /// `Simulation::new` calls this and reports the violation at the
    /// surface instead of asserting somewhere deep in a subsystem.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.user_cores == 0 {
            return Err(ConfigError::NoUserCores);
        }
        if self.instructions == 0 {
            return Err(ConfigError::NoInstructions);
        }
        if self.os_core_slowdown_milli == 0 {
            return Err(ConfigError::ZeroOsCoreSlowdown);
        }
        if self.os_core_contexts == 0 {
            return Err(ConfigError::NoOsCoreContexts);
        }
        if self.os_cores == 0 {
            return Err(ConfigError::NoOsCores);
        }
        if self.resource_adaptation == Some(0) {
            return Err(ConfigError::ZeroAdaptationSlowdown);
        }
        let one_way = self.migration.one_way().as_u64();
        if one_way.checked_mul(2).is_none() {
            return Err(ConfigError::MigrationOverflow { one_way });
        }
        let total = self.total_cores();
        if total > 64 {
            return Err(ConfigError::TooManyCores { total });
        }
        self.profile
            .validate()
            .map_err(|error| ConfigError::Profile {
                context: "profile".into(),
                error,
            })?;
        for (i, (_, profile)) in self.phases.iter().enumerate() {
            profile.validate().map_err(|error| ConfigError::Profile {
                context: format!("phase {i}"),
                error,
            })?;
        }
        let table = match self.policy {
            PolicyKind::HardwarePredictorSized { entries, .. }
            | PolicyKind::HardwarePredictorDmSized { entries, .. } => Some((entries, 1)),
            PolicyKind::HardwarePredictorSetAssoc { sets, ways, .. } => Some((sets, ways)),
            _ => None,
        };
        if let Some((sets, ways)) = table {
            if sets == 0 || ways == 0 {
                return Err(ConfigError::ZeroPredictorCapacity);
            }
            match sets.checked_mul(ways) {
                Some(entries) if entries <= MAX_PREDICTOR_ENTRIES => {}
                entries => return Err(ConfigError::PredictorTooLarge { entries }),
            }
        }
        if let Some(tuner) = &self.tuner {
            if tuner.candidates.is_empty() {
                return Err(ConfigError::TunerEmptyCandidates);
            }
            if !tuner.candidates.windows(2).all(|w| w[0] < w[1]) {
                return Err(ConfigError::TunerUnsortedCandidates);
            }
            for (field, len) in [
                ("sample_epoch", tuner.sample_epoch),
                ("stable_base", tuner.stable_base),
                ("stable_cap", tuner.stable_cap),
            ] {
                if len.as_u64() == 0 {
                    return Err(ConfigError::TunerZeroEpoch { field });
                }
            }
        }
        if let Some(mem) = &self.mem_override {
            if !(1..=64).contains(&mem.cores) {
                return Err(ConfigError::MemBadCoreCount { cores: mem.cores });
            }
            if mem.cores < total {
                return Err(ConfigError::MemTooFewCores {
                    cores: mem.cores,
                    need: total,
                });
            }
            if mem.l2_latency < mem.l1_latency {
                return Err(ConfigError::MemLatencyInversion {
                    l1: mem.l1_latency,
                    l2: mem.l2_latency,
                });
            }
        }
        Ok(())
    }
}

/// Builder for [`SystemConfig`] (most fields have paper defaults).
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    profile: Option<Profile>,
    phases: Vec<(u64, Profile)>,
    policy: PolicyKind,
    migration: MigrationModel,
    mechanism: OffloadMechanism,
    os_core_slowdown_milli: u64,
    os_core_contexts: usize,
    os_cores: usize,
    dispatch: DispatchPolicy,
    os_cold_penalty: u64,
    resource_adaptation: Option<u64>,
    user_cores: usize,
    instructions: u64,
    warmup: Option<u64>,
    seed: u64,
    tuner: Option<TunerConfig>,
    mem_override: Option<MemConfig>,
    trace_capacity: usize,
    telemetry: TelemetryMode,
    profiling: bool,
}

impl Default for SystemConfigBuilder {
    fn default() -> Self {
        SystemConfigBuilder {
            profile: None,
            phases: Vec::new(),
            policy: PolicyKind::Baseline,
            migration: MigrationModel::conservative(),
            mechanism: OffloadMechanism::ThreadMigration,
            os_core_slowdown_milli: 1_000,
            os_core_contexts: 1,
            os_cores: 1,
            dispatch: DispatchPolicy::LeastLoaded,
            os_cold_penalty: 0,
            resource_adaptation: None,
            user_cores: 1,
            instructions: 1_000_000,
            warmup: None,
            seed: 0xD15C_0C0A,
            tuner: None,
            mem_override: None,
            trace_capacity: 0,
            telemetry: TelemetryMode::Off,
            profiling: false,
        }
    }
}

impl SystemConfigBuilder {
    /// Sets the workload profile (required).
    pub fn profile(mut self, profile: Profile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Adds a program phase: from `at` generated instructions on, every
    /// thread's stream follows `profile` (the §III-B phase-change
    /// scenario).
    pub fn phase(mut self, at: u64, profile: Profile) -> Self {
        self.phases.push((at, profile));
        self
    }

    /// Sets the decision policy (default: baseline).
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the one-way migration latency in cycles.
    pub fn migration_latency(mut self, cycles: u64) -> Self {
        self.migration = MigrationModel::new(cycles);
        self
    }

    /// Selects the off-load transport (default: thread migration).
    pub fn mechanism(mut self, mechanism: OffloadMechanism) -> Self {
        self.mechanism = mechanism;
        self
    }

    /// Slows the OS core by `milli`/1,000 per instruction, modelling a
    /// heterogeneous low-power OS core (default 1,000 = homogeneous).
    ///
    /// # Panics
    ///
    /// Panics if `milli` is zero (the OS core cannot be infinitely fast).
    pub fn os_core_slowdown_milli(mut self, milli: u64) -> Self {
        assert!(milli > 0, "SystemConfig: slowdown must be positive");
        self.os_core_slowdown_milli = milli;
        self
    }

    /// Provisions `n` SMT contexts on the OS core (default 1).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn os_core_contexts(mut self, n: usize) -> Self {
        assert!(n > 0, "SystemConfig: need at least one OS-core context");
        self.os_core_contexts = n;
        self
    }

    /// Provisions `n` OS cores (default 1 = the paper's topology).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn os_cores(mut self, n: usize) -> Self {
        assert!(n > 0, "SystemConfig: need at least one OS core");
        self.os_cores = n;
        self
    }

    /// Selects how off-loaded invocations are spread over the OS cores
    /// (default [`DispatchPolicy::LeastLoaded`], which reproduces the
    /// single-queue behaviour exactly when `os_cores` is 1).
    pub fn dispatch(mut self, policy: DispatchPolicy) -> Self {
        self.dispatch = policy;
        self
    }

    /// Charges `cycles` of extra service when the dispatched-to OS core
    /// has not served the request's AState recently (default 0 = warmth
    /// model off).
    pub fn os_cold_penalty(mut self, cycles: u64) -> Self {
        self.os_cold_penalty = cycles;
        self
    }

    /// Enables Li & John-style resource adaptation: selected invocations
    /// run locally under a `milli`/1,000 per-instruction slowdown while
    /// the core throttles, and no OS core exists. A zero `milli` is
    /// refused by [`try_build`](Self::try_build) as
    /// [`ConfigError::ZeroAdaptationSlowdown`].
    pub fn resource_adaptation(mut self, milli: u64) -> Self {
        self.resource_adaptation = Some(milli);
        self
    }

    /// Sets the number of user cores (default 1).
    pub fn user_cores(mut self, n: usize) -> Self {
        self.user_cores = n;
        self
    }

    /// Sets the measured instruction count (default 1 M).
    pub fn instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// Sets the warm-up instruction count (default: 25% of the measured
    /// region).
    pub fn warmup(mut self, n: u64) -> Self {
        self.warmup = Some(n);
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the §III-B dynamic threshold estimator.
    pub fn tuner(mut self, cfg: TunerConfig) -> Self {
        self.tuner = Some(cfg);
        self
    }

    /// Overrides the memory system (e.g. half-size L2s).
    pub fn mem_override(mut self, mem: MemConfig) -> Self {
        self.mem_override = Some(mem);
        self
    }

    /// Retains the newest `capacity` per-invocation trace records (0 =
    /// off; see [`trace`](crate::trace)).
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Selects the structured-telemetry mode (default
    /// [`TelemetryMode::Off`]; see [`osoffload_obs`]).
    pub fn telemetry(mut self, mode: TelemetryMode) -> Self {
        self.telemetry = mode;
        self
    }

    /// Enables the cycle-attribution profiler (default off; see
    /// [`profile`](crate::profile)).
    pub fn profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    ///
    /// Panics if no profile was supplied, or if `user_cores` or
    /// `instructions` is zero. Use [`try_build`](Self::try_build) to get
    /// a typed error instead.
    pub fn build(mut self) -> SystemConfig {
        let profile = self
            .profile
            .take()
            .expect("SystemConfig: profile is required");
        assert!(
            self.user_cores >= 1,
            "SystemConfig: need at least one user core"
        );
        assert!(
            self.instructions > 0,
            "SystemConfig: need a measured region"
        );
        self.finish(profile)
    }

    /// Finalises the configuration, running the full
    /// [`SystemConfig::validate`] check and returning the first
    /// violation as a typed [`ConfigError`] instead of panicking.
    pub fn try_build(self) -> Result<SystemConfig, ConfigError> {
        let Some(profile) = self.profile.clone() else {
            return Err(ConfigError::MissingProfile);
        };
        let cfg = self.finish(profile);
        cfg.validate()?;
        Ok(cfg)
    }

    fn finish(self, profile: Profile) -> SystemConfig {
        let warmup = self.warmup.unwrap_or(self.instructions / 4);
        SystemConfig {
            profile,
            phases: self.phases,
            policy: self.policy,
            migration: self.migration,
            mechanism: self.mechanism,
            os_core_slowdown_milli: self.os_core_slowdown_milli,
            os_core_contexts: self.os_core_contexts,
            os_cores: self.os_cores,
            dispatch: self.dispatch,
            os_cold_penalty: self.os_cold_penalty,
            resource_adaptation: self.resource_adaptation,
            user_cores: self.user_cores,
            instructions: self.instructions,
            warmup,
            seed: self.seed,
            tuner: self.tuner,
            mem_override: self.mem_override,
            trace_capacity: self.trace_capacity,
            telemetry: self.telemetry,
            profiling: self.profiling,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let cfg = SystemConfig::builder().profile(Profile::apache()).build();
        assert!(cfg.policy.is_baseline());
        assert_eq!(cfg.user_cores, 1);
        assert_eq!(cfg.total_cores(), 1);
        assert_eq!(cfg.thread_count(), 2, "apache maps 2 threads per core");
        assert_eq!(cfg.warmup, cfg.instructions / 4);
        assert_eq!(cfg.migration.one_way().as_u64(), 5_000);
    }

    #[test]
    fn offload_topologies_gain_an_os_core() {
        let cfg = SystemConfig::builder()
            .profile(Profile::apache())
            .policy(PolicyKind::HardwarePredictor { threshold: 500 })
            .user_cores(2)
            .build();
        assert_eq!(cfg.total_cores(), 3);
        assert_eq!(cfg.mem_config().cores, 3);
    }

    #[test]
    fn multi_os_core_topologies_add_every_os_core() {
        let cfg = SystemConfig::builder()
            .profile(Profile::apache())
            .policy(PolicyKind::HardwarePredictor { threshold: 500 })
            .user_cores(8)
            .os_cores(4)
            .dispatch(DispatchPolicy::RoundRobin)
            .os_cold_penalty(500)
            .build();
        assert_eq!(cfg.total_cores(), 12);
        assert_eq!(cfg.mem_config().cores, 12);
        assert_eq!(cfg.validate(), Ok(()));
        let topo = cfg.topology();
        assert_eq!(topo.user_cores, 8);
        assert_eq!(topo.os_cores, 4);
        assert_eq!(topo.contexts_per_core, 1);
        // Baseline runs provision no OS cores regardless of the knob.
        let base = SystemConfig::builder()
            .profile(Profile::apache())
            .os_cores(4)
            .build();
        assert_eq!(base.total_cores(), 1);
        assert_eq!(base.topology().os_cores, 0);
    }

    #[test]
    #[should_panic(expected = "profile is required")]
    fn missing_profile_panics() {
        SystemConfig::builder().build();
    }

    #[test]
    fn try_build_reports_missing_profile() {
        assert_eq!(
            SystemConfig::builder().try_build().err(),
            Some(ConfigError::MissingProfile)
        );
    }

    #[test]
    fn validate_accepts_every_catalog_profile() {
        for profile in Profile::all_server()
            .into_iter()
            .chain(Profile::all_compute())
        {
            let cfg = SystemConfig::builder()
                .profile(profile)
                .policy(PolicyKind::HardwarePredictor { threshold: 500 })
                .tuner(TunerConfig::paper_default())
                .build();
            assert_eq!(cfg.validate(), Ok(()), "{}", cfg.profile.name);
        }
    }

    #[test]
    fn validate_rejects_degenerate_geometries() {
        let base = || SystemConfig::builder().profile(Profile::apache());

        let mut cfg = base().build();
        cfg.user_cores = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoUserCores));

        let mut cfg = base().build();
        cfg.instructions = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoInstructions));

        let mut cfg = base().build();
        cfg.os_core_slowdown_milli = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroOsCoreSlowdown));

        let mut cfg = base().build();
        cfg.os_core_contexts = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoOsCoreContexts));

        let mut cfg = base().build();
        cfg.os_cores = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoOsCores));

        let mut cfg = base().build();
        cfg.resource_adaptation = Some(0);
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroAdaptationSlowdown));
        assert_eq!(
            base().resource_adaptation(0).try_build().err(),
            Some(ConfigError::ZeroAdaptationSlowdown),
            "the setter leaves the refusal to try_build"
        );

        let mut cfg = base().build();
        cfg.migration = MigrationModel::new(u64::MAX / 2 + 1);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::MigrationOverflow {
                one_way: u64::MAX / 2 + 1
            })
        );
        // The largest representable round trip is still accepted.
        let mut cfg = base().build();
        cfg.migration = MigrationModel::new(u64::MAX / 2);
        assert_eq!(cfg.validate(), Ok(()));

        let mut cfg = base()
            .policy(PolicyKind::HardwarePredictor { threshold: 500 })
            .build();
        cfg.user_cores = 64; // + OS core = 65
        assert_eq!(cfg.validate(), Err(ConfigError::TooManyCores { total: 65 }));

        let cfg = base()
            .policy(PolicyKind::HardwarePredictorSized {
                threshold: 500,
                entries: 0,
            })
            .build();
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroPredictorCapacity));

        // Tables are bounded by entries, with `sets × ways` checked.
        let sized = |sets, ways| {
            base()
                .policy(PolicyKind::HardwarePredictorSetAssoc {
                    threshold: 500,
                    sets,
                    ways,
                })
                .build()
                .validate()
        };
        assert_eq!(sized(64, MAX_PREDICTOR_ENTRIES / 64), Ok(()));
        assert_eq!(
            sized(64, 100_000_000),
            Err(ConfigError::PredictorTooLarge {
                entries: Some(6_400_000_000)
            })
        );
        assert_eq!(
            sized(1 << 40, 1 << 40),
            Err(ConfigError::PredictorTooLarge { entries: None })
        );
        let cfg = base()
            .policy(PolicyKind::HardwarePredictorDmSized {
                threshold: 500,
                entries: MAX_PREDICTOR_ENTRIES + 1,
            })
            .build();
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::PredictorTooLarge {
                entries: Some(MAX_PREDICTOR_ENTRIES + 1)
            })
        );

        let mut cfg = base().tuner(TunerConfig::paper_default()).build();
        cfg.tuner.as_mut().unwrap().candidates.clear();
        assert_eq!(cfg.validate(), Err(ConfigError::TunerEmptyCandidates));

        let mut cfg = base().tuner(TunerConfig::paper_default()).build();
        cfg.tuner.as_mut().unwrap().candidates = vec![500, 500];
        assert_eq!(cfg.validate(), Err(ConfigError::TunerUnsortedCandidates));

        let mut cfg = base().tuner(TunerConfig::paper_default()).build();
        cfg.tuner.as_mut().unwrap().sample_epoch = osoffload_sim::Instret::new(0);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TunerZeroEpoch {
                field: "sample_epoch"
            })
        );

        let cfg = base()
            .policy(PolicyKind::HardwarePredictor { threshold: 500 })
            .user_cores(2)
            .mem_override(MemConfig::paper_baseline(2)) // needs 3
            .build();
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::MemTooFewCores { cores: 2, need: 3 })
        );

        let mut mem = MemConfig::paper_baseline(1);
        mem.l2_latency = 0;
        let cfg = base().mem_override(mem).build();
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::MemLatencyInversion { l1: 1, l2: 0 })
        );

        let mut cfg = base().build();
        cfg.profile.syscall_mix.clear();
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::Profile { context, error })
                if context == "profile"
                    && error == osoffload_workload::ProfileError::EmptySyscallMix
        ));
    }

    #[test]
    fn config_error_display_keeps_builder_panic_messages() {
        // The builder's assert messages are load-bearing for
        // `should_panic(expected = ...)` tests across the workspace;
        // the typed errors must render the same phrases.
        assert_eq!(
            ConfigError::MissingProfile.to_string(),
            "SystemConfig: profile is required"
        );
        assert_eq!(
            ConfigError::NoUserCores.to_string(),
            "SystemConfig: need at least one user core"
        );
        assert_eq!(
            ConfigError::NoInstructions.to_string(),
            "SystemConfig: need a measured region"
        );
        assert_eq!(
            ConfigError::ZeroOsCoreSlowdown.to_string(),
            "SystemConfig: slowdown must be positive"
        );
        assert_eq!(
            ConfigError::NoOsCoreContexts.to_string(),
            "SystemConfig: need at least one OS-core context"
        );
        assert_eq!(
            ConfigError::ZeroAdaptationSlowdown.to_string(),
            "SystemConfig: adaptation slowdown must be positive"
        );
        assert_eq!(
            ConfigError::NoOsCores.to_string(),
            "SystemConfig: need at least one OS core"
        );
        assert_eq!(
            ConfigError::MigrationOverflow { one_way: 7 }.to_string(),
            "SystemConfig: migration latency 7 cycles overflows cycle accounting"
        );
    }

    #[test]
    fn policy_labels() {
        assert_eq!(PolicyKind::Baseline.label(), "baseline");
        assert_eq!(PolicyKind::HardwarePredictor { threshold: 5 }.label(), "HI");
        assert_eq!(
            PolicyKind::DynamicInstrumentation {
                threshold: 5,
                cost: 100
            }
            .label(),
            "DI"
        );
        assert_eq!(
            PolicyKind::StaticInstrumentation { stub_cost: 25 }.label(),
            "SI"
        );
        assert!(!PolicyKind::Oracle { threshold: 9 }.to_string().is_empty());
    }

    #[test]
    fn offline_profile_covers_syscalls_only() {
        let profile = Profile::derby();
        let offline = PolicyKind::offline_profile(&profile);
        let syscalls = profile
            .syscall_mix
            .iter()
            .filter(|&&(id, _)| id.spec().class == osoffload_workload::OsClass::Syscall)
            .count();
        assert_eq!(offline.len(), syscalls);
        assert!(
            offline.len() < profile.syscall_mix.len(),
            "faults/IRQs excluded"
        );
        assert!(offline.values().all(|&v| v > 0.0));
    }

    #[test]
    fn si_instruments_fewer_routines_at_higher_latency() {
        let profile = Profile::apache();
        let count = |latency: u64| {
            let policy = PolicyKind::StaticInstrumentation { stub_cost: 25 }
                .build(&profile, MigrationModel::new(latency));
            // Count via a probe: decide() offloads only instrumented routines.
            let mut policy = policy;
            profile
                .syscall_mix
                .iter()
                .filter(|&&(id, _)| {
                    policy
                        .decide(osoffload_core::OsEntry {
                            astate: osoffload_core::AState::from(1u64),
                            routine: id.trap_number(),
                        })
                        .offload
                })
                .count()
        };
        assert!(count(100) > count(5_000));
    }

    #[test]
    fn policy_build_smoke_all_variants() {
        let profile = Profile::specjbb();
        let m = MigrationModel::aggressive();
        for kind in [
            PolicyKind::Baseline,
            PolicyKind::AlwaysOffload,
            PolicyKind::HardwarePredictor { threshold: 100 },
            PolicyKind::HardwarePredictorDirectMapped { threshold: 100 },
            PolicyKind::DynamicInstrumentation {
                threshold: 100,
                cost: 120,
            },
            PolicyKind::StaticInstrumentation { stub_cost: 25 },
            PolicyKind::Oracle { threshold: 100 },
        ] {
            let p = kind.build(&profile, m);
            assert!(!p.name().is_empty());
        }
    }
}
