//! The fuzzer's case model: a small, serialisable description of one
//! simulation run.
//!
//! A [`FuzzCase`] is deliberately *not* a [`SystemConfig`]: it names a
//! catalog profile instead of embedding one, and collapses the tuner and
//! memory options into a scale factor and a flag, so that a case can be
//! archived as a few lines of JSON, diffed against [`FuzzCase::default`],
//! and shrunk field by field. The policy is a [`PolicyKind`], archived
//! as the system codec's policy object ([`PolicyKind::to_value`]).
//! [`FuzzCase::to_config`] lowers a case to a real
//! configuration, running [`SystemConfig::validate`] on the way — a
//! corpus file edited into a degenerate geometry is rejected with a
//! typed error, never a deep panic.

use osoffload_core::TunerConfig;
use osoffload_mem::MemConfig;
use osoffload_obs::json::Value;
use osoffload_obs::TelemetryMode;
use osoffload_system::{
    DispatchPolicy, MigrationModel, OffloadMechanism, PolicyKind, SystemConfig,
};
use osoffload_workload::Profile;

/// One generated (or shrunken, or archived) simulation case.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// Catalog profile name ([`Profile::by_name`]).
    pub profile: String,
    /// Phase switches: `(at_instruction, profile_name)`.
    pub phases: Vec<(u64, String)>,
    /// Decision policy.
    pub policy: PolicyKind,
    /// One-way migration latency in cycles.
    pub migration_one_way: u64,
    /// Whether off-loads use remote calls instead of thread migration.
    pub remote_call: bool,
    /// OS-core per-instruction slowdown, milli-units.
    pub os_core_slowdown_milli: u64,
    /// SMT contexts on the OS core.
    pub os_core_contexts: usize,
    /// OS cores in the pool.
    pub os_cores: usize,
    /// How off-loads pick an OS core.
    pub dispatch: DispatchPolicy,
    /// Cold-AState penalty on an OS core, in cycles.
    pub os_cold_penalty: u64,
    /// Resource-adaptation slowdown (milli-units), `None` = off-loading.
    pub resource_adaptation: Option<u64>,
    /// User cores.
    pub user_cores: usize,
    /// Measured instructions.
    pub instructions: u64,
    /// Warm-up instructions.
    pub warmup: u64,
    /// Master seed of the run.
    pub seed: u64,
    /// Dynamic-threshold tuner, as a `TunerConfig::scaled_down` factor.
    pub tuner_scale: Option<u64>,
    /// Use the §V-B half-size-L2 memory variant.
    pub half_l2: bool,
}

impl Default for FuzzCase {
    /// The shrinker's target: the simplest interesting run — one user
    /// core, apache, the paper's HI policy, defaults everywhere else.
    fn default() -> Self {
        FuzzCase {
            profile: "apache".into(),
            phases: Vec::new(),
            policy: PolicyKind::HardwarePredictor { threshold: 500 },
            migration_one_way: 5_000,
            remote_call: false,
            os_core_slowdown_milli: 1_000,
            os_core_contexts: 1,
            os_cores: 1,
            dispatch: DispatchPolicy::LeastLoaded,
            os_cold_penalty: 0,
            resource_adaptation: None,
            user_cores: 1,
            instructions: 40_000,
            warmup: 10_000,
            seed: 0,
            tuner_scale: None,
            half_l2: false,
        }
    }
}

impl FuzzCase {
    /// Lowers the case to a validated [`SystemConfig`].
    ///
    /// Errors if a profile name is unknown or the resulting
    /// configuration fails [`SystemConfig::validate`] — the two ways a
    /// hand-edited corpus file can be degenerate.
    pub fn to_config(&self) -> Result<SystemConfig, String> {
        let profile = Profile::by_name(&self.profile)
            .ok_or_else(|| format!("unknown profile {:?}", self.profile))?;
        if self.tuner_scale == Some(0) {
            return Err("tuner_scale must be positive".into());
        }
        let mut phases = Vec::with_capacity(self.phases.len());
        for (at, name) in &self.phases {
            let p =
                Profile::by_name(name).ok_or_else(|| format!("unknown phase profile {name:?}"))?;
            phases.push((*at, p));
        }
        let mut cfg = SystemConfig {
            profile,
            phases,
            policy: self.policy,
            migration: MigrationModel::new(self.migration_one_way),
            mechanism: if self.remote_call {
                OffloadMechanism::RemoteCall
            } else {
                OffloadMechanism::ThreadMigration
            },
            os_core_slowdown_milli: self.os_core_slowdown_milli,
            os_core_contexts: self.os_core_contexts,
            os_cores: self.os_cores,
            dispatch: self.dispatch,
            os_cold_penalty: self.os_cold_penalty,
            resource_adaptation: self.resource_adaptation,
            user_cores: self.user_cores,
            instructions: self.instructions,
            warmup: self.warmup,
            seed: self.seed,
            tuner: self.tuner_scale.map(TunerConfig::scaled_down),
            mem_override: None,
            trace_capacity: 0,
            telemetry: TelemetryMode::Off,
            profiling: false,
        };
        if self.half_l2 {
            let cores = cfg.total_cores().clamp(1, 64);
            cfg.mem_override = Some(MemConfig::half_l2_variant(cores));
        }
        cfg.validate().map_err(|e| e.to_string())?;
        Ok(cfg)
    }

    /// Serialises to a JSON object (stable field order).
    pub fn to_value(&self) -> Value {
        let opt = |o: Option<u64>| o.map_or(Value::Null, Value::UInt);
        Value::Obj(vec![
            ("profile".into(), Value::Str(self.profile.clone())),
            (
                "phases".into(),
                Value::Arr(
                    self.phases
                        .iter()
                        .map(|(at, name)| {
                            Value::Obj(vec![
                                ("at".into(), Value::UInt(*at)),
                                ("profile".into(), Value::Str(name.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("policy".into(), self.policy.to_value()),
            (
                "migration_one_way".into(),
                Value::UInt(self.migration_one_way),
            ),
            ("remote_call".into(), Value::Bool(self.remote_call)),
            (
                "os_core_slowdown_milli".into(),
                Value::UInt(self.os_core_slowdown_milli),
            ),
            (
                "os_core_contexts".into(),
                Value::UInt(self.os_core_contexts as u64),
            ),
            ("os_cores".into(), Value::UInt(self.os_cores as u64)),
            ("dispatch".into(), Value::Str(self.dispatch.label().into())),
            ("os_cold_penalty".into(), Value::UInt(self.os_cold_penalty)),
            ("resource_adaptation".into(), opt(self.resource_adaptation)),
            ("user_cores".into(), Value::UInt(self.user_cores as u64)),
            ("instructions".into(), Value::UInt(self.instructions)),
            ("warmup".into(), Value::UInt(self.warmup)),
            ("seed".into(), Value::UInt(self.seed)),
            ("tuner_scale".into(), opt(self.tuner_scale)),
            ("half_l2".into(), Value::Bool(self.half_l2)),
        ])
    }

    /// Deserialises from the [`to_value`](Self::to_value) format.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let u64_field = |key: &str| v.field("case", key, Value::as_u64);
        let usize_field = |key: &str| v.field("case", key, Value::as_usize);
        let bool_field = |key: &str| v.field("case", key, Value::as_bool);
        let opt_field = |key: &str| match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(val) => val
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("case: bad optional integer {key:?}")),
        };
        let mut phases = Vec::new();
        for item in v.field("case", "phases", Value::as_arr)? {
            let at = item.field("phase", "at", Value::as_u64)?;
            let name = item.field("phase", "profile", Value::as_str)?;
            phases.push((at, name.to_string()));
        }
        Ok(FuzzCase {
            profile: v.field("case", "profile", Value::as_str)?.to_string(),
            phases,
            policy: PolicyKind::from_value(v.field("case", "policy", Some)?)?,
            migration_one_way: u64_field("migration_one_way")?,
            remote_call: bool_field("remote_call")?,
            os_core_slowdown_milli: u64_field("os_core_slowdown_milli")?,
            os_core_contexts: usize_field("os_core_contexts")?,
            // Topology fields default when absent so corpus files written
            // before the multi-OS-core pool still parse.
            os_cores: match v.get("os_cores") {
                None => 1,
                Some(val) => val.as_usize().ok_or("case: bad integer \"os_cores\"")?,
            },
            dispatch: match v.get("dispatch") {
                None => DispatchPolicy::LeastLoaded,
                Some(val) => {
                    let label = val.as_str().ok_or("case: bad string \"dispatch\"")?;
                    DispatchPolicy::parse(label)
                        .ok_or_else(|| format!("case: unknown dispatch {label:?}"))?
                }
            },
            os_cold_penalty: match v.get("os_cold_penalty") {
                None => 0,
                Some(val) => val
                    .as_u64()
                    .ok_or("case: bad integer \"os_cold_penalty\"")?,
            },
            resource_adaptation: opt_field("resource_adaptation")?,
            user_cores: usize_field("user_cores")?,
            instructions: u64_field("instructions")?,
            warmup: u64_field("warmup")?,
            seed: u64_field("seed")?,
            tuner_scale: opt_field("tuner_scale")?,
            half_l2: bool_field("half_l2")?,
        })
    }

    /// Lists the fields where this case differs from
    /// [`FuzzCase::default`], as `(field, value)` strings — the
    /// "distance from trivial" a shrunken repro is judged by.
    pub fn diff_from_default(&self) -> Vec<(&'static str, String)> {
        let d = FuzzCase::default();
        let mut diff: Vec<(&'static str, String)> = Vec::new();
        if self.profile != d.profile {
            diff.push(("profile", self.profile.clone()));
        }
        if self.phases != d.phases {
            diff.push(("phases", format!("{:?}", self.phases)));
        }
        if self.policy != d.policy {
            diff.push(("policy", format!("{:?}", self.policy)));
        }
        if self.migration_one_way != d.migration_one_way {
            diff.push(("migration_one_way", self.migration_one_way.to_string()));
        }
        if self.remote_call != d.remote_call {
            diff.push(("remote_call", self.remote_call.to_string()));
        }
        if self.os_core_slowdown_milli != d.os_core_slowdown_milli {
            diff.push((
                "os_core_slowdown_milli",
                self.os_core_slowdown_milli.to_string(),
            ));
        }
        if self.os_core_contexts != d.os_core_contexts {
            diff.push(("os_core_contexts", self.os_core_contexts.to_string()));
        }
        if self.os_cores != d.os_cores {
            diff.push(("os_cores", self.os_cores.to_string()));
        }
        if self.dispatch != d.dispatch {
            diff.push(("dispatch", self.dispatch.label().to_string()));
        }
        if self.os_cold_penalty != d.os_cold_penalty {
            diff.push(("os_cold_penalty", self.os_cold_penalty.to_string()));
        }
        if self.resource_adaptation != d.resource_adaptation {
            diff.push((
                "resource_adaptation",
                format!("{:?}", self.resource_adaptation),
            ));
        }
        if self.user_cores != d.user_cores {
            diff.push(("user_cores", self.user_cores.to_string()));
        }
        if self.instructions != d.instructions {
            diff.push(("instructions", self.instructions.to_string()));
        }
        if self.warmup != d.warmup {
            diff.push(("warmup", self.warmup.to_string()));
        }
        if self.seed != d.seed {
            diff.push(("seed", format!("{:#x}", self.seed)));
        }
        if self.tuner_scale != d.tuner_scale {
            diff.push(("tuner_scale", format!("{:?}", self.tuner_scale)));
        }
        if self.half_l2 != d.half_l2 {
            diff.push(("half_l2", self.half_l2.to_string()));
        }
        diff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osoffload_obs::json;

    #[test]
    fn default_case_lowers_to_a_valid_config() {
        let cfg = FuzzCase::default().to_config().unwrap();
        assert_eq!(cfg.user_cores, 1);
        assert_eq!(cfg.instructions, 40_000);
        assert!(matches!(
            cfg.policy,
            PolicyKind::HardwarePredictor { threshold: 500 }
        ));
        assert!(FuzzCase::default().diff_from_default().is_empty());
    }

    #[test]
    fn cases_round_trip_through_json() {
        let case = FuzzCase {
            profile: "derby".into(),
            phases: vec![(20_000, "mcf".into())],
            policy: PolicyKind::DynamicInstrumentation {
                threshold: 1_000,
                cost: 120,
            },
            migration_one_way: 100,
            remote_call: true,
            os_core_slowdown_milli: 1_667,
            os_core_contexts: 2,
            os_cores: 3,
            dispatch: DispatchPolicy::AStateAffinity,
            os_cold_penalty: 750,
            resource_adaptation: None,
            user_cores: 3,
            instructions: 60_000,
            warmup: 0,
            seed: u64::MAX - 1,
            tuner_scale: Some(40),
            half_l2: true,
        };
        let text = case.to_value().to_json_pretty();
        let back = FuzzCase::from_value(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, case);
        assert!(back.to_config().is_ok());
    }

    #[test]
    fn legacy_corpus_files_without_topology_fields_parse() {
        let Value::Obj(fields) = FuzzCase::default().to_value() else {
            unreachable!()
        };
        let legacy = Value::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| !matches!(k.as_str(), "os_cores" | "dispatch" | "os_cold_penalty"))
                .collect(),
        );
        let back = FuzzCase::from_value(&legacy).unwrap();
        assert_eq!(back, FuzzCase::default());
    }

    #[test]
    fn degenerate_cases_are_rejected_not_panicked() {
        let mut case = FuzzCase {
            profile: "no-such-workload".into(),
            ..FuzzCase::default()
        };
        assert!(case.to_config().unwrap_err().contains("unknown profile"));

        case = FuzzCase::default();
        case.instructions = 0;
        assert!(case
            .to_config()
            .unwrap_err()
            .contains("need a measured region"));

        case = FuzzCase::default();
        case.policy = PolicyKind::HardwarePredictorSized {
            threshold: 500,
            entries: 0,
        };
        assert!(case.to_config().is_err());

        case = FuzzCase::default();
        case.tuner_scale = Some(0); // would assert inside scaled_down
        assert!(case.to_config().unwrap_err().contains("tuner_scale"));
    }

    #[test]
    fn diff_counts_changed_fields() {
        let case = FuzzCase {
            seed: 42,
            user_cores: 2,
            ..FuzzCase::default()
        };
        let diff = case.diff_from_default();
        assert_eq!(diff.len(), 2);
        assert!(diff.iter().any(|(f, v)| *f == "seed" && v == "0x2a"));
    }
}
