//! The one JSON encoding of a [`SystemConfig`].
//!
//! Archive rows, journal records, the serve wire and cache, and every
//! `config_digest` use these bytes, so two configurations share a
//! digest only when they are equal field for field. Keys keep a stable
//! order:
//!
//! ```json
//! {"profile":"apache","phases":[{"at":N,"profile":"…"}],
//!  "policy":{"kind":"hi","threshold":N},"mechanism":"thread-migration",
//!  "migration_one_way":N,"os_core_slowdown_milli":N,"os_core_contexts":N,
//!  "os_cores":N,"dispatch":"least-loaded","os_cold_penalty":N,
//!  "resource_adaptation":null,"user_cores":N,"instructions":N,"warmup":N,
//!  "seed":N,"tuner":null,"mem":null}
//! ```
//!
//! `tuner` and `mem` are `null` or carry every field of
//! [`TunerConfig`] / [`MemConfig`]. Profiles are named, not embedded:
//! a profile that differs from the catalog entry of its name encodes
//! like that entry, which is why the serve client refuses such
//! configurations. The observation settings (`trace_capacity`,
//! `telemetry`, `telemetry_capacity`, `profiling`) are left out because
//! they cannot change a report.
//!
//! [`SystemConfig::from_json`] is the trust boundary for requests from
//! outside the program. It assigns fields instead of calling the
//! builder's asserting setters, range-checks what could overflow or
//! exhaust memory before validation sees it, and then runs
//! [`SystemConfig::validate`], the check behind
//! [`SystemConfigBuilder::try_build`]. Hostile input gets an error,
//! never a panic.
//!
//! [`SystemConfigBuilder::try_build`]: crate::SystemConfigBuilder::try_build

use crate::config::{PolicyKind, SystemConfig};
use crate::migration::{MigrationModel, OffloadMechanism};
use crate::topology::DispatchPolicy;
use osoffload_core::TunerConfig;
use osoffload_mem::{CacheGeometry, Interconnect, MemConfig, ReplacementPolicy};
use osoffload_obs::json::Value;
use osoffload_sim::Instret;
use osoffload_workload::Profile;

/// Largest cache the decoder accepts, in bytes (16× the paper's L2). A
/// cache allocates its line array up front, so an unbounded size in a
/// request could exhaust the host's memory.
const MAX_CACHE_BYTES: u64 = 16 << 20;

/// Largest predictor table the decoder accepts, in entries; predictor
/// tables are allocated up front too.
const MAX_PREDICTOR_ENTRIES: usize = 1 << 20;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn uint(n: usize) -> Value {
    Value::UInt(n as u64)
}

/// Decodes `key` of object `v`, where an absent key or `null` is `None`.
fn optional<'a, T>(
    v: &'a Value,
    key: &str,
    decode: impl FnOnce(&'a Value) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(val) => decode(val).map(Some),
    }
}

fn catalog_profile(name: &str) -> Result<Profile, String> {
    Profile::by_name(name).ok_or_else(|| format!("unknown profile {name:?}"))
}

impl PolicyKind {
    /// The policy as a JSON object: `{"kind":…}` followed by the
    /// variant's parameters in declaration order.
    pub fn to_value(&self) -> Value {
        let n = |threshold: u64| ("threshold", Value::UInt(threshold));
        let (kind, params) = match *self {
            PolicyKind::Baseline => ("baseline", vec![]),
            PolicyKind::AlwaysOffload => ("always", vec![]),
            PolicyKind::HardwarePredictor { threshold } => ("hi", vec![n(threshold)]),
            PolicyKind::HardwarePredictorDirectMapped { threshold } => {
                ("hi-dm", vec![n(threshold)])
            }
            PolicyKind::HardwarePredictorSized { threshold, entries } => {
                ("hi-sized", vec![n(threshold), ("entries", uint(entries))])
            }
            PolicyKind::HardwarePredictorDmSized { threshold, entries } => (
                "hi-dm-sized",
                vec![n(threshold), ("entries", uint(entries))],
            ),
            PolicyKind::HardwarePredictorSetAssoc {
                threshold,
                sets,
                ways,
            } => (
                "hi-sa",
                vec![n(threshold), ("sets", uint(sets)), ("ways", uint(ways))],
            ),
            PolicyKind::HardwarePredictorGlobalOnly { threshold } => {
                ("hi-global", vec![n(threshold)])
            }
            PolicyKind::HardwarePredictorLastValue { threshold } => {
                ("hi-last-value", vec![n(threshold)])
            }
            PolicyKind::DynamicInstrumentation { threshold, cost } => {
                ("di", vec![n(threshold), ("cost", Value::UInt(cost))])
            }
            PolicyKind::StaticInstrumentation { stub_cost } => {
                ("si", vec![("stub_cost", Value::UInt(stub_cost))])
            }
            PolicyKind::Oracle { threshold } => ("oracle", vec![n(threshold)]),
        };
        let mut fields = vec![("kind", Value::Str(kind.into()))];
        fields.extend(params);
        obj(fields)
    }

    /// Decodes a [`to_value`](Self::to_value) object.
    pub fn from_value(v: &Value) -> Result<PolicyKind, String> {
        let kind = v.field("policy", "kind", Value::as_str)?;
        let what = format!("policy {kind:?}");
        let threshold = || v.field(&what, "threshold", Value::as_u64);
        let size = |key: &str| v.field(&what, key, Value::as_usize);
        let policy = match kind {
            "baseline" => PolicyKind::Baseline,
            "always" => PolicyKind::AlwaysOffload,
            "hi" => PolicyKind::HardwarePredictor {
                threshold: threshold()?,
            },
            "hi-dm" => PolicyKind::HardwarePredictorDirectMapped {
                threshold: threshold()?,
            },
            "hi-sized" => PolicyKind::HardwarePredictorSized {
                threshold: threshold()?,
                entries: size("entries")?,
            },
            "hi-dm-sized" => PolicyKind::HardwarePredictorDmSized {
                threshold: threshold()?,
                entries: size("entries")?,
            },
            "hi-sa" => PolicyKind::HardwarePredictorSetAssoc {
                threshold: threshold()?,
                sets: size("sets")?,
                ways: size("ways")?,
            },
            "hi-global" => PolicyKind::HardwarePredictorGlobalOnly {
                threshold: threshold()?,
            },
            "hi-last-value" => PolicyKind::HardwarePredictorLastValue {
                threshold: threshold()?,
            },
            "di" => PolicyKind::DynamicInstrumentation {
                threshold: threshold()?,
                cost: v.field(&what, "cost", Value::as_u64)?,
            },
            "si" => PolicyKind::StaticInstrumentation {
                stub_cost: v.field(&what, "stub_cost", Value::as_u64)?,
            },
            "oracle" => PolicyKind::Oracle {
                threshold: threshold()?,
            },
            other => return Err(format!("unknown policy kind {other:?}")),
        };
        let entries = match policy {
            PolicyKind::HardwarePredictorSized { entries, .. }
            | PolicyKind::HardwarePredictorDmSized { entries, .. } => entries,
            PolicyKind::HardwarePredictorSetAssoc { sets, ways, .. } => sets.saturating_mul(ways),
            _ => 0,
        };
        if entries > MAX_PREDICTOR_ENTRIES {
            return Err(format!(
                "{what} table is larger than {MAX_PREDICTOR_ENTRIES} entries"
            ));
        }
        Ok(policy)
    }
}

fn tuner_value(t: &TunerConfig) -> Value {
    obj(vec![
        (
            "candidates",
            Value::Arr(t.candidates.iter().copied().map(Value::UInt).collect()),
        ),
        ("sample_epoch", Value::UInt(t.sample_epoch.as_u64())),
        ("stable_base", Value::UInt(t.stable_base.as_u64())),
        ("stable_cap", Value::UInt(t.stable_cap.as_u64())),
        ("improvement", Value::Float(t.improvement)),
        ("os_heavy_pivot", Value::Float(t.os_heavy_pivot)),
        ("initial_os_heavy", Value::UInt(t.initial_os_heavy)),
        ("initial_os_light", Value::UInt(t.initial_os_light)),
    ])
}

fn tuner_from_value(v: &Value) -> Result<TunerConfig, String> {
    let u = |key: &str| v.field("tuner", key, Value::as_u64);
    let f = |key: &str| v.field("tuner", key, Value::as_f64);
    Ok(TunerConfig {
        candidates: v
            .field("tuner", "candidates", Value::as_arr)?
            .iter()
            .map(Value::as_u64)
            .collect::<Option<Vec<u64>>>()
            .ok_or("tuner candidates must be integers")?,
        sample_epoch: Instret::new(u("sample_epoch")?),
        stable_base: Instret::new(u("stable_base")?),
        stable_cap: Instret::new(u("stable_cap")?),
        improvement: f("improvement")?,
        os_heavy_pivot: f("os_heavy_pivot")?,
        initial_os_heavy: u("initial_os_heavy")?,
        initial_os_light: u("initial_os_light")?,
    })
}

fn mem_value(m: &MemConfig) -> Value {
    let geometry = |g: &CacheGeometry| {
        obj(vec![
            ("size_bytes", Value::UInt(g.size_bytes())),
            ("ways", Value::UInt(g.ways().into())),
        ])
    };
    let replacement = match m.replacement {
        ReplacementPolicy::Lru => "lru",
        ReplacementPolicy::Nmru => "nmru",
        ReplacementPolicy::Random => "random",
    };
    obj(vec![
        ("cores", uint(m.cores)),
        ("l1i", geometry(&m.l1i)),
        ("l1d", geometry(&m.l1d)),
        ("l2", geometry(&m.l2)),
        ("replacement", Value::Str(replacement.into())),
        ("l1_latency", Value::UInt(m.l1_latency)),
        ("l2_latency", Value::UInt(m.l2_latency)),
        (
            "interconnect",
            obj(vec![
                (
                    "directory_lookup",
                    Value::UInt(m.interconnect.directory_lookup),
                ),
                ("cache_to_cache", Value::UInt(m.interconnect.cache_to_cache)),
                ("invalidation", Value::UInt(m.interconnect.invalidation)),
            ]),
        ),
        ("dram_latency", Value::UInt(m.dram_latency)),
        ("seed", Value::UInt(m.seed)),
    ])
}

/// Decodes a [`mem_value`] object. The core count is range-checked by
/// [`SystemConfig::validate`]; cache shapes are checked here.
fn mem_from_value(v: &Value) -> Result<MemConfig, String> {
    let u = |key: &str| v.field("mem", key, Value::as_u64);
    let geometry = |key: &str| -> Result<CacheGeometry, String> {
        let what = format!("mem {key}");
        let g = v.field("mem", key, Some)?;
        let size_bytes = g.field(&what, "size_bytes", Value::as_u64)?;
        if size_bytes > MAX_CACHE_BYTES {
            return Err(format!("{what} is larger than {MAX_CACHE_BYTES} bytes"));
        }
        CacheGeometry::try_new(size_bytes, g.field(&what, "ways", Value::as_u32)?)
            .map_err(|e| format!("{what}: {e}"))
    };
    let interconnect = v.field("mem", "interconnect", Some)?;
    let latency = |key: &str| interconnect.field("mem interconnect", key, Value::as_u64);
    Ok(MemConfig {
        cores: v.field("mem", "cores", Value::as_usize)?,
        l1i: geometry("l1i")?,
        l1d: geometry("l1d")?,
        l2: geometry("l2")?,
        replacement: match v.field("mem", "replacement", Value::as_str)? {
            "lru" => ReplacementPolicy::Lru,
            "nmru" => ReplacementPolicy::Nmru,
            "random" => ReplacementPolicy::Random,
            other => return Err(format!("unknown replacement policy {other:?}")),
        },
        l1_latency: u("l1_latency")?,
        l2_latency: u("l2_latency")?,
        interconnect: Interconnect::new(
            latency("directory_lookup")?,
            latency("cache_to_cache")?,
            latency("invalidation")?,
        ),
        dram_latency: u("dram_latency")?,
        seed: u("seed")?,
    })
}

impl SystemConfig {
    /// Renders the configuration in the encoding described in the
    /// [module docs](self): every field that can change a report, in a
    /// stable key order.
    pub fn to_json(&self) -> String {
        let phases = self
            .phases
            .iter()
            .map(|(at, p)| {
                obj(vec![
                    ("at", Value::UInt(*at)),
                    ("profile", Value::Str(p.name.into())),
                ])
            })
            .collect();
        let mechanism = match self.mechanism {
            OffloadMechanism::ThreadMigration => "thread-migration",
            OffloadMechanism::RemoteCall => "remote-call",
        };
        obj(vec![
            ("profile", Value::Str(self.profile.name.into())),
            ("phases", Value::Arr(phases)),
            ("policy", self.policy.to_value()),
            ("mechanism", Value::Str(mechanism.into())),
            (
                "migration_one_way",
                Value::UInt(self.migration.one_way().as_u64()),
            ),
            (
                "os_core_slowdown_milli",
                Value::UInt(self.os_core_slowdown_milli),
            ),
            ("os_core_contexts", uint(self.os_core_contexts)),
            ("os_cores", uint(self.os_cores)),
            ("dispatch", Value::Str(self.dispatch.label().into())),
            ("os_cold_penalty", Value::UInt(self.os_cold_penalty)),
            (
                "resource_adaptation",
                self.resource_adaptation.map_or(Value::Null, Value::UInt),
            ),
            ("user_cores", uint(self.user_cores)),
            ("instructions", Value::UInt(self.instructions)),
            ("warmup", Value::UInt(self.warmup)),
            ("seed", Value::UInt(self.seed)),
            (
                "tuner",
                self.tuner.as_ref().map_or(Value::Null, tuner_value),
            ),
            (
                "mem",
                self.mem_override.as_ref().map_or(Value::Null, mem_value),
            ),
        ])
        .to_json()
    }

    /// Rebuilds a configuration from a parsed [`to_json`](Self::to_json)
    /// document and checks it with [`validate`](Self::validate).
    /// `tuner`, `mem` and `resource_adaptation` may be absent (= `null`);
    /// every other key is required.
    pub fn from_json(v: &Value) -> Result<SystemConfig, String> {
        let s = |key: &str| v.field("config", key, Value::as_str);
        let u = |key: &str| v.field("config", key, Value::as_u64);
        // Core and context counts past the memory model's 64-core
        // ceiling are refused before anything sums or sizes by them.
        let count = |key: &str| match v.field("config", key, Value::as_usize)? {
            n @ 1..=64 => Ok(n),
            n => Err(format!("{key} {n} is outside 1..=64")),
        };
        // Fields are assigned, not passed through the builder's
        // asserting setters; `validate` then checks the whole config.
        let mut cfg = SystemConfig::builder()
            .profile(catalog_profile(s("profile")?)?)
            .build();
        for (i, phase) in v
            .field("config", "phases", Value::as_arr)?
            .iter()
            .enumerate()
        {
            let what = format!("phase {i}");
            let name = phase.field(&what, "profile", Value::as_str)?;
            cfg.phases.push((
                phase.field(&what, "at", Value::as_u64)?,
                catalog_profile(name).map_err(|e| format!("{what}: {e}"))?,
            ));
        }
        cfg.policy = PolicyKind::from_value(v.field("config", "policy", Some)?)?;
        cfg.mechanism = match s("mechanism")? {
            "thread-migration" => OffloadMechanism::ThreadMigration,
            "remote-call" => OffloadMechanism::RemoteCall,
            other => return Err(format!("unknown mechanism {other:?}")),
        };
        cfg.migration = MigrationModel::new(u("migration_one_way")?);
        cfg.os_core_slowdown_milli = u("os_core_slowdown_milli")?;
        cfg.os_core_contexts = count("os_core_contexts")?;
        cfg.os_cores = count("os_cores")?;
        let dispatch = s("dispatch")?;
        cfg.dispatch = DispatchPolicy::parse(dispatch)
            .ok_or_else(|| format!("unknown dispatch policy {dispatch:?}"))?;
        cfg.os_cold_penalty = u("os_cold_penalty")?;
        cfg.resource_adaptation = optional(v, "resource_adaptation", |val| {
            val.as_u64()
                .ok_or_else(|| "resource_adaptation must be null or an integer".to_string())
        })?;
        cfg.user_cores = count("user_cores")?;
        cfg.instructions = u("instructions")?;
        cfg.warmup = u("warmup")?;
        cfg.seed = u("seed")?;
        cfg.tuner = optional(v, "tuner", tuner_from_value)?;
        cfg.mem_override = optional(v, "mem", mem_from_value)?;
        cfg.validate().map_err(|e| format!("invalid config: {e}"))?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osoffload_obs::json;

    fn decode(text: &str) -> Result<SystemConfig, String> {
        SystemConfig::from_json(&json::parse(text).expect("parse"))
    }

    fn round_trip(cfg: &SystemConfig) {
        let text = cfg.to_json();
        let back = decode(&text).expect("decode");
        assert_eq!(format!("{back:?}"), format!("{cfg:?}"), "lossless");
        assert_eq!(back.to_json(), text, "stable bytes");
    }

    fn small() -> crate::SystemConfigBuilder {
        SystemConfig::builder()
            .profile(Profile::apache())
            .instructions(10_000)
            .warmup(2_000)
    }

    #[test]
    fn every_policy_round_trips() {
        for policy in [
            PolicyKind::Baseline,
            PolicyKind::AlwaysOffload,
            PolicyKind::HardwarePredictor { threshold: 500 },
            PolicyKind::HardwarePredictorDirectMapped { threshold: 100 },
            PolicyKind::HardwarePredictorSized {
                threshold: 500,
                entries: 64,
            },
            PolicyKind::HardwarePredictorDmSized {
                threshold: 500,
                entries: 4096,
            },
            PolicyKind::HardwarePredictorSetAssoc {
                threshold: 500,
                sets: 64,
                ways: 4,
            },
            PolicyKind::HardwarePredictorGlobalOnly { threshold: 1_000 },
            PolicyKind::HardwarePredictorLastValue { threshold: 1_000 },
            PolicyKind::DynamicInstrumentation {
                threshold: 500,
                cost: 30,
            },
            PolicyKind::StaticInstrumentation { stub_cost: 10 },
            PolicyKind::Oracle { threshold: 500 },
        ] {
            assert_eq!(PolicyKind::from_value(&policy.to_value()), Ok(policy));
            round_trip(&small().policy(policy).seed(7).build());
        }
    }

    #[test]
    fn rich_configs_round_trip() {
        round_trip(
            &SystemConfig::builder()
                .profile(Profile::specjbb())
                .phase(5_000, Profile::apache())
                .policy(PolicyKind::HardwarePredictor { threshold: 500 })
                .mechanism(OffloadMechanism::RemoteCall)
                .migration_latency(100)
                .os_core_slowdown_milli(1_667)
                .os_core_contexts(2)
                .os_cores(2)
                .dispatch(DispatchPolicy::RoundRobin)
                .os_cold_penalty(250)
                .user_cores(4)
                .instructions(50_000)
                .warmup(10_000)
                .seed(u64::MAX)
                .tuner(TunerConfig::scaled_down(100))
                .build(),
        );
        let mut mem = MemConfig::half_l2_variant(2);
        mem.replacement = ReplacementPolicy::Nmru;
        mem.interconnect = Interconnect::new(5, 80, 30);
        mem.dram_latency = 200;
        round_trip(
            &small()
                .policy(PolicyKind::HardwarePredictor { threshold: 500 })
                .mem_override(mem)
                .build(),
        );
        round_trip(&small().resource_adaptation(1_500).build());
    }

    #[test]
    fn observation_settings_do_not_change_the_encoding() {
        let plain = small().build().to_json();
        let observed = small()
            .trace(16)
            .telemetry(osoffload_obs::TelemetryMode::Full)
            .telemetry_capacity(8)
            .profiling(true)
            .build()
            .to_json();
        assert_eq!(observed, plain);
    }

    #[test]
    fn hostile_documents_are_rejected_not_panicked() {
        let base = small()
            .policy(PolicyKind::HardwarePredictor { threshold: 500 })
            .mem_override(MemConfig::paper_baseline(2))
            .build()
            .to_json();
        for (needle, replacement) in [
            ("\"apache\"", "\"no-such-profile\""),
            (
                "\"os_core_slowdown_milli\":1000",
                "\"os_core_slowdown_milli\":0",
            ),
            ("\"user_cores\":1", "\"user_cores\":0"),
            ("\"user_cores\":1", "\"user_cores\":80"),
            ("\"instructions\":10000", "\"instructions\":0"),
            ("\"os_cores\":1", "\"os_cores\":0"),
            ("\"os_core_contexts\":1", "\"os_core_contexts\":0"),
            ("\"resource_adaptation\":null", "\"resource_adaptation\":0"),
            ("\"least-loaded\"", "\"magic\""),
            ("\"thread-migration\"", "\"teleport\""),
            ("\"kind\":\"hi\"", "\"kind\":\"hi-sized\",\"entries\":0"),
            (
                "\"kind\":\"hi\"",
                "\"kind\":\"hi-dm-sized\",\"entries\":1099511627776",
            ),
            (
                "\"kind\":\"hi\"",
                "\"kind\":\"hi-sa\",\"sets\":1048576,\"ways\":1048576",
            ),
            (",\"threshold\":500", ""),
            // The memory override: core counts outside 1..=64, impossible
            // or oversized cache shapes, a missing field.
            ("\"cores\":2", "\"cores\":0"),
            ("\"cores\":2", "\"cores\":65"),
            ("\"ways\":16", "\"ways\":0"),
            ("\"size_bytes\":1048576", "\"size_bytes\":1048577"),
            ("\"size_bytes\":1048576", "\"size_bytes\":1099511627776"),
            ("\"dram_latency\":350,", ""),
            ("\"lru\"", "\"mru\""),
        ] {
            let mutated = base.replacen(needle, replacement, 1);
            assert_ne!(mutated, base, "{needle} must occur");
            let parsed = json::parse(&mutated).expect("mutation keeps the JSON well formed");
            let decoded = SystemConfig::from_json(&parsed);
            assert!(
                decoded.is_err(),
                "{needle} -> {replacement} must be rejected"
            );
        }
    }
}
