//! Wire configuration codec: a total, validated JSON encoding of
//! [`SystemConfig`] for the serve protocol.
//!
//! The archive-side `config_json` (see
//! [`osoffload_runner::report::config_json`]) is deliberately lossy —
//! it summarises phases as a count and the tuner/memory overrides as
//! booleans. The wire encoding is the opposite: every field a request
//! can set is carried exactly, so the daemon can rebuild the identical
//! [`SystemConfig`] through [`SystemConfigBuilder::try_build`] and the
//! cache can compare full configurations when digests collide.
//!
//! Observational knobs (tracing, telemetry, profiling) are not
//! expressible on the wire: the daemon always runs plain canonical
//! sweeps, and reports are bit-identical with or without observation.
//!
//! [`SystemConfigBuilder::try_build`]: osoffload_system::SystemConfigBuilder::try_build

use osoffload_core::TunerConfig;
use osoffload_mem::MemConfig;
use osoffload_obs::json::{self, Value};
use osoffload_obs::TelemetryMode;
use osoffload_runner::journal::fnv1a64;
use osoffload_runner::report::config_json;
use osoffload_sim::Instret;
use osoffload_system::{DispatchPolicy, OffloadMechanism, PolicyKind, SystemConfig};
use osoffload_workload::Profile;

/// The digest the cache is keyed by: FNV-1a over the point's archive
/// `config_json` bytes, rendered as 16 hex digits — identical to
/// [`PointResult::config_digest`](osoffload_runner::PointResult::config_digest)
/// and to what `osoffload inspect find --digest` looks up.
pub fn digest(cfg: &SystemConfig) -> String {
    format!("{:016x}", fnv1a64(config_json(cfg).as_bytes()))
}

fn profile_name(profile: &Profile) -> Result<&'static str, String> {
    let known = Profile::by_name(profile.name)
        .ok_or_else(|| format!("profile {:?} is not in the catalog", profile.name))?;
    if format!("{known:?}") != format!("{profile:?}") {
        return Err(format!(
            "profile {:?} differs from the catalog entry of that name",
            profile.name
        ));
    }
    Ok(known.name)
}

fn policy_json(policy: &PolicyKind) -> String {
    match policy {
        PolicyKind::Baseline => "{\"kind\":\"baseline\"}".into(),
        PolicyKind::AlwaysOffload => "{\"kind\":\"always\"}".into(),
        PolicyKind::HardwarePredictor { threshold } => {
            format!("{{\"kind\":\"hi\",\"threshold\":{threshold}}}")
        }
        PolicyKind::HardwarePredictorDirectMapped { threshold } => {
            format!("{{\"kind\":\"hi-dm\",\"threshold\":{threshold}}}")
        }
        PolicyKind::HardwarePredictorSized { threshold, entries } => {
            format!("{{\"kind\":\"hi-sized\",\"threshold\":{threshold},\"entries\":{entries}}}")
        }
        PolicyKind::HardwarePredictorDmSized { threshold, entries } => {
            format!("{{\"kind\":\"hi-dm-sized\",\"threshold\":{threshold},\"entries\":{entries}}}")
        }
        PolicyKind::HardwarePredictorSetAssoc {
            threshold,
            sets,
            ways,
        } => format!(
            "{{\"kind\":\"hi-sa\",\"threshold\":{threshold},\"sets\":{sets},\"ways\":{ways}}}"
        ),
        PolicyKind::HardwarePredictorGlobalOnly { threshold } => {
            format!("{{\"kind\":\"hi-global\",\"threshold\":{threshold}}}")
        }
        PolicyKind::HardwarePredictorLastValue { threshold } => {
            format!("{{\"kind\":\"hi-last-value\",\"threshold\":{threshold}}}")
        }
        PolicyKind::DynamicInstrumentation { threshold, cost } => {
            format!("{{\"kind\":\"di\",\"threshold\":{threshold},\"cost\":{cost}}}")
        }
        PolicyKind::StaticInstrumentation { stub_cost } => {
            format!("{{\"kind\":\"si\",\"stub_cost\":{stub_cost}}}")
        }
        PolicyKind::Oracle { threshold } => {
            format!("{{\"kind\":\"oracle\",\"threshold\":{threshold}}}")
        }
    }
}

fn policy_from_json(v: &Value) -> Result<PolicyKind, String> {
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("policy missing kind")?;
    let threshold = || {
        v.get("threshold")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("policy {kind:?} missing threshold"))
    };
    let field = |name: &str| {
        v.get(name)
            .and_then(Value::as_usize)
            .ok_or_else(|| format!("policy {kind:?} missing {name}"))
    };
    Ok(match kind {
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
            entries: field("entries")?,
        },
        "hi-dm-sized" => PolicyKind::HardwarePredictorDmSized {
            threshold: threshold()?,
            entries: field("entries")?,
        },
        "hi-sa" => PolicyKind::HardwarePredictorSetAssoc {
            threshold: threshold()?,
            sets: field("sets")?,
            ways: field("ways")?,
        },
        "hi-global" => PolicyKind::HardwarePredictorGlobalOnly {
            threshold: threshold()?,
        },
        "hi-last-value" => PolicyKind::HardwarePredictorLastValue {
            threshold: threshold()?,
        },
        "di" => PolicyKind::DynamicInstrumentation {
            threshold: threshold()?,
            cost: v
                .get("cost")
                .and_then(Value::as_u64)
                .ok_or("policy \"di\" missing cost")?,
        },
        "si" => PolicyKind::StaticInstrumentation {
            stub_cost: v
                .get("stub_cost")
                .and_then(Value::as_u64)
                .ok_or("policy \"si\" missing stub_cost")?,
        },
        "oracle" => PolicyKind::Oracle {
            threshold: threshold()?,
        },
        other => return Err(format!("unknown policy kind {other:?}")),
    })
}

fn tuner_json(tuner: &TunerConfig) -> String {
    let candidates: Vec<String> = tuner.candidates.iter().map(u64::to_string).collect();
    format!(
        "{{\"candidates\":[{}],\"sample_epoch\":{},\"stable_base\":{},\"stable_cap\":{},\
         \"improvement\":{},\"os_heavy_pivot\":{},\"initial_os_heavy\":{},\"initial_os_light\":{}}}",
        candidates.join(","),
        tuner.sample_epoch.as_u64(),
        tuner.stable_base.as_u64(),
        tuner.stable_cap.as_u64(),
        tuner.improvement,
        tuner.os_heavy_pivot,
        tuner.initial_os_heavy,
        tuner.initial_os_light
    )
}

fn tuner_from_json(v: &Value) -> Result<TunerConfig, String> {
    let u = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("tuner missing {key}"))
    };
    let f = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("tuner missing {key}"))
    };
    Ok(TunerConfig {
        candidates: v
            .get("candidates")
            .and_then(Value::as_arr)
            .ok_or("tuner missing candidates")?
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

/// Renders a configuration as wire JSON (stable key order), or an error
/// for configurations the wire cannot express (profiles outside the
/// catalog, non-half-L2 memory overrides, observation knobs).
pub fn config_to_json(cfg: &SystemConfig) -> Result<String, String> {
    if cfg.trace_capacity != 0 {
        return Err("trace capture is not expressible on the wire".into());
    }
    if !matches!(cfg.telemetry, TelemetryMode::Off) {
        return Err("telemetry modes are not expressible on the wire".into());
    }
    if cfg.profiling {
        return Err("profiling is not expressible on the wire".into());
    }
    let phases = cfg
        .phases
        .iter()
        .map(|(at, p)| {
            Ok(format!(
                "{{\"at\":{at},\"profile\":\"{}\"}}",
                profile_name(p)?
            ))
        })
        .collect::<Result<Vec<String>, String>>()?;
    let half_l2_cores = match &cfg.mem_override {
        None => "null".to_string(),
        Some(mem) => {
            let reference = MemConfig::half_l2_variant(mem.cores);
            if format!("{mem:?}") != format!("{reference:?}") {
                return Err("only the half-L2 memory override is expressible on the wire".into());
            }
            mem.cores.to_string()
        }
    };
    Ok(format!(
        "{{\"profile\":\"{}\",\"phases\":[{}],\"policy\":{},\"mechanism\":\"{}\",\
         \"migration_one_way\":{},\"os_core_slowdown_milli\":{},\"os_core_contexts\":{},\
         \"os_cores\":{},\"dispatch\":\"{}\",\"os_cold_penalty\":{},\"resource_adaptation\":{},\
         \"user_cores\":{},\"instructions\":{},\"warmup\":{},\"seed\":{},\"tuner\":{},\
         \"half_l2_cores\":{}}}",
        json::escape(profile_name(&cfg.profile)?),
        phases.join(","),
        policy_json(&cfg.policy),
        match cfg.mechanism {
            OffloadMechanism::ThreadMigration => "thread-migration",
            OffloadMechanism::RemoteCall => "remote-call",
        },
        cfg.migration.one_way().as_u64(),
        cfg.os_core_slowdown_milli,
        cfg.os_core_contexts,
        cfg.os_cores,
        cfg.dispatch.label(),
        cfg.os_cold_penalty,
        cfg.resource_adaptation
            .map_or("null".to_string(), |m| m.to_string()),
        cfg.user_cores,
        cfg.instructions,
        cfg.warmup,
        cfg.seed,
        cfg.tuner.as_ref().map_or("null".to_string(), tuner_json),
        half_l2_cores
    ))
}

/// Rebuilds a configuration from parsed wire JSON, funnelling it
/// through [`SystemConfigBuilder::try_build`] so every request is fully
/// validated before it can reach the executor. Never panics on hostile
/// input: range checks run before any asserting builder setter.
///
/// [`SystemConfigBuilder::try_build`]: osoffload_system::SystemConfigBuilder::try_build
pub fn config_from_json(v: &Value) -> Result<SystemConfig, String> {
    let s = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("config missing {key}"))
    };
    let u = |key: &str| {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("config missing {key}"))
    };
    let us = |key: &str| {
        v.get(key)
            .and_then(Value::as_usize)
            .ok_or_else(|| format!("config missing {key}"))
    };
    let profile = s("profile")?;
    let profile =
        Profile::by_name(profile).ok_or_else(|| format!("unknown profile {profile:?}"))?;
    let mut b = SystemConfig::builder().profile(profile);
    for (i, phase) in v
        .get("phases")
        .and_then(Value::as_arr)
        .ok_or("config missing phases")?
        .iter()
        .enumerate()
    {
        let at = phase
            .get("at")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("phase {i} missing at"))?;
        let name = phase
            .get("profile")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("phase {i} missing profile"))?;
        let p =
            Profile::by_name(name).ok_or_else(|| format!("phase {i}: unknown profile {name:?}"))?;
        b = b.phase(at, p);
    }
    b = b.policy(policy_from_json(
        v.get("policy").ok_or("config missing policy")?,
    )?);
    b = b.mechanism(match s("mechanism")? {
        "thread-migration" => OffloadMechanism::ThreadMigration,
        "remote-call" => OffloadMechanism::RemoteCall,
        other => return Err(format!("unknown mechanism {other:?}")),
    });
    b = b.migration_latency(u("migration_one_way")?);
    let slowdown = u("os_core_slowdown_milli")?;
    if slowdown == 0 {
        return Err("os_core_slowdown_milli must be positive".into());
    }
    b = b.os_core_slowdown_milli(slowdown);
    let contexts = us("os_core_contexts")?;
    if contexts == 0 {
        return Err("os_core_contexts must be positive".into());
    }
    b = b.os_core_contexts(contexts);
    let os_cores = us("os_cores")?;
    if os_cores == 0 {
        return Err("os_cores must be positive".into());
    }
    b = b.os_cores(os_cores);
    let dispatch = s("dispatch")?;
    b = b.dispatch(
        DispatchPolicy::parse(dispatch)
            .ok_or_else(|| format!("unknown dispatch policy {dispatch:?}"))?,
    );
    b = b.os_cold_penalty(u("os_cold_penalty")?);
    match v.get("resource_adaptation") {
        Some(Value::Null) | None => {}
        Some(val) => {
            let milli = val
                .as_u64()
                .ok_or("resource_adaptation must be null or a positive integer")?;
            if milli == 0 {
                return Err("resource_adaptation must be positive".into());
            }
            b = b.resource_adaptation(milli);
        }
    }
    b = b.user_cores(us("user_cores")?);
    b = b.instructions(u("instructions")?);
    b = b.warmup(u("warmup")?);
    b = b.seed(u("seed")?);
    match v.get("tuner") {
        Some(Value::Null) | None => {}
        Some(t) => b = b.tuner(tuner_from_json(t)?),
    }
    match v.get("half_l2_cores") {
        Some(Value::Null) | None => {}
        Some(val) => {
            let cores = val
                .as_usize()
                .ok_or("half_l2_cores must be null or a core count")?;
            if !(1..=64).contains(&cores) {
                return Err("half_l2_cores must be in 1..=64".into());
            }
            b = b.mem_override(MemConfig::half_l2_variant(cores));
        }
    }
    b.try_build().map_err(|e| format!("invalid config: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(cfg: &SystemConfig) {
        let wire = config_to_json(cfg).expect("encode");
        let parsed = json::parse(&wire).expect("parse");
        let back = config_from_json(&parsed).expect("decode");
        assert_eq!(
            format!("{back:?}"),
            format!("{cfg:?}"),
            "wire round trip must be exact"
        );
        assert_eq!(config_to_json(&back).expect("re-encode"), wire);
        assert_eq!(digest(&back), digest(cfg));
    }

    #[test]
    fn every_policy_round_trips() {
        let policies = [
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
        ];
        for policy in policies {
            round_trip(
                &SystemConfig::builder()
                    .profile(Profile::apache())
                    .policy(policy)
                    .instructions(10_000)
                    .warmup(2_000)
                    .seed(7)
                    .build(),
            );
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
                .seed(0xF00D)
                .tuner(TunerConfig::scaled_down(100))
                .build(),
        );
        round_trip(
            &SystemConfig::builder()
                .profile(Profile::apache())
                .policy(PolicyKind::HardwarePredictor { threshold: 500 })
                .mem_override(MemConfig::half_l2_variant(2))
                .instructions(10_000)
                .warmup(2_000)
                .build(),
        );
        round_trip(
            &SystemConfig::builder()
                .profile(Profile::apache())
                .resource_adaptation(1_500)
                .instructions(10_000)
                .warmup(2_000)
                .build(),
        );
    }

    #[test]
    fn invalid_requests_are_rejected_not_panicked() {
        let base = config_to_json(
            &SystemConfig::builder()
                .profile(Profile::apache())
                .instructions(10_000)
                .warmup(2_000)
                .build(),
        )
        .expect("encode");
        for (needle, replacement, why) in [
            ("\"apache\"", "\"no-such-profile\"", "unknown profile"),
            (
                "\"os_core_slowdown_milli\":1000",
                "\"os_core_slowdown_milli\":0",
                "zero slowdown",
            ),
            ("\"user_cores\":1", "\"user_cores\":0", "zero user cores"),
            (
                "\"user_cores\":1",
                "\"user_cores\":80",
                "past the core ceiling",
            ),
            (
                "\"instructions\":10000",
                "\"instructions\":0",
                "empty region",
            ),
            ("\"os_cores\":1", "\"os_cores\":0", "zero OS cores"),
            (
                "\"dispatch\":\"least-loaded\"",
                "\"dispatch\":\"magic\"",
                "unknown dispatch",
            ),
            (
                "\"half_l2_cores\":null",
                "\"half_l2_cores\":99",
                "mem cores out of range",
            ),
            (
                "\"policy\":{\"kind\":\"baseline\"}",
                "\"policy\":{\"kind\":\"hi-sized\",\"threshold\":5,\"entries\":0}",
                "zero predictor capacity",
            ),
        ] {
            let mutated = base.replace(needle, replacement);
            assert_ne!(mutated, base, "mutation {why:?} must apply");
            let parsed = json::parse(&mutated).expect("parse");
            assert!(config_from_json(&parsed).is_err(), "{why} must be rejected");
        }
    }

    #[test]
    fn observation_knobs_are_not_expressible() {
        let cfg = SystemConfig::builder()
            .profile(Profile::apache())
            .trace(16)
            .instructions(10_000)
            .build();
        assert!(config_to_json(&cfg).is_err());
        let cfg = SystemConfig::builder()
            .profile(Profile::apache())
            .telemetry(TelemetryMode::Full)
            .instructions(10_000)
            .build();
        assert!(config_to_json(&cfg).is_err());
    }
}
