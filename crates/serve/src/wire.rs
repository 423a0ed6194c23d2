//! Wire configuration codec for the serve protocol.
//!
//! A request carries each point's configuration in the system codec's
//! encoding ([`SystemConfig::to_json`] / [`SystemConfig::from_json`]),
//! the same bytes that archive rows, journal records and the cache key
//! use. This module adds the client-side refusal: the encoding names
//! profiles instead of embedding them (recording only whether one
//! includes the spill/fill traps) and leaves out the observation
//! settings, so a configuration that relies on either would not arrive
//! as sent.

use osoffload_obs::json::{self, Value};
use osoffload_runner::journal::config_digest;
use osoffload_system::SystemConfig;

/// The digest the cache is keyed by — identical to
/// [`PointResult::config_digest`](osoffload_runner::PointResult::config_digest)
/// and to what `osoffload inspect find --digest` looks up.
pub fn digest(cfg: &SystemConfig) -> String {
    config_digest(&cfg.to_json())
}

/// Renders a configuration as wire JSON, or an error unless the daemon
/// would decode exactly this configuration from it. That refuses
/// profiles other than a catalog profile with or without its spill/fill
/// traps, observation settings (tracing, telemetry, profiling) and
/// configurations that fail validation.
pub fn config_to_json(cfg: &SystemConfig) -> Result<String, String> {
    let text = cfg.to_json();
    let back = SystemConfig::from_json(&json::parse(&text)?)?;
    if format!("{back:?}") != format!("{cfg:?}") {
        return Err(format!(
            "configuration of {:?} is not expressible on the wire: it uses a profile \
             outside the catalog or sets tracing, telemetry or profiling",
            cfg.profile.name
        ));
    }
    Ok(text)
}

/// Rebuilds a configuration from parsed wire JSON through
/// [`SystemConfig::from_json`], which validates it fully and never
/// panics on hostile input.
pub fn config_from_json(v: &Value) -> Result<SystemConfig, String> {
    SystemConfig::from_json(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osoffload_obs::TelemetryMode;
    use osoffload_system::PolicyKind;
    use osoffload_workload::Profile;

    fn base() -> osoffload_system::SystemConfigBuilder {
        SystemConfig::builder()
            .profile(Profile::apache())
            .policy(PolicyKind::HardwarePredictor { threshold: 500 })
            .instructions(10_000)
            .warmup(2_000)
    }

    #[test]
    fn observation_settings_and_foreign_profiles_are_not_expressible() {
        assert_eq!(
            config_to_json(&base().build()),
            Ok(base().build().to_json())
        );
        assert!(config_to_json(&base().trace(16).build()).is_err());
        assert!(config_to_json(&base().telemetry(TelemetryMode::Full).build()).is_err());
        assert!(config_to_json(&base().profiling(true).build()).is_err());
        let mut cfg = base().build();
        cfg.profile.syscall_mix.truncate(1);
        assert!(config_to_json(&cfg).is_err());
        let mut foreign = Profile::derby();
        foreign.name = "custom";
        assert!(config_to_json(&base().phase(5_000, foreign).build()).is_err());
    }

    #[test]
    fn spill_fill_configurations_are_expressible() {
        let mut traps = Profile::apache();
        traps.include_spill_fill = true;
        let cfg = base().profile(traps).build();
        assert_eq!(config_to_json(&cfg), Ok(cfg.to_json()));
        assert_ne!(digest(&cfg), digest(&base().build()));
    }
}
