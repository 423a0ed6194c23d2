//! Measurement reports produced by a simulation run.
//!
//! Every number the experiment drivers print comes out of a
//! [`SimReport`]; the struct serialises to JSON so results can be
//! archived and diffed across runs, and [`SimReport::from_json`] reads
//! that JSON back for journal resume, the serve cache and `osoffload
//! inspect`.

use core::fmt::{self, Write as _};
use osoffload_obs::json::Value;

/// Queueing behaviour at the OS core (§V-C).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueueReport {
    /// Off-load requests admitted.
    pub requests: u64,
    /// Requests that found the OS core busy.
    pub stalled: u64,
    /// Mean queueing delay in cycles.
    pub mean_delay: f64,
    /// Exact median queueing delay in cycles (nearest-rank from the
    /// log-scale delay histogram).
    pub p50_delay: u64,
    /// Exact 95th-percentile queueing delay in cycles.
    pub p95_delay: u64,
    /// Exact 99th-percentile queueing delay in cycles.
    pub p99_delay: u64,
}

impl QueueReport {
    /// The exact queueing-delay percentiles by their JSON keys.
    pub fn percentiles(&self) -> [(&'static str, u64); 3] {
        [
            ("p50_delay", self.p50_delay),
            ("p95_delay", self.p95_delay),
            ("p99_delay", self.p99_delay),
        ]
    }
}

/// Predictor accuracy, mirroring the paper's §III-A reporting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PredictorReport {
    /// Fraction of invocations predicted exactly.
    pub exact: f64,
    /// Fraction predicted within ±5% (includes exact).
    pub within_5pct: f64,
    /// Fraction of errors that were underestimates.
    pub underestimates: f64,
    /// Fraction of predictions served by a confident local entry.
    pub local_fraction: f64,
}

impl PredictorReport {
    /// The accuracy fractions, each in `[0, 1]`, by their JSON keys.
    pub fn fractions(&self) -> [(&'static str, f64); 4] {
        [
            ("exact", self.exact),
            ("within_5pct", self.within_5pct),
            ("underestimates", self.underestimates),
            ("local_fraction", self.local_fraction),
        ]
    }
}

/// Binary off-load decision accuracy at one threshold (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinaryPoint {
    /// Threshold `N` in instructions.
    pub threshold: u64,
    /// Fraction of invocations where `(predicted > N) == (actual > N)`.
    pub accuracy: f64,
}

/// Where the cycles of a run went, summed over all cores/threads.
///
/// Components are not disjoint with wall-clock time (threads overlap),
/// but their ratios expose what dominates CPI. Serialised in full by
/// [`SimReport::to_json`] (all components are exact integers) so
/// archives and journal restores round-trip it losslessly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBreakdown {
    /// One issue cycle per retired instruction.
    pub base: u64,
    /// Added instruction-fetch (L1I-miss) cycles.
    pub fetch: u64,
    /// Added data-access (L1D-miss, upgrade, remote, DRAM) cycles.
    pub data: u64,
    /// TLB refill cycles.
    pub tlb: u64,
    /// Branch misprediction cycles.
    pub branch: u64,
    /// Thread-migration cycles (2 × one-way × off-loads).
    pub migration: u64,
    /// Cycles spent queued for the OS core.
    pub queue_wait: u64,
    /// Decision/instrumentation overhead cycles.
    pub decision: u64,
}

impl CycleBreakdown {
    /// The components by their JSON keys, in archive order.
    pub fn components(&self) -> [(&'static str, u64); 8] {
        [
            ("base", self.base),
            ("fetch", self.fetch),
            ("data", self.data),
            ("tlb", self.tlb),
            ("branch", self.branch),
            ("migration", self.migration),
            ("queue_wait", self.queue_wait),
            ("decision", self.decision),
        ]
    }
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimReport {
    /// Workload name.
    pub profile: String,
    /// Policy label (baseline / SI / DI / HI / …).
    pub policy: String,
    /// Static threshold at run start, if the policy had one.
    pub threshold: Option<u64>,
    /// Threshold in force at run end (differs when the tuner ran).
    pub final_threshold: Option<u64>,
    /// One-way migration latency in cycles.
    pub migration_one_way: u64,
    /// User cores in the topology.
    pub user_cores: usize,
    /// OS cores in the topology (0 for baseline and resource-adaptation
    /// runs; the paper's topology has 1, the Figure 6 sweep up to 8).
    pub os_cores: usize,
    /// Dispatch-policy label routing off-loads over the OS cores (see
    /// [`DispatchPolicy`](crate::topology::DispatchPolicy)).
    pub dispatch: String,
    /// Software threads simulated.
    pub threads: usize,
    /// Instructions retired in the measured region.
    pub instructions: u64,
    /// Wall-clock cycles of the measured region.
    pub cycles: u64,
    /// Aggregate throughput: instructions per cycle across all threads
    /// (the paper's metric; equals IPC for single-threaded runs, §II).
    pub throughput: f64,
    /// Fraction of retired instructions executed in privileged mode.
    pub os_share: f64,
    /// Privileged invocations that were off-loaded.
    pub offloads: u64,
    /// Privileged invocations that ran locally.
    pub local_invocations: u64,
    /// Total decision/instrumentation overhead charged, in cycles.
    pub decision_overhead_cycles: u64,
    /// Mean L1D hit rate across user cores.
    pub l1d_hit_rate: f64,
    /// Mean L1I hit rate across user cores.
    pub l1i_hit_rate: f64,
    /// Mean branch-prediction accuracy on the user cores (user/OS
    /// aliasing pollutes this at baseline — the Gloy et al. channel the
    /// paper cites in §VI-A; off-loading restores it).
    pub user_branch_accuracy: f64,
    /// Mean L2 hit rate across user cores only.
    pub l2_user_hit_rate: f64,
    /// L2 hit rate of the OS core (0 when no OS core).
    pub l2_os_hit_rate: f64,
    /// Mean L2 hit rate across every core — the tuner's feedback metric.
    pub l2_mean_hit_rate: f64,
    /// Cache-to-cache line transfers in the measured region.
    pub c2c_transfers: u64,
    /// Invalidation rounds in the measured region.
    pub invalidation_rounds: u64,
    /// L1 data-cache lookups (hits + misses) across all cores.
    pub l1d_accesses: u64,
    /// L1 instruction-cache lookups across all cores.
    pub l1i_accesses: u64,
    /// L2 lookups across all cores.
    pub l2_accesses: u64,
    /// DRAM demand accesses in the measured region.
    pub dram_accesses: u64,
    /// Cycles spent executing under the throttled low-power mode (only
    /// non-zero in resource-adaptation topologies, §VI-B).
    pub throttled_cycles: u64,
    /// Fraction of run time the OS cores (summed) were busy (Table III;
    /// saturates at 1.0 when several OS cores are provisioned — see
    /// `os_core_utilisation` for the per-core view).
    pub os_core_busy_frac: f64,
    /// Busy cycles of each OS core, indexed by pool position (empty when
    /// no OS core exists).
    pub os_core_busy_cycles: Vec<u64>,
    /// Per-OS-core utilisation: each core's busy cycles over the run's
    /// wall-clock cycles, clamped to `[0, 1]`.
    pub os_core_utilisation: Vec<f64>,
    /// Mean fraction of run time the user cores spent *executing*
    /// (reservation while a thread is migrated away does not count —
    /// the core can clock-gate, which is Mogul et al.'s energy story).
    pub user_cores_busy_frac: f64,
    /// Queueing behaviour at the OS core.
    pub queue: QueueReport,
    /// Predictor accuracy (policies with a predictor).
    pub predictor: Option<PredictorReport>,
    /// Where the cycles went (archived losslessly; all-integer fields).
    pub cycle_breakdown: CycleBreakdown,
    /// Binary decision accuracy across the Figure 3 threshold grid.
    pub binary_accuracy: Vec<BinaryPoint>,
    /// Number of tuner adjustments logged (0 without the tuner).
    pub tuner_events: usize,
}

impl SimReport {
    /// Aggregate throughput (instructions per cycle). Convenience
    /// accessor mirroring the paper's headline metric.
    pub fn throughput(&self) -> f64 {
        self.throughput
    }

    /// Renders the report as a JSON object (stable key order), for
    /// machine consumption by scripts and notebooks.
    ///
    /// Floats are written to six decimals (`mean_delay` to three), so
    /// [`from_json`](Self::from_json) reads back exactly the values that
    /// re-encode to these bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// # use osoffload_system::{PolicyKind, Simulation, SystemConfig};
    /// # use osoffload_workload::Profile;
    /// let report = Simulation::new(
    ///     SystemConfig::builder()
    ///         .profile(Profile::blackscholes())
    ///         .instructions(20_000)
    ///         .seed(1)
    ///         .build(),
    /// )
    /// .run();
    /// let json = report.to_json();
    /// assert!(json.starts_with('{') && json.ends_with('}'));
    /// assert!(json.contains("\"profile\":\"blackscholes\""));
    /// ```
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        let mut put = |key: &str, value: &dyn fmt::Display| {
            o.push(if o.is_empty() { '{' } else { ',' });
            let _ = write!(o, "\"{key}\":{value}");
        };
        let s = osoffload_obs::json::quote;
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |n| n.to_string());
        let frac = |x: f64| format!("{x:.6}");
        let list = |items: Vec<String>| format!("[{}]", items.join(","));
        let members = |pairs: &[(&str, u64)]| {
            let pairs: Vec<String> = pairs.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            pairs.join(",")
        };
        put("profile", &s(&self.profile));
        put("policy", &s(&self.policy));
        put("threshold", &opt(self.threshold));
        put("final_threshold", &opt(self.final_threshold));
        put("migration_one_way", &self.migration_one_way);
        put("user_cores", &self.user_cores);
        put("os_cores", &self.os_cores);
        put("dispatch", &s(&self.dispatch));
        put("threads", &self.threads);
        put("instructions", &self.instructions);
        put("cycles", &self.cycles);
        put("throughput", &frac(self.throughput));
        put("os_share", &frac(self.os_share));
        put("offloads", &self.offloads);
        put("local_invocations", &self.local_invocations);
        put("decision_overhead_cycles", &self.decision_overhead_cycles);
        put("l1d_hit_rate", &frac(self.l1d_hit_rate));
        put("l1i_hit_rate", &frac(self.l1i_hit_rate));
        put("user_branch_accuracy", &frac(self.user_branch_accuracy));
        put("l2_user_hit_rate", &frac(self.l2_user_hit_rate));
        put("l2_os_hit_rate", &frac(self.l2_os_hit_rate));
        put("l2_mean_hit_rate", &frac(self.l2_mean_hit_rate));
        put("c2c_transfers", &self.c2c_transfers);
        put("invalidation_rounds", &self.invalidation_rounds);
        put("l1d_accesses", &self.l1d_accesses);
        put("l1i_accesses", &self.l1i_accesses);
        put("l2_accesses", &self.l2_accesses);
        put("dram_accesses", &self.dram_accesses);
        put("throttled_cycles", &self.throttled_cycles);
        put("os_core_busy_frac", &frac(self.os_core_busy_frac));
        let busy = self.os_core_busy_cycles.iter().map(u64::to_string);
        put("os_core_busy_cycles", &list(busy.collect()));
        let utilisation = self.os_core_utilisation.iter().map(|&u| frac(u));
        put("os_core_utilisation", &list(utilisation.collect()));
        put("user_cores_busy_frac", &frac(self.user_cores_busy_frac));
        let q = &self.queue;
        put(
            "queue",
            &format_args!(
                "{{\"requests\":{},\"stalled\":{},\"mean_delay\":{:.3},{}}}",
                q.requests,
                q.stalled,
                q.mean_delay,
                members(&q.percentiles())
            ),
        );
        let predictor = self.predictor.as_ref().map_or("null".to_string(), |p| {
            let fractions = p.fractions().map(|(key, x)| format!("\"{key}\":{x:.6}"));
            format!("{{{}}}", fractions.join(","))
        });
        put("predictor", &predictor);
        let breakdown = members(&self.cycle_breakdown.components());
        put("cycle_breakdown", &format_args!("{{{breakdown}}}"));
        let points = self.binary_accuracy.iter().map(|b| {
            format!(
                "{{\"threshold\":{},\"accuracy\":{:.6}}}",
                b.threshold, b.accuracy
            )
        });
        put("binary_accuracy", &list(points.collect()));
        put("tuner_events", &self.tuner_events);
        o.push('}');
        o
    }

    /// Rebuilds a report from a parsed [`to_json`](Self::to_json)
    /// document. Every key is required; `threshold`, `final_threshold`
    /// and `predictor` may be `null`. The floats are the rounded values
    /// `to_json` wrote, so re-encoding the result reproduces its bytes.
    pub fn from_json(v: &Value) -> Result<SimReport, String> {
        let what = "report";
        let u = |key: &str| v.field(what, key, Value::as_u64);
        let n = |key: &str| v.field(what, key, Value::as_usize);
        let f = |key: &str| v.field(what, key, Value::as_f64);
        let s = |key: &str| v.field(what, key, Value::as_str).map(str::to_string);
        let opt = |key: &str| match v.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(x) => x
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("{what} {key} must be null or an integer")),
        };
        let list = |key: &str| v.field(what, key, Value::as_arr);
        let queue = v.field(what, "queue", Some)?;
        let q = |key: &str| queue.field("report queue", key, Value::as_u64);
        let cb = v.field(what, "cycle_breakdown", Some)?;
        let c = |key: &str| cb.field("report cycle_breakdown", key, Value::as_u64);
        let predictor = match v.get("predictor") {
            None | Some(Value::Null) => None,
            Some(p) => {
                let f = |key: &str| p.field("report predictor", key, Value::as_f64);
                Some(PredictorReport {
                    exact: f("exact")?,
                    within_5pct: f("within_5pct")?,
                    underestimates: f("underestimates")?,
                    local_fraction: f("local_fraction")?,
                })
            }
        };
        Ok(SimReport {
            profile: s("profile")?,
            policy: s("policy")?,
            threshold: opt("threshold")?,
            final_threshold: opt("final_threshold")?,
            migration_one_way: u("migration_one_way")?,
            user_cores: n("user_cores")?,
            os_cores: n("os_cores")?,
            dispatch: s("dispatch")?,
            threads: n("threads")?,
            instructions: u("instructions")?,
            cycles: u("cycles")?,
            throughput: f("throughput")?,
            os_share: f("os_share")?,
            offloads: u("offloads")?,
            local_invocations: u("local_invocations")?,
            decision_overhead_cycles: u("decision_overhead_cycles")?,
            l1d_hit_rate: f("l1d_hit_rate")?,
            l1i_hit_rate: f("l1i_hit_rate")?,
            user_branch_accuracy: f("user_branch_accuracy")?,
            l2_user_hit_rate: f("l2_user_hit_rate")?,
            l2_os_hit_rate: f("l2_os_hit_rate")?,
            l2_mean_hit_rate: f("l2_mean_hit_rate")?,
            c2c_transfers: u("c2c_transfers")?,
            invalidation_rounds: u("invalidation_rounds")?,
            l1d_accesses: u("l1d_accesses")?,
            l1i_accesses: u("l1i_accesses")?,
            l2_accesses: u("l2_accesses")?,
            dram_accesses: u("dram_accesses")?,
            throttled_cycles: u("throttled_cycles")?,
            os_core_busy_frac: f("os_core_busy_frac")?,
            os_core_busy_cycles: list("os_core_busy_cycles")?
                .iter()
                .map(Value::as_u64)
                .collect::<Option<_>>()
                .ok_or("report os_core_busy_cycles holds a non-integer")?,
            os_core_utilisation: list("os_core_utilisation")?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<_>>()
                .ok_or("report os_core_utilisation holds a non-number")?,
            user_cores_busy_frac: f("user_cores_busy_frac")?,
            queue: QueueReport {
                requests: q("requests")?,
                stalled: q("stalled")?,
                mean_delay: queue.field("report queue", "mean_delay", Value::as_f64)?,
                p50_delay: q("p50_delay")?,
                p95_delay: q("p95_delay")?,
                p99_delay: q("p99_delay")?,
            },
            predictor,
            cycle_breakdown: CycleBreakdown {
                base: c("base")?,
                fetch: c("fetch")?,
                data: c("data")?,
                tlb: c("tlb")?,
                branch: c("branch")?,
                migration: c("migration")?,
                queue_wait: c("queue_wait")?,
                decision: c("decision")?,
            },
            binary_accuracy: list("binary_accuracy")?
                .iter()
                .map(|b| {
                    Ok(BinaryPoint {
                        threshold: b.field("report binary_accuracy", "threshold", Value::as_u64)?,
                        accuracy: b.field("report binary_accuracy", "accuracy", Value::as_f64)?,
                    })
                })
                .collect::<Result<_, String>>()?,
            tuner_events: n("tuner_events")?,
        })
    }

    /// The fields that are fractions, each in `[0, 1]` on a well-formed
    /// report, named by their JSON keys.
    pub fn fractions(&self) -> [(&'static str, f64); 9] {
        [
            ("os_share", self.os_share),
            ("l1d_hit_rate", self.l1d_hit_rate),
            ("l1i_hit_rate", self.l1i_hit_rate),
            ("user_branch_accuracy", self.user_branch_accuracy),
            ("l2_user_hit_rate", self.l2_user_hit_rate),
            ("l2_os_hit_rate", self.l2_os_hit_rate),
            ("l2_mean_hit_rate", self.l2_mean_hit_rate),
            ("os_core_busy_frac", self.os_core_busy_frac),
            ("user_cores_busy_frac", self.user_cores_busy_frac),
        ]
    }

    /// This run's throughput normalised to a baseline run.
    ///
    /// # Panics
    ///
    /// Panics if the baseline throughput is zero.
    pub fn normalized_to(&self, baseline: &SimReport) -> f64 {
        assert!(baseline.throughput > 0.0, "baseline throughput is zero");
        self.throughput / baseline.throughput
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}: {:.4} insn/cyc ({} insn, {} cyc), OS {:.1}%, offloads {}, OS-core busy {:.1}%",
            self.profile,
            self.policy,
            self.throughput,
            self.instructions,
            self.cycles,
            self.os_share * 100.0,
            self.offloads,
            self.os_core_busy_frac * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(throughput: f64) -> SimReport {
        SimReport {
            profile: "apache".into(),
            policy: "HI".into(),
            threshold: Some(500),
            final_threshold: Some(500),
            migration_one_way: 100,
            user_cores: 1,
            os_cores: 1,
            dispatch: "least-loaded".into(),
            threads: 2,
            instructions: 1_000,
            cycles: 2_000,
            throughput,
            os_share: 0.5,
            offloads: 10,
            local_invocations: 5,
            decision_overhead_cycles: 15,
            l1d_hit_rate: 0.95,
            l1i_hit_rate: 0.99,
            user_branch_accuracy: 0.93,
            l2_user_hit_rate: 0.8,
            l2_os_hit_rate: 0.7,
            l2_mean_hit_rate: 0.75,
            c2c_transfers: 3,
            invalidation_rounds: 2,
            l1d_accesses: 500,
            l1i_accesses: 1_000,
            l2_accesses: 60,
            dram_accesses: 40,
            throttled_cycles: 0,
            os_core_busy_frac: 0.3,
            os_core_busy_cycles: vec![600],
            os_core_utilisation: vec![0.3],
            user_cores_busy_frac: 0.9,
            queue: QueueReport::default(),
            cycle_breakdown: CycleBreakdown::default(),
            predictor: None,
            binary_accuracy: vec![],
            tuner_events: 0,
        }
    }

    #[test]
    fn normalization() {
        let base = report(0.5);
        let better = report(0.6);
        assert!((better.normalized_to(&base) - 1.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "baseline throughput is zero")]
    fn normalizing_to_zero_panics() {
        report(1.0).normalized_to(&report(0.0));
    }

    #[test]
    fn reports_are_cloneable_and_comparable() {
        let r = report(0.7);
        let c = r.clone();
        assert_eq!(r, c);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!report(0.7).to_string().is_empty());
    }

    #[test]
    fn json_has_expected_structure() {
        let mut r = report(0.7);
        r.cycle_breakdown = CycleBreakdown {
            base: 1_000,
            fetch: 20,
            data: 30,
            tlb: 4,
            branch: 5,
            migration: 2_000,
            queue_wait: 70,
            decision: 15,
        };
        r.binary_accuracy = vec![BinaryPoint {
            threshold: 100,
            accuracy: 0.95,
        }];
        r.predictor = Some(PredictorReport {
            exact: 0.7,
            within_5pct: 0.9,
            underestimates: 0.2,
            local_fraction: 0.8,
        });
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for key in [
            "\"profile\":\"apache\"",
            "\"policy\":\"HI\"",
            "\"threshold\":500",
            "\"throughput\":0.700000",
            "\"dispatch\":\"least-loaded\"",
            "\"os_core_busy_cycles\":[600]",
            "\"os_core_utilisation\":[0.300000]",
            "\"queue\":{",
            "\"p50_delay\":0",
            "\"p95_delay\":0",
            "\"p99_delay\":0",
            "\"predictor\":{\"exact\":0.700000",
            "\"cycle_breakdown\":{\"base\":1000,\"fetch\":20,\"data\":30,\"tlb\":4,\
             \"branch\":5,\"migration\":2000,\"queue_wait\":70,\"decision\":15}",
            "\"binary_accuracy\":[{\"threshold\":100",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // Balanced braces/brackets (flat sanity check for hand-rolled JSON).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_null_fields_when_absent() {
        let mut r = report(0.7);
        r.threshold = None;
        r.predictor = None;
        let j = r.to_json();
        assert!(j.contains("\"threshold\":null"));
        assert!(j.contains("\"predictor\":null"));
    }

    /// `to_json(from_json(parse(to_json(r)))) == to_json(r)` for a real
    /// report of every shape: no predictor, a predictor, several OS
    /// cores, resource adaptation and the tuner.
    #[test]
    fn json_round_trips_every_report_shape() {
        use crate::{PolicyKind, Simulation, SystemConfig};
        use osoffload_core::TunerConfig;
        use osoffload_workload::Profile;

        let hi = PolicyKind::HardwarePredictor { threshold: 500 };
        let small = || {
            SystemConfig::builder()
                .profile(Profile::apache())
                .migration_latency(1_000)
                .instructions(60_000)
                .warmup(10_000)
                .seed(3)
        };
        let runs = [
            small().build(),
            small().policy(hi).build(),
            small().policy(hi).user_cores(4).os_cores(2).build(),
            small().policy(hi).resource_adaptation(600).build(),
            small()
                .policy(hi)
                .tuner(TunerConfig::scaled_down(2_000))
                .build(),
        ]
        .map(|cfg| Simulation::new(cfg).run());
        assert!(runs[0].predictor.is_none() && runs[1].predictor.is_some());
        assert_eq!(runs[2].os_core_busy_cycles.len(), 2);
        assert!(runs[2].c2c_transfers > 0 && runs[3].throttled_cycles > 0);
        assert!(runs[4].tuner_events > 0 && !runs[4].binary_accuracy.is_empty());
        for report in &runs {
            let text = report.to_json();
            let parsed = osoffload_obs::json::parse(&text).expect("to_json writes JSON");
            let back = SimReport::from_json(&parsed).expect("decodes");
            assert_eq!(back.to_json(), text);
        }
    }

    #[test]
    fn from_json_names_a_missing_or_mistyped_key() {
        let text = report(0.7).to_json();
        let decode = |text: &str| SimReport::from_json(&osoffload_obs::json::parse(text).unwrap());
        assert!(decode(&text).is_ok());
        for (needle, replacement, why) in [
            ("\"cycles\":2000,", "", "report missing cycles"),
            (
                "\"threads\":2",
                "\"threads\":\"2\"",
                "report missing threads",
            ),
            (
                "\"threshold\":500",
                "\"threshold\":0.5",
                "report threshold must be null",
            ),
            ("[600]", "[-1]", "os_core_busy_cycles holds a non-integer"),
            (
                "\"p99_delay\":0",
                "\"p99\":0",
                "report queue missing p99_delay",
            ),
        ] {
            let mutated = text.replacen(needle, replacement, 1);
            assert_ne!(mutated, text, "{needle} must occur");
            let err = decode(&mutated).expect_err(needle);
            assert!(err.contains(why), "{needle}: {err}");
        }
    }

    #[test]
    fn json_escapes_strings() {
        let mut r = report(0.7);
        r.profile = "we\"ird\\name".to_string();
        let j = r.to_json();
        assert!(j.contains("we\\\"ird\\\\name"), "{j}");
    }
}
