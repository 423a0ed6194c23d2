//! Measurement reports produced by a simulation run.
//!
//! Every number the experiment drivers print comes out of a
//! [`SimReport`]; the struct serialises to JSON so results can be
//! archived and diffed across runs.

use core::fmt;

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

/// The complete result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
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
    /// The emitter is hand-rolled: the approved dependency set has no
    /// serialisation framework, and the report is a flat struct.
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
        o.push('{');
        let field = |o: &mut String, key: &str, value: String| {
            if o.len() > 1 {
                o.push(',');
            }
            o.push('"');
            o.push_str(key);
            o.push_str("\":");
            o.push_str(&value);
        };
        let s = osoffload_obs::json::quote;
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |n| n.to_string());
        field(&mut o, "profile", s(&self.profile));
        field(&mut o, "policy", s(&self.policy));
        field(&mut o, "threshold", opt(self.threshold));
        field(&mut o, "final_threshold", opt(self.final_threshold));
        field(
            &mut o,
            "migration_one_way",
            self.migration_one_way.to_string(),
        );
        field(&mut o, "user_cores", self.user_cores.to_string());
        field(&mut o, "os_cores", self.os_cores.to_string());
        field(&mut o, "dispatch", s(&self.dispatch));
        field(&mut o, "threads", self.threads.to_string());
        field(&mut o, "instructions", self.instructions.to_string());
        field(&mut o, "cycles", self.cycles.to_string());
        field(&mut o, "throughput", format!("{:.6}", self.throughput));
        field(&mut o, "os_share", format!("{:.6}", self.os_share));
        field(&mut o, "offloads", self.offloads.to_string());
        field(
            &mut o,
            "local_invocations",
            self.local_invocations.to_string(),
        );
        field(
            &mut o,
            "decision_overhead_cycles",
            self.decision_overhead_cycles.to_string(),
        );
        field(&mut o, "l1d_hit_rate", format!("{:.6}", self.l1d_hit_rate));
        field(&mut o, "l1i_hit_rate", format!("{:.6}", self.l1i_hit_rate));
        field(
            &mut o,
            "user_branch_accuracy",
            format!("{:.6}", self.user_branch_accuracy),
        );
        field(
            &mut o,
            "l2_user_hit_rate",
            format!("{:.6}", self.l2_user_hit_rate),
        );
        field(
            &mut o,
            "l2_os_hit_rate",
            format!("{:.6}", self.l2_os_hit_rate),
        );
        field(
            &mut o,
            "l2_mean_hit_rate",
            format!("{:.6}", self.l2_mean_hit_rate),
        );
        field(&mut o, "c2c_transfers", self.c2c_transfers.to_string());
        field(
            &mut o,
            "invalidation_rounds",
            self.invalidation_rounds.to_string(),
        );
        field(&mut o, "l1d_accesses", self.l1d_accesses.to_string());
        field(&mut o, "l1i_accesses", self.l1i_accesses.to_string());
        field(&mut o, "l2_accesses", self.l2_accesses.to_string());
        field(&mut o, "dram_accesses", self.dram_accesses.to_string());
        field(
            &mut o,
            "throttled_cycles",
            self.throttled_cycles.to_string(),
        );
        field(
            &mut o,
            "os_core_busy_frac",
            format!("{:.6}", self.os_core_busy_frac),
        );
        field(
            &mut o,
            "os_core_busy_cycles",
            format!(
                "[{}]",
                self.os_core_busy_cycles
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        );
        field(
            &mut o,
            "os_core_utilisation",
            format!(
                "[{}]",
                self.os_core_utilisation
                    .iter()
                    .map(|u| format!("{u:.6}"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        );
        field(
            &mut o,
            "user_cores_busy_frac",
            format!("{:.6}", self.user_cores_busy_frac),
        );
        field(
            &mut o,
            "queue",
            format!(
                "{{\"requests\":{},\"stalled\":{},\"mean_delay\":{:.3},\
                 \"p50_delay\":{},\"p95_delay\":{},\"p99_delay\":{}}}",
                self.queue.requests,
                self.queue.stalled,
                self.queue.mean_delay,
                self.queue.p50_delay,
                self.queue.p95_delay,
                self.queue.p99_delay
            ),
        );
        field(
            &mut o,
            "predictor",
            match &self.predictor {
                None => "null".to_string(),
                Some(p) => format!(
                    "{{\"exact\":{:.6},\"within_5pct\":{:.6},\"underestimates\":{:.6},\"local_fraction\":{:.6}}}",
                    p.exact, p.within_5pct, p.underestimates, p.local_fraction
                ),
            },
        );
        field(
            &mut o,
            "cycle_breakdown",
            format!(
                "{{\"base\":{},\"fetch\":{},\"data\":{},\"tlb\":{},\"branch\":{},\
                 \"migration\":{},\"queue_wait\":{},\"decision\":{}}}",
                self.cycle_breakdown.base,
                self.cycle_breakdown.fetch,
                self.cycle_breakdown.data,
                self.cycle_breakdown.tlb,
                self.cycle_breakdown.branch,
                self.cycle_breakdown.migration,
                self.cycle_breakdown.queue_wait,
                self.cycle_breakdown.decision
            ),
        );
        field(
            &mut o,
            "binary_accuracy",
            format!(
                "[{}]",
                self.binary_accuracy
                    .iter()
                    .map(|b| format!(
                        "{{\"threshold\":{},\"accuracy\":{:.6}}}",
                        b.threshold, b.accuracy
                    ))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        );
        field(&mut o, "tuner_events", self.tuner_events.to_string());
        o.push('}');
        o
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

    #[test]
    fn json_escapes_strings() {
        let mut r = report(0.7);
        r.profile = "we\"ird\\name".to_string();
        let j = r.to_json();
        assert!(j.contains("we\\\"ird\\\\name"), "{j}");
    }
}
