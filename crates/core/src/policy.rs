//! Off-loading decision policies.
//!
//! The paper's Figure 5 compares three decision mechanisms layered over
//! the same migration machinery:
//!
//! * **SI** ([`StaticInstrumentation`]) — off-line profiling selects OS
//!   routines whose *mean* run length exceeds twice the migration
//!   latency; only those routines are instrumented, and instrumented
//!   routines always off-load (≈ Chakraborty et al. \[10\]);
//! * **DI** ([`DynamicInstrumentation`]) — *every* OS entry point carries
//!   software instrumentation that makes a run-time threshold decision;
//!   functionally equivalent to the hardware engine but paying tens to
//!   hundreds of cycles of instrumentation on every entry (≈ Mogul et
//!   al. \[17\] extended to all entry points);
//! * **HI** ([`HardwarePredictor`]) — the paper's hardware run-length
//!   predictor with a single-cycle decision.
//!
//! [`NeverOffload`] is the no-off-loading baseline; [`AlwaysOffload`] and
//! [`OraclePolicy`] exist for ablations.

use crate::astate::AState;
use crate::predictor::{Prediction, PredictionSource, RunLengthPredictor};
use core::fmt;
use std::collections::HashMap;

/// Identity of one privileged entry point as *software* sees it (the trap
/// number). Static instrumentation keys off this; the hardware predictor
/// never sees it, using [`AState`] instead.
pub type RoutineId = u64;

/// Context available at a user→privileged transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OsEntry {
    /// The AState hash of the architected registers.
    pub astate: AState,
    /// The static identity of the entry point (software view).
    pub routine: RoutineId,
}

/// A policy's verdict for one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Whether to migrate this invocation to the OS core.
    pub offload: bool,
    /// Decision-making overhead charged to the invoking thread, in
    /// cycles (instrumentation cost for software schemes, a single cycle
    /// for the hardware predictor).
    pub overhead_cycles: u64,
    /// The run-length prediction backing the decision, if the policy
    /// made one.
    pub prediction: Option<Prediction>,
}

impl Decision {
    /// A "run it locally, no overhead" decision.
    pub fn run_local() -> Self {
        Decision {
            offload: false,
            overhead_cycles: 0,
            prediction: None,
        }
    }
}

/// An off-loading decision policy.
///
/// The system calls [`decide`](Self::decide) at every user→privileged
/// transition and [`complete`](Self::complete) when the invocation
/// retires with its observed length.
pub trait OffloadPolicy {
    /// Policy name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Decides whether the invocation entering at `entry` is off-loaded.
    fn decide(&mut self, entry: OsEntry) -> Decision;

    /// Observes the completed invocation's actual length.
    fn complete(&mut self, entry: OsEntry, decision: &Decision, actual_len: u64);

    /// The current off-load threshold `N`, if the policy has one.
    fn threshold(&self) -> Option<u64> {
        None
    }

    /// Updates the threshold `N` (no-op for threshold-free policies);
    /// the dynamic tuner (§III-B) calls this at epoch boundaries.
    fn set_threshold(&mut self, _n: u64) {}

    /// Lets oracle-style policies peek at the invocation's actual length
    /// before [`decide`](Self::decide). Default: ignored.
    fn hint_actual(&mut self, _len: u64) {}

    /// A snapshot of the underlying predictor's accuracy statistics, for
    /// policies that have one (HI and DI).
    fn predictor_stats(&self) -> Option<crate::predictor::PredictorStats> {
        None
    }

    /// Zeroes accuracy statistics without untraining tables (used when
    /// discarding warm-up measurements). Default: no-op.
    fn reset_stats(&mut self) {}
}

/// Baseline: everything runs on the invoking core.
#[derive(Debug, Clone, Copy, Default)]
pub struct NeverOffload;

impl OffloadPolicy for NeverOffload {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn decide(&mut self, _entry: OsEntry) -> Decision {
        Decision::run_local()
    }

    fn complete(&mut self, _entry: OsEntry, _decision: &Decision, _actual_len: u64) {}
}

/// Ablation: every privileged invocation migrates (equivalent to `N = 0`
/// with a perfect predictor).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysOffload;

impl OffloadPolicy for AlwaysOffload {
    fn name(&self) -> &'static str {
        "always-offload"
    }

    fn decide(&mut self, _entry: OsEntry) -> Decision {
        Decision {
            offload: true,
            overhead_cycles: 0,
            prediction: None,
        }
    }

    fn complete(&mut self, _entry: OsEntry, _decision: &Decision, _actual_len: u64) {}

    fn threshold(&self) -> Option<u64> {
        Some(0)
    }
}

/// **HI** — the paper's hardware scheme: predictor lookup and threshold
/// comparison in a single cycle.
///
/// # Examples
///
/// ```
/// use osoffload_core::{AState, CamPredictor, HardwarePredictor, OffloadPolicy, OsEntry};
///
/// let mut hi = HardwarePredictor::new(CamPredictor::paper_default(), 1_000);
/// let entry = OsEntry { astate: AState::from(9u64), routine: 0x109 };
/// // Train: this AState runs ~6,000 instructions.
/// for _ in 0..3 {
///     let d = hi.decide(entry);
///     hi.complete(entry, &d, 6_000);
/// }
/// assert!(hi.decide(entry).offload);
/// ```
#[derive(Debug, Clone)]
pub struct HardwarePredictor<P> {
    predictor: P,
    threshold: u64,
    decision_cost: u64,
}

impl<P: RunLengthPredictor> HardwarePredictor<P> {
    /// Creates the policy around a predictor organisation with threshold
    /// `n`. The decision itself costs a single cycle (§II: "hardware-based
    /// single-cycle decision making").
    pub fn new(predictor: P, n: u64) -> Self {
        HardwarePredictor {
            predictor,
            threshold: n,
            decision_cost: 1,
        }
    }

    /// The underlying predictor (for accuracy reporting).
    pub fn predictor(&self) -> &P {
        &self.predictor
    }
}

impl<P: RunLengthPredictor> OffloadPolicy for HardwarePredictor<P> {
    fn name(&self) -> &'static str {
        "HI"
    }

    fn decide(&mut self, entry: OsEntry) -> Decision {
        let prediction = self.predictor.predict(entry.astate);
        Decision {
            offload: prediction.length > self.threshold,
            overhead_cycles: self.decision_cost,
            prediction: Some(prediction),
        }
    }

    fn complete(&mut self, entry: OsEntry, decision: &Decision, actual_len: u64) {
        let prediction = decision.prediction.unwrap_or(Prediction {
            length: 0,
            source: PredictionSource::Global,
        });
        self.predictor.learn(entry.astate, prediction, actual_len);
    }

    fn threshold(&self) -> Option<u64> {
        Some(self.threshold)
    }

    fn set_threshold(&mut self, n: u64) {
        self.threshold = n;
    }

    fn predictor_stats(&self) -> Option<crate::predictor::PredictorStats> {
        Some(self.predictor.stats().clone())
    }

    fn reset_stats(&mut self) {
        self.predictor.reset_stats();
    }
}

/// **DI** — the same decision logic as [`HardwarePredictor`], implemented
/// in software: a run-length table maintained by instrumentation stubs on
/// *every* OS entry point. "DI is the functional equivalent of the
/// hardware prediction engine proposed in this paper, but implemented
/// entirely in software" (§V-B) — so it reuses the same predictor model,
/// but each entry pays `instrumentation_cost` cycles whether or not the
/// invocation is ultimately off-loaded (§II, Figure 1).
#[derive(Debug, Clone)]
pub struct DynamicInstrumentation<P> {
    predictor: P,
    threshold: u64,
    instrumentation_cost: u64,
}

impl<P: RunLengthPredictor> DynamicInstrumentation<P> {
    /// Creates the policy with threshold `n` and a per-entry software
    /// instrumentation cost in cycles.
    ///
    /// §II measures a trivial static check doubling `getpid` from 17 to
    /// 33 instructions, and notes that "examining multiple register
    /// values, or accessing internal data structures can easily bloat
    /// this overhead to hundreds of cycles". The DI scheme needs the
    /// table lookup and update, so costs of 50–200 cycles are realistic;
    /// [`paper_default_cost`](Self::paper_default_cost) uses 120.
    pub fn new(predictor: P, n: u64, instrumentation_cost: u64) -> Self {
        DynamicInstrumentation {
            predictor,
            threshold: n,
            instrumentation_cost,
        }
    }

    /// The default per-entry cost used in the Figure 5 reproduction.
    pub fn paper_default_cost() -> u64 {
        120
    }

    /// The underlying software table (for reporting).
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    /// The per-entry instrumentation cost in cycles.
    pub fn instrumentation_cost(&self) -> u64 {
        self.instrumentation_cost
    }
}

impl<P: RunLengthPredictor> OffloadPolicy for DynamicInstrumentation<P> {
    fn name(&self) -> &'static str {
        "DI"
    }

    fn decide(&mut self, entry: OsEntry) -> Decision {
        let prediction = self.predictor.predict(entry.astate);
        Decision {
            offload: prediction.length > self.threshold,
            overhead_cycles: self.instrumentation_cost,
            prediction: Some(prediction),
        }
    }

    fn complete(&mut self, entry: OsEntry, decision: &Decision, actual_len: u64) {
        let prediction = decision.prediction.unwrap_or(Prediction {
            length: 0,
            source: PredictionSource::Global,
        });
        self.predictor.learn(entry.astate, prediction, actual_len);
    }

    fn threshold(&self) -> Option<u64> {
        Some(self.threshold)
    }

    fn set_threshold(&mut self, n: u64) {
        self.threshold = n;
    }

    fn predictor_stats(&self) -> Option<crate::predictor::PredictorStats> {
        Some(self.predictor.stats().clone())
    }

    fn reset_stats(&mut self) {
        self.predictor.reset_stats();
    }
}

/// **SI** — static instrumentation from off-line profiling: only routines
/// whose profiled mean run length exceeds `2 ×` the migration latency are
/// instrumented, and instrumented routines always off-load. Uninstrumented
/// routines pay nothing and never off-load (≈ Chakraborty et al.).
#[derive(Debug, Clone)]
pub struct StaticInstrumentation {
    instrumented: HashMap<RoutineId, u64>,
    stub_cost: u64,
}

impl StaticInstrumentation {
    /// Builds the policy from an off-line profile (`routine → mean run
    /// length`) and the migration latency it was tuned for: routines
    /// whose mean run length exceeds **2× the migration latency** get
    /// instrumented (§V-B). Run lengths are in instructions and the
    /// latency in cycles; at the ~2-cycles-per-instruction the OS paths
    /// average, the cutoff works out to `migration_latency` instructions.
    ///
    /// `stub_cost` is the small fixed cost of the instrumented routine's
    /// redirect stub (it does no run-time analysis).
    pub fn from_profile(
        profile: &HashMap<RoutineId, f64>,
        migration_latency: u64,
        stub_cost: u64,
    ) -> Self {
        let cutoff = migration_latency as f64;
        let instrumented = profile
            .iter()
            .filter(|(_, &mean)| mean > cutoff)
            .map(|(&routine, &mean)| (routine, mean as u64))
            .collect();
        StaticInstrumentation {
            instrumented,
            stub_cost,
        }
    }

    /// Number of routines the off-line profile selected.
    pub fn instrumented_count(&self) -> usize {
        self.instrumented.len()
    }

    /// Whether `routine` was selected for instrumentation.
    pub fn is_instrumented(&self, routine: RoutineId) -> bool {
        self.instrumented.contains_key(&routine)
    }
}

impl OffloadPolicy for StaticInstrumentation {
    fn name(&self) -> &'static str {
        "SI"
    }

    fn decide(&mut self, entry: OsEntry) -> Decision {
        if self.instrumented.contains_key(&entry.routine) {
            Decision {
                offload: true,
                overhead_cycles: self.stub_cost,
                prediction: None,
            }
        } else {
            Decision::run_local()
        }
    }

    fn complete(&mut self, _entry: OsEntry, _decision: &Decision, _actual_len: u64) {}
}

/// Oracle: off-loads exactly the invocations whose *actual* length
/// exceeds the threshold. An upper bound for decision quality (not in the
/// paper's figures, but the natural ablation for the predictor).
#[derive(Debug, Clone, Copy)]
pub struct OraclePolicy {
    threshold: u64,
    pending_actual: Option<u64>,
}

impl OraclePolicy {
    /// Creates an oracle with threshold `n`.
    pub fn new(n: u64) -> Self {
        OraclePolicy {
            threshold: n,
            pending_actual: None,
        }
    }
}

impl OffloadPolicy for OraclePolicy {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn decide(&mut self, _entry: OsEntry) -> Decision {
        let actual = self
            .pending_actual
            .take()
            .expect("OraclePolicy: hint_actual must precede decide");
        Decision {
            offload: actual > self.threshold,
            overhead_cycles: 0,
            prediction: None,
        }
    }

    fn complete(&mut self, _entry: OsEntry, _decision: &Decision, _actual_len: u64) {}

    fn threshold(&self) -> Option<u64> {
        Some(self.threshold)
    }

    fn set_threshold(&mut self, n: u64) {
        self.threshold = n;
    }

    fn hint_actual(&mut self, len: u64) {
        self.pending_actual = Some(len);
    }
}

impl fmt::Display for StaticInstrumentation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SI ({} routines instrumented, {} cyc stub)",
            self.instrumented.len(),
            self.stub_cost
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::CamPredictor;

    fn entry(v: u64) -> OsEntry {
        OsEntry {
            astate: AState::from(v),
            routine: v,
        }
    }

    fn train<P: OffloadPolicy>(p: &mut P, e: OsEntry, len: u64, times: usize) {
        for _ in 0..times {
            p.hint_actual(len);
            let d = p.decide(e);
            p.complete(e, &d, len);
        }
    }

    #[test]
    fn never_offload_is_free_and_local() {
        let mut p = NeverOffload;
        let d = p.decide(entry(1));
        assert!(!d.offload);
        assert_eq!(d.overhead_cycles, 0);
        assert_eq!(p.threshold(), None);
    }

    #[test]
    fn always_offload_offloads() {
        let mut p = AlwaysOffload;
        assert!(p.decide(entry(1)).offload);
        assert_eq!(p.threshold(), Some(0));
    }

    #[test]
    fn hi_offloads_long_keeps_short() {
        let mut hi = HardwarePredictor::new(CamPredictor::paper_default(), 1_000);
        train(&mut hi, entry(1), 6_000, 3);
        train(&mut hi, entry(2), 150, 3);
        let long = hi.decide(entry(1));
        assert!(long.offload);
        assert_eq!(long.overhead_cycles, 1, "hardware decision is single-cycle");
        assert!(!hi.decide(entry(2)).offload);
    }

    #[test]
    fn hi_threshold_is_tunable() {
        let mut hi = HardwarePredictor::new(CamPredictor::paper_default(), 1_000);
        train(&mut hi, entry(1), 5_000, 3);
        assert!(hi.decide(entry(1)).offload);
        hi.set_threshold(10_000);
        assert!(!hi.decide(entry(1)).offload);
        assert_eq!(hi.threshold(), Some(10_000));
    }

    #[test]
    fn di_matches_hi_decisions_but_costs_more() {
        let mut hi = HardwarePredictor::new(CamPredictor::paper_default(), 1_000);
        let mut di = DynamicInstrumentation::new(
            CamPredictor::paper_default(),
            1_000,
            DynamicInstrumentation::<CamPredictor>::paper_default_cost(),
        );
        for (e, len) in [(entry(1), 4_000), (entry(2), 200), (entry(3), 1_500)] {
            train(&mut hi, e, len, 3);
            train(&mut di, e, len, 3);
        }
        for e in [entry(1), entry(2), entry(3)] {
            let dh = hi.decide(e);
            let dd = di.decide(e);
            assert_eq!(dh.offload, dd.offload, "functionally equivalent");
            assert!(dd.overhead_cycles > dh.overhead_cycles * 50);
        }
    }

    #[test]
    fn si_selects_by_profiled_mean() {
        let mut profile = HashMap::new();
        profile.insert(1u64, 15_000.0); // above the 5,000-insn cutoff
        profile.insert(2u64, 4_000.0); // below it
        let mut si = StaticInstrumentation::from_profile(&profile, 5_000, 25);
        assert_eq!(si.instrumented_count(), 1);
        assert!(si.is_instrumented(1));
        assert!(!si.is_instrumented(2));

        let d1 = si.decide(entry(1));
        assert!(d1.offload);
        assert_eq!(d1.overhead_cycles, 25);

        let d2 = si.decide(entry(2));
        assert!(!d2.offload);
        assert_eq!(d2.overhead_cycles, 0, "uninstrumented routines are free");
    }

    #[test]
    fn si_cutoff_scales_with_latency() {
        let mut profile = HashMap::new();
        profile.insert(1u64, 1_500.0);
        // At aggressive latency (100 cycles), 1,500 insn clears the bar.
        let si = StaticInstrumentation::from_profile(&profile, 100, 25);
        assert!(si.is_instrumented(1));
        // At conservative latency (5,000 cycles), it does not.
        let si = StaticInstrumentation::from_profile(&profile, 5_000, 25);
        assert!(!si.is_instrumented(1));
    }

    #[test]
    fn oracle_decides_on_actual_length() {
        let mut o = OraclePolicy::new(1_000);
        o.hint_actual(5_000);
        assert!(o.decide(entry(1)).offload);
        o.hint_actual(500);
        assert!(!o.decide(entry(1)).offload);
    }

    #[test]
    #[should_panic(expected = "hint_actual")]
    fn oracle_without_hint_panics() {
        OraclePolicy::new(1_000).decide(entry(1));
    }

    #[test]
    fn policy_names_match_figures() {
        assert_eq!(NeverOffload.name(), "baseline");
        assert_eq!(HardwarePredictor::new(CamPredictor::new(8), 0).name(), "HI");
        assert_eq!(
            DynamicInstrumentation::new(CamPredictor::new(8), 0, 1).name(),
            "DI"
        );
        assert_eq!(
            StaticInstrumentation::from_profile(&HashMap::new(), 100, 1).name(),
            "SI"
        );
    }

    #[test]
    fn display_is_nonempty() {
        let si = StaticInstrumentation::from_profile(&HashMap::new(), 100, 1);
        assert!(!si.to_string().is_empty());
    }
}
