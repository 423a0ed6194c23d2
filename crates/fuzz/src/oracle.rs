//! The eight oracles a case is judged by.
//!
//! Each oracle runs the case (or a stream derived from it) and checks a
//! property that must hold for *every* valid configuration:
//!
//! 1. **differential** — the batched stepper's report equals the
//!    retained per-instruction reference stepper's, field for field;
//! 2. **predictor** — the hash-indexed [`CamPredictor`] and the
//!    linear-scan [`ReferenceCamPredictor`] make identical predictions
//!    and hold identical table state after every step;
//! 3. **invariants** — conservation and range properties of the
//!    [`SimReport`] (accounting sums, probabilities in `[0, 1]`,
//!    ordered percentiles, per-OS-core busy cycles summing to the
//!    pool aggregate, and no dispatch starting before its arrival);
//! 4. **telemetry** — enabling telemetry must not change the report;
//! 5. **alloc** — the measured region performs zero heap allocations
//!    (meaningful only under a counting `#[global_allocator]`, which the
//!    fuzz binary and the corpus regression test both install; without
//!    one the oracle passes vacuously);
//! 6. **crash-recovery** — a journaled campaign derived from the case,
//!    run under a seed-derived fault plan (injected panics, delays and
//!    journal I/O errors), then "crashed" by truncating its journal and
//!    resumed, must produce a final archive byte-identical to the
//!    uninterrupted run — and fault recovery must not change any result
//!    relative to a fault-free reference;
//! 7. **profile** — enabling the cycle-attribution profiler must not
//!    change the report, and the per-phase totals it collects must
//!    reconcile exactly with the report's own cycle accounting
//!    (decision overhead, migration, queue wait, throttle);
//! 8. **lane-stepper** — replaying the case through the lane engine
//!    ([`LaneStepper`]) at widths 1, 2, 4 and 8, on one tape with
//!    policy/latency variants of itself (so lanes diverge in offload
//!    decisions and rejoin on shared tape positions), must produce a
//!    report byte-identical to the scalar [`Simulation::run`] for every
//!    lane; for the cases the alloc oracle audits (no phases, no tuner)
//!    the measured regions must also allocate nothing, although replay
//!    records the tape inside them.

use crate::gen::fit_memory;
use osoffload_core::{AState, CamPredictor, ReferenceCamPredictor, RunLengthPredictor};
use osoffload_obs::{json, TelemetryMode};
use osoffload_sim::alloc_audit;
use osoffload_system::{
    LaneStepper, MigrationModel, PolicyKind, SimReport, Simulation, SystemConfig,
};
use osoffload_workload::{Segment, ThreadWorkload};

/// Which oracle to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Batched vs reference stepper report equality.
    Differential,
    /// Indexed vs linear-scan CAM predictor equality.
    Predictor,
    /// Report conservation/range invariants.
    Invariants,
    /// Telemetry-on vs telemetry-off report identity.
    Telemetry,
    /// Measured region allocates nothing.
    Alloc,
    /// Kill-and-resume a journaled campaign under injected faults; the
    /// resumed archive must be byte-identical.
    CrashRecovery,
    /// Profiling-on vs profiling-off report identity, plus the profile's
    /// phase totals and per-phase counts reconciling with the report
    /// ([`CycleProfile::reconcile`]).
    ///
    /// [`CycleProfile::reconcile`]: osoffload_system::CycleProfile::reconcile
    Profile,
    /// Lane-engine replay at widths 1/2/4/8, mixed with variants on one
    /// tape, vs memoised scalar runs: every lane's report must be
    /// byte-identical to [`Simulation::run`], and audited cases must
    /// replay without a measured-region allocation.
    LaneStepper,
}

impl OracleKind {
    /// Every oracle, in canonical run order.
    pub const ALL: [OracleKind; 8] = [
        OracleKind::Differential,
        OracleKind::Predictor,
        OracleKind::Invariants,
        OracleKind::Telemetry,
        OracleKind::Alloc,
        OracleKind::CrashRecovery,
        OracleKind::Profile,
        OracleKind::LaneStepper,
    ];

    /// Stable CLI / corpus-file name.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Differential => "differential",
            OracleKind::Predictor => "predictor",
            OracleKind::Invariants => "invariants",
            OracleKind::Telemetry => "telemetry",
            OracleKind::Alloc => "alloc",
            OracleKind::CrashRecovery => "crash-recovery",
            OracleKind::Profile => "profile",
            OracleKind::LaneStepper => "lane-stepper",
        }
    }

    /// Parses a [`name`](Self::name).
    pub fn parse(s: &str) -> Option<OracleKind> {
        OracleKind::ALL.into_iter().find(|o| o.name() == s)
    }
}

impl core::fmt::Display for OracleKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A failed oracle check.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// Which oracle failed.
    pub oracle: OracleKind,
    /// Deterministic human-readable explanation.
    pub detail: String,
}

impl core::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "oracle {}: {}", self.oracle, self.detail)
    }
}

/// Runs one oracle over `cfg`.
///
/// A configuration that fails [`SystemConfig::validate`] fails
/// whichever oracle it was checked under, naming the `ConfigError`
/// (relevant only for library callers — the generator, the shrinker and
/// the corpus reader produce valid configurations).
pub fn check(cfg: &SystemConfig, oracle: OracleKind) -> Result<(), OracleFailure> {
    let fail = |detail: String| OracleFailure { oracle, detail };
    cfg.validate()
        .map_err(|e| fail(format!("not a valid config: {e}")))?;
    let cfg = cfg.clone();
    match oracle {
        OracleKind::Differential => {
            let batched = Simulation::new(cfg.clone()).run();
            let reference = Simulation::new(cfg).run_reference();
            if batched != reference {
                return Err(fail(format!(
                    "batched and reference reports differ: {}",
                    report_diff(&batched, &reference)
                )));
            }
            Ok(())
        }
        OracleKind::Predictor => check_predictor(&cfg).map_err(fail),
        OracleKind::Invariants => {
            let report = Simulation::new(cfg.clone()).run();
            check_invariants(&cfg, &report).map_err(fail)
        }
        OracleKind::Telemetry => {
            let base = Simulation::new(cfg.clone()).run();
            let mut full_cfg = cfg;
            full_cfg.telemetry = TelemetryMode::Full;
            let (full, _) = Simulation::new(full_cfg).run_observed();
            if full != base {
                return Err(fail(format!(
                    "telemetry=full changed the report: {}",
                    report_diff(&base, &full)
                )));
            }
            Ok(())
        }
        OracleKind::Alloc => {
            // Phase switches and tuner decisions rebuild state at epoch
            // boundaries by design; the allocation-free contract covers
            // the steady-state stepper, so normalise those options away.
            let cfg = SystemConfig {
                phases: Vec::new(),
                tuner: None,
                ..cfg
            };
            let _ = alloc_audit::take_region_allocs();
            let report = Simulation::new(cfg).run();
            let allocs = alloc_audit::take_region_allocs();
            if allocs != 0 {
                return Err(fail(format!(
                    "measured region allocated {allocs} times (throughput {:.4})",
                    report.throughput()
                )));
            }
            Ok(())
        }
        OracleKind::CrashRecovery => check_crash_recovery(&cfg).map_err(fail),
        OracleKind::LaneStepper => check_lane_stepper(&cfg).map_err(fail),
        OracleKind::Profile => {
            let base = Simulation::new(cfg.clone()).run();
            let mut prof_cfg = cfg.clone();
            prof_cfg.profiling = true;
            let (profiled, observed) = Simulation::new(prof_cfg).run_observed();
            if profiled != base {
                return Err(fail(format!(
                    "profiling changed the report: {}",
                    report_diff(&base, &profiled)
                )));
            }
            observed.profile.reconcile(&cfg, &base).map_err(fail)
        }
    }
}

/// End-to-end crash-recovery check: build a small campaign from the
/// case, run it once uninterrupted (fault-free reference), once under a
/// seed-derived fault plan with a write-ahead journal, then "crash" the
/// campaign by truncating the journal (including a torn half-line) and
/// resume it. The resumed archive must be byte-identical to the
/// uninterrupted faulty run, and fault recovery must not have changed
/// any result relative to the reference.
fn check_crash_recovery(case: &SystemConfig) -> Result<(), String> {
    use osoffload_runner::{run_plan, ExperimentPlan, FaultConfig, FaultPlan, RunnerOptions};
    use std::sync::atomic::{AtomicU64, Ordering};

    // Clamp the case to oracle-sized runs: the property under test is
    // journal/resume correctness, not simulation scale.
    let mut cfg = case.clone();
    cfg.instructions = cfg.instructions.clamp(5_000, 30_000);
    cfg.warmup = cfg.warmup.min(cfg.instructions / 4);

    const POINTS: usize = 3;
    let mut plan = ExperimentPlan::new("crash-recovery", case.seed);
    for i in 0..POINTS {
        plan.push(format!("cr{i}"), cfg.clone());
    }
    let fault_cfg = FaultConfig {
        panic_pct: 80,
        max_panics: 2,
        delay_pct: 50,
        max_delay_ms: 3,
        io_pct: 60,
        max_io_failures: 2,
    };
    let fault_plan = FaultPlan::derive(case.seed, POINTS, &fault_cfg);
    let retries = fault_plan.max_panics();

    static DIR_N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "osoffload_fuzz_cr_{}_{:x}_{}",
        std::process::id(),
        case.seed,
        DIR_N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("temp dir: {e}"))?;
    let journal_path = dir.join("campaign.journal");
    let result = (|| {
        let canonical = RunnerOptions {
            workers: 2,
            quiet: true,
            canonical: true,
            backoff_ms: 1,
            ..RunnerOptions::default()
        };

        // 1. Fault-free reference.
        let reference = run_plan(&plan, &canonical);

        // 2. Uninterrupted faulty run, journaled.
        let faulty_opts = RunnerOptions {
            retries,
            journal: Some(journal_path.clone()),
            fault_plan: Some(fault_plan.clone()),
            ..canonical.clone()
        };
        let faulty = run_plan(&plan, &faulty_opts);
        if faulty.failures().count() != 0 {
            return Err(format!(
                "faulty run failed {} points despite retries={retries} ({})",
                faulty.failures().count(),
                fault_plan.describe()
            ));
        }
        for (r, f) in reference.rows.iter().zip(&faulty.rows) {
            if r.stable_json() != f.stable_json() {
                return Err(format!(
                    "fault recovery changed point {}: {} vs {}",
                    r.index,
                    r.stable_json(),
                    f.stable_json()
                ));
            }
        }
        let expected = faulty.to_json();

        // 3. Crash: keep the header plus k whole records and a torn
        // fragment of the next line, then resume.
        let text = std::fs::read_to_string(&journal_path).map_err(|e| format!("journal: {e}"))?;
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        let records = lines.len().saturating_sub(1);
        let keep = (case.seed % (POINTS as u64 + 1)) as usize % (records + 1);
        let mut truncated: String = lines[..1 + keep].concat();
        if let Some(next) = lines.get(1 + keep) {
            truncated.push_str(&next[..next.len() / 2]); // torn write
        }
        std::fs::write(&journal_path, &truncated).map_err(|e| format!("truncate: {e}"))?;
        let resume_opts = RunnerOptions {
            retries,
            resume: Some(journal_path.clone()),
            fault_plan: Some(fault_plan.clone()),
            ..canonical
        };
        let resumed = run_plan(&plan, &resume_opts);
        if resumed.to_json() != expected {
            return Err(format!(
                "resumed archive differs after keeping {keep}/{records} records \
                 ({}): resumed {} vs uninterrupted {}",
                fault_plan.describe(),
                resumed.to_json(),
                expected
            ));
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Lane-engine differential check: the case and three variants of it
/// (a different threshold, an always-offload lane, and a different
/// migration latency — all [`tape_compatible`] with the original, none
/// identical in behaviour, each with its memory override resized to its
/// own core count) are packed into lanes at widths 1, 2, 4 and 8 and
/// compared against memoised scalar runs. Mixing variants makes
/// the lanes *diverge* (different offload decisions at the same tape
/// position) and *rejoin* (identical drawn segments either side), which
/// is exactly the sharing the tape replay must never let leak between
/// lanes. Cases the alloc oracle audits must also replay without a
/// measured-region allocation: the tape's reservation bound is what
/// keeps on-demand recording off the heap.
///
/// [`tape_compatible`]: osoffload_system::tape_compatible
fn check_lane_stepper(case: &SystemConfig) -> Result<(), String> {
    // Clamp to oracle scale: the property under test is lane/scalar
    // identity, not simulation scale.
    let mut base = case.clone();
    base.instructions = base.instructions.clamp(2_000, 30_000);
    base.warmup = base.warmup.min(base.instructions / 4);

    // Variants sharing the base case's workload shape. Variants that
    // are not valid (a policy the rest of the case rejects) are
    // skipped; the base case itself is valid.
    let one_way = base.migration.one_way().as_u64();
    let variants: Vec<SystemConfig> = [
        base.clone(),
        SystemConfig {
            policy: PolicyKind::AlwaysOffload,
            ..base.clone()
        },
        SystemConfig {
            policy: PolicyKind::HardwarePredictor { threshold: 100 },
            ..base.clone()
        },
        SystemConfig {
            migration: MigrationModel::new(one_way / 2 + 1),
            ..base.clone()
        },
    ]
    .into_iter()
    .map(|mut v| {
        fit_memory(&mut v);
        v
    })
    .filter(|v| v.validate().is_ok())
    .collect();

    // Memoised scalar references, one per variant, computed on first
    // use (width 1 only ever needs the first).
    let mut scalar: Vec<Option<SimReport>> = vec![None; variants.len()];
    let audited = base.phases.is_empty() && base.tuner.is_none();
    for width in [1usize, 2, 4, 8] {
        let configs: Vec<_> = (0..width)
            .map(|i| variants[i % variants.len()].clone())
            .collect();
        let stepper = LaneStepper::new(configs)
            .map_err(|e| format!("width {width}: stepper rejected configs: {e}"))?;
        let _ = alloc_audit::take_region_allocs();
        let reports = stepper.run();
        let allocs = alloc_audit::take_region_allocs();
        if audited && allocs != 0 {
            return Err(format!(
                "width {width}: lane measured regions allocated {allocs} times"
            ));
        }
        for (lane, report) in reports.iter().enumerate() {
            let v = lane % variants.len();
            let reference =
                scalar[v].get_or_insert_with(|| Simulation::new(variants[v].clone()).run());
            if report != reference {
                return Err(format!(
                    "width {width}, lane {lane} (variant {v}) differs from scalar: {}",
                    report_diff(report, reference)
                ));
            }
        }
    }
    Ok(())
}

/// Runs `cfg` through every oracle, collecting all failures.
pub fn check_all(cfg: &SystemConfig) -> Vec<OracleFailure> {
    OracleKind::ALL
        .into_iter()
        .filter_map(|o| check(cfg, o).err())
        .collect()
}

/// Differential check of the two CAM organisations, driven by the
/// configuration's own workload stream (AState images and observed run
/// lengths exactly as the simulator would see them).
fn check_predictor(cfg: &SystemConfig) -> Result<(), String> {
    // Small capacities stress eviction; the paper's 200 entries stress
    // steady state. Derive from the case seed so campaigns cover both.
    let capacity = [1usize, 2, 8, 200][(cfg.seed % 4) as usize];
    let mut cam = CamPredictor::new(capacity);
    let mut reference = ReferenceCamPredictor::new(capacity);
    let mut wl = ThreadWorkload::new(cfg.profile.clone(), 0, cfg.seed);
    let mut generated = 0u64;
    let mut invocations = 0u64;
    while generated < cfg.instructions && invocations < 2_000 {
        match wl.next_segment() {
            Segment::User { len } => generated += len,
            Segment::Os(inv) => {
                generated += inv.actual_len;
                invocations += 1;
                // Same register image the simulator folds into an AState
                // tag; the exact folding does not matter, identical
                // streams on both sides do.
                let tag = inv.regs[0] ^ inv.regs[1].rotate_left(21) ^ inv.regs[2].rotate_left(42);
                let astate = AState::from(tag);
                let pc = cam.predict(astate);
                let pr = reference.predict(astate);
                if pc != pr {
                    return Err(format!(
                        "invocation {invocations}: indexed predicted {pc:?}, reference {pr:?}"
                    ));
                }
                cam.learn(astate, pc, inv.actual_len);
                reference.learn(astate, pr, inv.actual_len);
                let (fc, fr) = (cam.fingerprint(), reference.fingerprint());
                if fc != fr {
                    return Err(format!(
                        "invocation {invocations}: table fingerprints diverged \
                         ({fc:#018x} vs {fr:#018x})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Conservation and range invariants every report must satisfy.
fn check_invariants(cfg: &SystemConfig, r: &SimReport) -> Result<(), String> {
    let mut problems: Vec<String> = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };

    require(
        r.instructions >= cfg.instructions,
        format!(
            "measured region retired {} < requested {}",
            r.instructions, cfg.instructions
        ),
    );
    require(r.cycles > 0, "zero cycles".into());
    let recomputed = r.instructions as f64 / r.cycles as f64;
    require(
        (r.throughput - recomputed).abs() < 1e-9,
        format!(
            "throughput {} != instructions/cycles {}",
            r.throughput, recomputed
        ),
    );
    require(
        r.cycle_breakdown.base == r.instructions,
        format!(
            "cycle breakdown base {} != retired instructions {}",
            r.cycle_breakdown.base, r.instructions
        ),
    );
    require(
        r.threads == cfg.user_cores * cfg.profile.threads_per_core,
        format!("thread count {} inconsistent with topology", r.threads),
    );
    let expect_os_cores = if cfg.policy.is_baseline() || cfg.resource_adaptation.is_some() {
        0
    } else {
        cfg.os_cores
    };
    require(
        r.os_cores == expect_os_cores,
        format!("os_cores {} != expected {expect_os_cores}", r.os_cores),
    );

    // Per-OS-core accounting: the pool's per-core busy cycles must sum to
    // the report's aggregate, per-core utilisation must recompute from
    // them, and no dispatch may start before its request arrived (which
    // would show up as a stall count without any recorded delay).
    require(
        r.os_core_busy_cycles.len() == r.os_cores,
        format!(
            "os_core_busy_cycles has {} entries for {} OS cores",
            r.os_core_busy_cycles.len(),
            r.os_cores
        ),
    );
    require(
        r.os_core_utilisation.len() == r.os_cores,
        format!(
            "os_core_utilisation has {} entries for {} OS cores",
            r.os_core_utilisation.len(),
            r.os_cores
        ),
    );
    let busy_sum: u64 = r.os_core_busy_cycles.iter().sum();
    let expect_frac = (busy_sum as f64 / r.cycles as f64).min(1.0);
    require(
        r.os_core_busy_frac == expect_frac,
        format!(
            "os_core_busy_frac {} != per-core sum {busy_sum} / cycles {} = {expect_frac}",
            r.os_core_busy_frac, r.cycles
        ),
    );
    for (i, (&busy, &util)) in r
        .os_core_busy_cycles
        .iter()
        .zip(&r.os_core_utilisation)
        .enumerate()
    {
        let expect_util = (busy as f64 / r.cycles as f64).min(1.0);
        require(
            util == expect_util,
            format!(
                "os core {i} utilisation {util} != busy {busy} / cycles {}",
                r.cycles
            ),
        );
    }
    if r.queue.stalled == 0 {
        require(
            r.queue.mean_delay == 0.0 && r.queue.p99_delay == 0,
            format!(
                "queueing delay (mean {}, p99 {}) recorded without any stalled request — \
                 a dispatch started before its arrival",
                r.queue.mean_delay, r.queue.p99_delay
            ),
        );
    }
    if matches!(cfg.policy, PolicyKind::Baseline) {
        require(
            r.offloads == 0,
            format!("baseline off-loaded {}", r.offloads),
        );
    }
    if cfg.resource_adaptation.is_none() {
        require(
            r.throttled_cycles == 0,
            format!("throttled {} cycles without adaptation", r.throttled_cycles),
        );
    }
    if cfg.tuner.is_none() {
        require(
            r.tuner_events == 0,
            format!("{} tuner events without a tuner", r.tuner_events),
        );
    }

    for (name, x) in r.fractions() {
        require(
            x.is_finite() && (0.0..=1.0).contains(&x),
            format!("{name} = {x} outside [0, 1]"),
        );
    }

    require(
        r.queue.stalled <= r.queue.requests,
        format!(
            "queue stalled {} > requests {}",
            r.queue.stalled, r.queue.requests
        ),
    );
    require(
        r.queue.p50_delay <= r.queue.p95_delay && r.queue.p95_delay <= r.queue.p99_delay,
        format!(
            "queue percentiles unordered: p50 {} p95 {} p99 {}",
            r.queue.p50_delay, r.queue.p95_delay, r.queue.p99_delay
        ),
    );
    require(
        r.queue.mean_delay.is_finite() && r.queue.mean_delay >= 0.0,
        format!("queue mean delay {}", r.queue.mean_delay),
    );

    if let Some(p) = &r.predictor {
        for (name, x) in p.fractions() {
            require(
                x.is_finite() && (0.0..=1.0).contains(&x),
                format!("predictor {name} = {x} outside [0, 1]"),
            );
        }
        require(
            p.within_5pct >= p.exact,
            format!("within_5pct {} < exact {}", p.within_5pct, p.exact),
        );
    }

    require(
        r.binary_accuracy
            .windows(2)
            .all(|w| w[0].threshold < w[1].threshold),
        "binary accuracy thresholds not ascending".into(),
    );
    for b in &r.binary_accuracy {
        require(
            b.accuracy.is_finite() && (0.0..=1.0).contains(&b.accuracy),
            format!("binary accuracy at N={} is {}", b.threshold, b.accuracy),
        );
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// Compact top-level diff of two reports (both sides hand-rolled JSON,
/// so parse and compare key by key).
fn report_diff(a: &SimReport, b: &SimReport) -> String {
    let (ja, jb) = (json::parse(&a.to_json()), json::parse(&b.to_json()));
    let (Ok(json::Value::Obj(fa)), Ok(json::Value::Obj(fb))) = (ja, jb) else {
        return "reports differ (unparsable)".into();
    };
    let mut out: Vec<String> = Vec::new();
    for ((ka, va), (_, vb)) in fa.iter().zip(fb.iter()) {
        if va != vb {
            out.push(format!("{ka}: {} vs {}", va.to_json(), vb.to_json()));
        }
    }
    if out.is_empty() {
        "reports differ in unreported state".into()
    } else {
        out.join("; ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shrink::target;

    #[test]
    fn oracle_names_round_trip() {
        for o in OracleKind::ALL {
            assert_eq!(OracleKind::parse(o.name()), Some(o));
        }
        assert_eq!(OracleKind::parse("nope"), None);
    }

    #[test]
    fn the_target_passes_every_oracle() {
        let failures = check_all(&target());
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn invalid_config_fails_with_a_typed_message() {
        for (cfg, error) in [
            (
                SystemConfig {
                    instructions: 0,
                    ..target()
                },
                "need a measured region",
            ),
            (
                SystemConfig {
                    policy: PolicyKind::HardwarePredictorSized {
                        threshold: 500,
                        entries: 0,
                    },
                    ..target()
                },
                "at least one entry",
            ),
        ] {
            let err = check(&cfg, OracleKind::Invariants).unwrap_err();
            assert_eq!(err.oracle, OracleKind::Invariants);
            assert!(err.detail.contains("valid config"), "{err}");
            assert!(err.detail.contains(error), "{err}");
        }
    }

    #[test]
    fn invariant_violations_are_reported() {
        let cfg = target();
        let mut report = Simulation::new(cfg.clone()).run();
        report.os_share = 1.5;
        report.queue.p95_delay = report.queue.p99_delay + 1;
        let err = check_invariants(&cfg, &report).unwrap_err();
        assert!(err.contains("os_share"), "{err}");
        assert!(err.contains("percentiles"), "{err}");
    }

    #[test]
    fn report_diff_names_the_differing_fields() {
        let cfg = target();
        let a = Simulation::new(cfg).run();
        let mut b = a.clone();
        b.offloads += 1;
        let diff = report_diff(&a, &b);
        assert!(diff.contains("offloads"), "{diff}");
        assert!(!diff.contains("cycles:"), "{diff}");
    }
}
