//! Crash-safety integration tests: write-ahead journaling, resume after
//! every possible crash point (including torn writes), deterministic
//! fault-plan replay, and watchdog timeouts.

use osoffload::mem::MemConfig;
use osoffload::runner::journal::envelope;
use osoffload::runner::{
    run_plan, run_plan_with, ExperimentPlan, FaultConfig, FaultPlan, Outcome, RunnerOptions,
};
use osoffload::system::experiments::{single_config, Scale};
use osoffload::system::{DispatchPolicy, PolicyKind, SystemConfig};
use osoffload::workload::Profile;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tiny() -> Scale {
    Scale {
        instructions: 60_000,
        warmup: 20_000,
        seed: 0xD0_0D,
        compute_profiles: 1,
    }
}

/// Builds a small mixed grid with split-derived per-point seeds.
fn seeded_plan() -> ExperimentPlan {
    let scale = tiny();
    let mut plan = ExperimentPlan::new("crash", 0xFEED);
    for profile in [Profile::apache(), Profile::specjbb()] {
        for threshold in [100u64, 1_000] {
            plan.push(
                format!("{}/N={threshold}", profile.name),
                single_config(
                    profile.clone(),
                    PolicyKind::HardwarePredictor { threshold },
                    1_000,
                    1,
                    scale,
                ),
            );
        }
    }
    plan
}

fn temp_journal(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "osoffload_crash_{tag}_{}_{}.journal",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Canonical mode zeroes the wall-clock fields, so whole archives (not
/// just stable rows) can be compared byte for byte.
fn canonical(workers: usize) -> RunnerOptions {
    RunnerOptions {
        workers,
        quiet: true,
        canonical: true,
        backoff_ms: 1,
        ..RunnerOptions::default()
    }
}

/// The crash-safety contract, exhaustively: truncate the journal at
/// every record boundary, at every torn mid-line cut, and with a
/// garbage tail — every resume must finish with an archive
/// byte-identical to the uninterrupted run.
#[test]
fn resume_is_byte_identical_for_every_truncation() {
    let plan = seeded_plan();
    let journal = temp_journal("trunc");
    let full = run_plan(
        &plan,
        &RunnerOptions {
            journal: Some(journal.clone()),
            ..canonical(2)
        },
    );
    assert_eq!(full.failures().count(), 0);
    let expected = full.to_json();
    let intact = std::fs::read_to_string(&journal).expect("journal written");
    let lines: Vec<&str> = intact.split_inclusive('\n').collect();
    let records = lines.len() - 1;
    assert_eq!(records, 4, "one journal record per point");

    for keep in 0..=records {
        // Clean cut after `keep` whole records…
        let mut variants = vec![lines[..1 + keep].concat()];
        // …torn mid-line cuts through the next record…
        if let Some(next) = lines.get(1 + keep) {
            for frac in [1, next.len() / 2, next.len() - 1] {
                variants.push(format!("{}{}", lines[..1 + keep].concat(), &next[..frac]));
            }
        }
        // …and a garbage tail after the good prefix.
        variants.push(format!("{}...corrupt...\n", lines[..1 + keep].concat()));
        for (v, text) in variants.iter().enumerate() {
            std::fs::write(&journal, text).expect("truncate");
            let resumed = run_plan(
                &plan,
                &RunnerOptions {
                    resume: Some(journal.clone()),
                    ..canonical(2)
                },
            );
            assert_eq!(
                resumed.to_json(),
                expected,
                "resume after keep={keep} variant={v} must be byte-identical"
            );
        }
    }
    let _ = std::fs::remove_file(&journal);
}

/// `--resume` with no existing journal starts a fresh one — the flag is
/// safe to pass unconditionally — and a journaled failed row survives
/// resume verbatim too.
#[test]
fn resume_from_scratch_and_failed_rows_round_trip() {
    let plan = seeded_plan();
    let journal = temp_journal("fresh");
    let eval = |p: &osoffload::runner::Point| {
        if p.index == 2 {
            panic!("synthetic failure at {}", p.id);
        }
        osoffload::system::Simulation::new(p.config.clone()).run()
    };
    let first = run_plan_with(
        &plan,
        &RunnerOptions {
            resume: Some(journal.clone()),
            ..canonical(2)
        },
        eval,
    );
    assert_eq!(first.failures().count(), 1);
    let expected = first.to_json();
    assert!(journal.exists(), "--resume created a fresh journal");

    // Keep header + 2 records (one may be the failed row, depending on
    // scheduling) and resume: identical bytes, failed row included.
    let intact = std::fs::read_to_string(&journal).expect("read");
    let lines: Vec<&str> = intact.split_inclusive('\n').collect();
    std::fs::write(&journal, lines[..3].concat()).expect("truncate");
    let resumed = run_plan_with(
        &plan,
        &RunnerOptions {
            resume: Some(journal.clone()),
            ..canonical(2)
        },
        eval,
    );
    assert_eq!(resumed.to_json(), expected);
    assert!(expected.contains("\"status\":\"failed\""));
    let _ = std::fs::remove_file(&journal);
}

/// Journal restore rebuilds every report field for field — including
/// `cycle_breakdown` and the per-OS-core arrays, which a resume must
/// carry losslessly rather than default to zeroes.
#[test]
fn restored_reports_round_trip_cycle_breakdown_and_per_core_arrays() {
    let plan = seeded_plan();
    let journal = temp_journal("roundtrip");
    let full = run_plan(
        &plan,
        &RunnerOptions {
            journal: Some(journal.clone()),
            ..canonical(1)
        },
    );
    assert_eq!(full.failures().count(), 0);
    let loaded = osoffload::runner::journal::load(&journal).expect("journal loads");
    assert_eq!(loaded.rows.len(), plan.len());
    for restored in &loaded.rows {
        let fresh = &full.rows[restored.index];
        let (Outcome::Ok(a), Outcome::Ok(b)) = (&restored.outcome, &fresh.outcome) else {
            panic!("expected ok rows on both sides");
        };
        assert!(
            a.cycle_breakdown.base > 0 && a.cycle_breakdown.migration > 0,
            "the fixture must exercise the breakdown"
        );
        assert_eq!(a.cycle_breakdown, b.cycle_breakdown);
        assert_eq!(a.os_core_busy_cycles, b.os_core_busy_cycles);
        // Float fields are archived at six decimals; the utilisation
        // array round-trips exactly at that (serialised) precision.
        let six = |xs: &[f64]| xs.iter().map(|x| format!("{x:.6}")).collect::<Vec<_>>();
        assert_eq!(six(&a.os_core_utilisation), six(&b.os_core_utilisation));
        assert_eq!(a.to_json(), b.to_json(), "every field round-trips");
    }
    let _ = std::fs::remove_file(&journal);
}

/// `--resume-retry-failed` re-attempts journaled failed rows on resume
/// instead of restoring the failure verbatim; once the cause is fixed,
/// the resumed archive equals an uninterrupted healthy run's.
#[test]
fn resume_retry_failed_reattempts_failed_rows() {
    let plan = seeded_plan();
    let journal = temp_journal("retry");
    let failing = |p: &osoffload::runner::Point| {
        if p.index == 2 {
            panic!("synthetic failure at {}", p.id);
        }
        osoffload::system::Simulation::new(p.config.clone()).run()
    };
    let first = run_plan_with(
        &plan,
        &RunnerOptions {
            resume: Some(journal.clone()),
            ..canonical(2)
        },
        failing,
    );
    assert_eq!(first.failures().count(), 1);

    // A plain resume restores the failure verbatim…
    let plain = run_plan(
        &plan,
        &RunnerOptions {
            resume: Some(journal.clone()),
            ..canonical(2)
        },
    );
    assert_eq!(plain.failures().count(), 1);

    // …while --resume-retry-failed re-evaluates the point (here with the
    // healthy default evaluator), and the re-run row is re-journaled.
    let retried = run_plan(
        &plan,
        &RunnerOptions {
            resume: Some(journal.clone()),
            resume_retry_failed: true,
            ..canonical(2)
        },
    );
    assert_eq!(retried.failures().count(), 0);
    let clean = run_plan(&plan, &canonical(2));
    assert_eq!(retried.to_json(), clean.to_json());

    // The fresh row is durable: a later plain resume restores it.
    let after = run_plan(
        &plan,
        &RunnerOptions {
            resume: Some(journal.clone()),
            ..canonical(2)
        },
    );
    assert_eq!(after.to_json(), clean.to_json());
    let _ = std::fs::remove_file(&journal);
}

/// A resume must refuse a journal that belongs to a different campaign
/// rather than silently mixing results: another master seed, a plan
/// that differs only in dispatch policy or memory override, or a
/// version 1 journal, whose lossy config encoding could not tell those
/// apart (refused with an error naming the file).
#[test]
fn resume_refuses_a_mismatched_journal() {
    let refusal = |plan: &ExperimentPlan, journal: &PathBuf| {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_plan(
                plan,
                &RunnerOptions {
                    resume: Some(journal.clone()),
                    ..canonical(1)
                },
            )
        }));
        let payload = outcome.expect_err("the journal must be refused");
        let _ = std::fs::remove_file(journal);
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    };
    let one_point = |master_seed: u64, patch: &dyn Fn(&mut SystemConfig)| {
        let mut cfg = single_config(
            Profile::apache(),
            PolicyKind::HardwarePredictor { threshold: 100 },
            1_000,
            1,
            tiny(),
        );
        patch(&mut cfg);
        let mut plan = ExperimentPlan::new("crash", master_seed);
        plan.push("p0".to_string(), cfg);
        plan
    };
    let mut slow_dram = MemConfig::paper_baseline(2);
    slow_dram.dram_latency = 500;
    let half_l2 = |c: &mut SystemConfig| c.mem_override = Some(MemConfig::half_l2_variant(2));
    for (journaled, resumed) in [
        (seeded_plan(), one_point(0xBEEF, &|_| {})),
        (
            one_point(1, &|_| {}),
            one_point(1, &|c| c.dispatch = DispatchPolicy::RoundRobin),
        ),
        (
            one_point(1, &half_l2),
            one_point(1, &|c| c.mem_override = Some(slow_dram.clone())),
        ),
    ] {
        let journal = temp_journal("mismatch");
        run_plan(
            &journaled,
            &RunnerOptions {
                journal: Some(journal.clone()),
                ..canonical(1)
            },
        );
        refusal(&resumed, &journal);
    }

    let journal = temp_journal("v1");
    let v1_header = "{\"journal\":\"osoffload-runner\",\"version\":1,\"experiment\":\"crash\",\
                     \"master_seed\":65261,\"points\":4}";
    std::fs::write(&journal, envelope(v1_header)).expect("write a version 1 journal");
    let why = refusal(&seeded_plan(), &journal);
    assert!(why.contains(&journal.display().to_string()), "{why}");
    assert!(why.contains("version 1"), "{why}");
}

/// The same fault plan replayed over the same campaign injects the same
/// failures and — given enough retries — changes nothing about the
/// results relative to a fault-free run.
#[test]
fn fault_plan_replay_is_deterministic_and_recoverable() {
    let plan = seeded_plan();
    let clean = run_plan(&plan, &canonical(2));
    let fault_cfg = FaultConfig {
        panic_pct: 100,
        max_panics: 2,
        delay_pct: 50,
        max_delay_ms: 2,
        io_pct: 0,
        max_io_failures: 1,
    };
    let fault_plan = FaultPlan::derive(0xFEED, plan.len(), &fault_cfg);
    assert!(fault_plan.injected_total() > 0);
    let opts = RunnerOptions {
        retries: fault_plan.max_panics(),
        fault_plan: Some(fault_plan.clone()),
        ..canonical(2)
    };
    let a = run_plan(&plan, &opts);
    let b = run_plan(&plan, &opts);
    assert_eq!(a.to_json(), b.to_json(), "replay must be bit-identical");
    assert_eq!(a.failures().count(), 0, "retry budget covers every panic");
    // The attempt bookkeeping differs (that is the point of the fault
    // plan), but every simulation result must be untouched by recovery.
    let clean_rows: Vec<String> = clean.rows.iter().map(|r| r.stable_json()).collect();
    let recovered_rows: Vec<String> = a.rows.iter().map(|r| r.stable_json()).collect();
    assert_eq!(
        clean_rows, recovered_rows,
        "recovered campaign equals the fault-free campaign row for row"
    );
    // Exhausting the retry budget instead surfaces typed failures.
    let starved = run_plan(
        &plan,
        &RunnerOptions {
            retries: 0,
            fault_plan: Some(fault_plan),
            ..canonical(2)
        },
    );
    assert_eq!(starved.failures().count(), plan.len());
    assert!(starved.to_json().contains("fault-injected panic"));
}

/// The worker watchdog cancels a hung simulation through the epoch
/// poll in `Simulation::account` and records a typed timeout row.
#[test]
fn watchdog_times_out_a_real_simulation() {
    let scale = Scale {
        instructions: 200_000_000, // far more than 1 ms of simulation
        warmup: 0,
        seed: 1,
        compute_profiles: 1,
    };
    let mut plan = ExperimentPlan::new("hang", 1);
    plan.push(
        "hung".to_string(),
        single_config(
            Profile::apache(),
            PolicyKind::HardwarePredictor { threshold: 500 },
            1_000,
            1,
            scale,
        ),
    );
    let sweep = run_plan(
        &plan,
        &RunnerOptions {
            deadline_ms: Some(1),
            ..canonical(1)
        },
    );
    assert_eq!(sweep.timeouts(), 1);
    match &sweep.rows[0].outcome {
        Outcome::TimedOut {
            deadline_ms,
            attempts,
        } => {
            assert_eq!(*deadline_ms, 1);
            assert_eq!(*attempts, 1);
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
    let json = sweep.to_json();
    assert!(json.contains("\"status\":\"timeout\""), "{json}");
    assert!(json.contains("\"timeouts\":1"), "{json}");
}
