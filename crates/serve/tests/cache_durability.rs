//! Durability proofs for the serve result cache, mirroring
//! `tests/crash_recovery.rs`: truncation at every byte offset is
//! tolerated, corrupt records are skipped (not poison), duplicates are
//! last-wins, and eviction compacts the WAL atomically.

mod common;

use common::scratch;
use osoffload_runner::journal::envelope;
use osoffload_runner::{record_plan, run_plan, RunnerOptions};
use osoffload_serve::cache::{read_entries, ResultCache, HEADER_BODY};
use osoffload_serve::wire;
use osoffload_system::experiments::{single_config, Scale};
use osoffload_system::PolicyKind;
use osoffload_workload::Profile;
use std::path::{Path, PathBuf};

/// Computes three real rows (distinct configurations) and their wire
/// texts — the material every durability scenario is built from.
fn sample_rows() -> Vec<(String, osoffload_runner::PointResult)> {
    let scale = Scale {
        instructions: 30_000,
        warmup: 10_000,
        seed: 5,
        compute_profiles: 1,
    };
    let plan = record_plan("cache-dur", scale.seed, |ev| {
        for threshold in [0, 500, 5_000] {
            ev(single_config(
                Profile::apache(),
                PolicyKind::HardwarePredictor { threshold },
                1_000,
                1,
                scale,
            ));
        }
    });
    let opts = RunnerOptions {
        workers: 2,
        quiet: true,
        canonical: true,
        out_dir: std::env::temp_dir(),
        ..RunnerOptions::default()
    };
    let sweep = run_plan(&plan, &opts);
    plan.points()
        .iter()
        .zip(sweep.rows)
        .map(|(p, row)| {
            assert!(row.is_ok());
            (wire::config_to_json(&p.config).expect("wire"), row)
        })
        .collect()
}

fn populated_cache(dir: &Path, rows: &[(String, osoffload_runner::PointResult)]) -> PathBuf {
    let path = dir.join("cache.wal");
    let mut cache = ResultCache::open(&path, 0).expect("open");
    for (wire_text, row) in rows {
        assert!(cache.insert(wire_text, row).expect("insert"));
    }
    path
}

#[test]
fn every_truncation_offset_is_tolerated() {
    let rows = sample_rows();
    let dir = scratch("trunc");
    let path = populated_cache(&dir, &rows);
    let intact = std::fs::read(&path).expect("read cache");

    // Line boundaries tell us how many entries a prefix should preserve.
    let mut boundaries = Vec::new(); // (offset, complete lines up to it)
    for (i, b) in intact.iter().enumerate() {
        if *b == b'\n' {
            boundaries.push(i + 1);
        }
    }
    assert_eq!(
        boundaries.len(),
        1 + rows.len(),
        "header + one line per row"
    );

    let probe = dir.join("probe.wal");
    for cut in 0..=intact.len() {
        std::fs::write(&probe, &intact[..cut]).expect("truncate");
        // Lines fully inside the prefix survive; a torn tail is dropped.
        let complete = boundaries.iter().filter(|&&end| end <= cut).count();
        if complete == 0 {
            // Header gone: opening must fail loudly, never misread.
            assert!(
                ResultCache::open(&probe, 0).is_err(),
                "cut at {cut} lost the header and must refuse to open"
            );
            continue;
        }
        let mut cache =
            ResultCache::open(&probe, 0).unwrap_or_else(|e| panic!("cut at {cut} must open: {e}"));
        assert_eq!(
            cache.len(),
            complete - 1,
            "cut at {cut}: wrong survivor count"
        );
        assert!(
            cache.warnings().is_empty(),
            "cut at {cut}: a torn tail is expected, not warned about"
        );
        for (wire_text, row) in &rows[..complete - 1] {
            let digest = row.config_digest();
            let served = cache
                .serve(&digest, wire_text, row.index, &row.id, row.seed)
                .unwrap_or_else(|| panic!("cut at {cut}: {digest} must be servable"));
            assert_eq!(served.stable_json(), row.stable_json());
        }
        // The healed file must append cleanly after any truncation.
        let (extra_wire, extra_row) = &rows[rows.len() - 1];
        if cache
            .lookup(&extra_row.config_digest(), extra_wire)
            .is_none()
        {
            assert!(cache
                .insert(extra_wire, extra_row)
                .expect("insert after heal"));
            assert_eq!(cache.len(), complete);
        }
        drop(cache);
        let reopened = ResultCache::open(&probe, 0).expect("reopen healed cache");
        assert!(
            reopened.warnings().is_empty(),
            "cut at {cut}: heal left damage"
        );
    }
}

#[test]
fn corrupt_and_garbage_records_are_skipped_not_poison() {
    let rows = sample_rows();
    let dir = scratch("corrupt");
    let path = populated_cache(&dir, &rows);
    let text = std::fs::read_to_string(&path).expect("read cache");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4);

    // Flip a byte inside the MIDDLE record's body (checksum mismatch),
    // and splice in garbage lines; later records must survive — unlike
    // the runner journal, which stops at the first bad line.
    let mut corrupted = lines[1].to_string();
    let flip = corrupted.len() - 10;
    let old = corrupted.remove(flip);
    corrupted.insert(flip, if old == 'x' { 'y' } else { 'x' });
    // `envelope` already newline-terminates its line.
    let unrestorable = envelope("{\"digest\":\"0123456789abcdef\",\"stamp\":0,\"stable\":{}}");
    let mangled = format!(
        "{}\n{}\nnot an envelope at all\n{}\n{}{}\n",
        lines[0], lines[1], corrupted, unrestorable, lines[3]
    );
    std::fs::write(&path, mangled).expect("mangle cache");

    let cache = ResultCache::open(&path, 0).expect("open survives corruption");
    assert_eq!(
        cache.warnings().len(),
        3,
        "bad checksum + garbage + unrestorable record each warn: {:?}",
        cache.warnings()
    );
    assert_eq!(
        cache.len(),
        2,
        "rows 0 and 2 survive; the mangled middle is dropped"
    );
    for (wire_text, row) in [&rows[0], &rows[2]] {
        assert!(cache.lookup(&row.config_digest(), wire_text).is_some());
    }
    drop(cache);
    // Healing compacted the damage away: a reopen is clean.
    let clean = ResultCache::open(&path, 0).expect("reopen");
    assert!(clean.warnings().is_empty(), "{:?}", clean.warnings());
    assert_eq!(clean.len(), 2);
}

#[test]
fn duplicate_digests_are_last_wins() {
    let rows = sample_rows();
    let dir = scratch("dup");
    let path = dir.join("cache.wal");
    let mut cache = ResultCache::open(&path, 0).expect("open");
    let (wire_text, row) = &rows[0];
    assert!(cache.insert(wire_text, row).expect("insert"));

    // The natural duplicate: the same configuration served at another
    // plan position (different index/id), re-inserted by a later sweep.
    let moved = cache
        .serve(
            &row.config_digest(),
            wire_text,
            7,
            "moved/position",
            row.seed,
        )
        .expect("serve rekeyed");
    assert!(cache.insert(wire_text, &moved).expect("insert duplicate"));
    assert_eq!(cache.len(), 1, "duplicate digest replaces, never grows");
    let entry = cache
        .lookup(&row.config_digest(), wire_text)
        .expect("lookup");
    assert_eq!(entry.row.index, 7, "the newer record wins");
    drop(cache);

    // Both appends are on disk; replay collapses them the same way.
    let reopened = ResultCache::open(&path, 0).expect("reopen");
    assert_eq!(reopened.len(), 1);
    assert_eq!(
        reopened
            .lookup(&row.config_digest(), wire_text)
            .expect("lookup")
            .row
            .index,
        7
    );
}

#[test]
fn digest_collision_requires_config_equality() {
    let rows = sample_rows();
    let dir = scratch("collide");
    let path = populated_cache(&dir, &rows[..1]);
    let mut cache = ResultCache::open(&path, 0).expect("open");
    let (wire_text, row) = &rows[0];
    let digest = row.config_digest();
    assert!(cache.lookup(&digest, wire_text).is_some());
    // Same digest, different configuration: must MISS (a 64-bit digest
    // can collide; serving across a collision would return the wrong
    // row).
    let other = wire_text.replace("\"os_cores\":1", "\"os_cores\":2");
    assert_ne!(&other, wire_text);
    assert!(cache.lookup(&digest, &other).is_none());
    assert!(cache.serve(&digest, &other, 0, "x", row.seed).is_none());
    // Nor may a row be filed under a configuration it was not computed
    // for.
    assert!(cache.insert(&other, row).is_err());
}

#[test]
fn eviction_is_oldest_first_and_compacts() {
    let rows = sample_rows();
    let dir = scratch("evict");
    let path = dir.join("cache.wal");
    let mut cache = ResultCache::open(&path, 2).expect("open");
    for (wire_text, row) in &rows {
        assert!(cache.insert(wire_text, row).expect("insert"));
    }
    assert_eq!(cache.enforce_capacity().expect("evict"), 1);
    assert_eq!(cache.len(), 2);
    assert!(
        cache
            .lookup(&rows[0].1.config_digest(), &rows[0].0)
            .is_none(),
        "the oldest entry is evicted first"
    );
    for (wire_text, row) in &rows[1..] {
        assert!(cache.lookup(&row.config_digest(), wire_text).is_some());
    }
    drop(cache);
    // The eviction is durable: the WAL was compacted, not just trimmed
    // in memory.
    let (entries, warnings) = read_entries(&path).expect("read");
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(entries.len(), 2);

    // Opening with a tighter capacity evicts on open too.
    let tight = ResultCache::open(&path, 1).expect("open tight");
    assert_eq!(tight.len(), 1);
    assert!(tight
        .lookup(&rows[2].1.config_digest(), &rows[2].0)
        .is_some());
}

#[test]
fn foreign_envelope_files_are_refused() {
    let dir = scratch("foreign");
    let path = dir.join("cache.wal");
    // A runner journal header, not a serve cache header.
    std::fs::write(
        &path,
        envelope("{\"journal\":\"osoffload-runner\",\"version\":1,\"experiment\":\"x\",\"master_seed\":1,\"points\":1}"),
    )
    .expect("write journal header");
    assert!(
        ResultCache::open(&path, 0).is_err(),
        "a runner journal must not be silently treated as a cache"
    );
    assert!(read_entries(&path).is_err());
    // And the header constant is what the daemon writes.
    assert!(HEADER_BODY.contains("osoffload-serve-cache"));
}

#[test]
fn ttl_eviction_is_by_stamp_age_and_durable() {
    let rows = sample_rows();
    let dir = scratch("ttl");
    let path = dir.join("cache.wal");
    // Plant entries of known virtual ages via explicit stamps; the
    // cache clock itself never consults wall time.
    let mut cache = ResultCache::open(&path, 0).expect("open");
    for ((wire_text, row), stamp) in rows.iter().zip([0u64, 1_000, 1_990]) {
        assert!(cache
            .insert_stamped(wire_text, row, stamp)
            .expect("insert stamped"));
    }
    assert_eq!(cache.len(), 3);
    drop(cache);

    // Reopen with a TTL: the clock resumes from the largest stamp on
    // disk (1990), so ages are 1990, 990, and 0 — only the newest entry
    // survives a 100-second limit.
    let cache = ResultCache::open_limited(&path, 0, 100).expect("reopen with ttl");
    assert_eq!(cache.len(), 1, "stale entries must be evicted on open");
    assert!(cache
        .lookup(&rows[2].1.config_digest(), &rows[2].0)
        .is_some());
    drop(cache);

    // The eviction compacted the WAL: even a TTL-free reopen sees only
    // the survivor, and the file replays without warnings.
    let (entries, warnings) = read_entries(&path).expect("read");
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].stamp, 1_990);
    let unlimited = ResultCache::open(&path, 0).expect("reopen unlimited");
    assert_eq!(unlimited.len(), 1, "TTL eviction must be durable");
}

#[test]
fn version_1_caches_open_empty_and_are_rewritten() {
    let rows = sample_rows();
    let dir = scratch("v1");
    let path = dir.join("cache.wal");
    // A version 1 file: records keyed by the lossy archive encoding and
    // carrying a second copy of the configuration.
    let (wire_text, row) = &rows[0];
    let v1_record = format!(
        "{{\"digest\":\"{}\",\"stamp\":3,\"config\":{},\"stable\":{}}}",
        row.config_digest(),
        wire_text,
        row.stable_json()
    );
    std::fs::write(
        &path,
        format!(
            "{}{}",
            envelope("{\"journal\":\"osoffload-serve-cache\",\"version\":1}"),
            envelope(&v1_record)
        ),
    )
    .expect("write version 1 cache");

    let mut cache = ResultCache::open(&path, 0).expect("a version 1 cache opens");
    assert!(cache.is_empty(), "version 1 records are dropped");
    assert_eq!(cache.warnings().len(), 1, "{:?}", cache.warnings());
    assert_eq!(
        std::fs::read_to_string(&path).expect("read"),
        envelope(HEADER_BODY),
        "the file is rewritten with the current header"
    );
    assert!(cache.insert(wire_text, row).expect("insert"));
    drop(cache);

    let reopened = ResultCache::open(&path, 0).expect("reopen");
    assert!(reopened.warnings().is_empty(), "{:?}", reopened.warnings());
    assert!(
        reopened.lookup(&row.config_digest(), wire_text).is_some(),
        "the insert after the upgrade is durable"
    );
}

#[test]
fn failed_rows_are_never_cached() {
    let rows = sample_rows();
    let dir = scratch("failed");
    let path = dir.join("cache.wal");
    let mut cache = ResultCache::open(&path, 0).expect("open");
    let (wire_text, row) = &rows[0];
    let mut failed = row.clone();
    failed.outcome = osoffload_runner::Outcome::Failed {
        panic: "boom".to_string(),
        attempts: 1,
    };
    failed.restored = None;
    assert!(!cache.insert(wire_text, &failed).expect("insert refused"));
    assert!(cache.is_empty());
}
