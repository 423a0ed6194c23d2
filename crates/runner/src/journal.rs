//! Write-ahead results journal: crash-safe checkpoint/resume for
//! campaigns.
//!
//! The journal is a line-oriented append-only file. Line one is a
//! header identifying the campaign (experiment name, master seed, point
//! count) and the format version; every subsequent line records one
//! completed point. Each line is an envelope
//! `{"fnv":"<16-hex>","body":<body>}` whose checksum is
//! FNV-1a over the body's bytes, and every append is flushed with
//! `fdatasync` before the point is acknowledged — a crash can lose at
//! most the point that was in flight, never a point the runner reported
//! done.
//!
//! A record stores the row's **verbatim** stable JSON alongside the
//! non-deterministic timings. Resume re-emits that stored text
//! unchanged (see [`crate::PointResult::restored`]), which is what lets
//! a resumed campaign produce a final archive byte-identical to an
//! uninterrupted one without depending on float round-trips.
//!
//! The loader is deliberately forgiving: a torn final line (the classic
//! crash artefact), a checksum mismatch, or trailing garbage ends the
//! parse at the last good record instead of failing the resume — those
//! points simply re-run. A header of another format version is refused:
//! version 1 journals carry a lossy configuration encoding, so their
//! rows cannot be matched to a plan's points.

use crate::executor::{Outcome, PointResult};
use osoffload_obs::json::{self, Value};
use osoffload_system::SimReport;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// The 64-bit FNV-1a hash of `bytes` — the journal's line checksum,
/// and the hash behind [`config_digest`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The digest that names one configuration: FNV-1a over its
/// [`SystemConfig::to_json`](osoffload_system::SystemConfig::to_json)
/// bytes, as 16 hex digits. Archived with failed rows, keyed on by the
/// serve cache and looked up by `osoffload inspect find`.
pub fn config_digest(config_json: &str) -> String {
    format!("{:016x}", fnv1a64(config_json.as_bytes()))
}

/// The journal format version this build writes and resumes from.
const VERSION: u64 = 2;

/// The campaign identity a journal belongs to; resume refuses a journal
/// whose header does not match the plan being run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Experiment (plan) name.
    pub experiment: String,
    /// The plan's master seed.
    pub master_seed: u64,
    /// Points in the plan.
    pub points: usize,
}

impl JournalHeader {
    fn body(&self) -> String {
        format!(
            "{{\"journal\":\"osoffload-runner\",\"version\":{VERSION},\"experiment\":\"{}\",\
             \"master_seed\":{},\"points\":{}}}",
            json::escape(&self.experiment),
            self.master_seed,
            self.points
        )
    }
}

/// Wraps one record body as a checksummed, newline-terminated envelope
/// line — the journal's (and the serve cache's) on-disk line format.
pub fn envelope(body: &str) -> String {
    format!(
        "{{\"fnv\":\"{:016x}\",\"body\":{body}}}\n",
        fnv1a64(body.as_bytes())
    )
}

/// An open journal file in append mode.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Creates (truncating) a journal at `path` and writes the fsynced
    /// header line.
    pub fn create(path: &Path, header: &JournalHeader) -> io::Result<Journal> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut journal = Journal { file };
        journal.write_line(&envelope(&header.body()))?;
        Ok(journal)
    }

    /// Opens an existing journal for appending (resume).
    pub fn open_append(path: &Path) -> io::Result<Journal> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Journal { file })
    }

    /// Appends one record body as an fsynced envelope line. The line is
    /// durable when this returns `Ok`.
    pub fn append(&mut self, body: &str) -> io::Result<()> {
        self.write_line(&envelope(body))
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

/// Renders the journal record body for one completed row: the
/// non-deterministic timings plus the verbatim stable-row text. The
/// `stable` key is deliberately last so the loader can slice it back out
/// byte-for-byte (every preceding value is numeric).
pub(crate) fn record_body(row: &PointResult) -> String {
    let attempt_ms: Vec<String> = row.attempt_ms.iter().map(|ms| format!("{ms:.3}")).collect();
    format!(
        "{{\"index\":{},\"worker\":{},\"attempts\":{},\"injected_faults\":{},\
         \"wall_ms\":{:.3},\"start_ms\":{:.3},\"attempt_ms\":[{}],\"stable\":{}}}",
        row.index,
        row.worker,
        row.attempts,
        row.injected_faults,
        row.wall_ms,
        row.start_ms,
        attempt_ms.join(","),
        row.stable_json()
    )
}

/// A journal read back from disk: the campaign header and every intact
/// record, restored as result rows.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The campaign the journal belongs to.
    pub header: JournalHeader,
    /// Restored rows, in journal (completion) order. Duplicate indices
    /// keep the last record.
    pub rows: Vec<PointResult>,
}

/// How [`scan_envelope_lines`] treats a line that fails envelope
/// validation. Both modes silently drop an unterminated final fragment
/// — the torn in-flight append a crash leaves behind — because it was
/// never acknowledged to anyone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Stop at the first bad line, keeping everything before it. This
    /// is the journal-resume contract: a journal is a prefix-ordered
    /// log, so nothing after damage can be trusted to belong to the
    /// same run.
    Strict,
    /// Skip bad lines (each recorded as a [`ScanIssue`]) and keep
    /// scanning. This is the serve-cache contract: entries are
    /// content-addressed and independent, so damage to one record never
    /// invalidates its neighbours.
    Tolerant,
}

/// One line [`scan_envelope_lines`] could not validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanIssue {
    /// 1-based line number in the scanned text.
    pub lineno: usize,
    /// What was wrong with the line.
    pub why: String,
}

/// Splits `text` into newline-terminated lines and validates each as a
/// checksummed envelope, returning `(lineno, body)` pairs for the lines
/// that pass plus an issue per line that does not. The shared reader
/// beneath both [`load`] (strict) and the serve cache's loader
/// (tolerant); the mode semantics are documented in `ROBUSTNESS.md`.
pub fn scan_envelope_lines(text: &str, mode: ScanMode) -> (Vec<(usize, &str)>, Vec<ScanIssue>) {
    let mut bodies = Vec::new();
    let mut issues = Vec::new();
    let mut rest = text;
    let mut lineno = 0usize;
    // Only '\n'-terminated lines are complete; an unterminated tail is
    // a torn in-flight append and is discarded without comment.
    while let Some(nl) = rest.find('\n') {
        let line = &rest[..nl];
        rest = &rest[nl + 1..];
        lineno += 1;
        if line.is_empty() {
            continue;
        }
        match unwrap_envelope(line) {
            Some(body) => bodies.push((lineno, body)),
            None => {
                issues.push(ScanIssue {
                    lineno,
                    why: "bad envelope or checksum".to_string(),
                });
                if mode == ScanMode::Strict {
                    break;
                }
            }
        }
    }
    (bodies, issues)
}

/// Reads a journal back, tolerating the torn/corrupt tail a crash
/// leaves behind: parsing stops at the first line that is unterminated,
/// fails its checksum, or does not parse — everything before it is
/// kept. Errors only when the file is unreadable or its header is
/// missing or invalid (such a file cannot safely seed a resume).
pub fn load(path: &Path) -> Result<LoadedJournal, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let (lines, _issues) = scan_envelope_lines(&text, ScanMode::Strict);
    let mut lines = lines.into_iter();
    let (_, header_body) = lines.next().ok_or("empty journal or corrupt header line")?;
    let header = parse_header(header_body)?;
    let mut rows: Vec<PointResult> = Vec::new();
    for (_, body) in lines {
        let Some(row) = restore_row(body) else {
            break; // unrestorable record: keep everything before it
        };
        if let Some(existing) = rows.iter_mut().find(|r| r.index == row.index) {
            *existing = row;
        } else {
            rows.push(row);
        }
    }
    Ok(LoadedJournal { header, rows })
}

/// Validates one envelope line and returns the body slice, or `None`
/// when the line is malformed or fails its checksum.
pub fn unwrap_envelope(line: &str) -> Option<&str> {
    const PREFIX: &str = "{\"fnv\":\"";
    const MID: &str = "\",\"body\":";
    let rest = line.strip_prefix(PREFIX)?;
    let (hex, rest) = rest.split_at_checked(16)?;
    let body_and_close = rest.strip_prefix(MID)?;
    let body = body_and_close.strip_suffix('}')?;
    let want = u64::from_str_radix(hex, 16).ok()?;
    (fnv1a64(body.as_bytes()) == want).then_some(body)
}

fn parse_header(body: &str) -> Result<JournalHeader, String> {
    let v = json::parse(body).map_err(|e| format!("bad header: {e}"))?;
    if v.get("journal").and_then(Value::as_str) != Some("osoffload-runner") {
        return Err("not an osoffload-runner journal".into());
    }
    let version = v.get("version").and_then(Value::as_u64).unwrap_or(0);
    if version != VERSION {
        // Version 1 rows carry a lossy config encoding that cannot be
        // matched to a plan's points.
        return Err(format!(
            "journal version {version} cannot be resumed; this build reads version {VERSION}"
        ));
    }
    Ok(JournalHeader {
        experiment: v.field("header", "experiment", Value::as_str)?.to_string(),
        master_seed: v.field("header", "master_seed", Value::as_u64)?,
        points: v.field("header", "points", Value::as_usize)?,
    })
}

/// Rebuilds one result row from a record body, or `None` if anything
/// about the record is off (the point then simply re-runs): the stable
/// slice decodes like any other stable row, then takes the record's
/// timings.
fn restore_row(body: &str) -> Option<PointResult> {
    let (timings, stable) = split_record(body)?;
    let mut row = decode_stable(stable).ok()?;
    read_timings(&mut row, &json::parse(&timings).ok()?).ok()?;
    Some(row)
}

/// Decodes a stable-row text — the deterministic part of an archive row,
/// a journal record or a serve-cache entry — into a result row: the
/// outcome (the report through [`SimReport::from_json`]) is parsed out
/// of the text, the non-deterministic fields take their canonical zeros
/// (`attempts` 1, one zero attempt), and the verbatim text is kept so
/// archives re-emit it byte for byte, the contract journal resume relies
/// on. Every result row rebuilt from text goes through here.
pub(crate) fn decode_stable(stable_text: &str) -> Result<PointResult, String> {
    let stable = json::parse(stable_text)?;
    let what = "row";
    let attempts = || stable.field(what, "attempts", Value::as_u32);
    let outcome = match stable.field(what, "status", Value::as_str)? {
        "ok" => Outcome::Ok(Box::new(SimReport::from_json(
            stable.field(what, "report", Some)?,
        )?)),
        "failed" => Outcome::Failed {
            panic: stable.field(what, "panic", Value::as_str)?.to_string(),
            attempts: attempts()?,
        },
        "timeout" => Outcome::TimedOut {
            deadline_ms: stable.field(what, "deadline_ms", Value::as_u64)?,
            attempts: attempts()?,
        },
        other => return Err(format!("unknown row status {other:?}")),
    };
    Ok(PointResult {
        index: stable.field(what, "index", Value::as_usize)?,
        id: stable.field(what, "id", Value::as_str)?.to_string(),
        seed: stable.field(what, "seed", Value::as_u64)?,
        config_json: extract_config(stable_text).ok_or("row config does not slice out")?,
        outcome,
        wall_ms: 0.0,
        start_ms: 0.0,
        worker: 0,
        attempts: 1,
        attempt_ms: vec![0.0],
        injected_faults: 0,
        restored: Some(stable_text.to_string()),
    })
}

/// Restores a result row from a stable-row text alone — the form the
/// serve cache stores — through the one stable-row decoder that journal
/// resume and `report::read_sweep` use too; `None` when the text does
/// not decode.
pub fn restore_from_stable(stable_text: &str) -> Option<PointResult> {
    decode_stable(stable_text).ok()
}

/// Sets the non-deterministic fields of `row` from the `wall_ms`,
/// `start_ms`, `worker`, `attempts`, `injected_faults` and `attempt_ms`
/// keys of `v` (a journal record, or an archive row's timing tail). An
/// absent key keeps the canonical zero [`decode_stable`] gave it.
pub(crate) fn read_timings(row: &mut PointResult, v: &Value) -> Result<(), String> {
    fn set<T>(
        v: &Value,
        key: &str,
        slot: &mut T,
        get: impl FnOnce(&Value) -> Option<T>,
    ) -> Result<(), String> {
        if let Some(x) = v.get(key) {
            *slot = get(x).ok_or_else(|| format!("row {key} has the wrong type"))?;
        }
        Ok(())
    }
    set(v, "wall_ms", &mut row.wall_ms, Value::as_f64)?;
    set(v, "start_ms", &mut row.start_ms, Value::as_f64)?;
    set(v, "worker", &mut row.worker, Value::as_usize)?;
    set(v, "attempts", &mut row.attempts, Value::as_u32)?;
    set(
        v,
        "injected_faults",
        &mut row.injected_faults,
        Value::as_u32,
    )?;
    set(v, "attempt_ms", &mut row.attempt_ms, |x| {
        x.as_arr()?.iter().map(Value::as_f64).collect()
    })
}

/// Re-keys a stable-row text to a new plan position: the `index`, `id`,
/// and `seed` prefix is replaced and everything from `"config":` on —
/// the configuration and the outcome — carries over byte-for-byte. This
/// is how a serve-cache row recorded at one sweep position is replayed
/// verbatim at another without re-serialising the report.
pub fn rekey_stable(stable: &str, index: usize, id: &str, seed: u64) -> Option<String> {
    let pos = config_key_at(stable)?;
    Some(format!(
        "{{\"index\":{index},\"id\":\"{}\",\"seed\":{seed}{}",
        json::escape(id),
        &stable[pos..]
    ))
}

/// Splits a record body into its timings, closed off as an object of
/// their own, and the verbatim stable-row text. `stable` is the
/// record's last key and every earlier value is numeric, so the first
/// occurrence of the key is the real one and its value runs to the
/// body's closing brace.
fn split_record(body: &str) -> Option<(String, &str)> {
    const KEY: &str = ",\"stable\":";
    let at = body.find(KEY)?;
    let stable = body.get(at + KEY.len()..body.len().checked_sub(1)?)?;
    (stable.starts_with('{') && stable.ends_with('}'))
        .then(|| (format!("{}}}", &body[..at]), stable))
}

/// Slices the verbatim configuration JSON out of a stable-row text:
/// the exact bytes its `config_digest` hashes.
fn extract_config(stable: &str) -> Option<String> {
    let start = config_key_at(stable)? + CONFIG_KEY.len();
    let end = json::value_end(stable, start)?;
    Some(stable[start..end].to_string())
}

const CONFIG_KEY: &str = ",\"config\":";

/// The byte offset of the `"config"` key in a stable-row text, found by
/// walking its fixed leading fields `{"index":N,"id":"...","seed":N`
/// value by value, so ids containing braces or a literal `"config"`
/// cannot mislead it.
fn config_key_at(stable: &str) -> Option<usize> {
    let mut pos = 0;
    for key in ["{\"index\":", ",\"id\":", ",\"seed\":"] {
        pos = stable[pos..].starts_with(key).then_some(pos + key.len())?;
        pos = json::value_end(stable, pos)?;
    }
    stable[pos..].starts_with(CONFIG_KEY).then_some(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "osoffload_journal_{tag}_{}_{}.journal",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn header() -> JournalHeader {
        JournalHeader {
            experiment: "unit".into(),
            master_seed: 9,
            points: 3,
        }
    }

    fn sample_row(index: usize) -> PointResult {
        PointResult {
            index,
            id: format!("p{index}"),
            seed: 0xFFFF_FFFF_FFFF_FF00 + index as u64,
            config_json: "{\"profile\":\"apache\",\"n\":1}".into(),
            outcome: Outcome::Failed {
                panic: "boom \"quoted\"".into(),
                attempts: 2,
            },
            wall_ms: 1.5,
            start_ms: 0.25,
            worker: 1,
            attempts: 2,
            attempt_ms: vec![0.7, 0.8],
            injected_faults: 1,
            restored: None,
        }
    }

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn roundtrips_rows_through_disk() {
        let path = temp_path("roundtrip");
        let mut j = Journal::create(&path, &header()).expect("create");
        let rows = [sample_row(0), sample_row(2)];
        for row in &rows {
            j.append(&record_body(row)).expect("append");
        }
        let loaded = load(&path).expect("load");
        assert_eq!(loaded.header, header());
        assert_eq!(loaded.rows.len(), 2);
        for (orig, restored) in rows.iter().zip(&loaded.rows) {
            assert_eq!(restored.index, orig.index);
            assert_eq!(restored.id, orig.id);
            assert_eq!(restored.seed, orig.seed);
            assert_eq!(restored.config_json, orig.config_json);
            assert_eq!(restored.attempts, orig.attempts);
            assert_eq!(restored.attempt_ms, orig.attempt_ms);
            assert_eq!(restored.injected_faults, orig.injected_faults);
            assert_eq!(
                restored.stable_json(),
                orig.stable_json(),
                "stable text must survive verbatim"
            );
            assert_eq!(restored.row_json(), orig.row_json());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_and_corrupt_tails_are_discarded() {
        let path = temp_path("torn");
        let mut j = Journal::create(&path, &header()).expect("create");
        j.append(&record_body(&sample_row(0))).expect("append");
        j.append(&record_body(&sample_row(1))).expect("append");
        let intact = std::fs::read_to_string(&path).expect("read");
        // Torn final line: a prefix of a record without its newline.
        let torn = format!("{intact}{}", &envelope("{\"x\":1}")[..9]);
        std::fs::write(&path, &torn).expect("write");
        assert_eq!(load(&path).expect("load").rows.len(), 2);
        // Checksum flip on the last line drops that record only.
        let flipped = intact.replace(
            &envelope(&record_body(&sample_row(1))),
            &envelope(&record_body(&sample_row(1))).replacen('0', "1", 1),
        );
        std::fs::write(&path, &flipped).expect("write");
        assert_eq!(load(&path).expect("load").rows.len(), 1);
        // Garbage line stops the parse but keeps the good prefix.
        let garbage = format!("{intact}not json at all\n");
        std::fs::write(&path, &garbage).expect("write");
        assert_eq!(load(&path).expect("load").rows.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn strict_and_tolerant_scans_differ_only_after_the_first_bad_line() {
        // One fixture, both modes: header, good record, corrupt record
        // (checksum flip), garbage, good record, torn unterminated tail.
        let good1 = envelope("{\"a\":1}");
        let corrupt = envelope("{\"b\":2}").replacen('0', "1", 1);
        let good2 = envelope("{\"c\":3}");
        let fixture = format!(
            "{}{good1}{corrupt}not an envelope at all\n\n{good2}{}",
            envelope("{\"hdr\":true}"),
            &envelope("{\"torn\":true}")[..9]
        );

        let (strict, strict_issues) = scan_envelope_lines(&fixture, ScanMode::Strict);
        assert_eq!(
            strict,
            vec![(1, "{\"hdr\":true}"), (2, "{\"a\":1}")],
            "strict keeps only the prefix before the first bad line"
        );
        assert_eq!(strict_issues.len(), 1, "{strict_issues:?}");
        assert_eq!(strict_issues[0].lineno, 3);

        let (tolerant, tolerant_issues) = scan_envelope_lines(&fixture, ScanMode::Tolerant);
        assert_eq!(
            tolerant,
            vec![(1, "{\"hdr\":true}"), (2, "{\"a\":1}"), (6, "{\"c\":3}")],
            "tolerant skips bad lines and keeps later good ones"
        );
        assert_eq!(
            tolerant_issues.iter().map(|i| i.lineno).collect::<Vec<_>>(),
            vec![3, 4],
            "one issue per skipped line; blank lines and the torn tail \
             are dropped silently in both modes: {tolerant_issues:?}"
        );
    }

    #[test]
    fn a_journal_without_a_valid_header_is_refused() {
        let path = temp_path("badheader");
        std::fs::write(&path, "junk\n").expect("write");
        assert!(load(&path).is_err());
        std::fs::write(&path, "").expect("write");
        assert!(load(&path).is_err());
        let _ = std::fs::remove_file(&path);
        assert!(load(&path).is_err(), "missing file is an error");
    }

    #[test]
    fn duplicate_indices_keep_the_last_record() {
        let path = temp_path("dup");
        let mut j = Journal::create(&path, &header()).expect("create");
        let mut first = sample_row(1);
        first.attempts = 1;
        j.append(&record_body(&first)).expect("append");
        let mut second = sample_row(1);
        second.attempts = 9;
        j.append(&record_body(&second)).expect("append");
        let loaded = load(&path).expect("load");
        assert_eq!(loaded.rows.len(), 1);
        assert_eq!(loaded.rows[0].attempts, 9);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_from_stable_round_trips_and_rekeys() {
        let row = sample_row(3);
        let stable = row.stable_json();
        let restored = restore_from_stable(&stable).expect("restore");
        assert_eq!(restored.index, row.index);
        assert_eq!(restored.id, row.id);
        assert_eq!(restored.seed, row.seed);
        assert_eq!(restored.config_json, row.config_json);
        assert_eq!(restored.stable_json(), stable, "verbatim text retained");
        assert_eq!(restored.attempts, 1, "non-deterministic fields zeroed");
        assert_eq!(restored.attempt_ms, vec![0.0]);
        // Re-keying to a new position rewrites the prefix only.
        let rekeyed = rekey_stable(&stable, 7, "moved \"id\"", 42).expect("rekey");
        let moved = restore_from_stable(&rekeyed).expect("restore rekeyed");
        assert_eq!(moved.index, 7);
        assert_eq!(moved.id, "moved \"id\"");
        assert_eq!(moved.seed, 42);
        assert_eq!(moved.config_json, row.config_json);
        assert_eq!(moved.stable_json(), rekeyed);
        assert!(rekey_stable("{\"nope\":1}", 0, "x", 0).is_none());
    }

    #[test]
    fn config_extraction_is_string_aware() {
        // An id crafted to contain the markers a naive scan would trip
        // on.
        let stable = "{\"index\":0,\"id\":\"evil\\\",\\\"config\\\":{\",\"seed\":1,\
                      \"config\":{\"a\":[1,{\"b\":\"}\"}]},\"status\":\"x\"}";
        assert_eq!(
            extract_config(stable).as_deref(),
            Some("{\"a\":[1,{\"b\":\"}\"}]}")
        );
    }

    #[test]
    fn restores_ok_rows_with_full_reports() {
        use osoffload_system::{PolicyKind, SystemConfig};
        use osoffload_workload::Profile;
        let cfg = SystemConfig::builder()
            .profile(Profile::apache())
            .policy(PolicyKind::HardwarePredictor { threshold: 500 })
            .instructions(20_000)
            .warmup(5_000)
            .seed(7)
            .build();
        let report = osoffload_system::Simulation::new(cfg.clone()).run();
        let row = PointResult {
            index: 0,
            id: "ok-point".into(),
            seed: 7,
            config_json: cfg.to_json(),
            outcome: Outcome::Ok(Box::new(report.clone())),
            wall_ms: 3.0,
            start_ms: 0.0,
            worker: 0,
            attempts: 1,
            attempt_ms: vec![3.0],
            injected_faults: 0,
            restored: None,
        };
        let path = temp_path("okrow");
        let mut j = Journal::create(
            &path,
            &JournalHeader {
                experiment: "unit".into(),
                master_seed: 7,
                points: 1,
            },
        )
        .expect("create");
        j.append(&record_body(&row)).expect("append");
        let loaded = load(&path).expect("load");
        assert_eq!(loaded.rows.len(), 1);
        let restored = &loaded.rows[0];
        assert_eq!(restored.stable_json(), row.stable_json());
        match &restored.outcome {
            Outcome::Ok(r) => {
                // Everything to_json serialises survives the round trip.
                assert_eq!(r.to_json(), report.to_json());
            }
            other => unreachable!("expected Ok, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
