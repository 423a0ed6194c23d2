//! `osoffload inspect` — run analytics over `results/` artefacts.
//!
//! Three subcommands over the runner's on-disk formats (see
//! TELEMETRY.md, "Profiling & inspection"). Archives, journals and serve
//! caches load as the runner's own [`PointResult`] rows, through
//! `report::read_sweep`, `journal::load` and `cache::read_entries`:
//!
//! - `show` summarises a sweep archive, results journal or serve cache
//!   row by row, and pretty-prints any other JSON document (fuzz
//!   repros, runner summaries, static tables).
//! - `find` locates points by their FNV-1a `config_digest` — the hash
//!   archived with failed rows — across any number of artefacts.
//! - `diff` emits report-level deltas (IPC, cycle-breakdown components,
//!   queue-delay percentiles, per-OS-core utilisation) between two
//!   runs — plus runner wall-clock and points-per-second deltas when
//!   both artefacts carry timing (canonical archives zero `wall_ms`, so
//!   canonical diffs stay byte-stable without these lines) — and with
//!   `--gate=PCT` exits non-zero when the headline deltas exceed the
//!   gate: a generalized perf gate.
//!
//! Everything here is read-only and deterministic: the same inputs
//! produce byte-identical output (`diff --canonical` additionally omits
//! the file paths so output is stable across directories).

use crate::args::InspectArgs;
use osoffload_obs::json::{self, Value};
use osoffload_runner::{journal, report, Outcome, PointResult};
use osoffload_system::SimReport;
use std::fmt::Write as _;
use std::path::Path;

/// Exit code when `--gate` is breached (distinct from usage/load errors).
const EXIT_GATE: i32 = 3;

/// A loaded artefact.
enum Artefact {
    /// A sweep archive, results journal or serve cache: a summary line
    /// and its result rows.
    Rows {
        summary: String,
        rows: Vec<PointResult>,
    },
    /// Any other JSON document (repro files, runner summaries, …).
    Other(Value),
}

impl Artefact {
    fn rows(&self) -> &[PointResult] {
        match self {
            Artefact::Rows { rows, .. } => rows,
            Artefact::Other(_) => &[],
        }
    }
}

fn load(path: &str) -> Result<Artefact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: read failed: {e}"))?;
    if text.starts_with("{\"fnv\":\"") {
        // Envelope-format files are either runner journals or serve
        // caches; the header line says which.
        let first = text.lines().next().unwrap_or("");
        if journal::unwrap_envelope(first) == Some(osoffload_serve::cache::HEADER_BODY) {
            return load_serve_cache(path);
        }
        let loaded = journal::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
        let summary = format!(
            "journal: experiment={} master_seed={} points={} ({} journaled)",
            loaded.header.experiment,
            loaded.header.master_seed,
            loaded.header.points,
            loaded.rows.len()
        );
        return Ok(Artefact::Rows {
            summary,
            rows: loaded.rows,
        });
    }
    let doc = json::parse(&text).map_err(|e| format!("{path}: bad JSON: {e}"))?;
    if doc.get("rows").is_none() || doc.get("master_seed").is_none() {
        return Ok(Artefact::Other(doc));
    }
    let sweep = report::read_sweep(Path::new(path))?;
    let summary = format!(
        "archive: experiment={} master_seed={} workers={} points={} failed={} timeouts={}",
        sweep.name,
        sweep.master_seed,
        sweep.workers,
        sweep.rows.len(),
        sweep.failures().count(),
        sweep.timeouts(),
    );
    Ok(Artefact::Rows {
        summary,
        rows: sweep.rows,
    })
}

/// Loads a serve result cache (read-only — inspection never heals or
/// compacts the artefact) as one row per surviving entry, so `show`
/// summarises it and `find --digest` searches it like any journal.
fn load_serve_cache(path: &str) -> Result<Artefact, String> {
    let (entries, warnings) = osoffload_serve::cache::read_entries(Path::new(path))
        .map_err(|e| format!("{path}: {e}"))?;
    for warning in &warnings {
        eprintln!("warning: {warning}");
    }
    let summary = format!(
        "serve cache: entries={}{}",
        entries.len(),
        if warnings.is_empty() {
            String::new()
        } else {
            format!(" ({} records skipped)", warnings.len())
        }
    );
    Ok(Artefact::Rows {
        summary,
        rows: entries.into_iter().map(|e| e.row).collect(),
    })
}

/// A row's status word and, for a row without a report, what stopped it.
fn status(r: &PointResult) -> (&'static str, String) {
    match &r.outcome {
        Outcome::Ok(_) => ("ok", String::new()),
        Outcome::Failed { panic, .. } => ("failed", panic.clone()),
        Outcome::TimedOut { deadline_ms, .. } => ("timeout", format!("deadline {deadline_ms} ms")),
    }
}

/// The row's report, if its point completed.
fn report_of(r: &PointResult) -> Option<&SimReport> {
    match &r.outcome {
        Outcome::Ok(report) => Some(report),
        Outcome::Failed { .. } | Outcome::TimedOut { .. } => None,
    }
}

/// Renders one summary line per row: index, id, status, digest, and the
/// headline report numbers for ok rows.
fn render_rows(out: &mut String, rows: &[PointResult]) {
    for r in rows {
        let (status, detail) = status(r);
        let _ = write!(
            out,
            "  [{:>3}] {:<28} {:<7} {}",
            r.index,
            r.id,
            status,
            r.config_digest()
        );
        if let Some(rep) = report_of(r) {
            let _ = write!(
                out,
                "  ipc={:.6} cycles={} offloads={}",
                rep.throughput, rep.cycles, rep.offloads,
            );
        } else if !detail.is_empty() {
            let _ = write!(out, "  {detail}");
        }
        out.push('\n');
    }
}

fn render_show(path: &str) -> Result<String, String> {
    let mut out = String::new();
    match load(path)? {
        Artefact::Rows { summary, rows } => {
            out.push_str(&summary);
            out.push('\n');
            render_rows(&mut out, &rows);
        }
        Artefact::Other(doc) => out.push_str(&doc.to_json_pretty()),
    }
    Ok(out)
}

/// Renders the matches for one digest across `paths`. Returns the text
/// and whether anything matched.
fn render_find(digest: &str, paths: &[String]) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut found = false;
    for path in paths {
        let artefact = load(path)?;
        for r in artefact.rows() {
            if r.config_digest() == digest {
                found = true;
                let (status, detail) = status(r);
                let detail = if detail.is_empty() {
                    detail
                } else {
                    format!(" ({detail})")
                };
                let _ = writeln!(
                    out,
                    "{path}: [{}] {} {status}{detail}\n  config: {}",
                    r.index, r.id, r.config_json
                );
            }
        }
    }
    if !found {
        let _ = writeln!(out, "digest {digest}: no matching point");
    }
    Ok((out, found))
}

/// A compared metric: label, baseline value, candidate value, and
/// whether deltas are expressed relative (percent) or absolute.
struct Metric {
    label: String,
    a: f64,
    b: f64,
    relative: bool,
}

/// The metrics `diff` compares, pulled from one pair of reports. Gate
/// decisions use only the first two (IPC and total cycles) — the
/// headline performance numbers.
fn metrics(a: &SimReport, b: &SimReport) -> Vec<Metric> {
    let rel = |label: String, a: f64, b: f64| Metric {
        label,
        a,
        b,
        relative: true,
    };
    let mut out = vec![
        rel("ipc".to_string(), a.throughput, b.throughput),
        rel("cycles".to_string(), a.cycles as f64, b.cycles as f64),
    ];
    let (ca, cb) = (
        a.cycle_breakdown.components(),
        b.cycle_breakdown.components(),
    );
    for ((key, x), (_, y)) in ca.into_iter().zip(cb) {
        out.push(rel(format!("cycle_breakdown.{key}"), x as f64, y as f64));
    }
    for ((key, x), (_, y)) in a.queue.percentiles().into_iter().zip(b.queue.percentiles()) {
        out.push(rel(format!("queue.{key}"), x as f64, y as f64));
    }
    let (ua, ub) = (&a.os_core_utilisation, &b.os_core_utilisation);
    for i in 0..ua.len().max(ub.len()) {
        // Utilisation is already a fraction, so its delta is absolute.
        out.push(Metric {
            label: format!("os_core_utilisation[{i}]"),
            a: ua.get(i).copied().unwrap_or(0.0),
            b: ub.get(i).copied().unwrap_or(0.0),
            relative: false,
        });
    }
    out
}

/// Percentage change from `a` to `b`; infinite when appearing from zero.
fn pct(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        if b == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (b - a) / a * 100.0
    }
}

/// The completed rows of an artefact: index, id and report.
fn ok_rows(doc: &Artefact) -> Vec<(usize, &str, &SimReport)> {
    doc.rows()
        .iter()
        .filter_map(|r| Some((r.index, r.id.as_str(), report_of(r)?)))
        .collect()
}

/// Renders the report-level deltas between artefacts `a` and `b`.
/// Returns the text and the largest headline (IPC/cycles) percentage
/// delta, for the gate.
fn render_diff(a: &str, b: &str, canonical: bool) -> Result<(String, f64), String> {
    let (doc_a, doc_b) = (load(a)?, load(b)?);
    let mut out = String::new();
    if !canonical {
        let _ = writeln!(out, "diff: {a} vs {b}");
    }
    let (rows_a, rows_b) = (ok_rows(&doc_a), ok_rows(&doc_b));
    let _ = writeln!(out, "rows: {} vs {} ok", rows_a.len(), rows_b.len());
    // Wall-clock / throughput deltas, only when both sides carry real
    // timing: canonical artefacts zero every row's wall_ms, so a
    // canonical diff emits no timing lines and stays byte-stable.
    let wall = |doc: &Artefact| -> f64 { doc.rows().iter().map(|r| r.wall_ms).sum() };
    let (wall_a, wall_b) = (wall(&doc_a), wall(&doc_b));
    if wall_a > 0.0 && wall_b > 0.0 {
        let _ = writeln!(
            out,
            "wall: {wall_a:.1} -> {wall_b:.1} ms  {:+.3}%",
            pct(wall_a, wall_b)
        );
        let rate = |rows: usize, wall: f64| rows as f64 * 1e3 / wall;
        let (rate_a, rate_b) = (rate(rows_a.len(), wall_a), rate(rows_b.len(), wall_b));
        let _ = writeln!(
            out,
            "throughput: {rate_a:.2} -> {rate_b:.2} points/sec  {:+.3}%",
            pct(rate_a, rate_b)
        );
    }
    let mut compared = 0usize;
    let mut max_headline = 0.0f64;
    for (index, id, rep_a) in &rows_a {
        let Some((_, id_b, rep_b)) = rows_b.iter().find(|(i, _, _)| i == index) else {
            let _ = writeln!(out, "row {index} {id}: only in baseline");
            continue;
        };
        compared += 1;
        let mut header = format!("row {index} {id}");
        if id != id_b {
            let _ = write!(header, " (vs {id_b})");
        }
        if rep_a == rep_b {
            let _ = writeln!(out, "{header}: identical");
            continue;
        }
        let all = metrics(rep_a, rep_b);
        let mut lines = String::new();
        for (slot, m) in all.iter().enumerate() {
            if m.a == m.b {
                continue;
            }
            if m.relative {
                let delta = pct(m.a, m.b);
                if slot < 2 {
                    max_headline = max_headline.max(delta.abs());
                }
                let _ = writeln!(
                    lines,
                    "  {:<26} {} -> {}  {:+.3}%",
                    m.label, m.a, m.b, delta
                );
            } else {
                let _ = writeln!(
                    lines,
                    "  {:<26} {:.6} -> {:.6}  {:+.6}",
                    m.label,
                    m.a,
                    m.b,
                    m.b - m.a
                );
            }
        }
        if lines.is_empty() {
            let _ = writeln!(out, "{header}: no tracked deltas (other fields differ)");
        } else {
            let _ = writeln!(out, "{header}:");
            out.push_str(&lines);
        }
    }
    for (index, id, _) in &rows_b {
        if !rows_a.iter().any(|(i, _, _)| i == index) {
            let _ = writeln!(out, "row {index} {id}: only in candidate");
        }
    }
    let _ = writeln!(
        out,
        "summary: {compared} row(s) compared, max headline delta {:+.3}%",
        max_headline
    );
    Ok((out, max_headline))
}

/// `osoffload inspect`: dispatches the subcommand, prints its output,
/// and maps the result to an exit code (0 ok / 1 error or no match /
/// 3 gate breached).
pub fn inspect(a: &InspectArgs) -> i32 {
    let fail = |e: String| {
        eprintln!("error: {e}");
        1
    };
    match a {
        InspectArgs::Show { path } => match render_show(path) {
            Ok(text) => {
                print!("{text}");
                0
            }
            Err(e) => fail(e),
        },
        InspectArgs::Find { digest, paths } => match render_find(digest, paths) {
            Ok((text, found)) => {
                print!("{text}");
                i32::from(!found)
            }
            Err(e) => fail(e),
        },
        InspectArgs::Diff {
            a,
            b,
            gate,
            canonical,
        } => match render_diff(a, b, *canonical) {
            Ok((text, max_headline)) => {
                print!("{text}");
                match gate {
                    Some(limit) if max_headline > *limit => {
                        println!("gate {limit}%: FAIL (max headline delta {max_headline:+.3}%)");
                        EXIT_GATE
                    }
                    Some(limit) => {
                        println!("gate {limit}%: ok");
                        0
                    }
                    None => 0,
                }
            }
            Err(e) => fail(e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> String {
        format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn show_summarises_the_mini_archive() {
        let text = render_show(&fixture("mini_base.json")).expect("loads");
        assert!(text.starts_with("archive: experiment=mini"), "{text}");
        assert!(text.contains("ipc="), "{text}");
        // One summary line per row.
        assert_eq!(text.lines().count(), 1 + 2, "{text}");
    }

    #[test]
    fn show_pretty_prints_generic_json() {
        let dir = std::env::temp_dir().join(format!("osoff-inspect-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repro.json");
        std::fs::write(
            &path,
            "{\"seed\":18446744073709551615,\"ops\":[1,2],\"x\":2.0}",
        )
        .unwrap();
        let text = render_show(path.to_str().unwrap()).expect("loads");
        assert!(text.contains("\"seed\": 18446744073709551615"), "{text}");
        assert!(text.contains("\"ops\": [\n"), "{text}");
        // Floats keep their point, as the JSON writer renders them.
        assert!(text.contains("\"x\": 2.0\n"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn find_locates_points_by_digest_and_misses_cleanly() {
        let path = fixture("mini_base.json");
        // FNV-1a over the verbatim bytes of row 0's configuration.
        let (out, found) = render_find("df0175420ba6caad", std::slice::from_ref(&path)).unwrap();
        assert!(found, "{out}");
        assert!(out.contains("config: {"), "{out}");
        let (out, found) = render_find("0000000000000000", &[path]).unwrap();
        assert!(!found);
        assert!(out.contains("no matching point"), "{out}");
    }

    #[test]
    fn find_and_show_read_archives_journals_and_serve_caches() {
        use osoffload_runner::{record_plan, run_plan, RunnerOptions};
        use osoffload_serve::cache::ResultCache;
        use osoffload_system::experiments::{single_config, Scale};

        let dir = std::env::temp_dir().join(format!("osoff-inspect-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let scale = Scale {
            instructions: 30_000,
            warmup: 10_000,
            seed: 5,
            compute_profiles: 1,
        };
        let plan = record_plan("inspect-cache", scale.seed, |ev| {
            ev(single_config(
                osoffload_workload::Profile::apache(),
                osoffload_system::PolicyKind::Baseline,
                0,
                1,
                scale,
            ));
        });
        let journal = dir.join("inspect-cache.journal");
        let sweep = run_plan(
            &plan,
            &RunnerOptions {
                quiet: true,
                canonical: true,
                out_dir: dir.clone(),
                journal: Some(journal.clone()),
                ..RunnerOptions::default()
            },
        );
        let archive = report::write_sweep(&sweep, &dir).unwrap();
        let row = &sweep.rows[0];
        let cache_path = dir.join("cache.wal");
        let mut cache = ResultCache::open(&cache_path, 0).unwrap();
        assert!(cache.insert(&row.config_json, row).unwrap());
        drop(cache);

        let paths: Vec<String> = [&archive, &journal, &cache_path]
            .map(|p| p.to_str().unwrap().to_string())
            .into();
        for (path, summary) in paths.iter().zip([
            "archive: experiment=inspect-cache",
            "journal: experiment=inspect-cache",
            "serve cache: entries=1",
        ]) {
            let text = render_show(path).expect("loads");
            assert!(text.starts_with(summary), "{text}");
            assert!(text.contains(&row.config_digest()), "{text}");
        }
        let (out, found) = render_find(&row.config_digest(), &paths).unwrap();
        assert!(found, "{out}");
        assert_eq!(out.matches(&row.id).count(), 3, "one match per file: {out}");
        let (_, found) = render_find("0000000000000000", &paths).unwrap();
        assert!(!found);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn self_diff_reports_identical_rows_and_passes_any_gate() {
        let path = fixture("mini_base.json");
        let (out, max_headline) = render_diff(&path, &path, true).unwrap();
        assert!(out.contains(": identical"), "{out}");
        assert_eq!(max_headline, 0.0, "{out}");
        let code = inspect(&InspectArgs::Diff {
            a: path.clone(),
            b: path,
            gate: Some(0.0),
            canonical: true,
        });
        assert_eq!(code, 0);
    }

    #[test]
    fn injected_slowdown_is_reported_and_trips_the_gate() {
        let a = fixture("mini_base.json");
        let b = fixture("mini_slow.json");
        let (out, max_headline) = render_diff(&a, &b, true).unwrap();
        // The fixture injects a 25% cycle slowdown into every row.
        assert!(
            (max_headline - 25.0).abs() < 0.5,
            "expected ~25% headline delta, got {max_headline} in {out}"
        );
        assert!(out.contains("cycles"), "{out}");
        assert!(out.contains("ipc"), "{out}");
        assert_eq!(
            inspect(&InspectArgs::Diff {
                a: a.clone(),
                b: b.clone(),
                gate: Some(20.0),
                canonical: true,
            }),
            EXIT_GATE,
            "25% slowdown must breach a 20% gate"
        );
        assert_eq!(
            inspect(&InspectArgs::Diff {
                a,
                b,
                gate: Some(30.0),
                canonical: true,
            }),
            0,
            "25% slowdown passes a 30% gate"
        );
    }

    #[test]
    fn canonical_diff_output_is_byte_stable() {
        let a = fixture("mini_base.json");
        let b = fixture("mini_slow.json");
        let (out1, _) = render_diff(&a, &b, true).unwrap();
        let (out2, _) = render_diff(&a, &b, true).unwrap();
        assert_eq!(out1, out2);
        // Copies in another directory render the same canonical bytes.
        let dir = std::env::temp_dir().join(format!("osoff-inspect-cp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (ca, cb) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::copy(&a, &ca).unwrap();
        std::fs::copy(&b, &cb).unwrap();
        let (out3, _) = render_diff(ca.to_str().unwrap(), cb.to_str().unwrap(), true).unwrap();
        assert_eq!(out1, out3, "canonical output must not depend on paths");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_lists_breakdown_queue_and_utilisation_deltas() {
        let (out, _) =
            render_diff(&fixture("mini_base.json"), &fixture("mini_slow.json"), true).unwrap();
        assert!(out.contains("cycle_breakdown.base"), "{out}");
        assert!(out.contains("queue.p95_delay"), "{out}");
        assert!(out.contains("os_core_utilisation[0]"), "{out}");
    }

    #[test]
    fn timed_artefacts_get_wall_and_throughput_deltas() {
        // Canonical fixtures zero wall_ms: no timing lines, so the
        // byte-stability of canonical diffs is untouched.
        let (out, _) =
            render_diff(&fixture("mini_base.json"), &fixture("mini_slow.json"), true).unwrap();
        assert!(!out.contains("wall:"), "{out}");
        assert!(!out.contains("points/sec"), "{out}");
        // Rewrite the rows with real wall-clock on both sides: the diff
        // gains wall and points/sec lines.
        let dir = std::env::temp_dir().join(format!("osoff-inspect-wall-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let timed = |src: &str, ms: f64, name: &str| {
            let text = std::fs::read_to_string(fixture(src)).unwrap();
            let path = dir.join(name);
            let timed_text = text
                .replace("\"wall_ms\":0.000", &format!("\"wall_ms\":{ms:.3}"))
                .replace("\"wall_ms\":0.0,", &format!("\"wall_ms\":{ms:.1},"));
            std::fs::write(&path, timed_text).unwrap();
            path
        };
        let a = timed("mini_base.json", 50.0, "a.json");
        let b = timed("mini_slow.json", 25.0, "b.json");
        let (out, _) = render_diff(a.to_str().unwrap(), b.to_str().unwrap(), true).unwrap();
        assert!(out.contains("wall: 100.0 -> 50.0 ms  -50.000%"), "{out}");
        assert!(
            out.contains("throughput: 20.00 -> 40.00 points/sec  +100.000%"),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_errors_surface_as_exit_code_one() {
        assert_eq!(
            inspect(&InspectArgs::Show {
                path: "no/such/file.json".to_string()
            }),
            1
        );
    }
}
