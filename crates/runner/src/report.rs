//! JSON results files under `results/`.
//!
//! One sweep produces one file, `<out_dir>/<plan name>.json`, holding
//! sweep metadata plus one row per point. Row schema (stable key
//! order):
//!
//! ```json
//! {"index":0,"id":"…","seed":123,"config":{…},"status":"ok",
//!  "report":{…SimReport…},"wall_ms":12.3,"start_ms":0.1,"worker":2,
//!  "attempts":1,"injected_faults":0,"attempt_ms":[12.3]}
//! ```
//!
//! `config` is the point's full configuration as
//! [`SystemConfig::to_json`] renders it, so the FNV-1a
//! [`config_digest`](crate::journal::config_digest) of those bytes names
//! exactly one configuration.
//!
//! Failed points carry `"status":"failed"`, a `"panic"` message, an
//! `"attempts"` count and a `"config_digest"` instead of `"report"`;
//! watchdog-cancelled points carry `"status":"timeout"` with their
//! `"deadline_ms"`. The wall-clock timings and worker assignment are
//! the only non-deterministic fields; everything before `"wall_ms"` is
//! bit-identical across worker counts (and `--canonical` zeroes the
//! rest).
//!
//! Every file in this module is written through
//! [`osoffload_obs::atomic_write`] — temp file, fsync, atomic rename —
//! so a crash mid-write can never leave a half-written archive where a
//! previous good one stood.

use crate::executor::{Outcome, SweepResult};
use osoffload_obs::{atomic_write, chrome_trace, json, Event, EventKind, Track};
use osoffload_system::{CycleProfile, SystemConfig};
use std::io;
use std::path::{Path, PathBuf};

/// [`SystemConfig::to_json`], under the name the benchmark harness
/// (`perfbench/harness`) imports.
pub fn config_json(cfg: &SystemConfig) -> String {
    cfg.to_json()
}

/// Writes a sweep's results to `<dir>/<plan name>.json` atomically
/// (temp file + rename), creating the directory if needed. Returns the
/// file's path.
pub fn write_sweep(sweep: &SweepResult, dir: &Path) -> io::Result<PathBuf> {
    let path = dir.join(format!("{}.json", sweep.name));
    atomic_write(&path, sweep.to_json().as_bytes())?;
    Ok(path)
}

/// Writes a point's cycle-attribution profile (both files atomic):
///
/// - `<base>.collapsed` — folded stacks (`syscall;phase cycles`),
///   directly consumable by flamegraph tooling;
/// - `<base>.attribution.txt` — the top-20 attribution table.
pub fn write_profile(profile: &CycleProfile, dir: &Path, base: &str) -> io::Result<Vec<PathBuf>> {
    let collapsed = dir.join(format!("{base}.collapsed"));
    atomic_write(&collapsed, profile.to_collapsed().as_bytes())?;
    let table = dir.join(format!("{base}.attribution.txt"));
    atomic_write(&table, profile.top_table(20).as_bytes())?;
    Ok(vec![collapsed, table])
}

/// Writes the runner's self-profiling telemetry for a sweep.
///
/// Produces two files in `dir` (both written atomically):
///
/// - `<name>_runner.trace.json` — a Chrome trace of the worker
///   timeline: one complete span per point on its worker's track, with
///   wall-clock microseconds since sweep start as timestamps, plus
///   retry/timeout/fault instants on the control track. Load it in
///   Perfetto / `chrome://tracing` to see scheduling, queue gaps,
///   stragglers and recovery activity.
/// - `<name>_runner.json` — a utilisation summary: sweep wall time,
///   idle worker-milliseconds, retry/timeout/fault counts and one row
///   per worker.
pub fn write_runner_telemetry(sweep: &SweepResult, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut events: Vec<Event> = Vec::with_capacity(sweep.rows.len());
    for row in &sweep.rows {
        let start_us = (row.start_ms * 1_000.0) as u64;
        events.push(Event {
            ts: start_us,
            dur: (row.wall_ms * 1_000.0).max(1.0) as u64,
            track: Track::Worker(row.worker),
            kind: EventKind::Task {
                name: row.id.clone(),
                ok: row.is_ok(),
            },
        });
        // Control-track instants: one per retried attempt, one per
        // watchdog timeout, one per fault-plan-touched point.
        let mut elapsed_ms = 0.0;
        for attempt in 1..row.attempts {
            elapsed_ms += row
                .attempt_ms
                .get(attempt as usize - 1)
                .copied()
                .unwrap_or(0.0);
            events.push(Event {
                ts: start_us + (elapsed_ms * 1_000.0) as u64,
                dur: 0,
                track: Track::Control,
                kind: EventKind::Retry { attempt },
            });
        }
        if let Outcome::TimedOut { deadline_ms, .. } = row.outcome {
            events.push(Event {
                ts: start_us + (row.wall_ms * 1_000.0) as u64,
                dur: 0,
                track: Track::Control,
                kind: EventKind::Timeout { deadline_ms },
            });
        }
        if row.injected_faults > 0 {
            events.push(Event {
                ts: start_us,
                dur: 0,
                track: Track::Control,
                kind: EventKind::Fault {
                    injected: row.injected_faults,
                },
            });
        }
    }
    let meta = [
        ("experiment".to_string(), sweep.name.clone()),
        ("workers".to_string(), sweep.workers.to_string()),
        ("wall_ms".to_string(), format!("{:.3}", sweep.wall_ms)),
    ];
    let trace_path = dir.join(format!("{}_runner.trace.json", sweep.name));
    atomic_write(&trace_path, chrome_trace(&events, None, &meta).as_bytes())?;

    let profiles = sweep.worker_profiles();
    let retries: u64 = profiles.iter().map(|p| p.retries).sum();
    let profile_rows: Vec<String> = profiles
        .iter()
        .map(|p| {
            format!(
                "{{\"worker\":{},\"points\":{},\"busy_ms\":{:.3},\"retries\":{},\"timeouts\":{},\"utilization\":{:.4}}}",
                p.worker, p.points, p.busy_ms, p.retries, p.timeouts, p.utilization
            )
        })
        .collect();
    let json_path = dir.join(format!("{}_runner.json", sweep.name));
    atomic_write(
        &json_path,
        format!(
            "{{\"experiment\":\"{}\",\"workers\":{},\"points\":{},\"failed\":{},\"timeouts\":{},\
             \"injected_faults\":{},\"wall_ms\":{:.3},\"idle_ms\":{:.3},\"retries\":{},\
             \"worker_profiles\":[{}]}}",
            json::escape(&sweep.name),
            sweep.workers,
            sweep.rows.len(),
            sweep.failures().count(),
            sweep.timeouts(),
            sweep.injected_faults(),
            sweep.wall_ms,
            sweep.idle_ms(),
            retries,
            profile_rows.join(",")
        )
        .as_bytes(),
    )?;
    Ok(vec![trace_path, json_path])
}

/// Writes a static (no-simulation) table to `<dir>/<name>.json` (atomic
/// temp-file + rename) with the same envelope as a sweep, so every
/// experiment binary archives machine-readable results in one place.
pub fn write_static_table(
    name: &str,
    headers: &[&str],
    rows: &[Vec<String>],
    dir: &Path,
) -> io::Result<PathBuf> {
    let headers: Vec<String> = headers.iter().map(|h| json::quote(h)).collect();
    let rows: Vec<String> = rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|c| json::quote(c)).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    let path = dir.join(format!("{name}.json"));
    atomic_write(
        &path,
        format!(
            "{{\"experiment\":\"{}\",\"kind\":\"static\",\"headers\":[{}],\"rows\":[{}]}}",
            json::escape(name),
            headers.join(","),
            rows.join(",")
        )
        .as_bytes(),
    )?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    #[test]
    fn runner_telemetry_writes_trace_and_summary() {
        use crate::executor::{Outcome, PointResult};
        let row = |index: usize, worker: usize, start_ms: f64| PointResult {
            index,
            id: format!("p{index}"),
            seed: index as u64,
            config_json: "{}".to_string(),
            outcome: Outcome::Failed {
                panic: "synthetic".to_string(),
                attempts: 2,
            },
            wall_ms: 5.0,
            start_ms,
            worker,
            attempts: 2,
            attempt_ms: vec![2.5, 2.5],
            injected_faults: 1,
            restored: None,
        };
        let mut timed_out = row(2, 0, 6.0);
        timed_out.outcome = Outcome::TimedOut {
            deadline_ms: 4,
            attempts: 2,
        };
        let sweep = SweepResult {
            name: "unit".to_string(),
            master_seed: 1,
            workers: 2,
            wall_ms: 12.0,
            rows: vec![row(0, 0, 0.0), row(1, 1, 1.0), timed_out],
        };
        let dir = std::env::temp_dir().join(format!("osoff-runner-telem-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let paths = write_runner_telemetry(&sweep, &dir).expect("write telemetry");
        assert_eq!(paths.len(), 2);
        let trace = fs::read_to_string(&paths[0]).unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"worker 0\""));
        assert!(trace.contains("\"p2\""));
        assert!(trace.contains("\"retry\""), "retries on the control track");
        assert!(trace.contains("\"deadline_ms\":4"), "timeout instant");
        assert!(trace.contains("\"fault\""), "fault instants");
        let summary = fs::read_to_string(&paths[1]).unwrap();
        assert!(summary.contains("\"experiment\":\"unit\""));
        assert!(summary.contains("\"workers\":2"));
        assert!(summary.contains("\"retries\":3"));
        assert!(summary.contains("\"timeouts\":1"));
        assert!(summary.contains("\"injected_faults\":3"));
        assert!(summary.contains("\"worker_profiles\":[{"));
        fs::remove_dir_all(&dir).ok();
    }
}
