//! What the experiments of [`crate::experiments`] share: the one path
//! from a driver to its table, and plain-text table rendering.
//!
//! Every sweep follows the same shape: hand its driver to [`run`],
//! which records the driver's plan, has an [`Executor`] run it (the
//! runner here, streaming progress to stderr and archiving
//! `results/<name>.json`, or a serve daemon), reads the archive back
//! and replays the driver over its rows; then print the table from
//! the rows it returns.

use crate::serve::{self, Submit};
use osoffload_runner::journal::config_digest;
use osoffload_runner::{
    record_plan, replay, report, run_plan, ExperimentPlan, Outcome, RunnerOptions, SweepResult,
};
use osoffload_system::experiments::{Evaluator, Scale};
use std::path::{Path, PathBuf};

/// Renders rows as an aligned plain-text table with a header rule.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        line.push_str(&format!("{h:<w$}  "));
    }
    out.push_str(line.trim_end());
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            line.push_str(&format!("{cell:<w$}  "));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Renders values as a unicode sparkline, scaled to `[lo, hi]`.
pub fn spark(values: &[f64], lo: f64, hi: f64) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let span = (hi - lo).max(f64::EPSILON);
    values
        .iter()
        .map(|&v| {
            let t = ((v - lo) / span).clamp(0.0, 1.0);
            BARS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

/// Where an experiment's recorded plan runs.
#[derive(Debug, Clone)]
pub enum Executor {
    /// Here, on the runner: `osoffload <experiment>`.
    Here(RunnerOptions),
    /// On a serve daemon: `osoffload serve submit <experiment>`.
    Daemon(Submit),
}

/// Records `driver`'s plan, has `exec` run it, and returns the rows
/// the driver replays over the archive read back. Every table is
/// rendered from archived rows, so a direct, resumed or served run
/// prints the same table.
///
/// If any point failed (panicked through all retries, or timed out),
/// the failures are listed on stderr — with the archive still
/// recording every completed point — and the process exits with
/// status 1, as it does when the plan cannot be executed or its
/// archive read back.
pub fn run<R>(name: &str, scale: Scale, exec: &Executor, driver: impl Fn(Evaluator<'_>) -> R) -> R {
    let plan = record_plan(name, scale.seed, &driver);
    let archive = match exec {
        Executor::Here(opts) => run_here(&plan, opts),
        Executor::Daemon(s) => serve::submit(&plan, s),
    };
    let sweep = archive
        .and_then(|path| read_plan(&plan, &path))
        .unwrap_or_else(|e| {
            eprintln!("[{name}] {e}");
            std::process::exit(1)
        });
    if let Some(rows) = replay(&driver, &sweep) {
        return rows;
    }
    for f in sweep.failures() {
        match &f.outcome {
            Outcome::Failed { panic, attempts } => eprintln!(
                "[{name}] point {} FAILED after {attempts} attempt(s): {panic}",
                f.id
            ),
            Outcome::TimedOut {
                deadline_ms,
                attempts,
            } => eprintln!(
                "[{name}] point {} TIMED OUT ({deadline_ms} ms deadline, {attempts} attempt(s))",
                f.id
            ),
            Outcome::Ok(_) => {}
        }
    }
    eprintln!(
        "[{name}] {}/{} points failed; tables not assembled",
        sweep.failures().count(),
        sweep.rows.len()
    );
    std::process::exit(1);
}

/// Runs `plan` on the runner and writes `<out_dir>/<name>.json`,
/// returning its path. The summary line on stderr gives the measured
/// wall time and worker count, which only a `--canonical` archive
/// zeroes.
fn run_here(plan: &ExperimentPlan, opts: &RunnerOptions) -> Result<PathBuf, String> {
    let name = plan.name();
    let sweep = run_plan(plan, opts);
    let written = report::write_sweep(&sweep, &opts.out_dir);
    if let Ok(path) = &written {
        eprintln!(
            "[{name}] {} points in {:.1}s on {} workers -> {}",
            sweep.rows.len(),
            sweep.wall_ms / 1e3,
            sweep.workers,
            path.display()
        );
    }
    if opts.telemetry {
        match report::write_runner_telemetry(&sweep, &opts.telemetry_dir()) {
            Ok(paths) => {
                for p in paths {
                    eprintln!("[{name}] wrote {}", p.display());
                }
            }
            Err(e) => eprintln!("[{name}] could not write runner telemetry: {e}"),
        }
    }
    written.map_err(|e| format!("could not write results file: {e}"))
}

/// Reads the archive at `path` back through the stable-row decoder,
/// refusing it unless it holds `plan`: the same experiment and master
/// seed, and the same point ids and configuration digests in order.
/// Another run of the same name may have overwritten it since.
fn read_plan(plan: &ExperimentPlan, path: &Path) -> Result<SweepResult, String> {
    let sweep = report::read_sweep(path)?;
    let refuse = |why: String| {
        Err(format!(
            "{}: not this plan's archive: {why}",
            path.display()
        ))
    };
    if (sweep.name.as_str(), sweep.master_seed) != (plan.name(), plan.master_seed()) {
        return refuse(format!(
            "it holds {} with master seed {}, not {} with master seed {}",
            sweep.name,
            sweep.master_seed,
            plan.name(),
            plan.master_seed()
        ));
    }
    let key = |id: &str, digest: String| format!("{id} (config {digest})");
    for i in 0..plan.len().max(sweep.rows.len()) {
        let archived = sweep.rows.get(i).map(|r| key(&r.id, r.config_digest()));
        let planned = plan
            .points()
            .get(i)
            .map(|p| key(&p.id, config_digest(&p.config.to_json())));
        if archived != planned {
            let or_none = |k: Option<String>| k.unwrap_or_else(|| "no row".into());
            return refuse(format!(
                "row {i} is {}, where the plan has {}",
                or_none(archived),
                or_none(planned)
            ));
        }
    }
    Ok(sweep)
}

/// Archives a static (no-simulation) table under `results/` with
/// the same JSON envelope as a sweep.
pub fn write_static(name: &str, headers: &[&str], rows: &[Vec<String>], opts: &RunnerOptions) {
    match report::write_static_table(name, headers, rows, &opts.out_dir) {
        Ok(path) => eprintln!("[{name}] wrote {}", path.display()),
        Err(e) => eprintln!("[{name}] could not write results file: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["a", "long-header"],
            &[
                vec!["xxxx".into(), "1".into()],
                vec!["y".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     long-header"));
        assert!(lines[2].starts_with("xxxx  1"));
    }

    /// An archive is read back only if it holds the plan: another
    /// plan's archive is refused, naming the first row that differs.
    #[test]
    fn an_archive_of_another_plan_is_refused_naming_the_first_differing_row() {
        use osoffload_runner::driver::placeholder_report;
        use osoffload_runner::run_plan_with;
        use osoffload_system::experiments::single_config;
        use osoffload_system::PolicyKind;
        use osoffload_workload::Profile;
        let scale = Scale {
            instructions: 1_000,
            warmup: 0,
            seed: 5,
            compute_profiles: 1,
        };
        let plan = |name: &str, latencies: &[u64]| {
            record_plan(name, scale.seed, |ev| {
                for &latency in latencies {
                    let hi = PolicyKind::HardwarePredictor { threshold: 100 };
                    ev(single_config(Profile::apache(), hi, latency, 1, scale));
                }
            })
        };
        let dir = std::env::temp_dir().join(format!("osoffload-read-plan-{}", std::process::id()));
        let opts = RunnerOptions {
            workers: 1,
            quiet: true,
            ..RunnerOptions::default()
        };
        let archive = |plan: &ExperimentPlan| {
            let sweep = run_plan_with(plan, &opts, |_| placeholder_report());
            report::write_sweep(&sweep, &dir).expect("write archive")
        };
        let mine = plan("unit", &[100, 1_000, 5_000]);
        assert_eq!(
            read_plan(&mine, &archive(&mine))
                .expect("own archive")
                .rows
                .len(),
            3
        );

        let theirs = archive(&plan("unit", &[100, 2_000, 5_000]));
        let e = read_plan(&mine, &theirs).expect_err("another plan");
        assert!(
            e.contains("not this plan's archive: row 1 is 0001/apache/"),
            "{e}"
        );
        assert!(e.contains("lat=2000/cores=1 (config "), "{e}");
        assert!(e.contains("where the plan has 0001/apache/"), "{e}");
        assert!(e.contains("lat=1000/cores=1 (config "), "{e}");

        let longer = archive(&plan("unit", &[100, 1_000, 5_000, 10_000]));
        let e = read_plan(&mine, &longer).expect_err("a longer plan");
        assert!(
            e.contains("row 3 is 0003/") && e.ends_with("where the plan has no row"),
            "{e}"
        );

        let renamed = archive(&plan("other", &[100, 1_000, 5_000]));
        let e = read_plan(&mine, &renamed).expect_err("another experiment");
        assert!(
            e.ends_with("it holds other with master seed 5, not unit with master seed 5"),
            "{e}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.4575), "45.75%");
        assert_eq!(pct(1.0), "100.00%");
    }

    #[test]
    fn spark_scales_and_clamps() {
        let s = spark(&[-1.0, 0.0, 0.5, 1.0, 2.0], 0.0, 1.0);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 5);
        assert_eq!(chars[0], '▁', "below range clamps low");
        assert_eq!((chars[1], chars[3]), ('▁', '█'), "the range's ends");
        assert_eq!(chars[4], '█', "above range clamps high");
        assert!(chars[2] > chars[1] && chars[2] < chars[3]);
    }

    #[test]
    fn spark_flat_range_does_not_panic() {
        let s = spark(&[1.0, 1.0], 1.0, 1.0);
        assert_eq!(s.chars().count(), 2);
    }
}
