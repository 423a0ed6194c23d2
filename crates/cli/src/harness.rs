//! What the experiments of [`crate::experiments`] share: the runner
//! glue and plain-text table rendering.
//!
//! Every sweep follows the same shape: hand its driver to [`run`]
//! (which executes the simulation points concurrently, streams progress
//! to stderr, and archives a JSON results file under `results/`), then
//! print its table from the returned rows.

use osoffload_runner::{report, run_driver, Outcome, RunnerOptions};
use osoffload_system::experiments::{Evaluator, Scale};

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

/// Runs an experiment driver with its points executed in parallel,
/// writes `<out_dir>/<name>.json`, and returns the driver's rows.
/// The summary line on stderr gives the measured wall time and
/// worker count, which only a `--canonical` archive zeroes.
///
/// If any point failed (panicked through all retries), the failures
/// are listed on stderr — with the results file still recording
/// every completed point — and the process exits with status 1.
pub fn run<R>(
    name: &str,
    scale: Scale,
    opts: &RunnerOptions,
    driver: impl Fn(Evaluator<'_>) -> R,
) -> R {
    let (rows, sweep) = run_driver(name, scale.seed, opts, driver);
    match report::write_sweep(&sweep, &opts.out_dir) {
        Ok(path) => eprintln!(
            "[{name}] {} points in {:.1}s on {} workers -> {}",
            sweep.rows.len(),
            sweep.wall_ms / 1e3,
            sweep.workers,
            path.display()
        ),
        Err(e) => eprintln!("[{name}] could not write results file: {e}"),
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
    match rows {
        Some(rows) => rows,
        None => {
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
    }
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
