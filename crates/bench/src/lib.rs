//! Shared helpers for the `osoffload-bench` experiment binary.
//!
//! `osoffload-bench <name> [quick|full|paper] [runner flags]` regenerates
//! one table or figure of the paper (see `DESIGN.md`'s experiment index);
//! its registry lives in `src/main.rs`. This library holds what the
//! experiments and the `bench_simulation` perf gate share: argument
//! parsing, the runner glue, and plain-text table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Renders rows as an aligned plain-text table with a header rule.
///
/// # Examples
///
/// ```
/// let table = osoffload_bench::render_table(
///     &["name", "value"],
///     &[vec!["alpha".to_string(), "1".to_string()]],
/// );
/// assert!(table.contains("alpha"));
/// assert!(table.contains("name"));
/// ```
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
///
/// # Examples
///
/// ```
/// let s = osoffload_bench::spark(&[0.0, 0.5, 1.0], 0.0, 1.0);
/// assert_eq!(s.chars().count(), 3);
/// assert!(s.starts_with('▁') && s.ends_with('█'));
/// ```
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

/// Glue between the experiments and the parallel runner.
///
/// Every sweep follows the same shape: hand its driver to
/// [`harness::run`] (which executes the simulation points concurrently,
/// streams progress to stderr, and archives a JSON results file under
/// `results/`), then print its table from the returned rows.
pub mod harness {
    use osoffload_runner::{report, run_driver, RunnerOptions};
    use osoffload_system::experiments::{Evaluator, Scale};

    /// Parses `<experiment> [quick|full|paper]` plus the runner flags
    /// (`--workers=N`/`-jN`, `--retries=N`, `--quiet`, `--out=DIR`,
    /// `--telemetry`, `--trace-out=DIR`, `--profile`, `--journal=FILE`,
    /// `--resume=FILE`, `--resume-retry-failed`, `--deadline-ms=N`,
    /// `--backoff-ms=N`, `--canonical`, `--inject-faults=SEED`). The
    /// scale defaults to [`Scale::full`].
    ///
    /// Returns `None` when the name is missing or the scale word, a flag
    /// or an extra argument is not recognised — so a typo cannot
    /// silently fall back to a different experiment. A malformed flag
    /// value aborts with a message on stderr.
    pub fn parse_args(args: &[String]) -> Option<(&str, Scale, RunnerOptions)> {
        let (name, args) = args.split_first()?;
        let (opts, rest) = RunnerOptions::parse_flags(args);
        let scale = match rest.as_slice() {
            [] => Scale::full(),
            [word] => Scale::from_arg(word)?,
            _ => return None,
        };
        Some((name, scale, opts))
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
                        osoffload_runner::Outcome::Failed { panic, attempts } => eprintln!(
                            "[{name}] point {} FAILED after {attempts} attempt(s): {panic}",
                            f.id
                        ),
                        osoffload_runner::Outcome::TimedOut {
                            deadline_ms,
                            attempts,
                        } => eprintln!(
                            "[{name}] point {} TIMED OUT ({deadline_ms} ms deadline, {attempts} attempt(s))",
                            f.id
                        ),
                        osoffload_runner::Outcome::Ok(_) => {}
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
}

/// Minimal micro-benchmark timing harness for the `benches/` targets.
///
/// The approved dependency set has no benchmarking framework, so the
/// bench targets (`harness = false`) drive this directly: adaptive
/// batching until a target wall-time is reached, then a ns/iter report
/// on stdout.
pub mod timing {
    use std::time::{Duration, Instant};

    /// Re-export of the optimisation barrier used by benchmark bodies.
    pub use std::hint::black_box;

    /// Times `f` until roughly `target` of wall-clock has elapsed and
    /// returns the mean nanoseconds per iteration.
    pub fn time_fn<T>(target: Duration, mut f: impl FnMut() -> T) -> f64 {
        // Warm up caches, branch predictors, and lazy initialisation.
        for _ in 0..100 {
            black_box(f());
        }
        let mut iters = 0u64;
        let mut elapsed = Duration::ZERO;
        let mut batch = 1_000u64;
        while elapsed < target {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            elapsed += start.elapsed();
            iters += batch;
            batch = batch.saturating_mul(2).min(1 << 22);
        }
        elapsed.as_nanos() as f64 / iters as f64
    }

    /// Runs one named benchmark with the default 200 ms budget and
    /// prints a `name: N ns/iter` line.
    pub fn bench<T>(name: &str, f: impl FnMut() -> T) {
        let ns = time_fn(Duration::from_millis(200), f);
        println!("{name}: {ns:.1} ns/iter");
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
        assert_eq!(chars[4], '█', "above range clamps high");
        assert!(chars[2] > chars[1] && chars[2] < chars[3]);
    }

    #[test]
    fn spark_flat_range_does_not_panic() {
        let s = spark(&[1.0, 1.0], 1.0, 1.0);
        assert_eq!(s.chars().count(), 2);
    }
}
