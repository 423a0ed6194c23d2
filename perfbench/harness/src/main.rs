//! `perfbench`: one run of one osoffload benchmark workload.
//!
//! ```text
//! perfbench --workload <sweep-fig4|sweep-fig6|serve-warm|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//! ```
//!
//! With `--trace 0` the run sets up twice, then sends requests
//! in a closed loop for `--seconds` of request time, checks every reply,
//! and prints the end-to-end metrics. With `--trace 1` it runs the traced
//! ledger instead (see `ledger.rs`) and prints the per-layer metrics.
//! Either way the last line of standard output is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. Scratch files
//! live under `.bench_out/` in the working directory and are removed at
//! the end of the run; only the traced run's span file stays.

mod ledger;
mod stats;
mod workloads;

use stats::Tally;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{check_setup, setup, BaseRefs, Kind};

/// Set-ups per run; `setup_s` is their median. Each sweep set-up runs a
/// whole warm-up sweep and each serve-warm set-up a cold fill (7–10 s on
/// a 2-vCPU host), so a third set-up would add about 27 s to every round
/// of the four workloads.
const SETUPS: usize = 2;

/// Scalar reference points checked per set-up.
const SETUP_SAMPLES: usize = 4;

/// Parsed command line.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--commit <id>]",
        Kind::ALL.map(Kind::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_string();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => kind = Kind::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--commit" => commit = value.clone(),
            _ => usage(),
        }
    }
    match (kind, seed, seconds, trace) {
        (Some(kind), Some(seed), Some(seconds), Some(trace)) => Args {
            kind,
            seed,
            seconds,
            trace,
            commit,
        },
        _ => usage(),
    }
}

/// A named metric with its unit.
struct Metric {
    /// Metric name.
    name: &'static str,
    /// Value as measured.
    value: f64,
    /// Unit.
    unit: &'static str,
}

/// Best of five runs of a fixed integer loop that does not touch the
/// program: a gauge of the host's single-thread speed right now.
fn host_probe_ms() -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            let mut acc = 0u64;
            for i in 0..4_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x ^ i);
            }
            std::hint::black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Resets the process's peak resident set (VmHWM) to its current
/// resident set, so the next [`peak_rss_mb`] covers what runs after.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset VmHWM: {e}");
    }
}

/// The process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads the runner resolves `workers = 0` to.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run facts printed with every result: the workload, seed, commit,
/// host, resolved runner width and `extra` pairs (JSON values).
fn facts(args: &Args, points: usize, extra: &[(&str, String)]) -> String {
    let mut out = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"commit\":\"{}\",\"nproc\":{},\"runner_workers\":{},\
         \"lane_width\":{},\"points_per_request\":{points}",
        args.kind.name(),
        args.seed,
        args.commit,
        nproc(),
        nproc().min(points),
        workloads::LANES,
    );
    for (k, v) in extra {
        out.push_str(&format!(",\"{k}\":{v}"));
    }
    out.push('}');
    out
}

/// The end-to-end run. Each of `SETUPS` set-ups (median = `setup_s`) is
/// followed by its share of the timed requests, so the `seconds` of
/// request time are spread over the whole run rather than bunched at its
/// end; a set-up is torn down before the next one starts.
fn end_to_end(args: &Args, dir: &Path, probe_start: f64) -> (Tally, Vec<Metric>, String) {
    let mut tally = Tally::default();
    let mut refs = BaseRefs::default();
    let mut setup_s = Vec::new();
    let mut rss = Vec::new();
    let mut first: Option<Option<String>> = None;
    let mut points = 0;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut busy = Duration::ZERO;
    let mut latencies = Vec::new();
    let mut k = 0u64;
    for i in 0..SETUPS {
        reset_peak_rss();
        let t = Instant::now();
        let built = setup(args.kind, args.seed, &dir.join(format!("setup{i}")));
        setup_s.push(t.elapsed().as_secs_f64());
        rss.push(peak_rss_mb());
        let state = match built {
            Ok((state, reply)) => {
                // Later set-ups must reproduce the first one's output
                // byte for byte, so scalar references are computed once.
                let samples = if first.is_none() { SETUP_SAMPLES } else { 0 };
                let mut verdict = check_setup(&state, &reply, &mut refs, samples);
                match &first {
                    None => first = Some(state.reference().map(str::to_string)),
                    Some(reference)
                        if verdict.is_ok() && reference.as_deref() != state.reference() =>
                    {
                        verdict = Err("set-up output differs from the first set-up's".into())
                    }
                    Some(_) => {}
                }
                tally.record(&format!("setup{i}"), verdict);
                state
            }
            Err(why) => {
                tally.record(&format!("setup{i}"), Err(why));
                continue;
            }
        };
        points = state.points_per_request();
        let share = budget * (i as u32 + 1) / SETUPS as u32;
        while busy < share {
            reset_peak_rss();
            let t = Instant::now();
            let reply = state.request(k);
            let took = t.elapsed();
            rss.push(peak_rss_mb());
            busy += took;
            latencies.push(took.as_secs_f64() * 1e3);
            tally.record(&format!("{k}"), state.check(k, &reply, &mut refs));
            k += 1;
        }
        if let Err(why) = state.teardown() {
            eprintln!("perfbench: teardown: {why}");
        }
    }
    if latencies.is_empty() {
        return (tally, Vec::new(), String::from("{}"));
    }
    let probe_end = host_probe_ms();
    let tail = stats::highest_tail(&latencies)
        .map_or("null".to_string(), |(l, v)| format!("{{\"{l}\":{v}}}"));
    let list = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(f64::to_string).collect();
        format!("[{}]", items.join(","))
    };
    let quartiles: Vec<f64> = [0.25, 0.5, 0.75]
        .iter()
        .map(|&q| stats::quantile(&latencies, q).unwrap_or(0.0))
        .collect();
    let facts = facts(
        args,
        points,
        &[
            ("requests", latencies.len().to_string()),
            ("setups", SETUPS.to_string()),
            ("setup_s_each", list(&setup_s)),
            ("request_ms_quartiles", list(&quartiles)),
            ("request_ms_tail", tail),
            ("failed_ratio", tally.failed_ratio().to_string()),
            (
                "peak_rss_mb_median",
                stats::median(&rss).unwrap_or(0.0).to_string(),
            ),
            (
                "peak_rss_mb_max",
                rss.iter().copied().fold(0.0, f64::max).to_string(),
            ),
            ("host_probe_ms_start", probe_start.to_string()),
            ("host_probe_ms_end", probe_end.to_string()),
        ],
    );
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: stats::median(&setup_s).unwrap_or(0.0),
            unit: "s",
        },
        Metric {
            name: "request_ms_p50",
            value: stats::median(&latencies).unwrap_or(0.0),
            unit: "ms",
        },
        Metric {
            name: "requests_per_s",
            value: latencies.len() as f64 / busy.as_secs_f64(),
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss.iter().copied().fold(f64::INFINITY, f64::min),
            unit: "MB",
        },
    ];
    (tally, metrics, facts)
}

fn main() {
    let args = parse_args();
    let root = PathBuf::from(".bench_out");
    let dir = root.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let probe_start = host_probe_ms();
    let (tally, metrics, facts) = if args.trace {
        ledger::traced_run(&args, &dir, &root, probe_start)
    } else {
        end_to_end(&args, &dir, probe_start)
    };
    let _ = std::fs::remove_dir_all(&dir);
    println!("# facts {facts}");
    for m in &metrics {
        println!("# {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if tally.attempted == 0 || metrics.is_empty() {
        eprintln!("perfbench: no request completed; no result");
        std::process::exit(1);
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} is not a number; no result", bad.name);
        std::process::exit(1);
    }
    let correct = tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(",")
    );
}
