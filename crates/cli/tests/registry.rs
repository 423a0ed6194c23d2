//! The `osoffload` binary end to end: static experiments reproduce the
//! committed tables byte for byte and archive JSON, every experiment is
//! listed by `osoffload help`, and anything the command line does not
//! know — an unknown name, a dropped spelling, a configuration the
//! simulator refuses — exits 2 with a message naming it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_osoffload");

/// Every registry entry; `osoffload help` must list each one.
const ENTRIES: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "table3",
    "predictor_accuracy",
    "tuner_trace",
    "half_l2",
    "scalability",
    "fig6_scalability",
    "energy",
    "adaptation",
    "mechanism",
    "smt_os_core",
    "ablation",
    "sensitivity",
    "outliers",
    "calibration",
];

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn osoffload")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("osoffload-cli-{tag}-{}", std::process::id()))
}

#[test]
fn static_experiments_match_committed_tables_and_archive() {
    let out = scratch("registry");
    let out_flag = format!("--out={}", out.display());
    for name in ["table1", "table2", "fig2"] {
        let o = run(&[name, "quick", &out_flag]);
        assert!(o.status.success(), "{name}: {o:?}");
        let expected = std::fs::read_to_string(repo_root().join(format!("results/{name}.txt")))
            .expect("committed table");
        assert_eq!(
            String::from_utf8_lossy(&o.stdout),
            expected,
            "{name} stdout"
        );
        assert!(out.join(format!("{name}.json")).is_file(), "{name} archive");
    }
    std::fs::remove_dir_all(&out).ok();
}

/// `--canonical` zeroes the archive's wall time and worker count, not
/// the summary line's.
#[test]
fn canonical_summary_reports_measured_time_and_workers() {
    let out = scratch("summary");
    let out_flag = format!("--out={}", out.display());
    let o = run(&[
        "fig3",
        "quick",
        "--canonical",
        "--workers=2",
        "--quiet",
        &out_flag,
    ]);
    assert!(o.status.success(), "{o:?}");
    let stderr = String::from_utf8_lossy(&o.stderr);
    let summary = stderr
        .lines()
        .find(|l| l.starts_with("[fig3] ") && l.contains(" points in "))
        .unwrap_or_else(|| panic!("no summary line in {stderr}"));
    assert!(!summary.contains(" in 0.0s "), "{summary}");
    assert!(summary.contains(" on 2 workers "), "{summary}");
    let archive = std::fs::read_to_string(out.join("fig3.json")).expect("archive");
    assert!(
        archive.contains("\"workers\":0,"),
        "archive keeps zero workers"
    );
    assert!(
        archive.contains("\"wall_ms\":0.000,\"rows\""),
        "archive keeps zero wall time"
    );
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn unknown_arguments_exit_2_and_help_lists_the_registry() {
    for args in [
        &["nope"][..],
        &["calibration", "quick", "--bogus"],
        &["table1", "quick", "extra"],
        &["fig4", "quick", "--lanes=4"],
        &["telemetry_overhead", "quick"],
        &["invocation_trace", "quick"],
    ] {
        let o = run(args);
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?} printed a table");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("osoffload help"), "{args:?}: {stderr}");
    }
    let o = run(&["help"]);
    assert!(o.status.success(), "{o:?}");
    let help = String::from_utf8_lossy(&o.stdout);
    let listed: Vec<&str> = help
        .lines()
        .skip_while(|l| !l.starts_with("EXPERIMENTS"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(listed, ENTRIES, "help lists exactly the registry, in order");
}

/// Short flags, space-separated values, scale flags, `--policy=none`,
/// `run --profile` and an out-of-range count each exit 2 with an error
/// that names the flag.
#[test]
fn dropped_spellings_exit_2_naming_the_flag() {
    for (args, named) in [
        (&["run", "-p", "apache"][..], "'-p'"),
        (&["run", "-l", "1000"], "'-l'"),
        (&["run", "-n", "500000"], "'-n'"),
        (&["fig2", "quick", "-j2"], "'-j2'"),
        (&["fig2", "--quick"], "'--quick'"),
        (&["fig2", "--full"], "'--full'"),
        (&["fig2", "--paper"], "'--paper'"),
        (&["run", "--latency", "1000"], "--latency needs a value"),
        (
            &["fig2", "quick", "--retries", "3"],
            "--retries needs a value",
        ),
        (
            &["serve", "start", "--port", "7500"],
            "--port needs a value",
        ),
        (&["run", "--policy=none"], "--policy: unknown policy 'none'"),
        (&["run", "--profile=apache"], "'--profile'"),
        (&["fig2", "quick", "--retries=4294967296"], "--retries"),
    ] {
        let o = run(args);
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

/// A configuration `SystemConfig::validate` refuses exits 2 with the
/// refusal, from every simulation subcommand, instead of panicking.
#[test]
fn refused_configurations_exit_2() {
    for (flag, message) in [
        ("--cores=100", "the memory model supports at most 64"),
        ("--cores=0", "need at least one user core"),
        ("--instructions=0", "need a measured region"),
        ("--adapt=0", "adaptation slowdown must be positive"),
        (
            "--latency=9223372036854775808",
            "overflows cycle accounting",
        ),
    ] {
        for command in ["run", "compare", "sweep", "trace"] {
            // The last spelling of a flag wins, so `--instructions=0`
            // overrides the short run length.
            let o = run(&[command, "--instructions=20000", flag]);
            assert_eq!(o.status.code(), Some(2), "{command} {flag}: {o:?}");
            let stderr = String::from_utf8_lossy(&o.stderr);
            assert!(
                stderr.starts_with("error: ") && stderr.contains(message),
                "{command} {flag}: {stderr}"
            );
            assert!(o.stdout.is_empty(), "{command} {flag} printed output");
        }
    }
    // A predictor table past the size bound is refused before it is
    // allocated, by the two subcommands that simulate `--policy`.
    for command in ["run", "trace"] {
        let o = run(&[
            command,
            "--instructions=1000",
            "--policy=hi-sa:500:100000000",
        ]);
        assert_eq!(o.status.code(), Some(2), "{command}: {o:?}");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(
            stderr.starts_with("error: ")
                && stderr.contains("predictor table of 6400000000 entries exceeds"),
            "{command}: {stderr}"
        );
        assert!(o.stdout.is_empty(), "{command} printed output");
    }
}

/// `compare`, `sweep` and `trace` refuse the `run` flags they would
/// otherwise ignore, so `compare --json` cannot print prose and
/// `sweep --trace-out=DIR` cannot silently write nothing.
#[test]
fn simulation_subcommands_refuse_flags_they_ignore() {
    let dir = scratch("ignored");
    let trace_out = format!("--trace-out={}", dir.display());
    for (command, flag) in [
        ("compare", "--json"),
        ("compare", "--energy"),
        ("trace", "--telemetry"),
        ("trace", trace_out.as_str()),
        ("sweep", "--policy=hi:100"),
        ("sweep", trace_out.as_str()),
    ] {
        let o = run(&[command, "--instructions=20000", flag]);
        assert_eq!(o.status.code(), Some(2), "{command} {flag}: {o:?}");
        let name = flag.split('=').next().unwrap();
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(
            stderr.starts_with(&format!("error: {command} does not take {name}")),
            "{command} {flag}: {stderr}"
        );
        assert!(o.stdout.is_empty(), "{command} {flag} printed output");
    }
    assert!(!dir.exists(), "a refused --trace-out wrote files");
}

/// `compare` runs DI and HI at the threshold of whichever policy
/// `--policy` names, and refuses a policy that has none.
#[test]
fn compare_takes_the_threshold_of_any_policy() {
    let compare = |policy: &str| {
        let o = run(&["compare", "--instructions=40000", policy]);
        assert!(o.status.success(), "{policy}: {o:?}");
        String::from_utf8(o.stdout).expect("utf-8 table")
    };
    let hi_100 = compare("--policy=hi:100");
    assert_eq!(compare("--policy=di:100"), hi_100);
    assert_eq!(compare("--policy=oracle:100"), hi_100);
    assert_ne!(compare("--policy=hi:500"), hi_100);
    for (spec, label) in [("--policy=si", "SI"), ("--policy=baseline", "baseline")] {
        let o = run(&["compare", "--instructions=40000", spec]);
        assert_eq!(o.status.code(), Some(2), "{spec}: {o:?}");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert_eq!(
            stderr,
            format!("error: compare needs a --policy with a threshold; {label} has none\n")
        );
        assert!(o.stdout.is_empty(), "{spec} printed output");
    }
}

/// `--telemetry` with `--trace-out=DIR` writes the run's three telemetry
/// files under DIR, the same spelling the experiments take.
#[test]
fn run_telemetry_writes_its_files_under_trace_out() {
    let dir = scratch("telemetry");
    let o = run(&[
        "run",
        "--workload=derby",
        "--instructions=40000",
        "--telemetry",
        &format!("--trace-out={}", dir.display()),
    ]);
    assert!(o.status.success(), "{o:?}");
    for file in [
        "derby.trace.json",
        "derby.metrics.csv",
        "derby.metrics.json",
    ] {
        assert!(dir.join(file).is_file(), "{file} missing");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A resume from a complete journal prints the table the uninterrupted
/// run printed: both render from the archived rows.
#[test]
fn a_resumed_run_prints_the_direct_run_table() {
    let out = scratch("resume");
    let journal = out.join("fig1.journal");
    let out_flag = format!("--out={}", out.display());
    let run_fig1 = |flag: String| {
        let o = run(&["fig1", "quick", "--workers=2", "--quiet", &out_flag, &flag]);
        assert!(o.status.success(), "{flag}: {o:?}");
        o.stdout
    };
    let direct = run_fig1(format!("--journal={}", journal.display()));
    let resumed = run_fig1(format!("--resume={}", journal.display()));
    assert!(!direct.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&resumed),
        String::from_utf8_lossy(&direct)
    );
    std::fs::remove_dir_all(&out).ok();
}

/// `serve submit <name> [scale]` is the experiment's own command with
/// the daemon as executor: cold and warm, it prints the direct run's
/// table and archives the direct canonical bytes, for fig1's spill/fill
/// profiles too. Entries without a plan, and the dropped `--fig4` flag,
/// exit 2 before printing. The daemon's stdout is closed right after
/// its listening line, and it still shuts down cleanly.
#[test]
fn a_served_experiment_prints_the_direct_table() {
    use std::io::{BufRead, BufReader};
    let out = scratch("served");
    let experiments = ["table3", "fig1"];
    let direct: Vec<Output> = experiments
        .iter()
        .map(|name| {
            let o = run(&[
                name,
                "quick",
                "--workers=2",
                "--quiet",
                "--canonical",
                &format!("--out={}", out.join("direct").display()),
            ]);
            assert!(o.status.success(), "{name}: {o:?}");
            o
        })
        .collect();
    /// Kills the daemon if an assertion fails before `serve stop`, so a
    /// failing run does not leave it running.
    struct Daemon(std::process::Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut daemon = Daemon(
        Command::new(BIN)
            .args(["serve", "start", "--port=0", "--workers=2", "--quiet"])
            .arg(format!("--cache={}", out.join("cache.wal").display()))
            .arg(format!("--out={}", out.join("served").display()))
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn daemon"),
    );
    let mut line = String::new();
    BufReader::new(daemon.0.stdout.take().expect("daemon stdout"))
        .read_line(&mut line)
        .expect("listening line");
    let port = line.trim().rsplit(':').next().expect("port").to_string();
    let port_flag = format!("--port={port}");
    for (name, direct) in experiments.iter().zip(&direct) {
        let archive = format!("{name}.json");
        for extra in [None, Some("--require-cached")] {
            let mut args = vec!["serve", "submit", name, "quick", "--quiet", &port_flag];
            args.extend(extra);
            let o = run(&args);
            assert_eq!(o.status.code(), Some(0), "{args:?}: {o:?}");
            assert_eq!(
                String::from_utf8_lossy(&o.stdout),
                String::from_utf8_lossy(&direct.stdout),
                "{args:?}"
            );
            assert_eq!(
                std::fs::read(out.join("served").join(&archive)).expect("served archive"),
                std::fs::read(out.join("direct").join(&archive)).expect("direct archive"),
                "{args:?}"
            );
        }
    }
    for (args, named) in [
        (&["serve", "submit", "table1", &port_flag][..], "table1"),
        (&["serve", "submit", "--fig4=quick", &port_flag], "'--fig4'"),
    ] {
        let o = run(args);
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?} printed a table");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
    let stop = run(&["serve", "stop", &port_flag]);
    assert!(stop.status.success(), "{stop:?}");
    let status = daemon.0.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "daemon with a closed stdout");
    std::fs::remove_dir_all(&out).ok();
}
