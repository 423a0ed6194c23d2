//! The `osoffload-bench` entry point: static experiments reproduce the
//! committed tables byte for byte and archive JSON, and anything the
//! command line does not know exits 2 with a usage message naming every
//! experiment.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_osoffload-bench");

/// Every registry entry; the usage message must name each one.
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
    "invocation_trace",
];

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn osoffload-bench")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn static_experiments_match_committed_tables_and_archive() {
    let out = std::env::temp_dir().join(format!("osoffload-bench-registry-{}", std::process::id()));
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
    let out = std::env::temp_dir().join(format!("osoffload-bench-summary-{}", std::process::id()));
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
fn unknown_arguments_exit_2_with_the_registry() {
    for args in [
        &[][..],
        &["nope"],
        &["calibration", "quick", "--bogus"],
        &["table1", "quick", "extra"],
        &["fig4", "quick", "--lanes=4"],
        &["telemetry_overhead", "quick"],
    ] {
        let o = run(args);
        assert_eq!(o.status.code(), Some(2), "{args:?}");
        assert!(o.stdout.is_empty(), "{args:?} printed a table");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(
            stderr.contains("usage: osoffload-bench"),
            "{args:?}: {stderr}"
        );
        for entry in ENTRIES {
            assert!(
                stderr
                    .lines()
                    .any(|l| l.split_whitespace().next() == Some(entry)),
                "{args:?}: usage does not list {entry}"
            );
        }
    }
}
