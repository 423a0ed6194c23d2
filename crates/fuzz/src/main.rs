//! `osoffload-fuzz` — deterministic differential fuzzing CLI.
//!
//! ```text
//! cargo run -p osoffload-fuzz --                       # 200 cases, master seed 0
//! cargo run -p osoffload-fuzz -- --iters 500 --master-seed 42
//! cargo run -p osoffload-fuzz -- --time-budget 60      # smoke tier
//! cargo run -p osoffload-fuzz -- --oracle differential,invariants
//! cargo run -p osoffload-fuzz -- repro fuzz/corpus/<file>.json
//! cargo run -p osoffload-fuzz -- corpus                # replay every archive
//! ```
//!
//! Exit codes: `0` all checks passed, `1` at least one oracle failure,
//! `2` usage or I/O error.
//!
//! With a fixed `--iters`, two runs with the same master seed produce
//! byte-identical logs and corpus files (no timestamps, no host state in
//! the output). `--time-budget` trades that for wall-clock bounding: the
//! case *sequence* is still deterministic, only where it stops varies.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use osoffload_fuzz::{corpus, gen::CaseGen, oracle, shrink, CorpusEntry, OracleKind};

// The alloc oracle is vacuous unless the process counts allocations, so
// the fuzz binary installs the same counting shim as the repo's
// alloc-audit test: report every alloc/realloc to the audit hook, which
// only tallies them inside the simulator's measured region.
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};

    use osoffload_sim::alloc_audit;

    struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            alloc_audit::note_alloc();
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            alloc_audit::note_alloc();
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;
}

const USAGE: &str = "\
osoffload-fuzz — deterministic differential fuzzer

USAGE:
    osoffload-fuzz [OPTIONS]              fuzz (default: 200 cases)
    osoffload-fuzz repro <FILE>           replay one archived repro
    osoffload-fuzz corpus [OPTIONS]       replay every archived repro

OPTIONS:
    --iters <N>           number of cases to run
    --time-budget <SECS>  stop after this many seconds instead
    --master-seed <SEED>  campaign seed (default 0)
    --oracle <NAMES>      comma-separated subset of:
                          differential,predictor,invariants,telemetry,alloc,
                          crash-recovery,profile,lane-stepper
                          (repeatable; default: all)
    --corpus-dir <DIR>    repro archive directory (default fuzz/corpus)
    -h, --help            this text";

struct FuzzOptions {
    iters: Option<u64>,
    time_budget: Option<Duration>,
    master_seed: u64,
    oracles: Vec<OracleKind>,
    corpus_dir: PathBuf,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            iters: None,
            time_budget: None,
            master_seed: 0,
            oracles: OracleKind::ALL.to_vec(),
            corpus_dir: PathBuf::from("fuzz/corpus"),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("-h" | "--help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some("repro") => cmd_repro(&args[1..]),
        Some("corpus") => match parse_options(&args[1..]) {
            Ok(opts) => cmd_corpus(&opts.corpus_dir),
            Err(e) => usage_error(&e),
        },
        _ => match parse_options(&args) {
            Ok(opts) => cmd_fuzz(&opts),
            Err(e) => usage_error(&e),
        },
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n\n{USAGE}");
    ExitCode::from(2)
}

fn parse_options(args: &[String]) -> Result<FuzzOptions, String> {
    let mut opts = FuzzOptions::default();
    let mut explicit_oracles: Vec<OracleKind> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--iters" => {
                let v = value("--iters")?;
                opts.iters = Some(v.parse().map_err(|_| format!("bad --iters {v:?}"))?);
            }
            "--time-budget" => {
                let v = value("--time-budget")?;
                let secs: u64 = v.parse().map_err(|_| format!("bad --time-budget {v:?}"))?;
                opts.time_budget = Some(Duration::from_secs(secs));
            }
            "--master-seed" => {
                let v = value("--master-seed")?;
                opts.master_seed = v.parse().map_err(|_| format!("bad --master-seed {v:?}"))?;
            }
            "--oracle" => {
                for name in value("--oracle")?.split(',') {
                    let oracle = OracleKind::parse(name.trim())
                        .ok_or_else(|| format!("unknown oracle {name:?}"))?;
                    if !explicit_oracles.contains(&oracle) {
                        explicit_oracles.push(oracle);
                    }
                }
            }
            "--corpus-dir" => opts.corpus_dir = PathBuf::from(value("--corpus-dir")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !explicit_oracles.is_empty() {
        opts.oracles = explicit_oracles;
    }
    Ok(opts)
}

fn cmd_fuzz(opts: &FuzzOptions) -> ExitCode {
    let oracle_names: Vec<&str> = opts.oracles.iter().map(|o| o.name()).collect();
    println!(
        "osoffload-fuzz: master seed {}, oracles [{}]",
        opts.master_seed,
        oracle_names.join(", ")
    );
    let iters = match (opts.iters, opts.time_budget) {
        (Some(n), _) => n,
        (None, Some(_)) => u64::MAX,
        (None, None) => 200,
    };
    let deadline = opts.time_budget.map(|budget| Instant::now() + budget);

    let mut generator = CaseGen::new(opts.master_seed);
    let mut executed = 0u64;
    let mut failures = 0u64;
    while executed < iters {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let (case_seed, cfg) = generator.next_case();
        executed += 1;
        for &kind in &opts.oracles {
            let Err(failure) = oracle::check(&cfg, kind) else {
                continue;
            };
            failures += 1;
            println!("FAIL case seed {case_seed:#018x}: {failure}");
            let shrunk = shrink::shrink(&cfg, kind);
            // Re-check for the detail of the *minimal* case (the
            // original detail may mention machinery the shrink removed).
            let detail = match oracle::check(&shrunk.config, kind) {
                Err(f) => f.detail,
                Ok(()) => failure.detail, // unreachable: shrink preserves failure
            };
            let diff = shrink::off_target(&shrunk.config);
            println!(
                "  shrunk in {} step(s) ({} candidate(s)) to {} field(s) off default:",
                shrunk.steps,
                shrunk.attempts,
                diff.len()
            );
            for (field, value) in &diff {
                println!("    {field} = {value}");
            }
            let entry = CorpusEntry {
                oracle: kind,
                case_seed,
                detail,
                config: shrunk.config,
            };
            match corpus::archive(&opts.corpus_dir, &entry) {
                Ok(path) => {
                    println!("  archived: {}", path.display());
                    println!("  replay:   {}", entry.replay_command());
                }
                Err(e) => eprintln!("  could not archive repro: {e}"),
            }
        }
        if executed.is_multiple_of(100) {
            println!("  {executed} cases, {failures} failure(s)");
        }
    }

    println!(
        "done: {executed} case(s) x {} oracle(s), {failures} failure(s)",
        opts.oracles.len()
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_repro(args: &[String]) -> ExitCode {
    let [file] = args else {
        return usage_error("repro takes exactly one archive file");
    };
    let entry = match corpus::load(std::path::Path::new(file)) {
        Ok(entry) => entry,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "repro {} (case seed {:#018x}, archived under oracle {})",
        file, entry.case_seed, entry.oracle
    );
    println!("  archived detail: {}", entry.detail);
    let diff = shrink::off_target(&entry.config);
    println!("  {} field(s) off default:", diff.len());
    for (field, value) in &diff {
        println!("    {field} = {value}");
    }
    report_replay(&entry)
}

fn cmd_corpus(dir: &std::path::Path) -> ExitCode {
    let paths = match corpus::list(dir) {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    };
    if paths.is_empty() {
        println!("corpus {} is empty", dir.display());
        return ExitCode::SUCCESS;
    }
    let mut failing = 0usize;
    for path in &paths {
        match corpus::load(path) {
            Ok(entry) => {
                let result = corpus::replay(&entry);
                if result.is_empty() {
                    println!("PASS {}", path.display());
                } else {
                    failing += 1;
                    println!("FAIL {}", path.display());
                    for f in result {
                        println!("     {f}");
                    }
                }
            }
            Err(e) => {
                failing += 1;
                println!("FAIL {path:?}: {e}", path = path.display());
            }
        }
    }
    println!("corpus: {} archive(s), {failing} failing", paths.len());
    if failing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Replays `entry` through every oracle and prints per-oracle results.
fn report_replay(entry: &CorpusEntry) -> ExitCode {
    let failures = corpus::replay(entry);
    for kind in OracleKind::ALL {
        match failures.iter().find(|f| f.oracle == kind) {
            Some(f) => println!("  FAIL {}: {}", kind, f.detail),
            None => println!("  pass {kind}"),
        }
    }
    if failures.is_empty() {
        println!("repro passes every oracle (the archived bug is fixed)");
        ExitCode::SUCCESS
    } else {
        println!("repro still failing {} oracle(s)", failures.len());
        ExitCode::FAILURE
    }
}
