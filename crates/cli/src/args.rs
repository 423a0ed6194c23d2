//! Hand-rolled argument parsing for the `osoffload` binary.
//!
//! Kept dependency-free on purpose: the parser is a couple of hundred
//! lines, fully unit-tested, and easier to audit than a derive macro.

use osoffload_system::PolicyKind;
use osoffload_workload::Profile;
use std::fmt;

/// Which subcommand was requested.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `osoffload run …` — one simulation, full report.
    Run(RunArgs),
    /// `osoffload compare …` — baseline vs SI vs DI vs HI.
    Compare(RunArgs),
    /// `osoffload sweep …` — threshold sweep for one workload/latency.
    Sweep(RunArgs),
    /// `osoffload trace …` — per-invocation CSV trace to stdout.
    Trace(RunArgs),
    /// `osoffload inspect …` — run analytics over `results/` artefacts.
    Inspect(InspectArgs),
    /// `osoffload serve …` — the cached experiment service.
    Serve(ServeArgs),
    /// `osoffload list` — available profiles and policies.
    List,
    /// `osoffload help` (or `-h`/`--help`).
    Help,
}

/// Parameters shared by the simulation subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload profile name.
    pub profile: String,
    /// Decision policy.
    pub policy: PolicyKind,
    /// One-way migration latency in cycles.
    pub latency: u64,
    /// Measured instructions.
    pub instructions: u64,
    /// Warm-up instructions.
    pub warmup: u64,
    /// Master seed.
    pub seed: u64,
    /// User cores.
    pub cores: usize,
    /// Enable the §III-B dynamic threshold estimator.
    pub tuner: bool,
    /// RPC transport instead of thread migration.
    pub rpc: bool,
    /// Resource-adaptation slowdown in milli-units (no OS core).
    pub adapt_milli: Option<u64>,
    /// Score energy/EDP after the run.
    pub energy: bool,
    /// Emit the report as JSON instead of prose (`run` only).
    pub json: bool,
    /// Capture full telemetry (spans + epoch metrics) during the run.
    pub telemetry: bool,
    /// Directory for telemetry files (implies `telemetry`).
    pub trace_out: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            profile: "apache".to_string(),
            policy: PolicyKind::HardwarePredictor { threshold: 500 },
            latency: 1_000,
            instructions: 1_000_000,
            warmup: 500_000,
            seed: 42,
            cores: 1,
            tuner: false,
            rpc: false,
            adapt_milli: None,
            energy: false,
            json: false,
            telemetry: false,
            trace_out: None,
        }
    }
}

/// What `osoffload inspect` should do.
#[derive(Debug, Clone, PartialEq)]
pub enum InspectArgs {
    /// `inspect show <file>` — summarise an archive or journal, or
    /// pretty-print any other JSON document (repro files, summaries).
    Show {
        /// Path of the artefact.
        path: String,
    },
    /// `inspect find --digest=<hex> <paths…>` — locate the points whose
    /// configuration hashes to the digest.
    Find {
        /// 16-hex-digit FNV-1a configuration digest.
        digest: String,
        /// Archives/journals to search.
        paths: Vec<String>,
    },
    /// `inspect diff <A> <B>` — report-level deltas between two runs,
    /// with an optional perf gate.
    Diff {
        /// Baseline artefact.
        a: String,
        /// Candidate artefact.
        b: String,
        /// Fail (exit 3) when the headline deltas exceed this percentage.
        gate: Option<f64>,
        /// Omit file paths from the output so it is byte-stable across
        /// directories.
        canonical: bool,
    },
}

/// What `osoffload serve` should do.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeArgs {
    /// `serve start …` — boot the daemon (foreground).
    Start {
        /// Listening port (`0` = ephemeral; the daemon prints the bound
        /// address).
        port: u16,
        /// Cache WAL path.
        cache: String,
        /// Output directory for archives and metrics.
        out: String,
        /// Worker threads per sweep (`0` = auto).
        workers: usize,
        /// Lane claim-unit width (`0` = auto).
        lanes: usize,
        /// Retries per failing point.
        retries: u32,
        /// Maximum cached entries (`0` = unbounded).
        cache_max: usize,
        /// Cache entry TTL in virtual seconds (`0` = no age limit).
        cache_ttl_secs: u64,
        /// Concurrent submissions executed at once.
        submit_slots: usize,
        /// Submissions allowed to queue behind the running ones.
        admit_queue: usize,
        /// Connection-handling threads (`0` = auto).
        conn_workers: usize,
        /// Socket read timeout in milliseconds (positive).
        read_timeout_ms: u64,
        /// Socket write timeout in milliseconds (positive).
        write_timeout_ms: u64,
        /// Per-request deadline in milliseconds (`0` = none).
        request_deadline_ms: u64,
        /// Maximum request line length in bytes (positive).
        max_line_bytes: usize,
        /// Fault-injection seed (chaos testing).
        inject_faults: Option<u64>,
        /// Suppress stderr chatter.
        quiet: bool,
    },
    /// `serve submit …` — submit the fig4 sweep and stream progress.
    Submit {
        /// Daemon port.
        port: u16,
        /// fig4 scale: `quick`, `full`, or `paper`.
        fig4: String,
        /// Exit 4 unless every point was served from cache.
        require_cached: bool,
        /// Retries of retryable refusals (`overloaded`/`draining`) and
        /// transport failures.
        retries: u32,
        /// Base backoff between retries in milliseconds.
        backoff_ms: u64,
        /// Suppress per-point progress lines.
        quiet: bool,
    },
    /// `serve proxy …` — run the chaos fault-injection proxy in the
    /// foreground (CI harness; see `ROBUSTNESS.md`).
    Proxy {
        /// Proxy listening port (`0` = ephemeral; printed on boot).
        port: u16,
        /// Daemon port the proxy forwards to.
        upstream: u16,
        /// Fault-plan master seed.
        seed: u64,
        /// Per-direction fault probability, in percent.
        fault_pct: u32,
        /// Fault log file (one line per injected fault).
        log: Option<String>,
    },
    /// `serve ping` — liveness check.
    Ping {
        /// Daemon port.
        port: u16,
    },
    /// `serve stats` — cache/counter totals.
    Stats {
        /// Daemon port.
        port: u16,
    },
    /// `serve stop` — ask the daemon to shut down.
    Stop {
        /// Daemon port.
        port: u16,
    },
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

fn err(msg: impl Into<String>) -> ParseArgsError {
    ParseArgsError(msg.into())
}

fn parse_u64(flag: &str, v: Option<&str>) -> Result<u64, ParseArgsError> {
    let v = v.ok_or_else(|| err(format!("{flag} needs a value")))?;
    v.replace('_', "")
        .parse()
        .map_err(|_| err(format!("{flag}: '{v}' is not a number")))
}

/// Parses the policy spec: `baseline`, `always`, `hi[:N]`, `hi-dm[:N]`,
/// `di[:N[:COST]]`, `si[:STUB]`, `oracle[:N]`.
pub fn parse_policy(spec: &str) -> Result<PolicyKind, ParseArgsError> {
    let mut parts = spec.split(':');
    let name = parts.next().unwrap_or_default();
    let p1 = parts.next();
    let p2 = parts.next();
    if parts.next().is_some() {
        return Err(err(format!("policy '{spec}': too many ':' fields")));
    }
    let num = |s: Option<&str>, default: u64| -> Result<u64, ParseArgsError> {
        match s {
            None => Ok(default),
            Some(v) => v
                .replace('_', "")
                .parse()
                .map_err(|_| err(format!("policy '{spec}': '{v}' is not a number"))),
        }
    };
    match name {
        "baseline" | "none" => Ok(PolicyKind::Baseline),
        "always" => Ok(PolicyKind::AlwaysOffload),
        "hi" => Ok(PolicyKind::HardwarePredictor { threshold: num(p1, 500)? }),
        "hi-dm" => Ok(PolicyKind::HardwarePredictorDirectMapped { threshold: num(p1, 500)? }),
        "hi-sa" => Ok(PolicyKind::HardwarePredictorSetAssoc {
            threshold: num(p1, 500)?,
            sets: 64,
            ways: num(p2, 4)? as usize,
        }),
        "hi-global" => Ok(PolicyKind::HardwarePredictorGlobalOnly { threshold: num(p1, 500)? }),
        "hi-lastvalue" => Ok(PolicyKind::HardwarePredictorLastValue { threshold: num(p1, 500)? }),
        "di" => Ok(PolicyKind::DynamicInstrumentation {
            threshold: num(p1, 500)?,
            cost: num(p2, 120)?,
        }),
        "si" => Ok(PolicyKind::StaticInstrumentation { stub_cost: num(p1, 25)? }),
        "oracle" => Ok(PolicyKind::Oracle { threshold: num(p1, 500)? }),
        other => Err(err(format!(
            "unknown policy '{other}' (expected baseline|always|hi|hi-dm|hi-sa|hi-global|hi-lastvalue|di|si|oracle)"
        ))),
    }
}

fn parse_inspect_args(args: &[String]) -> Result<InspectArgs, ParseArgsError> {
    match args.first().map(String::as_str) {
        Some("show") => match args.get(1) {
            Some(path) if args.len() == 2 => Ok(InspectArgs::Show { path: path.clone() }),
            _ => Err(err("usage: inspect show <file>")),
        },
        Some("find") => {
            let mut digest = None;
            let mut paths = Vec::new();
            for arg in &args[1..] {
                if let Some(v) = arg.strip_prefix("--digest=") {
                    if v.len() != 16 || !v.chars().all(|c| c.is_ascii_hexdigit()) {
                        return Err(err(format!("--digest: '{v}' is not a 16-hex-digit digest")));
                    }
                    digest = Some(v.to_ascii_lowercase());
                } else if arg.starts_with("--") {
                    return Err(err(format!("inspect find: unknown flag '{arg}'")));
                } else {
                    paths.push(arg.clone());
                }
            }
            let digest = digest.ok_or_else(|| err("inspect find needs --digest=<hex>"))?;
            if paths.is_empty() {
                return Err(err("inspect find needs at least one archive/journal path"));
            }
            Ok(InspectArgs::Find { digest, paths })
        }
        Some("diff") => {
            let mut gate = None;
            let mut canonical = false;
            let mut paths = Vec::new();
            for arg in &args[1..] {
                if let Some(v) = arg.strip_prefix("--gate=") {
                    let pct: f64 = v
                        .parse()
                        .map_err(|_| err(format!("--gate: '{v}' is not a number")))?;
                    if !pct.is_finite() || pct < 0.0 {
                        return Err(err("--gate must be a non-negative percentage"));
                    }
                    gate = Some(pct);
                } else if arg == "--canonical" {
                    canonical = true;
                } else if arg.starts_with("--") {
                    return Err(err(format!("inspect diff: unknown flag '{arg}'")));
                } else {
                    paths.push(arg.clone());
                }
            }
            match <[String; 2]>::try_from(paths) {
                Ok([a, b]) => Ok(InspectArgs::Diff {
                    a,
                    b,
                    gate,
                    canonical,
                }),
                Err(_) => Err(err(
                    "usage: inspect diff <A> <B> [--gate=PCT] [--canonical]",
                )),
            }
        }
        Some(other) => Err(err(format!(
            "unknown inspect subcommand '{other}' (expected show|find|diff)"
        ))),
        None => Err(err("usage: inspect <show|find|diff> …")),
    }
}

fn parse_eq_u64(arg: &str, flag: &str) -> Result<u64, ParseArgsError> {
    let v = arg
        .strip_prefix(flag)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| err(format!("{flag} needs =VALUE")))?;
    v.replace('_', "")
        .parse()
        .map_err(|_| err(format!("{flag}: '{v}' is not a number")))
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, ParseArgsError> {
    let port_flag = |arg: &str| -> Result<u16, ParseArgsError> {
        let n = parse_eq_u64(arg, "--port")?;
        u16::try_from(n).map_err(|_| err(format!("--port: {n} is not a TCP port")))
    };
    // Flags that configure a duration or size where `0` would disable
    // the protection entirely are rejected at parse time.
    let positive = |arg: &str, flag: &str| -> Result<u64, ParseArgsError> {
        let n = parse_eq_u64(arg, flag)?;
        if n == 0 {
            return Err(err(format!("{flag} must be positive")));
        }
        Ok(n)
    };
    match args.first().map(String::as_str) {
        Some("start") => {
            let mut port = 7411u16;
            let mut cache = "results/serve/cache.wal".to_string();
            let mut out = "results/serve".to_string();
            let (mut workers, mut lanes, mut retries, mut cache_max) =
                (0usize, 0usize, 0u32, 0usize);
            let mut cache_ttl_secs = 0u64;
            let (mut submit_slots, mut admit_queue, mut conn_workers) = (2usize, 4usize, 0usize);
            let (mut read_timeout_ms, mut write_timeout_ms) = (60_000u64, 60_000u64);
            let mut request_deadline_ms = 0u64;
            let mut max_line_bytes = 1usize << 20;
            let mut inject_faults = None;
            let mut quiet = false;
            for arg in &args[1..] {
                if arg.starts_with("--port") {
                    port = port_flag(arg)?;
                } else if let Some(v) = arg.strip_prefix("--cache=") {
                    cache = v.to_string();
                } else if let Some(v) = arg.strip_prefix("--out=") {
                    out = v.to_string();
                } else if arg.starts_with("--workers") {
                    workers = parse_eq_u64(arg, "--workers")? as usize;
                } else if arg.starts_with("--lanes") {
                    lanes = parse_eq_u64(arg, "--lanes")? as usize;
                } else if arg.starts_with("--retries") {
                    retries = parse_eq_u64(arg, "--retries")? as u32;
                } else if arg.starts_with("--cache-max") {
                    cache_max = parse_eq_u64(arg, "--cache-max")? as usize;
                } else if arg.starts_with("--cache-ttl-secs") {
                    cache_ttl_secs = parse_eq_u64(arg, "--cache-ttl-secs")?;
                } else if arg.starts_with("--submit-slots") {
                    submit_slots = positive(arg, "--submit-slots")? as usize;
                } else if arg.starts_with("--admit-queue") {
                    admit_queue = parse_eq_u64(arg, "--admit-queue")? as usize;
                } else if arg.starts_with("--conn-workers") {
                    conn_workers = parse_eq_u64(arg, "--conn-workers")? as usize;
                } else if arg.starts_with("--read-timeout-ms") {
                    read_timeout_ms = positive(arg, "--read-timeout-ms")?;
                } else if arg.starts_with("--write-timeout-ms") {
                    write_timeout_ms = positive(arg, "--write-timeout-ms")?;
                } else if arg.starts_with("--request-deadline-ms") {
                    request_deadline_ms = parse_eq_u64(arg, "--request-deadline-ms")?;
                } else if arg.starts_with("--max-line-bytes") {
                    max_line_bytes = positive(arg, "--max-line-bytes")? as usize;
                } else if arg.starts_with("--inject-faults") {
                    inject_faults = Some(parse_eq_u64(arg, "--inject-faults")?);
                } else if arg == "--quiet" {
                    quiet = true;
                } else {
                    return Err(err(format!("serve start: unknown flag '{arg}'")));
                }
            }
            Ok(ServeArgs::Start {
                port,
                cache,
                out,
                workers,
                lanes,
                retries,
                cache_max,
                cache_ttl_secs,
                submit_slots,
                admit_queue,
                conn_workers,
                read_timeout_ms,
                write_timeout_ms,
                request_deadline_ms,
                max_line_bytes,
                inject_faults,
                quiet,
            })
        }
        Some("submit") => {
            let mut port = 7411u16;
            let mut fig4 = None;
            let mut require_cached = false;
            let mut retries = 5u32;
            let mut backoff_ms = 50u64;
            let mut quiet = false;
            for arg in &args[1..] {
                if arg.starts_with("--port") {
                    port = port_flag(arg)?;
                } else if let Some(v) = arg.strip_prefix("--fig4=") {
                    if !matches!(v, "quick" | "full" | "paper") {
                        return Err(err(format!("--fig4: '{v}' is not quick|full|paper")));
                    }
                    fig4 = Some(v.to_string());
                } else if arg == "--require-cached" {
                    require_cached = true;
                } else if arg.starts_with("--retries") {
                    retries = parse_eq_u64(arg, "--retries")? as u32;
                } else if arg.starts_with("--backoff-ms") {
                    backoff_ms = positive(arg, "--backoff-ms")?;
                } else if arg == "--quiet" {
                    quiet = true;
                } else {
                    return Err(err(format!("serve submit: unknown flag '{arg}'")));
                }
            }
            Ok(ServeArgs::Submit {
                port,
                fig4: fig4.ok_or_else(|| err("serve submit needs --fig4=quick|full|paper"))?,
                require_cached,
                retries,
                backoff_ms,
                quiet,
            })
        }
        Some("proxy") => {
            let mut port = 0u16;
            let mut upstream = None;
            let mut seed = 0xC4A05u64;
            let mut fault_pct = 50u32;
            let mut log = None;
            for arg in &args[1..] {
                if arg.starts_with("--port") {
                    port = port_flag(arg)?;
                } else if arg.starts_with("--upstream") {
                    let n = parse_eq_u64(arg, "--upstream")?;
                    upstream = Some(
                        u16::try_from(n)
                            .map_err(|_| err(format!("--upstream: {n} is not a TCP port")))?,
                    );
                } else if arg.starts_with("--seed") {
                    seed = parse_eq_u64(arg, "--seed")?;
                } else if arg.starts_with("--fault-pct") {
                    let n = parse_eq_u64(arg, "--fault-pct")?;
                    if n > 100 {
                        return Err(err(format!("--fault-pct: {n} is not a percentage")));
                    }
                    fault_pct = n as u32;
                } else if let Some(v) = arg.strip_prefix("--log=") {
                    log = Some(v.to_string());
                } else {
                    return Err(err(format!("serve proxy: unknown flag '{arg}'")));
                }
            }
            Ok(ServeArgs::Proxy {
                port,
                upstream: upstream.ok_or_else(|| err("serve proxy needs --upstream=PORT"))?,
                seed,
                fault_pct,
                log,
            })
        }
        Some(op @ ("ping" | "stats" | "stop")) => {
            let mut port = 7411u16;
            for arg in &args[1..] {
                if arg.starts_with("--port") {
                    port = port_flag(arg)?;
                } else {
                    return Err(err(format!("serve {op}: unknown flag '{arg}'")));
                }
            }
            Ok(match op {
                "ping" => ServeArgs::Ping { port },
                "stats" => ServeArgs::Stats { port },
                _ => ServeArgs::Stop { port },
            })
        }
        Some(other) => Err(err(format!(
            "unknown serve subcommand '{other}' (expected start|submit|ping|stats|stop)"
        ))),
        None => Err(err("usage: serve <start|submit|ping|stats|stop> …")),
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, ParseArgsError> {
    let mut out = RunArgs::default();
    let mut explicit_warmup = false;
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(flag) = it.next() {
        match flag {
            "--profile" | "-p" => {
                let v = it.next().ok_or_else(|| err("--profile needs a value"))?;
                if Profile::by_name(v).is_none() {
                    let names: Vec<&str> = Profile::all_server()
                        .iter()
                        .chain(Profile::all_compute().iter())
                        .map(|p| p.name)
                        .collect();
                    return Err(err(format!(
                        "unknown profile '{v}' (available: {})",
                        names.join(", ")
                    )));
                }
                out.profile = v.to_string();
            }
            "--policy" => {
                let v = it.next().ok_or_else(|| err("--policy needs a value"))?;
                out.policy = parse_policy(v)?;
            }
            "--latency" | "-l" => out.latency = parse_u64(flag, it.next())?,
            "--instructions" | "-n" => out.instructions = parse_u64(flag, it.next())?,
            "--warmup" => {
                out.warmup = parse_u64(flag, it.next())?;
                explicit_warmup = true;
            }
            "--seed" => out.seed = parse_u64(flag, it.next())?,
            "--cores" => out.cores = parse_u64(flag, it.next())? as usize,
            "--tuner" => out.tuner = true,
            "--rpc" => out.rpc = true,
            "--adapt" => out.adapt_milli = Some(parse_u64(flag, it.next())?),
            "--energy" => out.energy = true,
            "--json" => out.json = true,
            "--telemetry" => out.telemetry = true,
            "--trace-out" => {
                let v = it
                    .next()
                    .ok_or_else(|| err("--trace-out needs a directory"))?;
                out.trace_out = Some(v.to_string());
                out.telemetry = true;
            }
            other => return Err(err(format!("unknown flag '{other}'"))),
        }
    }
    if !explicit_warmup {
        out.warmup = out.instructions / 2;
    }
    if out.instructions == 0 {
        return Err(err("--instructions must be positive"));
    }
    if out.cores == 0 {
        return Err(err("--cores must be positive"));
    }
    Ok(out)
}

/// Parses the whole command line (excluding `argv[0]`).
pub fn parse(args: &[String]) -> Result<Command, ParseArgsError> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("-h") | Some("--help") => Ok(Command::Help),
        Some("list") => Ok(Command::List),
        Some("run") => Ok(Command::Run(parse_run_args(&args[1..])?)),
        Some("compare") => Ok(Command::Compare(parse_run_args(&args[1..])?)),
        Some("sweep") => Ok(Command::Sweep(parse_run_args(&args[1..])?)),
        Some("trace") => Ok(Command::Trace(parse_run_args(&args[1..])?)),
        Some("inspect") => Ok(Command::Inspect(parse_inspect_args(&args[1..])?)),
        Some("serve") => Ok(Command::Serve(parse_serve_args(&args[1..])?)),
        Some(other) => Err(err(format!(
            "unknown subcommand '{other}' (expected run|compare|sweep|trace|inspect|serve|list|help)"
        ))),
    }
}

/// The `help` text.
pub const USAGE: &str = "\
osoffload — selective off-loading of OS functionality (Nellans et al., WIOSCA 2010)

USAGE:
    osoffload <run|compare|sweep|trace|inspect|serve|list|help> [flags]

SUBCOMMANDS:
    run       simulate one configuration and print the full report
    compare   baseline vs SI vs DI vs HI on one workload
    sweep     sweep the off-load threshold N for one workload/latency
    trace     per-invocation CSV trace to stdout (summary on stderr)
    inspect   analytics over results/ artefacts (archives, journals)
    serve     cached experiment service (daemon + client; see SERVING.md)
    list      available workload profiles and policy specs
    help      this text

FLAGS (run/compare/sweep):
    -p, --profile <name>        workload profile        [apache]
        --policy <spec>         decision policy         [hi:500]
                                  baseline | always | hi[:N] | hi-dm[:N] |
                                  hi-sa[:N[:WAYS]] | hi-global[:N] | hi-lastvalue[:N] |
                                  di[:N[:COST]] | si[:STUB] | oracle[:N]
    -l, --latency <cycles>      one-way migration cost  [1000]
    -n, --instructions <count>  measured instructions   [1000000]
        --warmup <count>        warm-up instructions    [instructions/2]
        --seed <n>              master seed             [42]
        --cores <n>             user cores              [1]
        --tuner                 enable the dynamic-N estimator (paper §III-B)
        --rpc                   RPC transport instead of thread migration
        --adapt <milli>         resource adaptation: run long OS sequences
                                locally, throttled by milli/1000 (no OS core)
        --energy                also score energy and EDP
        --json                  emit the report as JSON (run only)
        --telemetry             capture spans + epoch metrics; write a Chrome
                                trace and metric time series (see TELEMETRY.md)
        --trace-out <dir>       telemetry output directory [results/telemetry]
                                (implies --telemetry)

INSPECT SUBCOMMANDS (see TELEMETRY.md, \"Profiling & inspection\"):
    inspect show <file>                     summarise an archive or journal;
                                            pretty-print any other JSON
    inspect find --digest=<hex> <paths...>  locate points by config digest
    inspect diff <A> <B> [--gate=PCT]       report-level deltas (IPC, cycle
                [--canonical]               breakdown, queue percentiles,
                                            per-OS-core utilisation); with
                                            --gate, exit 3 when |dIPC| or
                                            |dcycles| exceeds PCT percent;
                                            --canonical omits file paths so
                                            output is byte-stable

SERVE SUBCOMMANDS (see SERVING.md):
    serve start [--port=N] [--cache=FILE] [--out=DIR] [--workers=N]
                [--lanes=N] [--retries=N] [--cache-max=N]
                [--cache-ttl-secs=N] [--submit-slots=N] [--admit-queue=N]
                [--conn-workers=N] [--read-timeout-ms=N]
                [--write-timeout-ms=N] [--request-deadline-ms=N]
                [--max-line-bytes=N] [--inject-faults=SEED] [--quiet]
                                            boot the daemon in the foreground
                                            (port 7411; 0 = ephemeral);
                                            --submit-slots concurrent sweeps
                                            with --admit-queue waiters, the
                                            rest shed with 'overloaded'
                                            (see SERVING.md, overload & drain)
    serve submit --fig4=quick|full|paper [--port=N] [--require-cached]
                [--retries=N] [--backoff-ms=N] [--quiet]
                                            submit the fig4 sweep, stream
                                            per-point progress; retries
                                            overloaded/draining/transport
                                            failures with jittered backoff;
                                            with --require-cached, exit 4
                                            unless every point came from cache
    serve proxy --upstream=PORT [--port=N] [--seed=N] [--fault-pct=N]
                [--log=FILE]                deterministic fault-injecting TCP
                                            proxy for chaos testing: torn
                                            writes, stalls, disconnects at
                                            seeded byte offsets
    serve ping|stats|stop [--port=N]        liveness / totals / shutdown
                                            (stop drains gracefully)

EXAMPLES:
    osoffload run -p apache --policy hi:500 -l 1000 --energy
    osoffload run -p apache --telemetry --trace-out results/telemetry
    osoffload compare -p specjbb2005 -l 5000
    osoffload sweep -p derby -l 100 -n 2000000
    osoffload inspect show results/fig4.json
    osoffload inspect diff results/fig4.json results/fig4-new.json --gate=5
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse(&[]), Ok(Command::Help));
        assert_eq!(parse(&argv("--help")), Ok(Command::Help));
        assert_eq!(parse(&argv("help")), Ok(Command::Help));
    }

    #[test]
    fn list_parses() {
        assert_eq!(parse(&argv("list")), Ok(Command::List));
    }

    #[test]
    fn run_defaults() {
        let Command::Run(a) = parse(&argv("run")).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(a.profile, "apache");
        assert_eq!(a.policy, PolicyKind::HardwarePredictor { threshold: 500 });
        assert_eq!(a.warmup, a.instructions / 2);
    }

    #[test]
    fn run_full_flag_set() {
        let cmd = parse(&argv(
            "run -p derby --policy di:1000:200 -l 5000 -n 500000 --warmup 100000 \
             --seed 7 --cores 2 --tuner --rpc --energy",
        ))
        .unwrap();
        let Command::Run(a) = cmd else {
            panic!("expected run")
        };
        assert_eq!(a.profile, "derby");
        assert_eq!(
            a.policy,
            PolicyKind::DynamicInstrumentation {
                threshold: 1_000,
                cost: 200
            }
        );
        assert_eq!(a.latency, 5_000);
        assert_eq!(a.instructions, 500_000);
        assert_eq!(a.warmup, 100_000);
        assert_eq!(a.seed, 7);
        assert_eq!(a.cores, 2);
        assert!(a.tuner && a.rpc && a.energy);
    }

    #[test]
    fn json_flag() {
        let Command::Run(a) = parse(&argv("run --json")).unwrap() else {
            panic!()
        };
        assert!(a.json);
    }

    #[test]
    fn telemetry_flags() {
        let Command::Run(a) = parse(&argv("run --telemetry")).unwrap() else {
            panic!()
        };
        assert!(a.telemetry);
        assert_eq!(a.trace_out, None);
        let Command::Run(a) = parse(&argv("run --trace-out out/t")).unwrap() else {
            panic!()
        };
        assert!(a.telemetry, "--trace-out implies --telemetry");
        assert_eq!(a.trace_out.as_deref(), Some("out/t"));
        assert!(parse(&argv("run --trace-out")).is_err());
    }

    #[test]
    fn adapt_flag() {
        let Command::Run(a) = parse(&argv("run --adapt 1250")).unwrap() else {
            panic!()
        };
        assert_eq!(a.adapt_milli, Some(1_250));
    }

    #[test]
    fn numbers_accept_underscores() {
        let Command::Run(a) = parse(&argv("run -n 2_000_000")).unwrap() else {
            panic!()
        };
        assert_eq!(a.instructions, 2_000_000);
    }

    #[test]
    fn policy_specs() {
        assert_eq!(parse_policy("baseline"), Ok(PolicyKind::Baseline));
        assert_eq!(parse_policy("always"), Ok(PolicyKind::AlwaysOffload));
        assert_eq!(
            parse_policy("hi"),
            Ok(PolicyKind::HardwarePredictor { threshold: 500 })
        );
        assert_eq!(
            parse_policy("hi:10_000"),
            Ok(PolicyKind::HardwarePredictor { threshold: 10_000 })
        );
        assert_eq!(
            parse_policy("hi-dm:100"),
            Ok(PolicyKind::HardwarePredictorDirectMapped { threshold: 100 })
        );
        assert_eq!(
            parse_policy("si:30"),
            Ok(PolicyKind::StaticInstrumentation { stub_cost: 30 })
        );
        assert_eq!(
            parse_policy("oracle:900"),
            Ok(PolicyKind::Oracle { threshold: 900 })
        );
        assert!(parse_policy("bogus").is_err());
        assert!(parse_policy("hi:x").is_err());
        assert!(parse_policy("di:1:2:3").is_err());
    }

    #[test]
    fn unknown_profile_lists_alternatives() {
        let e = parse(&argv("run -p nginx")).unwrap_err();
        assert!(e.0.contains("apache"), "{e}");
        assert!(e.0.contains("canneal"), "{e}");
    }

    #[test]
    fn unknown_flag_and_subcommand_error() {
        assert!(parse(&argv("run --bogus")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run -n 0")).is_err());
        assert!(parse(&argv("run --cores 0")).is_err());
    }

    #[test]
    fn serve_args_parse() {
        let cmd = parse(&argv(
            "serve start --port=0 --cache=c.wal --out=o --workers=2 --lanes=1 \
             --retries=3 --cache-max=10 --cache-ttl-secs=3600 --submit-slots=3 \
             --admit-queue=8 --conn-workers=12 --read-timeout-ms=5000 \
             --write-timeout-ms=4000 --request-deadline-ms=30000 \
             --max-line-bytes=65536 --inject-faults=7 --quiet",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs::Start {
                port: 0,
                cache: "c.wal".into(),
                out: "o".into(),
                workers: 2,
                lanes: 1,
                retries: 3,
                cache_max: 10,
                cache_ttl_secs: 3600,
                submit_slots: 3,
                admit_queue: 8,
                conn_workers: 12,
                read_timeout_ms: 5000,
                write_timeout_ms: 4000,
                request_deadline_ms: 30000,
                max_line_bytes: 65536,
                inject_faults: Some(7),
                quiet: true,
            })
        );
        let cmd = parse(&argv(
            "serve submit --fig4=quick --port=7500 --require-cached --retries=2 --backoff-ms=10",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs::Submit {
                port: 7500,
                fig4: "quick".into(),
                require_cached: true,
                retries: 2,
                backoff_ms: 10,
                quiet: false,
            })
        );
        let cmd = parse(&argv(
            "serve proxy --upstream=7411 --port=7500 --seed=9 --fault-pct=30 --log=f.log",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve(ServeArgs::Proxy {
                port: 7500,
                upstream: 7411,
                seed: 9,
                fault_pct: 30,
                log: Some("f.log".into()),
            })
        );
        assert_eq!(
            parse(&argv("serve ping")).unwrap(),
            Command::Serve(ServeArgs::Ping { port: 7411 })
        );
        assert!(parse(&argv("serve submit")).is_err(), "submit needs --fig4");
        assert!(parse(&argv("serve submit --fig4=huge")).is_err());
        assert!(parse(&argv("serve start --port=70000")).is_err());
        assert!(parse(&argv("serve frobnicate")).is_err());
        // Zero would disable the corresponding protection entirely —
        // rejected at parse time, not silently accepted.
        assert!(parse(&argv("serve start --submit-slots=0")).is_err());
        assert!(parse(&argv("serve start --read-timeout-ms=0")).is_err());
        assert!(parse(&argv("serve start --write-timeout-ms=0")).is_err());
        assert!(parse(&argv("serve start --max-line-bytes=0")).is_err());
        assert!(parse(&argv("serve submit --fig4=quick --backoff-ms=0")).is_err());
        assert!(parse(&argv("serve proxy")).is_err(), "proxy needs upstream");
        assert!(parse(&argv("serve proxy --upstream=7411 --fault-pct=101")).is_err());
    }

    #[test]
    fn compare_and_sweep_share_parsing() {
        assert!(matches!(
            parse(&argv("compare -p apache")).unwrap(),
            Command::Compare(_)
        ));
        assert!(matches!(
            parse(&argv("sweep -l 100")).unwrap(),
            Command::Sweep(_)
        ));
        assert!(matches!(
            parse(&argv("trace -p derby")).unwrap(),
            Command::Trace(_)
        ));
    }
}
