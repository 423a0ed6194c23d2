//! Hand-rolled argument parsing for the `osoffload` binary.
//!
//! Every subcommand shares one grammar: a flag is `--name=value` or a
//! bare `--name`, and a name means the same thing wherever it appears.
//! [`split`] separates a subcommand's flags from its positional words,
//! and the typed value parsers on [`Flag`] parse a value into its
//! field's own type, so an out-of-range number is refused with the
//! flag's name instead of wrapping. Each subcommand starts from its
//! options type's own `Default` ([`RunnerOptions`], [`ServeOptions`],
//! [`RetryPolicy`], [`RunArgs`]) and sets only the fields its flags name.
//!
//! Kept dependency-free on purpose: the parser is a few hundred lines,
//! fully unit-tested, and easier to audit than a derive macro.

use crate::experiments::{Experiment, EXPERIMENTS};
use osoffload_runner::RunnerOptions;
use osoffload_serve::client::RetryPolicy;
use osoffload_serve::{ChaosConfig, ServeOptions, DEFAULT_PORT};
use osoffload_system::experiments::Scale;
use osoffload_system::PolicyKind;
use osoffload_workload::Profile;
use std::fmt;
use std::num::{IntErrorKind, ParseIntError};
use std::path::PathBuf;
use std::str::FromStr;

/// Which subcommand was requested.
#[derive(Debug, Clone)]
pub enum Command {
    /// `osoffload <experiment> [quick|full|paper] …` — one registry entry
    /// through the parallel runner.
    Experiment {
        /// The registry entry.
        experiment: &'static Experiment,
        /// Simulation length preset.
        scale: Scale,
        /// Runner flags.
        opts: RunnerOptions,
    },
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
    /// Workload profile.
    pub workload: Profile,
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
    /// Score energy/EDP after the run (`run` only).
    pub energy: bool,
    /// Emit the report as JSON instead of prose (`run` only).
    pub json: bool,
    /// Capture full telemetry (spans + epoch metrics) during the run
    /// (`run` only).
    pub telemetry: bool,
    /// Directory for telemetry files (implies `telemetry`; `run` only).
    pub trace_out: Option<PathBuf>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            workload: Profile::apache(),
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
#[derive(Debug, Clone)]
pub enum ServeArgs {
    /// `serve start …` — boot the daemon (foreground).
    Start(ServeOptions),
    /// `serve submit …` — submit the fig4 sweep and stream progress.
    Submit {
        /// Daemon port.
        port: u16,
        /// fig4 scale.
        fig4: Scale,
        /// Exit 4 unless every point was served from cache.
        require_cached: bool,
        /// Retries of retryable refusals (`overloaded`/`draining`) and
        /// transport failures; the jitter seed is the plan's.
        retry: RetryPolicy,
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
        /// Fault planner settings.
        chaos: ChaosConfig,
        /// Fault log file (one line per injected fault).
        log: Option<PathBuf>,
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

/// One `--name[=value]` flag of a command line.
#[derive(Debug, Clone, Copy)]
struct Flag<'a> {
    name: &'a str,
    value: Option<&'a str>,
}

impl<'a> Flag<'a> {
    fn unknown(self) -> ParseArgsError {
        err(format!("unknown flag '--{}'", self.name))
    }

    /// A flag that takes no value.
    fn switch(self) -> Result<bool, ParseArgsError> {
        match self.value {
            None => Ok(true),
            Some(_) => Err(err(format!("--{} takes no value", self.name))),
        }
    }

    /// The flag's `=value`.
    fn text(self) -> Result<&'a str, ParseArgsError> {
        self.value
            .ok_or_else(|| err(format!("--{0} needs a value: --{0}=VALUE", self.name)))
    }

    fn path(self) -> Result<PathBuf, ParseArgsError> {
        self.text().map(PathBuf::from)
    }

    /// An integer in the field's own type.
    fn num<T: FromStr<Err = ParseIntError>>(self) -> Result<T, ParseArgsError> {
        int(&format!("--{}", self.name), self.text()?)
    }

    /// A positive integer, for flags where `0` would disable the
    /// protection the flag configures.
    fn positive<T: FromStr<Err = ParseIntError> + Default + PartialEq>(
        self,
    ) -> Result<T, ParseArgsError> {
        let n = self.num()?;
        if n == T::default() {
            return Err(err(format!("--{} must be positive", self.name)));
        }
        Ok(n)
    }
}

/// Parses an integer into `T`, allowing `_` digit separators; `what`
/// names the flag or spec the value came from.
fn int<T: FromStr<Err = ParseIntError>>(what: &str, v: &str) -> Result<T, ParseArgsError> {
    v.replace('_', "").parse().map_err(|e: ParseIntError| {
        let why = match e.kind() {
            IntErrorKind::PosOverflow | IntErrorKind::NegOverflow => "is out of range",
            _ => "is not a number",
        };
        err(format!("{what}: '{v}' {why}"))
    })
}

/// Splits a subcommand's arguments into its `--name[=value]` flags and
/// its positional words. Any other argument that starts with `-` (a
/// short flag such as `-p` or `-j4`) is refused here.
fn split(args: &[String]) -> Result<(Vec<Flag<'_>>, Vec<&str>), ParseArgsError> {
    let mut flags = Vec::new();
    let mut words = Vec::new();
    for arg in args {
        if let Some(flag) = arg.strip_prefix("--") {
            let (name, value) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (flag, None),
            };
            flags.push(Flag { name, value });
        } else if arg.starts_with('-') {
            return Err(err(format!("unknown flag '{arg}'")));
        } else {
            words.push(arg.as_str());
        }
    }
    Ok((flags, words))
}

/// Refuses positional words where a subcommand takes none.
fn no_words(words: &[&str]) -> Result<(), ParseArgsError> {
    match words.first() {
        Some(word) => Err(err(format!("unexpected argument '{word}'"))),
        None => Ok(()),
    }
}

/// One `--policy` spec: its name (the `kind` the configuration codec
/// writes), the `:`-separated parameters it takes with their defaults,
/// and the policy they build.
struct PolicySpec {
    kind: &'static str,
    params: &'static str,
    defaults: &'static [u64],
    about: &'static str,
    make: fn(&[u64]) -> PolicyKind,
}

/// Every policy the command line accepts; `parse_policy`, `list` and
/// the usage text all read this table.
const POLICIES: &[PolicySpec] = &[
    PolicySpec {
        kind: "baseline",
        params: "",
        defaults: &[],
        about: "no off-loading (single core)",
        make: |_| PolicyKind::Baseline,
    },
    PolicySpec {
        kind: "always",
        params: "",
        defaults: &[],
        about: "off-load every privileged invocation",
        make: |_| PolicyKind::AlwaysOffload,
    },
    PolicySpec {
        kind: "hi",
        params: "[:N]",
        defaults: &[500],
        about: "hardware predictor, 200-entry CAM (the paper's scheme)",
        make: |p| PolicyKind::HardwarePredictor { threshold: p[0] },
    },
    PolicySpec {
        kind: "hi-dm",
        params: "[:N]",
        defaults: &[500],
        about: "hardware predictor, 1,500-entry direct-mapped RAM",
        make: |p| PolicyKind::HardwarePredictorDirectMapped { threshold: p[0] },
    },
    PolicySpec {
        kind: "hi-sa",
        params: "[:N[:WAYS]]",
        defaults: &[500, 4],
        about: "hardware predictor, 64-set set-associative table",
        make: |p| PolicyKind::HardwarePredictorSetAssoc {
            threshold: p[0],
            sets: 64,
            ways: p[1] as usize,
        },
    },
    PolicySpec {
        kind: "hi-global",
        params: "[:N]",
        defaults: &[500],
        about: "ablation: global-only prediction",
        make: |p| PolicyKind::HardwarePredictorGlobalOnly { threshold: p[0] },
    },
    PolicySpec {
        kind: "hi-last-value",
        params: "[:N]",
        defaults: &[500],
        about: "ablation: infinite last-value, no confidence",
        make: |p| PolicyKind::HardwarePredictorLastValue { threshold: p[0] },
    },
    PolicySpec {
        kind: "di",
        params: "[:N[:COST]]",
        defaults: &[500, 120],
        about: "dynamic software instrumentation of every entry",
        make: |p| PolicyKind::DynamicInstrumentation {
            threshold: p[0],
            cost: p[1],
        },
    },
    PolicySpec {
        kind: "si",
        params: "[:STUB]",
        defaults: &[25],
        about: "static instrumentation from off-line profiling",
        make: |p| PolicyKind::StaticInstrumentation { stub_cost: p[0] },
    },
    PolicySpec {
        kind: "oracle",
        params: "[:N]",
        defaults: &[500],
        about: "decisions on the true run length",
        make: |p| PolicyKind::Oracle { threshold: p[0] },
    },
];

/// One line per policy spec: its syntax, then what it is.
pub fn policy_specs() -> impl Iterator<Item = String> {
    POLICIES
        .iter()
        .map(|p| format!("{:<18} {}", format!("{}{}", p.kind, p.params), p.about))
}

/// Parses a policy spec `KIND[:P1[:P2]]` against [`POLICIES`]; omitted
/// parameters take the spec's defaults.
pub fn parse_policy(spec: &str) -> Result<PolicyKind, ParseArgsError> {
    let mut parts = spec.split(':');
    let kind = parts.next().unwrap_or_default();
    let Some(p) = POLICIES.iter().find(|p| p.kind == kind) else {
        let kinds: Vec<&str> = POLICIES.iter().map(|p| p.kind).collect();
        return Err(err(format!(
            "unknown policy '{kind}' (expected {})",
            kinds.join("|")
        )));
    };
    let mut params = p.defaults.to_vec();
    for (i, v) in parts.enumerate() {
        let slot = params
            .get_mut(i)
            .ok_or_else(|| err(format!("policy '{spec}': too many ':' fields")))?;
        *slot = int(&format!("policy '{spec}'"), v)?;
    }
    Ok((p.make)(&params))
}

fn parse_workload(name: &str) -> Result<Profile, ParseArgsError> {
    Profile::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = Profile::all_server()
            .iter()
            .chain(Profile::all_compute().iter())
            .map(|p| p.name)
            .collect();
        err(format!(
            "--workload: unknown workload '{name}' (available: {})",
            names.join(", ")
        ))
    })
}

/// Parses the flags of simulation subcommand `command`. `run` reads
/// every [`RunArgs`] field; the others refuse the flags they would
/// ignore, naming the flag, rather than drop them silently.
fn parse_run_args(command: &str, args: &[String]) -> Result<RunArgs, ParseArgsError> {
    let ignored: &[&str] = match command {
        "run" => &[],
        "sweep" => &["policy", "json", "energy", "telemetry", "trace-out"],
        _ => &["json", "energy", "telemetry", "trace-out"],
    };
    let (flags, words) = split(args)?;
    let mut a = RunArgs::default();
    let mut warmup = None;
    for f in flags {
        if ignored.contains(&f.name) {
            return Err(err(format!("{command} does not take --{}", f.name)));
        }
        match f.name {
            "workload" => a.workload = parse_workload(f.text()?)?,
            "policy" => {
                a.policy = parse_policy(f.text()?).map_err(|e| err(format!("--policy: {e}")))?
            }
            "latency" => a.latency = f.num()?,
            "instructions" => a.instructions = f.num()?,
            "warmup" => warmup = Some(f.num()?),
            "seed" => a.seed = f.num()?,
            "cores" => a.cores = f.num()?,
            "tuner" => a.tuner = f.switch()?,
            "rpc" => a.rpc = f.switch()?,
            "adapt" => a.adapt_milli = Some(f.num()?),
            "energy" => a.energy = f.switch()?,
            "json" => a.json = f.switch()?,
            "telemetry" => a.telemetry = f.switch()?,
            "trace-out" => {
                a.trace_out = Some(f.path()?);
                a.telemetry = true;
            }
            _ => return Err(f.unknown()),
        }
    }
    // Words are checked after flags, so `--latency 1000` names the flag.
    no_words(&words)?;
    a.warmup = warmup.unwrap_or(a.instructions / 2);
    Ok(a)
}

/// The runner flags every experiment takes.
fn parse_runner_options(flags: &[Flag<'_>]) -> Result<RunnerOptions, ParseArgsError> {
    let mut o = RunnerOptions::default();
    for &f in flags {
        match f.name {
            "workers" => o.workers = f.num()?,
            "retries" => o.retries = f.num()?,
            "quiet" => o.quiet = f.switch()?,
            "out" => o.out_dir = f.path()?,
            "telemetry" => o.telemetry = f.switch()?,
            "trace-out" => {
                o.trace_out = Some(f.path()?);
                o.telemetry = true;
            }
            "profile" => o.profile = f.switch()?,
            "journal" => o.journal = Some(f.path()?),
            "resume" => o.resume = Some(f.path()?),
            "resume-retry-failed" => o.resume_retry_failed = f.switch()?,
            "deadline-ms" => o.deadline_ms = Some(f.num()?),
            "backoff-ms" => o.backoff_ms = f.num()?,
            "canonical" => o.canonical = f.switch()?,
            "inject-faults" => o.fault_seed = Some(f.num()?),
            _ => return Err(f.unknown()),
        }
    }
    Ok(o)
}

fn parse_scale(word: &str) -> Result<Scale, ParseArgsError> {
    Scale::from_arg(word).ok_or_else(|| {
        err(format!(
            "unknown scale '{word}' (expected quick|full|paper)"
        ))
    })
}

fn parse_experiment_args(
    experiment: &'static Experiment,
    args: &[String],
) -> Result<Command, ParseArgsError> {
    let (flags, words) = split(args)?;
    let opts = parse_runner_options(&flags)?;
    let scale = match words.as_slice() {
        [] => Scale::full(),
        [word] => parse_scale(word)?,
        [_, extra, ..] => return Err(err(format!("unexpected argument '{extra}'"))),
    };
    Ok(Command::Experiment {
        experiment,
        scale,
        opts,
    })
}

fn parse_inspect_args(args: &[String]) -> Result<InspectArgs, ParseArgsError> {
    let (flags, words) = split(args)?;
    let paths: Vec<String> = words.iter().skip(1).map(|w| w.to_string()).collect();
    match words.first().copied() {
        Some("show") => {
            if let Some(&f) = flags.first() {
                return Err(f.unknown());
            }
            match <[String; 1]>::try_from(paths) {
                Ok([path]) => Ok(InspectArgs::Show { path }),
                Err(_) => Err(err("usage: inspect show <file>")),
            }
        }
        Some("find") => {
            let mut digest = None;
            for f in flags {
                match f.name {
                    "digest" => {
                        let v = f.text()?;
                        if v.len() != 16 || !v.chars().all(|c| c.is_ascii_hexdigit()) {
                            return Err(err(format!(
                                "--digest: '{v}' is not a 16-hex-digit digest"
                            )));
                        }
                        digest = Some(v.to_ascii_lowercase());
                    }
                    _ => return Err(f.unknown()),
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
            for f in flags {
                match f.name {
                    "gate" => {
                        let v = f.text()?;
                        let pct: f64 = v
                            .parse()
                            .map_err(|_| err(format!("--gate: '{v}' is not a number")))?;
                        if !pct.is_finite() || pct < 0.0 {
                            return Err(err("--gate must be a non-negative percentage"));
                        }
                        gate = Some(pct);
                    }
                    "canonical" => canonical = f.switch()?,
                    _ => return Err(f.unknown()),
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

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, ParseArgsError> {
    let (flags, words) = split(args)?;
    let Some((&op, rest)) = words.split_first() else {
        return Err(err("usage: serve <start|submit|proxy|ping|stats|stop> …"));
    };
    let parsed = parse_serve_flags(op, &flags)?;
    no_words(rest)?;
    Ok(parsed)
}

fn parse_serve_flags(op: &str, flags: &[Flag<'_>]) -> Result<ServeArgs, ParseArgsError> {
    match op {
        "start" => {
            let mut o = ServeOptions::default();
            for &f in flags {
                match f.name {
                    "port" => o.port = f.num()?,
                    "cache" => o.cache = f.path()?,
                    "out" => o.out_dir = f.path()?,
                    "workers" => o.workers = f.num()?,
                    "retries" => o.retries = f.num()?,
                    "cache-max" => o.cache_capacity = f.num()?,
                    "cache-ttl-secs" => o.cache_ttl_secs = f.num()?,
                    "submit-slots" => o.submit_slots = f.positive()?,
                    "admit-queue" => o.admit_queue = f.num()?,
                    "conn-workers" => o.conn_workers = f.num()?,
                    "read-timeout-ms" => o.read_timeout_ms = f.positive()?,
                    "write-timeout-ms" => o.write_timeout_ms = f.positive()?,
                    "request-deadline-ms" => o.request_deadline_ms = f.num()?,
                    "max-line-bytes" => o.max_line_bytes = f.positive()?,
                    "inject-faults" => o.fault_seed = Some(f.num()?),
                    "quiet" => o.quiet = f.switch()?,
                    _ => return Err(f.unknown()),
                }
            }
            Ok(ServeArgs::Start(o))
        }
        "submit" => {
            let (mut port, mut fig4, mut require_cached, mut quiet) =
                (DEFAULT_PORT, None, false, false);
            let mut retry = RetryPolicy::default();
            for &f in flags {
                match f.name {
                    "port" => port = f.num()?,
                    "fig4" => fig4 = Some(parse_scale(f.text()?)?),
                    "require-cached" => require_cached = f.switch()?,
                    "retries" => retry.retries = f.num()?,
                    "backoff-ms" => retry.backoff_ms = f.positive()?,
                    "quiet" => quiet = f.switch()?,
                    _ => return Err(f.unknown()),
                }
            }
            Ok(ServeArgs::Submit {
                port,
                fig4: fig4.ok_or_else(|| err("serve submit needs --fig4=quick|full|paper"))?,
                require_cached,
                retry,
                quiet,
            })
        }
        "proxy" => {
            let (mut port, mut upstream, mut seed, mut log) = (0, None, 0xC4A05, None);
            let mut chaos = ChaosConfig::default();
            for &f in flags {
                match f.name {
                    "port" => port = f.num()?,
                    "upstream" => upstream = Some(f.num()?),
                    "seed" => seed = f.num()?,
                    "fault-pct" => {
                        let pct: u32 = f.num()?;
                        if pct > 100 {
                            return Err(err(format!("--fault-pct: {pct} is not a percentage")));
                        }
                        chaos.fault_rate = f64::from(pct) / 100.0;
                    }
                    "log" => log = Some(f.path()?),
                    _ => return Err(f.unknown()),
                }
            }
            Ok(ServeArgs::Proxy {
                port,
                upstream: upstream.ok_or_else(|| err("serve proxy needs --upstream=PORT"))?,
                seed,
                chaos,
                log,
            })
        }
        "ping" | "stats" | "stop" => {
            let mut port = DEFAULT_PORT;
            for &f in flags {
                match f.name {
                    "port" => port = f.num()?,
                    _ => return Err(f.unknown()),
                }
            }
            Ok(match op {
                "ping" => ServeArgs::Ping { port },
                "stats" => ServeArgs::Stats { port },
                _ => ServeArgs::Stop { port },
            })
        }
        other => Err(err(format!(
            "unknown serve subcommand '{other}' (expected start|submit|proxy|ping|stats|stop)"
        ))),
    }
}

/// Parses the whole command line (excluding `argv[0]`).
pub fn parse(args: &[String]) -> Result<Command, ParseArgsError> {
    let Some((first, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    Ok(match first.as_str() {
        "help" | "-h" | "--help" => Command::Help,
        "list" => match rest.first() {
            None => Command::List,
            Some(extra) => return Err(err(format!("unexpected argument '{extra}'"))),
        },
        "run" => Command::Run(parse_run_args(first, rest)?),
        "compare" => Command::Compare(parse_run_args(first, rest)?),
        "sweep" => Command::Sweep(parse_run_args(first, rest)?),
        "trace" => Command::Trace(parse_run_args(first, rest)?),
        "inspect" => Command::Inspect(parse_inspect_args(rest)?),
        "serve" => Command::Serve(parse_serve_args(rest)?),
        name => match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(experiment) => parse_experiment_args(experiment, rest)?,
            None => return Err(err(format!("unknown subcommand or experiment '{name}'"))),
        },
    })
}

/// The `help` text: every subcommand, flag, policy and experiment.
pub fn usage() -> String {
    let indent = |lines: Vec<String>| -> String {
        lines
            .iter()
            .map(|l| format!("      {l}\n"))
            .collect::<String>()
    };
    let policies = indent(policy_specs().collect());
    let experiments = indent(
        EXPERIMENTS
            .iter()
            .map(|e| format!("{:<20}{}", e.name, e.artefact))
            .collect(),
    );
    format!(
        "\
osoffload — selective off-loading of OS functionality (Nellans et al., WIOSCA 2010)

USAGE:
    osoffload <run|compare|sweep|trace|inspect|serve|list|help> [flags]
    osoffload <experiment> [quick|full|paper] [flags]

    Every flag is --name=value or a bare --name; numbers may use _
    separators.

SUBCOMMANDS:
    run       simulate one configuration and print the full report
    compare   baseline vs SI vs DI vs HI on one workload
    sweep     sweep the off-load threshold N for one workload/latency
    trace     per-invocation CSV trace to stdout (summary on stderr)
    inspect   analytics over results/ artefacts (archives, journals)
    serve     cached experiment service (daemon + client; see SERVING.md)
    list      available workload profiles and policy specs
    help      this text

FLAGS (run/compare/sweep/trace; each refuses the flags it would ignore):
    --workload=NAME          workload profile        [apache]
    --policy=SPEC            decision policy         [hi:500] (not sweep), one of:
{policies}    --latency=CYCLES         one-way migration cost  [1000]
    --instructions=COUNT     measured instructions   [1000000]
    --warmup=COUNT           warm-up instructions    [instructions/2]
    --seed=N                 master seed             [42]
    --cores=N                user cores              [1]
    --tuner                  enable the dynamic-N estimator (paper §III-B)
    --rpc                    RPC transport instead of thread migration
    --adapt=MILLI            resource adaptation: run long OS sequences
                             locally, throttled by milli/1000 (no OS core)
    --energy                 also score energy and EDP (run only)
    --json                   emit the report as JSON (run only)
    --telemetry              capture spans + epoch metrics; write a Chrome
                             trace and metric time series (run only; see
                             TELEMETRY.md)
    --trace-out=DIR          telemetry output directory [results/telemetry]
                             (run only; implies --telemetry)

EXPERIMENTS (default scale: full; see EXPERIMENTS.md):
{experiments}
FLAGS (experiments; default workers: all hardware threads):
    --workers=N  --retries=N  --quiet  --out=DIR [results]  --telemetry
    --trace-out=DIR  --profile  --journal=FILE  --resume=FILE
    --resume-retry-failed  --deadline-ms=N  --backoff-ms=N  --canonical
    --inject-faults=SEED
    --telemetry writes per-point Chrome traces + epoch metrics and runner
    self-profiling under OUT/telemetry (or --trace-out, which implies it);
    --profile writes per-point cycle-attribution profiles (collapsed
    stacks + top-N tables) under OUT/profile (see TELEMETRY.md);
    --journal/--resume give crash-safe checkpointed campaigns
    (--resume-retry-failed re-attempts journaled failures), and
    --deadline-ms/--inject-faults add watchdogs and chaos testing (see
    ROBUSTNESS.md); --canonical zeroes the archive's wall-clock fields
    and worker count, so reruns compare byte for byte

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
                [--retries=N] [--cache-max=N] [--cache-ttl-secs=N]
                [--submit-slots=N] [--admit-queue=N]
                [--conn-workers=N] [--read-timeout-ms=N]
                [--write-timeout-ms=N] [--request-deadline-ms=N]
                [--max-line-bytes=N] [--inject-faults=SEED] [--quiet]
                                            boot the daemon in the foreground
                                            (port {port}; 0 = ephemeral);
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
    osoffload run --workload=apache --policy=hi:500 --latency=1000 --energy
    osoffload run --telemetry --trace-out=results/telemetry
    osoffload compare --workload=specjbb2005 --latency=5000
    osoffload sweep --workload=derby --latency=100 --instructions=2_000_000
    osoffload fig4 quick --workers=4 --canonical --out=/tmp/r
    osoffload inspect show results/fig4.json
    osoffload inspect diff results/fig4.json results/fig4-new.json --gate=5
",
        port = DEFAULT_PORT,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn run_args(s: &str) -> RunArgs {
        match parse(&argv(s)) {
            Ok(Command::Run(a)) => a,
            other => panic!("{s}: expected run, got {other:?}"),
        }
    }

    fn runner_options(s: &str) -> (Scale, RunnerOptions) {
        match parse(&argv(s)) {
            Ok(Command::Experiment { scale, opts, .. }) => (scale, opts),
            other => panic!("{s}: expected an experiment, got {other:?}"),
        }
    }

    fn serve_args(s: &str) -> ServeArgs {
        match parse(&argv(s)) {
            Ok(Command::Serve(a)) => a,
            other => panic!("{s}: expected serve, got {other:?}"),
        }
    }

    fn error(s: &str) -> String {
        match parse(&argv(s)) {
            Err(e) => e.0,
            Ok(c) => panic!("{s}: parsed as {c:?}"),
        }
    }

    #[test]
    fn no_args_is_help() {
        for s in ["", "--help", "-h", "help"] {
            assert!(matches!(parse(&argv(s)), Ok(Command::Help)), "{s}");
        }
    }

    #[test]
    fn list_parses() {
        assert!(matches!(parse(&argv("list")), Ok(Command::List)));
        assert!(parse(&argv("list extra")).is_err());
    }

    #[test]
    fn run_defaults() {
        let a = run_args("run");
        assert_eq!(a.workload.name, "apache");
        assert_eq!(a.policy, PolicyKind::HardwarePredictor { threshold: 500 });
        assert_eq!(a.warmup, a.instructions / 2);
    }

    #[test]
    fn run_full_flag_set() {
        let a = run_args(
            "run --workload=derby --policy=di:1000:200 --latency=5000 --instructions=500000 \
             --warmup=100000 --seed=7 --cores=2 --tuner --rpc --energy",
        );
        assert_eq!(a.workload.name, "derby");
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

    /// The four simulation subcommands share one flag set, and each
    /// refuses, by name, the flags it would ignore.
    #[test]
    fn simulation_subcommands_refuse_flags_they_ignore() {
        let flags = [
            "--workload=derby",
            "--policy=hi:100",
            "--latency=10",
            "--instructions=1000",
            "--warmup=10",
            "--seed=1",
            "--cores=2",
            "--tuner",
            "--rpc",
            "--adapt=1200",
            "--energy",
            "--json",
            "--telemetry",
            "--trace-out=d",
        ];
        for (command, accepted) in [("run", 14), ("compare", 10), ("sweep", 9), ("trace", 10)] {
            let mut taken = 0;
            for flag in flags {
                match parse(&argv(&format!("{command} {flag}"))) {
                    Ok(_) => taken += 1,
                    Err(e) => {
                        let name = flag.split('=').next().unwrap();
                        assert_eq!(e.0, format!("{command} does not take {name}"));
                    }
                }
            }
            assert_eq!(taken, accepted, "{command}");
        }
    }

    #[test]
    fn json_flag() {
        assert!(run_args("run --json").json);
        assert!(error("run --json=yes").contains("--json takes no value"));
    }

    #[test]
    fn telemetry_flags() {
        let a = run_args("run --telemetry");
        assert!(a.telemetry);
        assert_eq!(a.trace_out, None);
        let a = run_args("run --trace-out=out/t");
        assert!(a.telemetry, "--trace-out implies --telemetry");
        assert_eq!(a.trace_out.as_deref(), Some(Path::new("out/t")));
        let a = run_args("run --telemetry --trace-out=out/t");
        assert_eq!(a.trace_out.as_deref(), Some(Path::new("out/t")));
        assert!(error("run --trace-out").contains("--trace-out needs a value"));
    }

    #[test]
    fn adapt_flag() {
        assert_eq!(run_args("run --adapt=1250").adapt_milli, Some(1_250));
    }

    #[test]
    fn numbers_accept_underscores_in_every_flag() {
        assert_eq!(
            run_args("run --instructions=2_000_000").instructions,
            2_000_000
        );
        let (_, o) = runner_options("fig4 --workers=1_2 --deadline-ms=5_000");
        assert_eq!((o.workers, o.deadline_ms), (12, Some(5_000)));
        let ServeArgs::Start(o) = serve_args("serve start --max-line-bytes=65_536") else {
            panic!()
        };
        assert_eq!(o.max_line_bytes, 65_536);
    }

    /// Each integer flag parses into its field's own type: a value that
    /// does not fit is refused with the flag's name instead of wrapping.
    #[test]
    fn integer_flags_refuse_out_of_range_values() {
        for (s, flag) in [
            ("fig4 quick --retries=4294967296", "--retries"),
            ("serve start --retries=4294967296", "--retries"),
            (
                "serve submit --fig4=quick --retries=4294967296",
                "--retries",
            ),
            ("serve start --port=70000", "--port"),
            ("serve proxy --upstream=65536", "--upstream"),
            ("run --latency=18446744073709551616", "--latency"),
        ] {
            let e = error(s);
            assert!(
                e.starts_with(flag) && e.contains("out of range"),
                "{s}: {e}"
            );
        }
        let (_, o) = runner_options("fig4 quick --retries=4294967295");
        assert_eq!(o.retries, u32::MAX);
        assert!(error("fig4 quick --workers=abc").contains("--workers: 'abc' is not a number"));
        assert!(error("fig4 quick --workers=").contains("--workers"));
    }

    #[test]
    fn policy_specs_use_the_codec_kind_names() {
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
            parse_policy("hi-sa:200:8"),
            Ok(PolicyKind::HardwarePredictorSetAssoc {
                threshold: 200,
                sets: 64,
                ways: 8
            })
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
        assert!(parse_policy("hi:1:2").is_err());
        assert!(parse_policy("di:1:2:3").is_err());
        // Every spec's name is the `kind` its policy encodes to, so the
        // name a journal or serve request writes is the one the command
        // line reads back.
        for p in POLICIES {
            let encoded = parse_policy(p.kind).unwrap().to_value();
            assert_eq!(encoded.get("kind").and_then(|k| k.as_str()), Some(p.kind));
        }
        assert_eq!(
            parse_policy("hi-last-value:7"),
            Ok(PolicyKind::HardwarePredictorLastValue { threshold: 7 })
        );
        let e = parse_policy("none").unwrap_err().0;
        assert!(
            e.contains("baseline|always|hi|hi-dm|hi-sa|hi-global|hi-last-value|di|si|oracle"),
            "{e}"
        );
    }

    #[test]
    fn unknown_workload_lists_alternatives() {
        let e = error("run --workload=nginx");
        assert!(e.starts_with("--workload"), "{e}");
        assert!(e.contains("apache"), "{e}");
        assert!(e.contains("canneal"), "{e}");
    }

    #[test]
    fn unknown_flag_and_subcommand_error() {
        assert!(error("run --bogus").contains("unknown flag '--bogus'"));
        assert!(error("run extra").contains("unexpected argument 'extra'"));
        assert!(error("frobnicate").contains("'frobnicate'"));
    }

    #[test]
    fn every_experiment_parses_by_name_and_none_is_a_subcommand() {
        for e in EXPERIMENTS {
            match parse(&argv(e.name)) {
                Ok(Command::Experiment {
                    experiment, scale, ..
                }) => {
                    assert_eq!(experiment.name, e.name);
                    assert_eq!(scale, Scale::full());
                }
                other => panic!("{}: parsed as {other:?}", e.name),
            }
        }
        let (scale, _) = runner_options("fig4 quick");
        assert_eq!(scale, Scale::quick());
        assert!(error("fig4 huge").contains("unknown scale 'huge'"));
        assert!(error("fig4 quick extra").contains("unexpected argument 'extra'"));
        assert!(error("fig4 --lanes=4").contains("unknown flag '--lanes'"));
    }

    #[test]
    fn flag_parsing_splits_runner_options() {
        let (scale, opts) = runner_options(
            "fig4 quick --workers=3 --quiet --retries=1 --out=tmp --telemetry \
             --trace-out=tmp/traces --journal=tmp/unit.journal --deadline-ms=5000 \
             --backoff-ms=7 --canonical --inject-faults=99 --profile --resume-retry-failed",
        );
        assert_eq!(scale, Scale::quick());
        assert_eq!(opts.workers, 3);
        assert_eq!(opts.retries, 1);
        assert!(opts.quiet);
        assert_eq!(opts.out_dir, PathBuf::from("tmp"));
        assert!(opts.telemetry);
        assert_eq!(opts.telemetry_dir(), PathBuf::from("tmp/traces"));
        assert_eq!(opts.journal, Some(PathBuf::from("tmp/unit.journal")));
        assert_eq!(opts.resume, None);
        assert_eq!(opts.deadline_ms, Some(5_000));
        assert_eq!(opts.backoff_ms, 7);
        assert!(opts.canonical);
        assert_eq!(opts.fault_seed, Some(99));
        assert!(opts.profile);
        assert_eq!(opts.profile_dir(), PathBuf::from("tmp/profile"));
        assert!(opts.resume_retry_failed);
    }

    #[test]
    fn trace_out_implies_telemetry_and_defaults_under_out_dir() {
        let (_, opts) = runner_options("fig4 --trace-out=x");
        assert!(opts.telemetry);
        let (_, plain) = runner_options("fig4");
        assert!(!plain.telemetry);
        assert_eq!(plain.telemetry_dir(), PathBuf::from("results/telemetry"));
    }

    #[test]
    fn serve_args_parse() {
        let ServeArgs::Start(o) = serve_args(
            "serve start --port=0 --cache=c.wal --out=o --workers=2 \
             --retries=3 --cache-max=10 --cache-ttl-secs=3600 --submit-slots=3 \
             --admit-queue=8 --conn-workers=12 --read-timeout-ms=5000 \
             --write-timeout-ms=4000 --request-deadline-ms=30000 \
             --max-line-bytes=65536 --inject-faults=7 --quiet",
        ) else {
            panic!("expected start")
        };
        assert_eq!(o.port, 0);
        assert_eq!(o.cache, PathBuf::from("c.wal"));
        assert_eq!(o.out_dir, PathBuf::from("o"));
        assert_eq!((o.workers, o.retries), (2, 3));
        assert_eq!((o.cache_capacity, o.cache_ttl_secs), (10, 3600));
        assert_eq!((o.submit_slots, o.admit_queue, o.conn_workers), (3, 8, 12));
        assert_eq!((o.read_timeout_ms, o.write_timeout_ms), (5000, 4000));
        assert_eq!((o.request_deadline_ms, o.max_line_bytes), (30000, 65536));
        assert_eq!(o.fault_seed, Some(7));
        assert!(o.quiet);
        let ServeArgs::Start(o) = serve_args("serve start") else {
            panic!("expected start")
        };
        let d = ServeOptions::default();
        assert_eq!((o.port, o.submit_slots), (d.port, d.submit_slots));

        let ServeArgs::Submit {
            port,
            fig4,
            require_cached,
            retry,
            quiet,
        } = serve_args(
            "serve submit --fig4=quick --port=7500 --require-cached --retries=2 --backoff-ms=10",
        )
        else {
            panic!("expected submit")
        };
        assert_eq!(
            (port, fig4, require_cached, quiet),
            (7500, Scale::quick(), true, false)
        );
        assert_eq!((retry.retries, retry.backoff_ms), (2, 10));
        let ServeArgs::Submit { port, retry, .. } = serve_args("serve submit --fig4=full") else {
            panic!("expected submit")
        };
        assert_eq!(port, DEFAULT_PORT);
        assert_eq!(retry, RetryPolicy::default());

        let ServeArgs::Proxy {
            port,
            upstream,
            seed,
            chaos,
            log,
        } = serve_args(
            "serve proxy --upstream=7400 --port=7500 --seed=9 --fault-pct=30 --log=f.log",
        )
        else {
            panic!("expected proxy")
        };
        assert_eq!((port, upstream, seed), (7500, 7400, 9));
        assert!((chaos.fault_rate - 0.3).abs() < 1e-12);
        assert_eq!(log, Some(PathBuf::from("f.log")));

        assert!(matches!(
            serve_args("serve ping"),
            ServeArgs::Ping { port } if port == DEFAULT_PORT
        ));
        assert!(matches!(
            serve_args("serve stop --port=7500"),
            ServeArgs::Stop { port: 7500 }
        ));
        assert!(parse(&argv("serve submit")).is_err(), "submit needs --fig4");
        assert!(parse(&argv("serve start --lanes=1")).is_err());
        assert!(parse(&argv("serve submit --fig4=huge")).is_err());
        assert!(parse(&argv("serve frobnicate")).is_err());
        assert!(parse(&argv("serve ping extra")).is_err());
        // Zero would disable the corresponding protection entirely —
        // rejected at parse time, not silently accepted.
        for s in [
            "serve start --submit-slots=0",
            "serve start --read-timeout-ms=0",
            "serve start --write-timeout-ms=0",
            "serve start --max-line-bytes=0",
            "serve submit --fig4=quick --backoff-ms=0",
        ] {
            assert!(error(s).contains("must be positive"), "{s}");
        }
        assert!(parse(&argv("serve proxy")).is_err(), "proxy needs upstream");
        assert!(parse(&argv("serve proxy --upstream=7400 --fault-pct=101")).is_err());
    }

    #[test]
    fn inspect_args_parse() {
        assert_eq!(
            parse_inspect_args(&argv("show a.json")),
            Ok(InspectArgs::Show {
                path: "a.json".into()
            })
        );
        assert_eq!(
            parse_inspect_args(&argv("find --digest=00000000DEADBEEF a b")),
            Ok(InspectArgs::Find {
                digest: "00000000deadbeef".into(),
                paths: vec!["a".into(), "b".into()]
            })
        );
        assert_eq!(
            parse_inspect_args(&argv("diff a b --gate=5 --canonical")),
            Ok(InspectArgs::Diff {
                a: "a".into(),
                b: "b".into(),
                gate: Some(5.0),
                canonical: true
            })
        );
        assert!(parse_inspect_args(&argv("find --digest=xyz a")).is_err());
        assert!(parse_inspect_args(&argv("diff a b --gate=-1")).is_err());
        assert!(parse_inspect_args(&argv("diff a")).is_err());
        assert!(parse_inspect_args(&argv("show a --canonical")).is_err());
    }

    #[test]
    fn compare_and_sweep_share_parsing() {
        assert!(matches!(
            parse(&argv("compare --workload=apache")),
            Ok(Command::Compare(_))
        ));
        assert!(matches!(
            parse(&argv("sweep --latency=100")),
            Ok(Command::Sweep(_))
        ));
        assert!(matches!(
            parse(&argv("trace --workload=derby")),
            Ok(Command::Trace(_))
        ));
    }

    #[test]
    fn usage_lists_every_policy_and_experiment() {
        let text = usage();
        for p in POLICIES {
            assert!(
                text.contains(&format!("      {}{}", p.kind, p.params)),
                "{}",
                p.kind
            );
        }
        for e in EXPERIMENTS {
            assert!(
                text.contains(&format!("      {:<20}", e.name)),
                "{}",
                e.name
            );
        }
    }
}
