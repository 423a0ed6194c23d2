//! The `osoffload serve` subcommand: daemon and client front ends for
//! the cached experiment service (see `SERVING.md`), plus the chaos
//! proxy used by the nightly fault-injection campaign.
//!
//! `serve submit <experiment>` is not a subcommand of its own here: it
//! parses to the experiment's command with a [`Submit`] executor, and
//! [`submit`] is that executor.

use crate::args::ServeArgs;
use osoffload_runner::ExperimentPlan;
use osoffload_serve::chaos::ChaosProxy;
use osoffload_serve::client::{self, RetryPolicy};
use osoffload_serve::daemon::Daemon;
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;

/// Exit code of `serve submit --require-cached` when any point had to
/// be computed fresh.
pub const EXIT_NOT_CACHED: i32 = 4;

/// How `serve submit` reaches the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submit {
    /// Daemon port.
    pub port: u16,
    /// Exit 4 unless every point was served from cache.
    pub require_cached: bool,
    /// Retries of retryable refusals (`overloaded`/`draining`) and
    /// transport failures; the jitter seed is the plan's.
    pub retry: RetryPolicy,
    /// Suppress the per-point events on stderr.
    pub quiet: bool,
}

/// Runs `plan` on the daemon and returns the path of the archive its
/// `done` event names. Events echo on stderr unless `quiet`, then a
/// summary line. With `require_cached`, a submission that computed any
/// point exits 4 here, unless a point failed.
pub fn submit(plan: &ExperimentPlan, s: &Submit) -> Result<PathBuf, String> {
    let request = client::submit_request_line(plan)?;
    let policy = RetryPolicy {
        seed: plan.master_seed(),
        ..s.retry
    };
    let o = client::submit_with_retry(s.port, &request, policy, |event| {
        if !s.quiet {
            eprintln!("{event}");
        }
    })?;
    eprintln!(
        "serve submit: {} points, {} hits, {} misses, {} failed -> {}",
        o.points, o.hits, o.misses, o.failed, o.archive
    );
    if s.require_cached && o.misses > 0 && o.failed == 0 {
        eprintln!(
            "serve submit: --require-cached but {} points were computed fresh",
            o.misses
        );
        std::process::exit(EXIT_NOT_CACHED);
    }
    Ok(PathBuf::from(o.archive))
}

/// Runs one `serve` subcommand, returning the process exit code.
pub fn serve(args: ServeArgs) -> i32 {
    match args {
        ServeArgs::Start(opts) => {
            let mut daemon = match Daemon::bind(opts) {
                Ok(d) => d,
                Err(why) => {
                    eprintln!("error: {why}");
                    return 1;
                }
            };
            // The smoke scripts wait for this line before submitting.
            status(format_args!("serve: listening on {}", daemon.local_addr()));
            match daemon.run() {
                Ok(()) => {
                    status(format_args!("serve: shutdown"));
                    0
                }
                Err(why) => {
                    eprintln!("error: {why}");
                    1
                }
            }
        }
        ServeArgs::Proxy {
            port,
            upstream,
            seed,
            chaos,
            log,
        } => {
            let target: SocketAddr = ([127, 0, 0, 1], upstream).into();
            let proxy = match ChaosProxy::start(port, target, seed, chaos, log.as_deref()) {
                Ok(p) => p,
                Err(why) => {
                    eprintln!("error: {why}");
                    return 1;
                }
            };
            // Same contract as `serve start`: scripts wait for this
            // line, then point clients at the proxy port.
            status(format_args!(
                "proxy: listening on {} -> 127.0.0.1:{upstream}",
                proxy.local_addr()
            ));
            // The proxy runs until the process is killed (the chaos CI
            // job tears it down with the daemon).
            loop {
                std::thread::park();
            }
        }
        ServeArgs::Ping { port } => one_shot(client::ping(port)),
        ServeArgs::Stats { port } => one_shot(client::stats(port)),
        ServeArgs::Stop { port } => one_shot(client::stop(port)),
    }
}

/// Prints a daemon or proxy status line and flushes it, so it shows
/// through a pipe. A write error is ignored: whoever read the listening
/// line may have closed the pipe long before the shutdown line.
fn status(line: std::fmt::Arguments) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}").and_then(|()| out.flush());
}

fn one_shot(response: Result<String, String>) -> i32 {
    match response {
        Ok(line) => {
            println!("{line}");
            0
        }
        Err(why) => {
            eprintln!("error: {why}");
            1
        }
    }
}
