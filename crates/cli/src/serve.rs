//! The `osoffload serve` subcommand: daemon and client front ends for
//! the cached experiment service (see `SERVING.md`), plus the chaos
//! proxy used by the nightly fault-injection campaign.

use crate::args::ServeArgs;
use osoffload_runner::record_plan;
use osoffload_serve::chaos::{ChaosConfig, ChaosProxy};
use osoffload_serve::client::{self, RetryPolicy};
use osoffload_serve::daemon::{Daemon, ServeOptions};
use osoffload_system::experiments::{fig4_grid_with, Scale, FIG4_LATENCIES, FIG4_THRESHOLDS};
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;

/// Exit code of `serve submit --require-cached` when any point had to
/// be computed fresh.
pub const EXIT_NOT_CACHED: i32 = 4;

/// Runs one `serve` subcommand, returning the process exit code.
pub fn serve(args: &ServeArgs) -> i32 {
    match args {
        ServeArgs::Start {
            port,
            cache,
            out,
            workers,
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
        } => {
            let opts = ServeOptions {
                port: *port,
                cache: PathBuf::from(cache),
                out_dir: PathBuf::from(out),
                cache_capacity: *cache_max,
                cache_ttl_secs: *cache_ttl_secs,
                workers: *workers,
                retries: *retries,
                submit_slots: *submit_slots,
                admit_queue: *admit_queue,
                conn_workers: *conn_workers,
                read_timeout_ms: *read_timeout_ms,
                write_timeout_ms: *write_timeout_ms,
                request_deadline_ms: *request_deadline_ms,
                max_line_bytes: *max_line_bytes,
                fault_seed: *inject_faults,
                quiet: *quiet,
            };
            let mut daemon = match Daemon::bind(opts) {
                Ok(d) => d,
                Err(why) => {
                    eprintln!("error: {why}");
                    return 1;
                }
            };
            // The smoke scripts wait for this line before submitting;
            // flush so it is visible even through a pipe.
            println!("serve: listening on {}", daemon.local_addr());
            let _ = std::io::stdout().flush();
            match daemon.run() {
                Ok(()) => {
                    println!("serve: shutdown");
                    0
                }
                Err(why) => {
                    eprintln!("error: {why}");
                    1
                }
            }
        }
        ServeArgs::Submit {
            port,
            fig4,
            require_cached,
            retries,
            backoff_ms,
            quiet,
        } => {
            let scale = Scale::from_arg(fig4).expect("validated by the parser");
            let plan = record_plan("fig4", scale.seed, |ev| {
                fig4_grid_with(scale, FIG4_LATENCIES, FIG4_THRESHOLDS, ev)
            });
            let request = match client::submit_request_line(&plan) {
                Ok(line) => line,
                Err(why) => {
                    eprintln!("error: {why}");
                    return 1;
                }
            };
            let policy = RetryPolicy {
                retries: *retries,
                backoff_ms: *backoff_ms,
                seed: plan.master_seed(),
            };
            let outcome = client::submit_with_retry(*port, &request, policy, |event| {
                if !quiet {
                    println!("{event}");
                }
            });
            match outcome {
                Ok(o) => {
                    eprintln!(
                        "serve submit: {} points, {} hits, {} misses, {} failed -> {}",
                        o.points, o.hits, o.misses, o.failed, o.archive
                    );
                    if o.failed > 0 {
                        1
                    } else if *require_cached && o.misses > 0 {
                        eprintln!(
                            "serve submit: --require-cached but {} points were computed fresh",
                            o.misses
                        );
                        EXIT_NOT_CACHED
                    } else {
                        0
                    }
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
            fault_pct,
            log,
        } => {
            let cfg = ChaosConfig {
                fault_rate: f64::from(*fault_pct) / 100.0,
                ..ChaosConfig::default()
            };
            let target: SocketAddr = ([127, 0, 0, 1], *upstream).into();
            let proxy = match ChaosProxy::start(
                *port,
                target,
                *seed,
                cfg,
                log.as_deref().map(std::path::Path::new),
            ) {
                Ok(p) => p,
                Err(why) => {
                    eprintln!("error: {why}");
                    return 1;
                }
            };
            // Same contract as `serve start`: scripts wait for this
            // line, then point clients at the proxy port.
            println!(
                "proxy: listening on {} -> 127.0.0.1:{upstream}",
                proxy.local_addr()
            );
            let _ = std::io::stdout().flush();
            // The proxy runs until the process is killed (the chaos CI
            // job tears it down with the daemon).
            loop {
                std::thread::park();
            }
        }
        ServeArgs::Ping { port } => one_shot(client::ping(*port)),
        ServeArgs::Stats { port } => one_shot(client::stats(*port)),
        ServeArgs::Stop { port } => one_shot(client::stop(*port)),
    }
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
