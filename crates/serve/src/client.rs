//! Client side of the serve protocol: build request lines from an
//! [`ExperimentPlan`], submit them, and stream the daemon's events.
//!
//! [`submit_with_retry`] adds the resilience layer: a refusal the
//! daemon marks retryable (`overloaded`, `draining`) or a transport
//! failure (connection reset, daemon restarting) is retried with the
//! runner's deterministic exponential backoff-with-jitter
//! ([`osoffload_runner::backoff_delay_ms`]). Retrying a whole
//! submission is safe because submission is idempotent: every point
//! that completed before the failure was journaled by the daemon and is
//! served from cache on the next attempt.

use crate::wire;
use osoffload_obs::json::{self, Value};
use osoffload_runner::{backoff_delay_ms, ExperimentPlan};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn connect(port: u16) -> Result<TcpStream, String> {
    TcpStream::connect(("127.0.0.1", port))
        .map_err(|e| format!("cannot connect to 127.0.0.1:{port}: {e}"))
}

fn one_shot(port: u16, request: &str) -> Result<String, String> {
    let mut stream = connect(port)?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read response: {e}"))?;
    if line.is_empty() {
        return Err("daemon closed the connection without responding".into());
    }
    Ok(line.trim_end().to_string())
}

/// Sends `{"op":"ping"}`; returns the daemon's response line.
pub fn ping(port: u16) -> Result<String, String> {
    one_shot(port, "{\"op\":\"ping\"}\n")
}

/// Sends `{"op":"stats"}`; returns the daemon's response line.
pub fn stats(port: u16) -> Result<String, String> {
    one_shot(port, "{\"op\":\"stats\"}\n")
}

/// Sends `{"op":"shutdown"}`; returns the daemon's acknowledgement.
pub fn stop(port: u16) -> Result<String, String> {
    one_shot(port, "{\"op\":\"shutdown\"}\n")
}

/// Renders a plan as a single `submit` request line (newline included).
/// Fails if any point's configuration is not expressible on the wire.
pub fn submit_request_line(plan: &ExperimentPlan) -> Result<String, String> {
    let mut points = Vec::with_capacity(plan.len());
    for p in plan.points() {
        let wire_text = wire::config_to_json(&p.config)
            .map_err(|why| format!("point {} ({}): {why}", p.index, p.id))?;
        points.push(format!(
            "{{\"id\":\"{}\",\"config\":{wire_text}}}",
            json::escape(&p.id)
        ));
    }
    Ok(format!(
        "{{\"op\":\"submit\",\"experiment\":\"{}\",\"master_seed\":{},\"points\":[{}]}}\n",
        json::escape(plan.name()),
        plan.master_seed(),
        points.join(",")
    ))
}

/// Totals reported by the daemon's final `done` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// Points in the sweep.
    pub points: u64,
    /// Points served from the cache.
    pub hits: u64,
    /// Points computed fresh.
    pub misses: u64,
    /// Points that failed or timed out.
    pub failed: u64,
    /// Entries evicted after this submission.
    pub evicted: u64,
    /// Path of the canonical archive the daemon wrote.
    pub archive: String,
}

/// Why one submission attempt did not produce a `done` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The daemon answered an `{"ok":false,...}` line. `error` is the
    /// daemon's code (`overloaded` and `draining` are retryable;
    /// anything else is a real refusal), and `retry_after_ms` the
    /// daemon's backoff hint, when it sent one.
    Refused {
        /// The daemon's error code or message.
        error: String,
        /// Suggested minimum delay before retrying, if the daemon sent
        /// one (`overloaded` responses do).
        retry_after_ms: Option<u64>,
    },
    /// The connection failed, reset, or closed before the `done` event
    /// — the daemon may have died mid-sweep or never been reachable.
    Transport(String),
    /// The daemon answered something that is not the serve protocol.
    Protocol(String),
}

impl SubmitError {
    /// Whether retrying the whole submission can succeed: retryable
    /// refusals and any transport failure (resubmission is idempotent
    /// through the digest cache).
    pub fn is_retryable(&self) -> bool {
        match self {
            SubmitError::Refused { error, .. } => error == "overloaded" || error == "draining",
            SubmitError::Transport(_) => true,
            SubmitError::Protocol(_) => false,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Refused { error, .. } => {
                write!(f, "daemon refused the request: {error}")
            }
            SubmitError::Transport(why) | SubmitError::Protocol(why) => f.write_str(why),
        }
    }
}

/// Submits a pre-rendered request line once (no retries), streaming
/// events to `on_event`; the structured failure distinguishes refusals
/// from transport loss so callers can decide whether to retry.
pub fn submit_once(
    port: u16,
    request: &str,
    mut on_event: impl FnMut(&str),
) -> Result<SubmitOutcome, SubmitError> {
    let mut stream = connect(port).map_err(SubmitError::Transport)?;
    stream
        .write_all(request.as_bytes())
        .map_err(|e| SubmitError::Transport(format!("cannot send request: {e}")))?;
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| SubmitError::Transport(format!("lost the daemon mid-sweep: {e}")))?;
        if n == 0 {
            return Err(SubmitError::Transport(
                "daemon closed the connection before the done event".into(),
            ));
        }
        let text = line.trim_end();
        on_event(text);
        let event =
            json::parse(text).map_err(|e| SubmitError::Protocol(format!("bad event line: {e}")))?;
        if event.get("ok").map(|v| matches!(v, Value::Bool(false))) == Some(true) {
            return Err(SubmitError::Refused {
                error: event
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
                retry_after_ms: event.get("retry_after_ms").and_then(Value::as_u64),
            });
        }
        if event.get("event").and_then(Value::as_str) == Some("done") {
            let field = |key: &str| {
                event
                    .field("done event", key, Value::as_u64)
                    .map_err(SubmitError::Protocol)
            };
            return Ok(SubmitOutcome {
                points: field("points")?,
                hits: field("hits")?,
                misses: field("misses")?,
                failed: field("failed")?,
                evicted: field("evicted")?,
                archive: event
                    .field("done event", "archive", Value::as_str)
                    .map_err(SubmitError::Protocol)?
                    .to_string(),
            });
        }
    }
}

/// Submits a pre-rendered request line (see [`submit_request_line`]) and
/// streams response lines. `on_event` sees every event line (including
/// the final `done`); the parsed totals are returned. No retries — see
/// [`submit_with_retry`] for the resilient variant.
pub fn submit(
    port: u16,
    request: &str,
    on_event: impl FnMut(&str),
) -> Result<SubmitOutcome, String> {
    submit_once(port, request, on_event).map_err(|e| e.to_string())
}

/// How [`submit_with_retry`] behaves between attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = behave like [`submit`]).
    pub retries: u32,
    /// Base backoff in milliseconds; each retry doubles it (capped and
    /// jittered by [`backoff_delay_ms`]).
    pub backoff_ms: u64,
    /// Seed of the deterministic jitter.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 5,
            backoff_ms: 50,
            seed: 0x5EED,
        }
    }
}

/// Resilient submission: retries retryable failures (`overloaded` /
/// `draining` refusals and transport loss) with deterministic
/// exponential backoff and jitter, honouring the daemon's
/// `retry_after_ms` hint as a floor. Safe because resubmission is
/// idempotent: completed points are journaled by the daemon and served
/// from cache on the next attempt.
pub fn submit_with_retry(
    port: u16,
    request: &str,
    policy: RetryPolicy,
    mut on_event: impl FnMut(&str),
) -> Result<SubmitOutcome, String> {
    let mut retry = 0u32;
    loop {
        match submit_once(port, request, &mut on_event) {
            Ok(outcome) => return Ok(outcome),
            Err(e) => {
                if !e.is_retryable() || retry >= policy.retries {
                    return Err(e.to_string());
                }
                retry += 1;
                let hint = match &e {
                    SubmitError::Refused { retry_after_ms, .. } => retry_after_ms.unwrap_or(0),
                    _ => 0,
                };
                let delay = backoff_delay_ms(policy.backoff_ms.max(1), retry, policy.seed);
                std::thread::sleep(Duration::from_millis(delay.max(hint)));
            }
        }
    }
}
