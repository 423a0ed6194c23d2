//! Exporters: Chrome trace-event JSON, metrics CSV/JSON, file layout.
//!
//! [`RunTelemetry`] is the take-away bundle a run hands back: the
//! retained events, the sampled metric table, and the counters needed
//! to judge coverage (seen vs. dropped). Its Chrome-trace rendering
//! follows the trace-event format's JSON-object form
//! (`{"traceEvents":[...]}`) and loads directly into Perfetto or
//! `chrome://tracing`; one simulated cycle is rendered as one
//! microsecond because the format's timestamps are µs.

use crate::event::{Event, EventKind, Track};
use crate::json::quote;
use crate::metrics::MetricsRegistry;
use crate::telemetry::TelemetryMode;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

fn kind_args(kind: &EventKind) -> String {
    match kind {
        EventKind::Invocation {
            trap,
            astate,
            predicted,
            offloaded,
            actual_len,
            queue_delay,
            ..
        } => {
            let pred = match predicted {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            format!(
                "{{\"trap\":{trap},\"astate\":{astate},\"predicted\":{pred},\
                 \"offloaded\":{offloaded},\"actual_len\":{actual_len},\
                 \"queue_delay\":{queue_delay}}}"
            )
        }
        EventKind::UserBurst { len } => format!("{{\"len\":{len}}}"),
        EventKind::Migration { outbound } => format!("{{\"outbound\":{outbound}}}"),
        EventKind::QueueWait => "{}".to_string(),
        EventKind::OsService { len, .. } => format!("{{\"len\":{len}}}"),
        EventKind::Epoch { index, l2_hit_rate } => {
            format!("{{\"index\":{index},\"l2_hit_rate\":{l2_hit_rate:.6}}}")
        }
        EventKind::TunerDecision {
            threshold,
            epoch_len,
            adopted,
        } => {
            format!("{{\"threshold\":{threshold},\"epoch_len\":{epoch_len},\"adopted\":{adopted}}}")
        }
        EventKind::Task { ok, .. } => format!("{{\"ok\":{ok}}}"),
        EventKind::Retry { attempt } => format!("{{\"attempt\":{attempt}}}"),
        EventKind::Timeout { deadline_ms } => format!("{{\"deadline_ms\":{deadline_ms}}}"),
        EventKind::Fault { injected } => format!("{{\"injected\":{injected}}}"),
    }
}

/// Renders events (and optionally metric counter series) as Chrome
/// trace-event JSON. `meta` pairs land in `otherData`.
pub fn chrome_trace(
    events: &[Event],
    metrics: Option<&MetricsRegistry>,
    meta: &[(String, String)],
) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, item: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&item);
    };

    // Thread-name metadata for every distinct track, stable order.
    let mut tracks: Vec<Track> = events.iter().map(|e| e.track).collect();
    tracks.sort();
    tracks.dedup();
    for track in &tracks {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
                 \"args\":{{\"name\":{}}}}}",
                track.tid(),
                quote(&track.label())
            ),
        );
    }

    for ev in events {
        let name = quote(ev.kind.name());
        let cat = ev.kind.category();
        let tid = ev.track.tid();
        let args = kind_args(&ev.kind);
        let item = if ev.kind.is_instant() {
            format!(
                "{{\"name\":{name},\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"g\",\
                 \"ts\":{},\"pid\":0,\"tid\":{tid},\"args\":{args}}}",
                ev.ts
            )
        } else {
            format!(
                "{{\"name\":{name},\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\
                 \"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{args}}}",
                ev.ts, ev.dur
            )
        };
        push(&mut out, &mut first, item);
    }

    if let Some(reg) = metrics {
        for row in reg.samples() {
            for (i, (name, _)) in reg.metrics().iter().enumerate() {
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":{},\"ph\":\"C\",\"ts\":{},\"pid\":0,\
                         \"args\":{{{}:{}}}}}",
                        quote(name),
                        row.cycles,
                        quote(name),
                        row.values[i]
                    ),
                );
            }
        }
    }

    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", quote(k), quote(v));
    }
    out.push_str("}}");
    out
}

/// Everything a telemetry-enabled run hands back for export.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Retained events (newest `capacity`, oldest first).
    pub events: Vec<Event>,
    /// Events that reached the sink, including evicted ones.
    pub events_seen: u64,
    /// Events evicted from the ring.
    pub events_dropped: u64,
    /// Epoch-sampled metric table.
    pub metrics: MetricsRegistry,
    /// The mode the run recorded under.
    pub mode: TelemetryMode,
}

impl RunTelemetry {
    /// Chrome trace-event JSON for the run (Perfetto-loadable).
    pub fn chrome_trace(&self) -> String {
        let meta = vec![
            ("mode".to_string(), self.mode.label().to_string()),
            ("events_seen".to_string(), self.events_seen.to_string()),
            (
                "events_dropped".to_string(),
                self.events_dropped.to_string(),
            ),
        ];
        chrome_trace(&self.events, Some(&self.metrics), &meta)
    }

    /// The metric table as CSV.
    pub fn metrics_csv(&self) -> String {
        self.metrics.to_csv()
    }

    /// The metric table as stable-key JSON.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }

    /// Writes `<base>.trace.json`, `<base>.metrics.csv`, and
    /// `<base>.metrics.json` under `dir`, returning the paths written.
    pub fn write_files(&self, dir: &Path, base: &str) -> io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        for (suffix, body) in [
            ("trace.json", self.chrome_trace()),
            ("metrics.csv", self.metrics_csv()),
            ("metrics.json", self.metrics_json()),
        ] {
            let path = dir.join(format!("{base}.{suffix}"));
            crate::fsio::atomic_write(&path, body.as_bytes())?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                ts: 10,
                dur: 40,
                track: Track::Thread(0),
                kind: EventKind::Invocation {
                    name: "read",
                    trap: 0x100,
                    astate: 7,
                    predicted: None,
                    offloaded: false,
                    actual_len: 40,
                    queue_delay: 0,
                },
            },
            Event {
                ts: 60,
                dur: 0,
                track: Track::Control,
                kind: EventKind::Epoch {
                    index: 0,
                    l2_hit_rate: 0.75,
                },
            },
        ]
    }

    #[test]
    fn chrome_trace_has_spans_instants_and_metadata() {
        let trace = chrome_trace(&sample_events(), None, &[("run".into(), "t".into())]);
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"thread_name\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"i\",\"s\":\"g\""));
        assert!(trace.contains("\"otherData\":{\"run\":\"t\"}"));
    }

    #[test]
    fn chrome_trace_renders_metric_counters() {
        let mut reg = MetricsRegistry::new();
        let id = reg.register_counter("offloads");
        reg.set(id, 4.0);
        reg.commit_sample(0, 100, 250);
        let trace = chrome_trace(&[], Some(&reg), &[]);
        assert!(trace.contains("\"ph\":\"C\",\"ts\":250"));
        assert!(trace.contains("\"offloads\":4"));
    }

    #[test]
    fn run_telemetry_writes_three_files() {
        let dir = std::env::temp_dir().join("osoffload_obs_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        let rt = RunTelemetry {
            events: sample_events(),
            events_seen: 2,
            events_dropped: 0,
            metrics: MetricsRegistry::new(),
            mode: TelemetryMode::Full,
        };
        let written = rt.write_files(&dir, "unit").expect("write");
        assert_eq!(written.len(), 3);
        for path in &written {
            assert!(path.exists());
        }
        let trace = std::fs::read_to_string(&written[0]).expect("read");
        assert!(trace.contains("\"events_seen\":\"2\"") || trace.contains("events_seen"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
