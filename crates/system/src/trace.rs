//! Per-invocation event tracing.
//!
//! When enabled ([`SystemConfig::builder().trace(capacity)`]), the
//! simulation's observation handle hands every event of the measured
//! region to an [`InvocationTrace`], which keeps one
//! [`InvocationRecord`] per `Invocation` event — the AState it entered
//! with, the prediction, the decision, where it ran, and what it cost.
//! The trace is the ground truth behind every aggregate the reports
//! show; exporting it as CSV makes off-line analysis (spreadsheets,
//! pandas, gnuplot) trivial. Because it reads the same events as the
//! Chrome trace and the cycle profile, the three cannot disagree.
//!
//! The records live in a [`BoundedRing`]: the newest `capacity` win
//! and the number of evicted records is reported, so tracing never
//! changes a run's memory footprint unpredictably.
//!
//! [`SystemConfig::builder().trace(capacity)`]: crate::config::SystemConfigBuilder::trace

use core::fmt;
use osoffload_obs::{csv, BoundedRing, Event, EventKind, Track};
use osoffload_workload::SyscallId;
use std::collections::BTreeMap;

/// One privileged invocation, as the simulator executed it.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationRecord {
    /// Software thread that trapped.
    pub thread: usize,
    /// Entry point.
    pub syscall: SyscallId,
    /// AState hash at entry.
    pub astate: u64,
    /// Predicted run length, if the policy made a prediction.
    pub predicted: Option<u64>,
    /// Whether the invocation was off-loaded (or throttled, in
    /// resource-adaptation mode).
    pub offloaded: bool,
    /// Actual run length in instructions.
    pub actual_len: u64,
    /// Thread-local cycle at which the invocation entered.
    pub entry_cycle: u64,
    /// Cycles spent waiting for the OS core (0 when local).
    pub queue_delay: u64,
    /// Cycles from entry to return, including migration and queueing.
    pub total_cycles: u64,
}

impl InvocationRecord {
    /// The CSV header matching [`to_csv_row`](Self::to_csv_row).
    pub const CSV_HEADER: &'static str =
        "thread,syscall,astate,predicted,offloaded,actual_len,entry_cycle,queue_delay,total_cycles";

    /// Renders the record as one CSV row (no trailing newline). String
    /// fields are escaped per RFC 4180, so entry-point names containing
    /// commas or quotes stay one field.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{:#x},{},{},{},{},{},{}",
            self.thread,
            csv::field(&self.syscall.to_string()),
            self.astate,
            self.predicted.map_or(String::new(), |p| p.to_string()),
            self.offloaded,
            self.actual_len,
            self.entry_cycle,
            self.queue_delay,
            self.total_cycles
        )
    }

    /// Reconstructs a record from a telemetry [`Event`], when the event
    /// is an invocation span on a thread track with a known trap number.
    pub fn from_event(ev: &Event) -> Option<InvocationRecord> {
        let Track::Thread(thread) = ev.track else {
            return None;
        };
        let EventKind::Invocation {
            trap,
            astate,
            predicted,
            offloaded,
            actual_len,
            queue_delay,
            ..
        } = ev.kind
        else {
            return None;
        };
        Some(InvocationRecord {
            thread,
            syscall: SyscallId::from_trap(trap)?,
            astate,
            predicted,
            offloaded,
            actual_len,
            entry_cycle: ev.ts,
            queue_delay,
            total_cycles: ev.dur,
        })
    }
}

/// Aggregated view of one entry point within a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SyscallSummary {
    /// Entry point.
    pub syscall: SyscallId,
    /// Invocations recorded.
    pub count: u64,
    /// How many were off-loaded.
    pub offloaded: u64,
    /// Mean actual run length (instructions).
    pub mean_len: f64,
    /// Mean absolute prediction error (instructions), over predicted
    /// invocations.
    pub mean_abs_error: f64,
    /// Mean end-to-end cycles per invocation.
    pub mean_cycles: f64,
}

/// Bounded ring buffer of invocation records.
///
/// # Examples
///
/// ```
/// use osoffload_system::trace::{InvocationRecord, InvocationTrace};
/// use osoffload_workload::SyscallId;
///
/// let mut trace = InvocationTrace::new(2);
/// for i in 0..3 {
///     trace.record(InvocationRecord {
///         thread: 0,
///         syscall: SyscallId::Read,
///         astate: i,
///         predicted: Some(100),
///         offloaded: false,
///         actual_len: 100,
///         entry_cycle: i * 10,
///         queue_delay: 0,
///         total_cycles: 100,
///     });
/// }
/// assert_eq!(trace.len(), 2);     // ring keeps the newest two
/// assert_eq!(trace.dropped(), 1); // and counts what it evicted
/// ```
#[derive(Debug, Clone, Default)]
pub struct InvocationTrace {
    ring: BoundedRing<InvocationRecord>,
}

impl InvocationTrace {
    /// Creates a trace retaining at most `capacity` records (0 disables
    /// recording entirely).
    pub fn new(capacity: usize) -> Self {
        InvocationTrace {
            ring: BoundedRing::new(capacity),
        }
    }

    /// Whether recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.ring.capacity() > 0
    }

    /// Appends a record, evicting the oldest when full.
    pub fn record(&mut self, r: InvocationRecord) {
        if self.is_enabled() {
            self.ring.push(r);
        }
    }

    /// Records the invocation described by a telemetry event, ignoring
    /// every other event kind — this makes the trace a consumer of the
    /// unified event stream rather than a parallel recording path.
    pub fn consume(&mut self, ev: &Event) {
        if let Some(r) = InvocationRecord::from_event(ev) {
            self.record(r);
        }
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Iterates over the retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &InvocationRecord> {
        self.ring.iter()
    }

    /// Renders the whole trace as CSV (header + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 * (self.ring.len() + 1));
        out.push_str(InvocationRecord::CSV_HEADER);
        out.push('\n');
        for r in self.ring.iter() {
            out.push_str(&r.to_csv_row());
            out.push('\n');
        }
        out
    }

    /// Per-entry-point aggregation, sorted by invocation count
    /// (descending).
    pub fn summarize(&self) -> Vec<SyscallSummary> {
        #[derive(Default)]
        struct Acc {
            count: u64,
            offloaded: u64,
            len_sum: f64,
            err_sum: f64,
            err_n: u64,
            cyc_sum: f64,
        }
        let mut by_syscall: BTreeMap<SyscallId, Acc> = BTreeMap::new();
        for r in self.ring.iter() {
            let a = by_syscall.entry(r.syscall).or_default();
            a.count += 1;
            a.offloaded += u64::from(r.offloaded);
            a.len_sum += r.actual_len as f64;
            a.cyc_sum += r.total_cycles as f64;
            if let Some(p) = r.predicted {
                a.err_sum += (p as f64 - r.actual_len as f64).abs();
                a.err_n += 1;
            }
        }
        let mut rows: Vec<SyscallSummary> = by_syscall
            .into_iter()
            .map(|(syscall, a)| SyscallSummary {
                syscall,
                count: a.count,
                offloaded: a.offloaded,
                mean_len: a.len_sum / a.count as f64,
                mean_abs_error: if a.err_n == 0 {
                    0.0
                } else {
                    a.err_sum / a.err_n as f64
                },
                mean_cycles: a.cyc_sum / a.count as f64,
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.count));
        rows
    }
}

impl fmt::Display for InvocationTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records retained ({} dropped, capacity {})",
            self.ring.len(),
            self.ring.dropped(),
            self.ring.capacity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        syscall: SyscallId,
        len: u64,
        predicted: Option<u64>,
        offloaded: bool,
    ) -> InvocationRecord {
        InvocationRecord {
            thread: 0,
            syscall,
            astate: 0xABC,
            predicted,
            offloaded,
            actual_len: len,
            entry_cycle: 1_000,
            queue_delay: 7,
            total_cycles: len * 2,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = InvocationTrace::new(0);
        t.record(rec(SyscallId::Read, 100, None, false));
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_keeps_newest() {
        let mut t = InvocationTrace::new(3);
        for i in 0..5u64 {
            let mut r = rec(SyscallId::Read, 100 + i, None, false);
            r.astate = i;
            t.record(r);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let astates: Vec<u64> = t.iter().map(|r| r.astate).collect();
        assert_eq!(astates, vec![2, 3, 4]);
    }

    #[test]
    fn csv_round_shape() {
        let mut t = InvocationTrace::new(4);
        t.record(rec(SyscallId::Read, 2_000, Some(1_950), true));
        t.record(rec(SyscallId::GetPid, 130, None, false));
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], InvocationRecord::CSV_HEADER);
        assert!(lines[1].contains("read"));
        assert!(lines[1].contains("1950"));
        assert!(lines[2].contains("getpid"));
        // A missing prediction serialises as an empty field.
        assert!(lines[2].contains(",,"));
        // Every row has the same number of commas as the header.
        let commas = |s: &str| s.matches(',').count();
        assert!(lines.iter().all(|l| commas(l) == commas(lines[0])));
    }

    #[test]
    fn summary_aggregates_per_syscall() {
        let mut t = InvocationTrace::new(16);
        t.record(rec(SyscallId::Read, 1_000, Some(900), true));
        t.record(rec(SyscallId::Read, 2_000, Some(2_100), true));
        t.record(rec(SyscallId::GetPid, 130, Some(130), false));
        let rows = t.summarize();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].syscall, SyscallId::Read, "sorted by count");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].offloaded, 2);
        assert!((rows[0].mean_len - 1_500.0).abs() < 1e-9);
        assert!((rows[0].mean_abs_error - 100.0).abs() < 1e-9);
        assert_eq!(rows[1].count, 1);
        assert_eq!(rows[1].offloaded, 0);
        assert_eq!(rows[1].mean_abs_error, 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!InvocationTrace::new(4).to_string().is_empty());
    }

    #[test]
    fn csv_round_trips_through_rfc4180_parser() {
        let mut t = InvocationTrace::new(8);
        t.record(rec(SyscallId::Read, 2_000, Some(1_950), true));
        t.record(rec(SyscallId::GetPid, 130, None, false));
        let parsed = csv::parse(&t.to_csv());
        assert_eq!(parsed.len(), 3);
        assert_eq!(
            parsed[0].join(","),
            InvocationRecord::CSV_HEADER,
            "header fields are plain"
        );
        for (row, r) in parsed[1..].iter().zip(t.iter()) {
            assert_eq!(row.len(), 9);
            assert_eq!(row[0], r.thread.to_string());
            assert_eq!(row[1], r.syscall.to_string());
            assert_eq!(row[2], format!("{:#x}", r.astate));
            assert_eq!(row[3], r.predicted.map_or(String::new(), |p| p.to_string()));
            assert_eq!(row[4], r.offloaded.to_string());
            assert_eq!(row[5], r.actual_len.to_string());
            assert_eq!(row[8], r.total_cycles.to_string());
        }
        // Escaping keeps a hostile name a single field.
        let hostile = csv::field("open,\"really\"");
        let row = csv::parse(&format!("0,{hostile},1\n"));
        assert_eq!(row[0], vec!["0", "open,\"really\"", "1"]);
    }

    #[test]
    fn eviction_accounting_exact_at_small_capacities() {
        // Capacity 0: disabled — nothing retained, nothing evicted.
        let mut t0 = InvocationTrace::new(0);
        for i in 0..10u64 {
            let mut r = rec(SyscallId::Read, 100, None, false);
            r.astate = i;
            t0.record(r);
        }
        assert_eq!((t0.len(), t0.dropped()), (0, 0));

        // Capacity 1: exactly the newest survives; the rest are counted.
        let mut t1 = InvocationTrace::new(1);
        for i in 0..10u64 {
            let mut r = rec(SyscallId::Read, 100, None, false);
            r.astate = i;
            t1.record(r);
        }
        assert_eq!((t1.len(), t1.dropped()), (1, 9));
        assert_eq!(t1.iter().next().unwrap().astate, 9);

        // Capacity < n: retained + dropped always equals records offered.
        let mut t4 = InvocationTrace::new(4);
        for i in 0..10u64 {
            let mut r = rec(SyscallId::Read, 100, None, false);
            r.astate = i;
            t4.record(r);
            assert_eq!(t4.len() as u64 + t4.dropped(), i + 1);
        }
        assert_eq!((t4.len(), t4.dropped()), (4, 6));
        let astates: Vec<u64> = t4.iter().map(|r| r.astate).collect();
        assert_eq!(astates, vec![6, 7, 8, 9]);
    }

    #[test]
    fn consume_accepts_only_invocation_events() {
        let inv = Event {
            ts: 500,
            dur: 80,
            track: Track::Thread(2),
            kind: EventKind::Invocation {
                name: "read",
                trap: SyscallId::Read.trap_number(),
                astate: 0x42,
                predicted: Some(64),
                offloaded: true,
                actual_len: 70,
                queue_delay: 5,
                decision: 4,
                cold_penalty: 0,
                placement: osoffload_obs::Placement::OsCore,
            },
        };
        let mut t = InvocationTrace::new(4);
        t.consume(&inv);
        t.consume(&Event {
            ts: 600,
            dur: 0,
            track: Track::Control,
            kind: EventKind::Epoch {
                index: 0,
                l2_hit_rate: 0.9,
            },
        });
        let mut unknown = inv.clone();
        if let EventKind::Invocation { trap, .. } = &mut unknown.kind {
            *trap = 0xDEAD_BEEF;
        }
        t.consume(&unknown);
        assert_eq!(t.len(), 1, "only the known invocation lands");
        let r = t.iter().next().unwrap();
        assert_eq!(r.thread, 2);
        assert_eq!(r.syscall, SyscallId::Read);
        assert_eq!(r.entry_cycle, 500);
        assert_eq!(r.total_cycles, 80);
        assert_eq!(r.queue_delay, 5);

        let mut off = InvocationTrace::new(0);
        off.consume(&inv);
        assert!(off.is_empty(), "disabled trace consumes nothing");
    }
}
