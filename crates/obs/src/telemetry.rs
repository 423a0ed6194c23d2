//! The recording handle and its sinks.
//!
//! [`Telemetry`] is the object the simulator holds in its hot path. Its
//! contract is *zero overhead when disabled*: [`emit_with`] takes a
//! closure, so when no sink is installed the event is never even
//! constructed — the whole call is one branch on an `Option`
//! discriminant (the [`Telemetry`] doctest's `unreachable!` closure
//! must never run).
//!
//! The one sink is a bounded in-memory **ring** that retains the newest
//! events and counts evictions, so full tracing never grows memory
//! unpredictably.
//!
//! [`emit_with`]: Telemetry::emit_with

use crate::event::Event;
use std::collections::VecDeque;

/// How much a run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// No sink: `emit_with` is a single never-taken branch.
    #[default]
    Off,
    /// Events are retained in a bounded ring for export.
    Full,
}

impl TelemetryMode {
    /// The mode's canonical name.
    pub fn label(&self) -> &'static str {
        match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Full => "full",
        }
    }
}

/// Bounded ring buffer of events: the newest `capacity` win.
#[derive(Debug, Clone, Default)]
pub struct EventBuffer {
    ring: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl EventBuffer {
    /// Creates a buffer retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventBuffer {
            ring: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, ev: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted (or refused at capacity 0).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Consumes the buffer into a vector, oldest first.
    pub fn into_vec(self) -> Vec<Event> {
        self.ring.into()
    }
}

#[derive(Debug, Clone)]
struct Sink {
    store: EventBuffer,
    seen: u64,
}

/// The zero-overhead-when-disabled recording handle.
///
/// # Examples
///
/// ```
/// use osoffload_obs::{Event, EventKind, Telemetry, Track};
///
/// let mut t = Telemetry::buffered(16);
/// t.emit_with(|| Event {
///     ts: 100,
///     dur: 0,
///     track: Track::Control,
///     kind: EventKind::Epoch { index: 0, l2_hit_rate: 0.9 },
/// });
/// assert_eq!(t.seen(), 1);
/// assert_eq!(t.events().count(), 1);
///
/// let mut off = Telemetry::off();
/// off.emit_with(|| unreachable!("closure must not run when disabled"));
/// assert_eq!(off.seen(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    sink: Option<Sink>,
}

impl Telemetry {
    /// A disabled handle (the hot path sees one branch, nothing else).
    pub fn off() -> Self {
        Telemetry { sink: None }
    }

    /// A recording handle retaining the newest `capacity` events.
    pub fn buffered(capacity: usize) -> Self {
        Telemetry {
            sink: Some(Sink {
                store: EventBuffer::new(capacity),
                seen: 0,
            }),
        }
    }

    /// Builds the handle for a mode (`capacity` applies to `Full`).
    pub fn from_mode(mode: TelemetryMode, capacity: usize) -> Self {
        match mode {
            TelemetryMode::Off => Telemetry::off(),
            TelemetryMode::Full => Telemetry::buffered(capacity),
        }
    }

    /// The mode this handle implements.
    pub fn mode(&self) -> TelemetryMode {
        match self.sink {
            None => TelemetryMode::Off,
            Some(_) => TelemetryMode::Full,
        }
    }

    /// Whether any sink is installed (event construction is worthwhile).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event produced by `f` — or, when disabled, does
    /// nothing without ever calling `f`.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> Event) {
        if let Some(sink) = self.sink.as_mut() {
            sink.seen += 1;
            sink.store.push(f());
        }
    }

    /// Events that reached the sink (including evicted ones).
    pub fn seen(&self) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.seen)
    }

    /// Events evicted from the ring (0 for an off handle).
    pub fn dropped(&self) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.store.dropped())
    }

    /// Iterates over retained events, oldest first (empty when off).
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.sink.iter().flat_map(|s| s.store.iter())
    }

    /// Drains the retained events, leaving the handle recording afresh
    /// with the same mode and capacity.
    pub fn take_events(&mut self) -> Vec<Event> {
        match self.sink.as_mut() {
            Some(sink) => {
                let capacity = sink.store.capacity;
                std::mem::replace(&mut sink.store, EventBuffer::new(capacity)).into_vec()
            }
            None => Vec::new(),
        }
    }

    /// Clears counts and retained events, keeping mode and capacity —
    /// used at the warm-up/measurement boundary.
    pub fn reset(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            sink.seen = 0;
            sink.store = EventBuffer::new(sink.store.capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Track};

    fn ev(ts: u64) -> Event {
        Event {
            ts,
            dur: 1,
            track: Track::Thread(0),
            kind: EventKind::UserBurst { len: 10 },
        }
    }

    #[test]
    fn off_never_calls_the_closure() {
        let mut t = Telemetry::off();
        assert!(!t.is_enabled());
        assert_eq!(t.mode(), TelemetryMode::Off);
        t.emit_with(|| panic!("must not construct"));
        assert_eq!(t.seen(), 0);
        assert_eq!(t.events().count(), 0);
    }

    #[test]
    fn ring_retains_newest_and_counts_evictions() {
        let mut t = Telemetry::buffered(3);
        assert_eq!(t.mode(), TelemetryMode::Full);
        for i in 0..5 {
            t.emit_with(|| ev(i));
        }
        assert_eq!(t.seen(), 5);
        assert_eq!(t.dropped(), 2);
        let ts: Vec<u64> = t.events().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        let drained = t.take_events();
        assert_eq!(drained.len(), 3);
        assert_eq!(t.events().count(), 0);
        // The handle keeps recording after a drain.
        t.emit_with(|| ev(9));
        assert_eq!(t.events().count(), 1);
    }

    #[test]
    fn zero_capacity_buffer_drops_everything() {
        let mut b = EventBuffer::new(0);
        b.push(ev(1));
        assert!(b.is_empty());
        assert_eq!(b.dropped(), 1);
    }

    #[test]
    fn reset_clears_counts_and_events() {
        let mut t = Telemetry::buffered(4);
        t.emit_with(|| ev(1));
        t.reset();
        assert_eq!(t.seen(), 0);
        assert_eq!(t.events().count(), 0);
        assert_eq!(t.mode(), TelemetryMode::Full);
    }
}
