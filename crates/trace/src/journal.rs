//! # The structured event journal
//!
//! A process-wide, bounded, in-memory journal of operational events:
//! plan-store warnings, admission rejections, connection-cap refusals,
//! idle disconnects, shard health transitions, span-sink drops. Spans
//! answer "what happened inside this one job"; the journal answers
//! "what has this process been doing lately, and is anything wrong".
//!
//! It keeps the span contract. **Inert by default:** the journal starts
//! disabled, and a disabled [`event`] call is one relaxed atomic load
//! and a branch; daemons opt in with [`enable`]. **Bounded:** a full
//! ring evicts its oldest event, strings included, and counts it in
//! [`dropped_total`]. Events carry a monotone sequence number (from 1),
//! so pollers resume with [`events_since`], and a [`crate::now_ns`]
//! stamp, the clock the spans use.
//!
//! ```
//! use trace::journal::{self, Level};
//! journal::enable();
//! journal::event(Level::Warn, "doc", "cache pressure", &[("evicted", "3")]);
//! let (dropped, events) = journal::events_since(0, Level::Debug);
//! assert_eq!(dropped, journal::dropped_total());
//! assert!(events.iter().any(|e| e.subsystem == "doc"));
//! ```

use crate::now_ns;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default journal capacity (events) when [`enable`] is called without
/// an explicit bound.
pub const JOURNAL_CAPACITY: usize = 1024;

/// Event severity, ordered `Debug < Info < Warn < Error` so a minimum
/// level is a plain comparison. The default, `Debug`, is the minimum
/// level that admits everything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Chatty diagnostics (off the default CLI view).
    #[default]
    Debug,
    /// Normal operational milestones.
    Info,
    /// Something degraded but the process keeps serving.
    Warn,
    /// Something failed outright.
    Error,
}

impl Level {
    /// The canonical lowercase spelling (the wire encoding).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses the canonical spelling back; `None` for anything else.
    pub fn parse(text: &str) -> Option<Level> {
        match text {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journal entry.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotone per-process sequence number, starting at 1.
    pub seq: u64,
    /// Timestamp on the span clock ([`crate::now_ns`]).
    pub at_ns: u64,
    /// Severity.
    pub level: Level,
    /// Which subsystem emitted it.
    pub subsystem: String,
    /// The event message.
    pub message: String,
    /// Free-form key/value payload.
    pub fields: Vec<(String, String)>,
}

/// The bounded ring behind the mutex. Sequence numbers start at 1 so
/// `after_seq == 0` means "from the beginning" and so a sharded router
/// can remap `seq * n + shard` invertibly (see the service router).
struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

/// The disabled-path gate: one relaxed load and a branch, nothing else.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            events: VecDeque::new(),
            capacity: JOURNAL_CAPACITY,
            next_seq: 1,
            dropped: 0,
        })
    })
}

/// Turns the journal on with the default capacity. Idempotent.
pub fn enable() {
    enable_with_capacity(JOURNAL_CAPACITY);
}

/// Turns the journal on with an explicit ring bound (clamped to ≥ 1).
/// Shrinking below the current backlog evicts oldest-first (counted as
/// drops, like any other eviction).
pub fn enable_with_capacity(capacity: usize) {
    let mut ring = ring().lock().expect("journal mutex");
    ring.capacity = capacity.max(1);
    while ring.events.len() > ring.capacity {
        ring.events.pop_front();
        ring.dropped += 1;
    }
    drop(ring);
    ENABLED.store(true, Ordering::Release);
}

/// Whether [`event`] currently records anything.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one event. When the journal is disabled this is one atomic
/// load and a branch; when enabled, the oldest event is evicted (and
/// counted dropped) once the ring is full.
pub fn event(level: Level, subsystem: &str, message: &str, fields: &[(&str, &str)]) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let at_ns = now_ns();
    let mut ring = ring().lock().expect("journal mutex");
    let seq = ring.next_seq;
    ring.next_seq += 1;
    if ring.events.len() >= ring.capacity {
        ring.events.pop_front();
        ring.dropped += 1;
    }
    ring.events.push_back(Event {
        seq,
        at_ns,
        level,
        subsystem: subsystem.to_string(),
        message: message.to_string(),
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    });
}

/// Events strictly after `after_seq`, at or above `min_level`, oldest
/// first, plus the total evicted-event count. `after_seq == 0` returns
/// the whole retained window — pollers feed the last seen seq back in
/// to tail the journal without duplicates.
pub fn events_since(after_seq: u64, min_level: Level) -> (u64, Vec<Event>) {
    let ring = ring().lock().expect("journal mutex");
    let events = ring
        .events
        .iter()
        .filter(|e| e.seq > after_seq && e.level >= min_level)
        .cloned()
        .collect();
    (ring.dropped, events)
}

/// The newest `n` events (any level), oldest first — the watchdog's
/// flight-record tail.
pub fn recent(n: usize) -> Vec<Event> {
    let ring = ring().lock().expect("journal mutex");
    let skip = ring.events.len().saturating_sub(n);
    ring.events.iter().skip(skip).cloned().collect()
}

/// Total events evicted from the ring since process start.
pub fn dropped_total() -> u64 {
    ring().lock().expect("journal mutex").dropped
}

/// Empties the ring, restores the default capacity and zeroes the drop
/// count, leaving the journal `enabled` or not: the crate's tests share
/// one process-global journal and start each case from a clean one.
#[cfg(test)]
pub(crate) fn reset(enabled: bool) {
    let mut ring = ring().lock().expect("journal mutex");
    ring.events.clear();
    ring.capacity = JOURNAL_CAPACITY;
    ring.dropped = 0;
    ENABLED.store(enabled, Ordering::Release);
}
