//! # qlosure-trace — per-job span trees and the process event journal
//!
//! The serving tier attributes a job's wall time to stages (queue wait,
//! every mapping pass, each hierarchical fragment, plan-store tier
//! decisions) by recording **spans** into a per-job [`Tracer`]. The
//! design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** Instrumented code calls
//!    [`span`]/[`span_label`] unconditionally; when no tracing context is
//!    installed on the thread the call is one thread-local read and a
//!    branch — no allocation, no clock read, no lock.
//! 2. **Bounded.** A [`Tracer`] holds at most its configured capacity of
//!    completed spans plus the job's root; overflow increments a drop
//!    counter instead of growing. The lock is held only to push one
//!    finished span.
//! 3. **Additive.** Spans observe; they never feed back into mapping
//!    decisions, so routed output is bit-for-bit identical with tracing on.
//!
//! The [`journal`] module is the process-wide side of the same contract:
//! a bounded ring of operational events (warnings, refusals, stalls),
//! off until a daemon enables it.
//!
//! Timestamps come from one process-wide monotonic clock ([`now_ns`]),
//! shared by spans and journal events, so independent measurements of the
//! same interval (e.g. the intake `queue_seconds` sample and the
//! queue-wait span) agree bit-for-bit when derived from the same two
//! stamps.
//!
//! A context crosses threads by value: the thread that runs a job
//! installs a [`Ctx`] for it with [`set_ctx`]. Span guards nest through
//! the thread-local parent pointer: while a [`SpanGuard`] is live, new
//! spans on the same thread become its children.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod journal;

/// Span ID of the per-job root span. [`Tracer::new`] reserves it so
/// children can be recorded before the root itself is (the root's extent
/// is only known when the job finishes and is recorded retroactively via
/// [`Tracer::finish_root`]).
pub const ROOT_SPAN: u64 = 1;

/// Nanoseconds since the process-wide clock origin (the first call to
/// this function). Monotonic; shared by every tracer and the journal, so
/// spans from different threads and the events around them order
/// correctly.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    Instant::now().duration_since(origin).as_nanos() as u64
}

/// One completed span: a named `[start_ns, end_ns]` interval on the
/// process clock, positioned in its job's tree by `parent`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique (per tracer) span ID; the root is [`ROOT_SPAN`].
    pub id: u64,
    /// Parent span ID; `0` means top-of-tree (only the root has it).
    pub parent: u64,
    /// Stage label, e.g. `routing:hier-route` or `intake:queue-wait`.
    pub name: String,
    /// Start stamp from [`now_ns`].
    pub start_ns: u64,
    /// End stamp from [`now_ns`].
    pub end_ns: u64,
    /// Key/value annotations, e.g. `("plan_tier", "canonical")`.
    pub notes: Vec<(String, String)>,
}

struct Sink {
    spans: Vec<Span>,
    dropped: u64,
}

/// Spans dropped across every tracer in the process — the scrapeable
/// aggregate behind `qlosure_trace_drops_total` (per-tracer counts die
/// with their job; this one survives for the metrics exporter).
static GLOBAL_DROPS: AtomicU64 = AtomicU64::new(0);

/// Total spans dropped by full sinks, process-wide, since start.
pub fn drops_total() -> u64 {
    GLOBAL_DROPS.load(Ordering::Relaxed)
}

/// A per-job span sink. Cheap to share (`Arc`), safe to record into from
/// any thread, bounded at construction time.
pub struct Tracer {
    trace_id: u64,
    capacity: usize,
    next_id: AtomicU64,
    sink: Mutex<Sink>,
}

impl Tracer {
    /// Creates a tracer identified by `trace_id` (propagated over the
    /// wire so a router can correlate its wrapper span with the shard's
    /// tree) holding at most `capacity` completed spans plus the root.
    pub fn new(trace_id: u64, capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            trace_id,
            capacity: capacity.max(1),
            next_id: AtomicU64::new(ROOT_SPAN + 1),
            sink: Mutex::new(Sink {
                spans: Vec::new(),
                dropped: 0,
            }),
        })
    }

    /// The wire-propagated trace identity.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    fn next_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records one finished span; past capacity it is counted in
    /// [`Tracer::dropped`] (and the process-wide [`drops_total`])
    /// instead of stored. The reserved root is always stored: the spans
    /// a full sink kept only form a tree under it.
    pub fn record(&self, span: Span) {
        let mut sink = self.sink.lock().expect("trace sink poisoned");
        if sink.spans.len() < self.capacity || span.id == ROOT_SPAN {
            sink.spans.push(span);
        } else {
            sink.dropped += 1;
            GLOBAL_DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a retroactive span as a direct child of the root — used
    /// for intervals that began before any guard could exist on the
    /// worker thread (queue wait starts at admission).
    pub fn record_root_child(
        &self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        notes: Vec<(String, String)>,
    ) {
        let id = self.next_span_id();
        self.record(Span {
            id,
            parent: ROOT_SPAN,
            name: name.to_string(),
            start_ns,
            end_ns,
            notes,
        });
    }

    /// Records the reserved root span once the job's full extent is
    /// known. Call exactly once, after all children.
    pub fn finish_root(
        &self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        notes: Vec<(String, String)>,
    ) {
        self.record(Span {
            id: ROOT_SPAN,
            parent: 0,
            name: name.to_string(),
            start_ns,
            end_ns,
            notes,
        });
    }

    /// Spans silently discarded because the sink was full.
    pub fn dropped(&self) -> u64 {
        self.sink.lock().expect("trace sink poisoned").dropped
    }

    /// Snapshot of the recorded spans, ordered by start stamp (ties by
    /// span ID, which is allocation order).
    pub fn snapshot(&self) -> Vec<Span> {
        let mut spans = self.sink.lock().expect("trace sink poisoned").spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// A cloneable tracing context: which tracer (if any) the current work
/// belongs to and which span is its parent. [`Ctx::default`] is the
/// disabled context.
#[derive(Clone, Default)]
pub struct Ctx {
    slot: Option<(Arc<Tracer>, u64)>,
}

impl Ctx {
    /// A context recording into `tracer` with spans parented on `parent`
    /// (usually [`ROOT_SPAN`]).
    pub fn new(tracer: Arc<Tracer>, parent: u64) -> Ctx {
        Ctx {
            slot: Some((tracer, parent)),
        }
    }
}

thread_local! {
    static CTX: RefCell<Ctx> = RefCell::new(Ctx::default());
}

/// Installs `ctx` on the calling thread until the returned guard drops
/// (the previous context is restored). Installing [`Ctx::default`]
/// disables tracing on the thread for the guard's lifetime.
#[must_use = "dropping the guard immediately uninstalls the context"]
pub fn set_ctx(ctx: &Ctx) -> CtxGuard {
    let prev = CTX.with(|c| std::mem::replace(&mut *c.borrow_mut(), ctx.clone()));
    CtxGuard { prev: Some(prev) }
}

/// Restores the previously installed context on drop.
pub struct CtxGuard {
    prev: Option<Ctx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CTX.with(|c| *c.borrow_mut() = prev);
        }
    }
}

struct ActiveSpan {
    tracer: Arc<Tracer>,
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    notes: Vec<(String, String)>,
}

/// RAII span: opened by [`span`]/[`span_label`], recorded on drop. While
/// live, spans opened on the same thread nest beneath it. Inert (and
/// free) when the thread has no context installed.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Whether this guard will record anything — check before computing
    /// anything expensive purely for [`SpanGuard::note`].
    pub fn enabled(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches a key/value annotation; `value` is only evaluated when
    /// the span is enabled.
    pub fn note(&mut self, key: &str, value: impl FnOnce() -> String) {
        if let Some(active) = self.active.as_mut() {
            active.notes.push((key.to_string(), value()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let end_ns = now_ns();
            CTX.with(|c| {
                let mut ctx = c.borrow_mut();
                if let Some((_, parent)) = ctx.slot.as_mut() {
                    *parent = active.parent;
                }
            });
            active.tracer.record(Span {
                id: active.id,
                parent: active.parent,
                name: active.name,
                start_ns: active.start_ns,
                end_ns,
                notes: active.notes,
            });
        }
    }
}

fn span_with(make_name: impl FnOnce() -> String) -> SpanGuard {
    let slot = CTX.with(|c| c.borrow().slot.clone());
    match slot {
        None => SpanGuard { active: None },
        Some((tracer, parent)) => {
            let id = tracer.next_span_id();
            CTX.with(|c| {
                if let Some((_, p)) = c.borrow_mut().slot.as_mut() {
                    *p = id;
                }
            });
            SpanGuard {
                active: Some(ActiveSpan {
                    tracer,
                    id,
                    parent,
                    name: make_name(),
                    start_ns: now_ns(),
                    notes: Vec::new(),
                }),
            }
        }
    }
}

/// Opens a span named `name` under the thread's current context. With no
/// context installed this is one thread-local read and returns an inert
/// guard.
pub fn span(name: &str) -> SpanGuard {
    span_with(|| name.to_string())
}

/// Opens a span named `stage:name` (the `PassTiming::label` convention);
/// the label is only formatted when tracing is enabled.
pub fn span_label(stage: &str, name: &str) -> SpanGuard {
    span_with(|| format!("{stage}:{name}"))
}

#[cfg(test)]
mod tests {
    use super::journal::{dropped_total, enable_with_capacity, event, events_since, recent, Level};
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let mut guard = span("nothing");
        assert!(!guard.enabled());
        let mut evaluated = false;
        guard.note("k", || {
            evaluated = true;
            "v".to_string()
        });
        drop(guard);
        assert!(!evaluated, "notes must not be evaluated when disabled");
    }

    #[test]
    fn spans_nest_through_the_thread_local_parent() {
        let tracer = Tracer::new(7, 64);
        let ctx = Ctx::new(tracer.clone(), ROOT_SPAN);
        {
            let _g = set_ctx(&ctx);
            let outer = span("outer");
            assert!(outer.enabled());
            {
                let mut inner = span_label("stage", "inner");
                inner.note("tier", || "exact".to_string());
            }
            drop(outer);
            let sibling = span("sibling");
            drop(sibling);
        }
        tracer.finish_root("job", 0, now_ns(), Vec::new());
        let spans = tracer.snapshot();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let outer = by_name("outer");
        let inner = by_name("stage:inner");
        let sibling = by_name("sibling");
        let root = by_name("job");
        assert_eq!(root.id, ROOT_SPAN);
        assert_eq!(root.parent, 0);
        assert_eq!(outer.parent, ROOT_SPAN);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, ROOT_SPAN);
        assert_eq!(inner.notes, vec![("tier".to_string(), "exact".to_string())]);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(tracer.trace_id(), 7);
    }

    #[test]
    fn sink_is_bounded_and_counts_drops() {
        let tracer = Tracer::new(1, 3);
        let ctx = Ctx::new(tracer.clone(), ROOT_SPAN);
        let _g = set_ctx(&ctx);
        for i in 0..5 {
            drop(span(&format!("s{i}")));
        }
        assert_eq!(tracer.snapshot().len(), 3);
        assert_eq!(tracer.dropped(), 2);
    }

    #[test]
    fn context_restores_and_suppress_disables() {
        let tracer = Tracer::new(2, 8);
        let ctx = Ctx::new(tracer.clone(), ROOT_SPAN);
        let _g = set_ctx(&ctx);
        {
            let _quiet = set_ctx(&Ctx::default());
            assert!(!span("invisible").enabled());
        }
        assert!(span("visible").enabled());
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "visible");
        assert_eq!(spans[0].parent, ROOT_SPAN);
    }

    #[test]
    fn context_hops_threads() {
        let tracer = Tracer::new(3, 8);
        let ctx = Ctx::new(tracer.clone(), ROOT_SPAN);
        let captured = ctx.clone();
        std::thread::spawn(move || {
            let _g = set_ctx(&captured);
            drop(span("on-worker"));
        })
        .join()
        .unwrap();
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "on-worker");
        assert_eq!(spans[0].parent, ROOT_SPAN);
    }

    #[test]
    fn root_children_record_before_the_root() {
        let tracer = Tracer::new(4, 8);
        tracer.record_root_child(
            "intake:queue-wait",
            10,
            20,
            vec![("w".to_string(), "1".to_string())],
        );
        tracer.finish_root("job", 10, 30, Vec::new());
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, ROOT_SPAN);
        assert_eq!(spans[1].parent, ROOT_SPAN);
        assert_eq!(spans[1].name, "intake:queue-wait");
    }

    /// The journal is process-global; journal tests serialize on this
    /// and start from an empty ring so they see only their own events.
    fn with_fresh_journal(test: impl FnOnce()) {
        static GATE: Mutex<()> = Mutex::new(());
        let _gate = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        journal::reset(true);
        test();
        journal::reset(false);
    }

    #[test]
    fn disabled_journal_records_nothing() {
        with_fresh_journal(|| {
            journal::reset(false);
            let before = events_since(0, Level::Debug).1.len();
            event(Level::Error, "test", "should vanish", &[]);
            assert_eq!(events_since(0, Level::Debug).1.len(), before);
        });
    }

    #[test]
    fn events_round_trip_with_monotone_seq_and_fields() {
        with_fresh_journal(|| {
            event(Level::Info, "alpha", "first", &[("k", "v")]);
            event(Level::Warn, "beta", "second", &[]);
            let (_, events) = events_since(0, Level::Debug);
            let ours: Vec<_> = events
                .iter()
                .filter(|e| e.subsystem == "alpha" || e.subsystem == "beta")
                .collect();
            assert_eq!(ours.len(), 2);
            assert!(ours[0].seq >= 1, "seq starts at 1");
            assert!(ours[0].seq < ours[1].seq, "seq is monotone");
            assert!(ours[0].at_ns <= ours[1].at_ns);
            assert!(ours[1].at_ns <= now_ns(), "events stamp the span clock");
            assert_eq!(ours[0].fields, vec![("k".to_string(), "v".to_string())]);
            // Tailing from the first seq returns only the second.
            let (_, tail) = events_since(ours[0].seq, Level::Debug);
            assert!(tail.iter().all(|e| e.seq > ours[0].seq));
        });
    }

    #[test]
    fn min_level_filters_and_orders() {
        with_fresh_journal(|| {
            event(Level::Debug, "lvl", "d", &[]);
            event(Level::Info, "lvl", "i", &[]);
            event(Level::Warn, "lvl", "w", &[]);
            event(Level::Error, "lvl", "e", &[]);
            let (_, warnings) = events_since(0, Level::Warn);
            let msgs: Vec<&str> = warnings
                .iter()
                .filter(|e| e.subsystem == "lvl")
                .map(|e| e.message.as_str())
                .collect();
            assert_eq!(msgs, ["w", "e"]);
            assert!(Level::Debug < Level::Info && Level::Warn < Level::Error);
        });
    }

    #[test]
    fn full_ring_evicts_oldest_and_counts_drops() {
        with_fresh_journal(|| {
            enable_with_capacity(4);
            let dropped_before = dropped_total();
            for i in 0..10 {
                event(Level::Info, "ring", &format!("evt {i}"), &[]);
            }
            let (dropped, events) = events_since(0, Level::Debug);
            assert_eq!(events.len(), 4, "ring is bounded");
            assert_eq!(dropped - dropped_before, 6, "evictions are counted");
            // The *newest* events survive.
            assert_eq!(events.last().unwrap().message, "evt 9");
            assert_eq!(recent(2).len(), 2);
            assert_eq!(recent(2)[0].message, "evt 8");
        });
    }

    #[test]
    fn level_spelling_round_trips() {
        for level in [Level::Debug, Level::Info, Level::Warn, Level::Error] {
            assert_eq!(Level::parse(level.as_str()), Some(level));
            assert_eq!(format!("{level}"), level.as_str());
        }
        assert_eq!(Level::parse("fatal"), None);
    }
}
