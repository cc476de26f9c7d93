//! # pl-trace — flight-recorder tracing for the PARLOOPER/TPP stack
//!
//! Always-compiled, cheap-when-disabled tracing: every layer of the
//! stack (runtime thread pool, GEMM/SpMM plans, decode phases, serving
//! batch lifecycle) records fixed-size events into per-thread
//! lock-free ring buffers, and a process-wide recorder snapshots them
//! **without stopping traffic** — the flight-recorder model: recording
//! always overwrites the oldest events, never blocks the writer, and a
//! crash or a slow batch leaves the last N events per thread ready to
//! export.
//!
//! ## Event model
//!
//! An [`Event`] is nine words: a static category name (`&'static str`,
//! e.g. `"gemm.execute"`), an edge kind, the recorder lane (a stable
//! per-thread id), a monotonic timestamp in nanoseconds since the
//! process [`epoch`](now_ns), an optional duration, and up to three
//! `u64` arguments. The argument slots carry the *identity* of the
//! work — a GEMM span's `args` are its `(m, n, k)` shape, a batch
//! span's `args[0]` is the batch size — so aggregation can key on them.
//!
//! Four kinds ([`EventKind`]):
//!
//! * `Begin`/`End` — a span's edges, recorded by the RAII [`Span`]
//!   guard from [`span`]. Spans are strictly nested per thread (guard
//!   drop order), which is exactly what Chrome `B`/`E` events require.
//! * `Complete` — a span recorded after the fact with an explicit
//!   duration ([`complete`]); used when the start
//!   happened on another thread (queue wait: submit on a client
//!   thread, measured at collect on the batcher thread).
//! * `Instant` — a point marker ([`instant`]).
//!
//! ## Recording
//!
//! The global enable flag ([`enable`]/[`disable`]) gates everything:
//! with tracing off, [`span`] is **one relaxed atomic load and an
//! untaken branch** — no timestamp, no ring access, no allocation —
//! so instrumentation stays compiled into hot paths permanently. The
//! first event a thread records registers a [`ring::Ring`] for it with
//! the process recorder (lane ids are assigned in registration order);
//! rings outlive their threads, so late snapshots still see their
//! events. Ring capacity is [`DEFAULT_RING_EVENTS`] events per thread,
//! overridable *before* a thread's first event via `PL_TRACE_EVENTS`.
//!
//! ## Exporting
//!
//! [`snapshot`] copies every ring (seqlock-validated against
//! concurrent writes, see [`ring`]) into a time-sorted `Vec<Event>`.
//! [`chrome_trace_json`] exports it as Chrome `trace_event` JSON,
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>: one row
//! per lane, spans nested as recorded. Per-shape GEMM counts are the
//! metrics plane's `pl_gemm_total{m,n,k}`, not a trace fold.
//!
//! ```
//! pl_trace::enable();
//! {
//!     let _g = pl_trace::span("gemm.execute", [256, 8, 256]);
//!     // ... kernel work ...
//! }
//! let events = pl_trace::snapshot();
//! assert!(events.iter().any(|e| e.name == "gemm.execute"));
//! let _json = pl_trace::chrome_trace_json(&events);
//! ```

pub mod chrome;
pub mod ring;

pub use chrome::chrome_trace_json;
pub use ring::{Event, EventKind, Ring};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity in events (power of two). At ~72
/// bytes per slot this is ~4.7 MiB per *recording* thread — threads
/// that never trace allocate nothing.
pub const DEFAULT_RING_EVENTS: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Registry of every thread's ring, in lane order. Locked only at
/// thread registration and snapshot — never on the record path.
static RECORDER: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

/// Lanes handed out so far (also the next lane id).
static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first use of the
/// timebase). Monotonic; shared by every lane, so cross-thread event
/// order is meaningful.
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns recording on. Cheap to leave on: the cost is one ring write
/// (~9 relaxed atomic stores) per event.
pub fn enable() {
    // Pin the epoch before the first event so early timestamps don't
    // race the OnceLock initialization from several threads.
    let _ = epoch();
    ENABLED.store(true, Ordering::Release);
}

/// Turns recording off. Spans already open still record their `End`
/// edge so traces stay balanced.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether recording is on — the one branch instrumented hot paths pay
/// when tracing is disabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn ring_capacity() -> usize {
    std::env::var("PL_TRACE_EVENTS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&c| c >= 2)
        .unwrap_or(DEFAULT_RING_EVENTS)
}

thread_local! {
    static LOCAL_RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
}

fn register_thread() -> Arc<Ring> {
    let lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed) as u32;
    let ring = Arc::new(Ring::with_capacity(ring_capacity(), lane));
    RECORDER.lock().expect("trace recorder poisoned").push(Arc::clone(&ring));
    ring
}

#[inline]
fn record(kind: EventKind, name: &'static str, ts_ns: u64, dur_ns: u64, args: [u64; 3]) {
    LOCAL_RING.with(|cell| {
        cell.get_or_init(register_thread).record(kind, name, ts_ns, dur_ns, args);
    });
}

/// RAII span guard: records `Begin` on creation (when tracing is
/// enabled) and the matching `End` on drop. Returned disarmed — a
/// no-op — when tracing is off.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct Span {
    name: &'static str,
    args: [u64; 3],
    armed: bool,
}

impl Span {
    /// Whether this guard recorded a `Begin` (tracing was enabled).
    #[cfg(test)]
    fn armed(&self) -> bool {
        self.armed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            record(EventKind::End, self.name, now_ns(), 0, self.args);
        }
    }
}

/// Opens a span: `Begin` now, `End` when the guard drops. With tracing
/// disabled this is one atomic load and an untaken branch.
#[inline]
pub fn span(name: &'static str, args: [u64; 3]) -> Span {
    if !enabled() {
        return Span { name, args, armed: false };
    }
    record(EventKind::Begin, name, now_ns(), 0, args);
    Span { name, args, armed: true }
}

/// Records a point event.
#[inline]
pub fn instant(name: &'static str, args: [u64; 3]) {
    if enabled() {
        record(EventKind::Instant, name, now_ns(), 0, args);
    }
}

/// Records a complete span `[ts_ns, ts_ns + dur_ns)` after the fact.
#[inline]
pub fn complete(name: &'static str, ts_ns: u64, dur_ns: u64, args: [u64; 3]) {
    if enabled() {
        record(EventKind::Complete, name, ts_ns, dur_ns, args);
    }
}

/// Copies every registered ring's resident events into one vector,
/// sorted by timestamp (stable, so per-lane order — and therefore
/// `Begin`/`End` nesting — survives ties). Runs concurrently with
/// recording; events mid-overwrite are skipped, never torn.
pub fn snapshot() -> Vec<Event> {
    let rings: Vec<Arc<Ring>> =
        RECORDER.lock().expect("trace recorder poisoned").iter().map(Arc::clone).collect();
    let mut events = Vec::new();
    for ring in rings {
        events.extend(ring.snapshot());
    }
    events.sort_by_key(|e| e.ts_ns);
    events
}

/// [`snapshot`] restricted to events at or after `ts_ns` — the cheap
/// way to scope a trace to "since I called [`now_ns`]" without
/// clearing rings under live writers.
pub fn snapshot_since(ts_ns: u64) -> Vec<Event> {
    let mut events = snapshot();
    events.retain(|e| e.ts_ns >= ts_ns);
    events
}

/// Registered recorder lanes (threads that have recorded ≥ 1 event).
pub fn lanes() -> usize {
    RECORDER.lock().expect("trace recorder poisoned").len()
}

/// Total events overwritten by ring wraparound, summed over lanes.
/// Exact: each ring's drop count is `recorded - capacity`.
pub fn total_dropped() -> u64 {
    RECORDER.lock().expect("trace recorder poisoned").iter().map(|r| r.dropped()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable flag and the recorder are process-global; tests that
    /// toggle or snapshot them serialize here (the test harness runs
    /// tests on concurrent threads).
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total events ever recorded, summed over lanes.
    fn total_recorded() -> u64 {
        RECORDER.lock().expect("trace recorder poisoned").iter().map(|r| r.recorded()).sum()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = global_lock();
        disable();
        let before = total_recorded();
        {
            let s = span("lib.disabled", [1, 2, 3]);
            assert!(!s.armed());
        }
        instant("lib.disabled", [0; 3]);
        complete("lib.disabled", 0, 10, [0; 3]);
        assert_eq!(total_recorded(), before);
        assert!(snapshot().iter().all(|e| e.name != "lib.disabled"));
    }

    #[test]
    fn enabled_spans_round_trip_through_snapshot() {
        let _g = global_lock();
        enable();
        let t0 = now_ns();
        {
            let _outer = span("lib.outer", [9, 0, 0]);
            let _inner = span("lib.inner", [0; 3]);
        }
        instant("lib.mark", [5, 0, 0]);
        disable();
        let events = snapshot_since(t0);
        let mine: Vec<&Event> = events.iter().filter(|e| e.name.starts_with("lib.")).collect();
        assert_eq!(mine.len(), 5, "B/E x2 + instant: {mine:?}");
        // Same lane, nested order: outer-B, inner-B, inner-E, outer-E.
        let kinds: Vec<(&str, EventKind)> = mine.iter().map(|e| (e.name, e.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                ("lib.outer", EventKind::Begin),
                ("lib.inner", EventKind::Begin),
                ("lib.inner", EventKind::End),
                ("lib.outer", EventKind::End),
                ("lib.mark", EventKind::Instant),
            ]
        );
        assert!(mine.iter().all(|e| e.lane == mine[0].lane));
    }

    #[test]
    fn threads_get_distinct_lanes_and_snapshot_merges_them() {
        let _g = global_lock();
        enable();
        let t0 = now_ns();
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = span("lib.worker", [i, 0, 0]);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let events = snapshot_since(t0);
        let lanes: std::collections::BTreeSet<u32> =
            events.iter().filter(|e| e.name == "lib.worker").map(|e| e.lane).collect();
        assert_eq!(lanes.len(), 3, "each thread records on its own lane");
        for kind in [EventKind::Begin, EventKind::End] {
            let n = events.iter().filter(|e| e.name == "lib.worker" && e.kind == kind).count();
            assert_eq!(n, 3, "one closed span per thread");
        }
    }
}
