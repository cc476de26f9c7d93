//! The per-thread event ring: a fixed-capacity, single-writer,
//! multi-reader seqlock buffer.
//!
//! Each slot is a bank of plain `AtomicU64` words guarded by a per-slot
//! sequence number. The owning thread is the only writer; snapshots from
//! any other thread read the slots *while writes continue* and use the
//! sequence protocol to discard events that were mid-overwrite:
//!
//! * writer, for ring position `p` (slot `p & mask`): store
//!   `seq = 2p + 1` (odd: write in progress), fence, store the event
//!   words, store `seq = 2p + 2` (even: position `p` committed, Release),
//!   then publish `head = p + 1` (Release).
//! * reader, for position `p`: load `seq`; accept the slot only if it
//!   reads exactly `2p + 2` both before and after copying the words
//!   (an odd value or a different generation means the writer lapped us).
//!
//! Torn reads are therefore *detected and discarded*, never surfaced —
//! every word is an atomic, so the race is defined behavior. The ring
//! never blocks the writer: when full it overwrites the oldest position,
//! and the exact count of overwritten (dropped) events is
//! `head - capacity` by construction.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// What a recorded event marks. Encoded in one word in the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opening edge (Chrome `ph: "B"`).
    Begin,
    /// Span closing edge (Chrome `ph: "E"`).
    End,
    /// A point event with no duration (Chrome `ph: "i"`).
    Instant,
    /// A complete span recorded after the fact with an explicit
    /// duration (Chrome `ph: "X"`) — used for latencies whose start
    /// happened on another thread (e.g. queue wait).
    Complete,
}

impl EventKind {
    fn encode(self) -> u64 {
        match self {
            EventKind::Begin => 0,
            EventKind::End => 1,
            EventKind::Instant => 2,
            EventKind::Complete => 3,
        }
    }

    fn decode(w: u64) -> Option<EventKind> {
        match w {
            0 => Some(EventKind::Begin),
            1 => Some(EventKind::End),
            2 => Some(EventKind::Instant),
            3 => Some(EventKind::Complete),
            _ => None,
        }
    }
}

/// One decoded trace event, as returned by snapshots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Static category name (`"gemm.execute"`, `"batch.execute"`, ...).
    pub name: &'static str,
    /// Edge/point kind.
    pub kind: EventKind,
    /// Recorder lane (stable per-thread id) the event was written on.
    pub lane: u32,
    /// Nanoseconds since the process trace epoch ([`crate::now_ns`]).
    pub ts_ns: u64,
    /// Duration for [`EventKind::Complete`]; 0 otherwise.
    pub dur_ns: u64,
    /// Up to three numeric arguments (e.g. a GEMM's `(m, n, k)`).
    pub args: [u64; 3],
}

/// Slot word layout: seq, name ptr, name len, kind, ts, dur, a0, a1, a2.
const WORDS: usize = 9;

struct Slot {
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot { words: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

/// A single-writer event ring. One per recording thread; readers
/// snapshot concurrently via the seqlock protocol described in the
/// module docs.
pub struct Ring {
    slots: Box<[Slot]>,
    mask: u64,
    /// Next ring position to write; `min(head, capacity)` events are
    /// resident, `head - capacity` (if positive) were overwritten.
    head: AtomicU64,
    lane: u32,
}

impl Ring {
    /// `capacity` is rounded up to a power of two (minimum 2).
    pub fn with_capacity(capacity: usize, lane: u32) -> Ring {
        let cap = capacity.next_power_of_two().max(2);
        Ring {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            lane,
        }
    }

    /// Number of event slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded into this ring.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Exact count of events overwritten by wraparound (oldest first).
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// Record one event. Must only be called by the ring's owning
    /// thread (single-writer invariant); never blocks, never allocates.
    pub fn record(
        &self,
        kind: EventKind,
        name: &'static str,
        ts_ns: u64,
        dur_ns: u64,
        args: [u64; 3],
    ) {
        let p = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(p & self.mask) as usize];
        // Odd seq: readers of this generation (and of the lapped one)
        // reject the slot while the words below are in flux.
        slot.words[0].store(2 * p + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.words[1].store(name.as_ptr() as u64, Ordering::Relaxed);
        slot.words[2].store(name.len() as u64, Ordering::Relaxed);
        slot.words[3].store(kind.encode(), Ordering::Relaxed);
        slot.words[4].store(ts_ns, Ordering::Relaxed);
        slot.words[5].store(dur_ns, Ordering::Relaxed);
        slot.words[6].store(args[0], Ordering::Relaxed);
        slot.words[7].store(args[1], Ordering::Relaxed);
        slot.words[8].store(args[2], Ordering::Relaxed);
        // Even seq commits position p; Release orders the words above
        // before it for any Acquire reader.
        slot.words[0].store(2 * p + 2, Ordering::Release);
        self.head.store(p + 1, Ordering::Release);
    }

    /// Copy out the resident events, oldest first, skipping any slot the
    /// writer lapped or was rewriting mid-read. Safe to call from any
    /// thread while the owner keeps recording.
    pub fn snapshot(&self) -> Vec<Event> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.capacity() as u64;
        let first = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - first) as usize);
        for p in first..head {
            let slot = &self.slots[(p & self.mask) as usize];
            let want = 2 * p + 2;
            if slot.words[0].load(Ordering::Acquire) != want {
                continue;
            }
            let w: [u64; WORDS] = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.words[0].load(Ordering::Acquire) != want {
                continue; // overwritten while copying — discard
            }
            let Some(kind) = EventKind::decode(w[3]) else { continue };
            // The seq check proved the ptr/len pair is the consistent
            // snapshot of some `&'static str` stored by `record`, so the
            // reconstruction below reads bytes that live for the whole
            // program.
            let name: &'static str = unsafe {
                std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                    w[1] as usize as *const u8,
                    w[2] as usize,
                ))
            };
            out.push(Event {
                name,
                kind,
                lane: self.lane,
                ts_ns: w[4],
                dur_ns: w[5],
                args: [w[6], w[7], w[8]],
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let r = Ring::with_capacity(8, 3);
        for i in 0..5u64 {
            r.record(EventKind::Begin, "t", i * 10, 0, [i, 0, 0]);
        }
        let ev = r.snapshot();
        assert_eq!(ev.len(), 5);
        assert_eq!(r.dropped(), 0);
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e.name, "t");
            assert_eq!(e.lane, 3);
            assert_eq!(e.ts_ns, i as u64 * 10);
            assert_eq!(e.args[0], i as u64);
        }
    }

    #[test]
    fn wraparound_drops_oldest_with_exact_counter() {
        let r = Ring::with_capacity(8, 0);
        assert_eq!(r.capacity(), 8);
        for i in 0..13u64 {
            r.record(EventKind::Instant, "w", i, 0, [i, 0, 0]);
        }
        assert_eq!(r.recorded(), 13);
        assert_eq!(r.dropped(), 5, "13 recorded into 8 slots drops exactly 5");
        let ev = r.snapshot();
        assert_eq!(ev.len(), 8);
        // The survivors are the newest 8, oldest first.
        let args: Vec<u64> = ev.iter().map(|e| e.args[0]).collect();
        assert_eq!(args, (5..13).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(Ring::with_capacity(5, 0).capacity(), 8);
        assert_eq!(Ring::with_capacity(0, 0).capacity(), 2);
        assert_eq!(Ring::with_capacity(16, 0).capacity(), 16);
    }

    #[test]
    fn snapshot_under_concurrent_writes_returns_only_consistent_events() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let r = Arc::new(Ring::with_capacity(64, 1));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let r = Arc::clone(&r);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // ts and args move in lockstep so a torn event that
                    // somehow slipped through would be detectable.
                    r.record(EventKind::Instant, "c", i, i.wrapping_mul(3), [i, 2 * i, 0]);
                    i += 1;
                }
                i
            })
        };
        let mut seen = 0usize;
        // At least 200 snapshots, and never stop before the writer thread
        // has actually started writing (on a slow host 200 snapshots of
        // an empty ring finish before the spawn does).
        let mut rounds = 0usize;
        while rounds < 200 || seen == 0 {
            rounds += 1;
            let ev = r.snapshot();
            seen += ev.len();
            let mut last = None;
            for e in &ev {
                assert_eq!(e.name, "c");
                assert_eq!(e.dur_ns, e.ts_ns.wrapping_mul(3), "torn event surfaced");
                assert_eq!(e.args, [e.ts_ns, 2 * e.ts_ns, 0]);
                if let Some(prev) = last {
                    assert!(e.ts_ns > prev, "snapshot order must be oldest-first");
                }
                last = Some(e.ts_ns);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let written = writer.join().unwrap();
        assert!(written > 0);
        assert!(seen > 0, "snapshots under write must surface events");
        // Quiesced ring: everything resident is now readable.
        assert_eq!(r.snapshot().len(), r.capacity().min(written as usize));
    }
}
