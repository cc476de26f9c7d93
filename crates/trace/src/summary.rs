//! `TraceSummary` — the aggregated exporter: per-key duration
//! histograms folded from a raw event snapshot.
//!
//! The key is `(name, args)`, so a span like `gemm.execute` with
//! `args = [m, n, k]` aggregates **per shape** — this is the measured
//! per-shape timing table the autotuning roadmap item consumes.
//! Summaries are mergeable (identity + commutativity, like
//! `pl_metrics::MetricsSnapshot::merge`): durations live in log2
//! nanosecond buckets, so merged quantiles recompute from summed
//! buckets instead of averaging per-summary quantiles.

use crate::ring::{Event, EventKind};
use std::collections::BTreeMap;

/// An open span frame on a lane's pairing stack: `(name, args, begin ts)`.
type OpenFrame<'a> = (&'a str, [u64; 3], u64);

/// Number of power-of-two duration buckets (bucket i covers
/// `[2^(i-1), 2^i)` nanoseconds; bucket 0 is `< 1 ns`; 2^47 ns ≈ 39 h).
pub const DURATION_BUCKETS: usize = 48;

fn bucket_of_ns(ns: u64) -> usize {
    pl_metrics::bucket_of(ns, DURATION_BUCKETS)
}

/// Duration statistics for one `(name, args)` key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurationStat {
    /// Completed span count.
    pub count: u64,
    /// Sum of span durations (ns).
    pub total_ns: u64,
    /// Shortest span (ns); `u64::MAX` only in the empty stat.
    pub min_ns: u64,
    /// Longest span (ns).
    pub max_ns: u64,
    /// Log2 duration buckets (bucket i covers `[2^(i-1), 2^i)` ns).
    pub buckets: Vec<u64>,
}

impl Default for DurationStat {
    fn default() -> Self {
        DurationStat {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: vec![0; DURATION_BUCKETS],
        }
    }
}

impl DurationStat {
    fn record(&mut self, dur_ns: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.min_ns = self.min_ns.min(dur_ns);
        self.max_ns = self.max_ns.max(dur_ns);
        self.buckets[bucket_of_ns(dur_ns)] += 1;
    }

    fn merge(&mut self, other: &DurationStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        pl_metrics::merge_buckets(&mut self.buckets, &other.buckets);
    }

    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64
    }

    /// Upper-edge estimate of quantile `q` in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        pl_metrics::quantile_from_buckets(&self.buckets, q)
    }
}

/// Aggregated per-key duration histograms from a trace snapshot.
///
/// Build with [`TraceSummary::from_events`], combine across snapshots
/// (or router shards) with [`TraceSummary::merge`], render with
/// [`TraceSummary::to_json`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// `(name, args) -> stats`, sorted by key.
    pub entries: BTreeMap<(String, [u64; 3]), DurationStat>,
    /// `End` events whose `Begin` was lost to ring wraparound (their
    /// duration is unknown, so they are counted here, not aggregated).
    pub unmatched: u64,
}

impl TraceSummary {
    /// The empty summary — the identity element of [`TraceSummary::merge`].
    pub fn empty() -> TraceSummary {
        TraceSummary::default()
    }

    /// Pairs `Begin`/`End` edges per lane (spans are strictly nested on
    /// their recording thread, so a per-lane stack matches them) and
    /// folds `Complete` events directly.
    pub fn from_events(events: &[Event]) -> TraceSummary {
        let mut s = TraceSummary::empty();
        // Per-lane stacks of open (name, args, ts) frames. Events within
        // a lane arrive oldest-first from the ring snapshot.
        let mut open: BTreeMap<u32, Vec<OpenFrame>> = BTreeMap::new();
        let mut by_lane: BTreeMap<u32, Vec<&Event>> = BTreeMap::new();
        for e in events {
            by_lane.entry(e.lane).or_default().push(e);
        }
        for (lane, evs) in by_lane {
            let stack = open.entry(lane).or_default();
            for e in evs {
                match e.kind {
                    EventKind::Begin => stack.push((e.name, e.args, e.ts_ns)),
                    EventKind::End => {
                        // Wraparound can eat a span's Begin; an End that
                        // matches nothing open is counted, not paired.
                        match stack.iter().rposition(|&(n, a, _)| n == e.name && a == e.args) {
                            Some(i) => {
                                let (name, args, t0) = stack.remove(i);
                                s.record(name, args, e.ts_ns.saturating_sub(t0));
                            }
                            None => s.unmatched += 1,
                        }
                    }
                    EventKind::Instant => s.record(e.name, e.args, 0),
                    EventKind::Complete => s.record(e.name, e.args, e.dur_ns),
                }
            }
        }
        s
    }

    fn record(&mut self, name: &str, args: [u64; 3], dur_ns: u64) {
        self.entries.entry((name.to_string(), args)).or_default().record(dur_ns);
    }

    /// Folds `other` into `self`: stats merge per key; quantiles stay
    /// derivable from the summed buckets.
    pub fn merge(&mut self, other: &TraceSummary) {
        for (k, stat) in &other.entries {
            self.entries.entry(k.clone()).or_default().merge(stat);
        }
        self.unmatched += other.unmatched;
    }

    /// Total duration (ns) across all keys whose name matches `name`,
    /// regardless of args — "how much wall time went to `gemm.execute`".
    pub fn total_ns_for(&self, name: &str) -> u64 {
        self.entries.iter().filter(|((n, _), _)| n == name).map(|(_, s)| s.total_ns).sum()
    }

    /// Completed span count across all keys whose name matches `name`.
    pub fn count_for(&self, name: &str) -> u64 {
        self.entries.iter().filter(|((n, _), _)| n == name).map(|(_, s)| s.count).sum()
    }

    /// Hand-rolled JSON rendering (no serialization crates in this
    /// environment): one object per
    /// key with count/total/min/max/p50/p99 and the raw buckets so merged
    /// summaries stay reconstructible.
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|((name, args), s)| {
                let buckets: Vec<String> = s.buckets.iter().map(u64::to_string).collect();
                format!(
                    concat!(
                        "{{\"name\":\"{}\",\"args\":[{},{},{}],\"count\":{},",
                        "\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{:.1},",
                        "\"p50_ns\":{},\"p99_ns\":{},\"buckets\":[{}]}}"
                    ),
                    name,
                    args[0],
                    args[1],
                    args[2],
                    s.count,
                    s.total_ns,
                    if s.count == 0 { 0 } else { s.min_ns },
                    s.max_ns,
                    s.mean_ns(),
                    s.quantile_ns(0.50),
                    s.quantile_ns(0.99),
                    buckets.join(","),
                )
            })
            .collect();
        format!("{{\"unmatched\":{},\"entries\":[{}]}}", self.unmatched, entries.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        name: &'static str,
        kind: EventKind,
        lane: u32,
        ts: u64,
        dur: u64,
        args: [u64; 3],
    ) -> Event {
        Event { name, kind, lane, ts_ns: ts, dur_ns: dur, args }
    }

    #[test]
    fn pairs_nested_spans_per_lane() {
        let events = vec![
            ev("outer", EventKind::Begin, 0, 100, 0, [0; 3]),
            ev("inner", EventKind::Begin, 0, 200, 0, [7, 0, 0]),
            ev("inner", EventKind::End, 0, 260, 0, [7, 0, 0]),
            ev("outer", EventKind::End, 0, 400, 0, [0; 3]),
            // Same names on another lane must not cross-pair.
            ev("inner", EventKind::Begin, 1, 1000, 0, [7, 0, 0]),
            ev("inner", EventKind::End, 1, 1100, 0, [7, 0, 0]),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.unmatched, 0);
        let inner = &s.entries[&("inner".to_string(), [7, 0, 0])];
        assert_eq!(inner.count, 2);
        assert_eq!(inner.total_ns, 60 + 100);
        assert_eq!(inner.min_ns, 60);
        assert_eq!(inner.max_ns, 100);
        let outer = &s.entries[&("outer".to_string(), [0; 3])];
        assert_eq!(outer.count, 1);
        assert_eq!(outer.total_ns, 300);
    }

    #[test]
    fn args_split_keys_and_complete_events_fold_directly() {
        let events = vec![
            ev("gemm.execute", EventKind::Complete, 0, 0, 500, [256, 1, 256]),
            ev("gemm.execute", EventKind::Complete, 0, 600, 700, [256, 8, 256]),
            ev("gemm.execute", EventKind::Complete, 2, 900, 900, [256, 8, 256]),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.entries.len(), 2, "one entry per (m, n, k)");
        assert_eq!(s.entries[&("gemm.execute".to_string(), [256, 1, 256])].count, 1);
        let b8 = &s.entries[&("gemm.execute".to_string(), [256, 8, 256])];
        assert_eq!(b8.count, 2);
        assert_eq!(b8.total_ns, 1600);
        assert_eq!(s.total_ns_for("gemm.execute"), 2100);
        assert_eq!(s.count_for("gemm.execute"), 3);
    }

    #[test]
    fn orphan_end_counts_as_unmatched() {
        let events = vec![
            ev("lost", EventKind::End, 0, 50, 0, [0; 3]), // Begin wrapped away
            ev("ok", EventKind::Begin, 0, 60, 0, [0; 3]),
            ev("ok", EventKind::End, 0, 70, 0, [0; 3]),
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.unmatched, 1);
        assert_eq!(s.entries[&("ok".to_string(), [0; 3])].count, 1);
    }

    #[test]
    fn merge_identity_and_commutativity() {
        // Empty is the identity, and a ⊕ b == b ⊕ a on every field.
        let a = TraceSummary::from_events(&[
            ev("x", EventKind::Complete, 0, 0, 100, [1, 0, 0]),
            ev("x", EventKind::Complete, 0, 0, 300, [1, 0, 0]),
            ev("y", EventKind::End, 0, 10, 0, [0; 3]), // unmatched
        ]);
        let b = TraceSummary::from_events(&[
            ev("x", EventKind::Complete, 1, 0, 900, [1, 0, 0]),
            ev("z", EventKind::Complete, 1, 0, 50, [0; 3]),
        ]);

        let mut left = TraceSummary::empty();
        left.merge(&a);
        assert_eq!(left, a, "empty ⊕ a == a");
        let mut right = a.clone();
        right.merge(&TraceSummary::empty());
        assert_eq!(right, a, "a ⊕ empty == a");

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must commute");
        let x = &ab.entries[&("x".to_string(), [1, 0, 0])];
        assert_eq!(x.count, 3);
        assert_eq!(x.total_ns, 1300);
        assert_eq!(x.min_ns, 100);
        assert_eq!(x.max_ns, 900);
        assert_eq!(ab.unmatched, 1);
        // Quantiles recompute from summed buckets: p100 sees b's 900 ns
        // observation even though a alone topped out at 300 ns.
        assert_eq!(x.quantile_ns(1.0), 1024);
    }

    #[test]
    fn summary_renders_json() {
        let s = TraceSummary::from_events(&[
            ev("gemm.execute", EventKind::Complete, 0, 0, 500, [256, 8, 256]),
            ev("batch.execute", EventKind::Begin, 0, 0, 0, [8, 0, 0]),
            ev("batch.execute", EventKind::End, 0, 2000, 0, [8, 0, 0]),
        ]);
        let json = s.to_json();
        for needle in [
            "\"unmatched\":0",
            "\"name\":\"gemm.execute\"",
            "\"args\":[256,8,256]",
            "\"total_ns\":500",
            "\"name\":\"batch.execute\"",
            "\"total_ns\":2000",
            "\"buckets\":[",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
