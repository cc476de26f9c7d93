//! `pl_metrics` — the unified metrics & health plane.
//!
//! A dependency-free (std-only) labeled metrics registry: counters,
//! gauges and log2-bucket histograms keyed by `(name, labels)`, with
//! lock-light accumulation (hot paths touch pre-created handles backed
//! by atomics — the registry lock is only taken at handle creation and
//! snapshot time), mergeable snapshots reusing the serving layer's
//! summed-bucket discipline, and one renderer: Prometheus text
//! exposition ([`render_prometheus`]).
//!
//! On top of the registry sit three operator-facing primitives:
//!
//! - [`SloWindow`]: rolling per-second window tracking a latency target
//!   (violation fraction → burn rate).
//! - [`Health`] / [`HealthTracker`]: the shard health state machine
//!   (`Healthy | Degraded | Stalled`) with a hysteresis band
//!   so a flapping shard does not oscillate in and out of placement.
//! - [`Watchdog`]: detects a stalled pump — work pending but no batch
//!   collected for a deadline.
//!
//! This crate sits at the very bottom of the workspace graph (no
//! dependencies at all), so `pl_serve` and `pl_router` can both publish
//! into it without cycles. The log2-bucket fold in
//! [`buckets`] is the one implementation behind `pl_serve`'s histograms.

#![warn(missing_docs)]

pub mod buckets;
pub mod health;
pub mod promtext;
pub mod registry;
pub mod render;
pub mod slo;
pub mod watchdog;

pub use buckets::{bucket_of, merge_buckets, quantile_from_buckets};
pub use health::{Health, HealthTracker};
pub use promtext::{parse_prometheus, PromReport};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricsRegistry, MetricsSnapshot,
    HIST_BUCKETS,
};
pub use render::render_prometheus;
pub use slo::SloWindow;
pub use watchdog::Watchdog;
