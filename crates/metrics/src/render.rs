//! Snapshot renderer: Prometheus text exposition.

use crate::registry::{MetricKind, MetricsSnapshot};
use std::fmt::Write;

/// Escapes a label value per the Prometheus text format (`\`, `"`,
/// newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Escapes `# HELP` text (`\` and newline only; quotes are legal).
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    format!("{{{}}}", inner.join(","))
}

fn label_block_with_le(labels: &[(String, String)], le: &str) -> String {
    let mut inner: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    inner.push(format!("le=\"{le}\""));
    format!("{{{}}}", inner.join(","))
}

/// Renders a gauge value the way Prometheus expects (`NaN`/`+Inf`
/// spelled out; integral values without a trailing `.0` is fine — the
/// format is float-typed).
fn render_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot in the Prometheus text exposition format:
/// `# HELP` / `# TYPE` per family (families sorted by name, series by
/// labels), counters as plain samples, histograms as cumulative
/// `_bucket{le=...}` series (upper edges `2^i`, final catch-all as
/// `+Inf`) plus `_sum` and `_count`. Every emitted `# TYPE` is followed
/// by at least one sample — a family exists only through its series, so
/// orphan headers cannot occur.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let kinds = snapshot.kinds();
    let mut out = String::new();
    for (family, kind) in &kinds {
        if let Some(help) = snapshot.help.get(family) {
            let _ = writeln!(out, "# HELP {family} {}", escape_help(help));
        }
        let _ = writeln!(out, "# TYPE {family} {}", kind.prom_name());
        match kind {
            MetricKind::Counter => {
                for ((name, labels), v) in &snapshot.counters {
                    if name == family {
                        let _ = writeln!(out, "{name}{} {v}", label_block(labels));
                    }
                }
            }
            MetricKind::Gauge => {
                for ((name, labels), v) in &snapshot.gauges {
                    if name == family {
                        let _ = writeln!(out, "{name}{} {}", label_block(labels), render_f64(*v));
                    }
                }
            }
            MetricKind::Histogram => {
                for ((name, labels), h) in &snapshot.histograms {
                    if name != family {
                        continue;
                    }
                    let mut cumulative = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate() {
                        cumulative += c;
                        let le = if i + 1 == h.buckets.len() {
                            "+Inf".to_string()
                        } else {
                            format!("{}", 1u128 << i)
                        };
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            label_block_with_le(labels, &le)
                        );
                    }
                    // An empty bucket vector still needs the +Inf edge
                    // for spec conformance.
                    if h.buckets.is_empty() {
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            label_block_with_le(labels, "+Inf"),
                            h.count
                        );
                    }
                    let _ = writeln!(out, "{name}_sum{} {}", label_block(labels), h.sum);
                    let _ = writeln!(out, "{name}_count{} {}", label_block(labels), h.count);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.help("pl_steps_total", "Decode steps delivered");
        r.counter("pl_steps_total", &[("tenant", "0")]).add(10);
        r.counter("pl_steps_total", &[("tenant", "1")]).add(4);
        r.gauge("pl_pending", &[]).set(3.0);
        let h = r.histogram("pl_queue_wait_us", &[("tenant", "0")]);
        h.observe(3);
        h.observe(900);
        r.snapshot()
    }

    #[test]
    fn prometheus_families_and_samples_render() {
        let text = render_prometheus(&sample_snapshot());
        assert!(text.contains("# HELP pl_steps_total Decode steps delivered"));
        assert!(text.contains("# TYPE pl_steps_total counter"));
        assert!(text.contains("pl_steps_total{tenant=\"0\"} 10"));
        assert!(text.contains("pl_steps_total{tenant=\"1\"} 4"));
        assert!(text.contains("# TYPE pl_pending gauge"));
        assert!(text.contains("pl_pending 3"));
        assert!(text.contains("# TYPE pl_queue_wait_us histogram"));
        assert!(text.contains("pl_queue_wait_us_sum{tenant=\"0\"} 903"));
        assert!(text.contains("pl_queue_wait_us_count{tenant=\"0\"} 2"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_count() {
        let text = render_prometheus(&sample_snapshot());
        // 3 lands in bucket 2 (le=4 cumulative 1); 900 in bucket 10
        // (le=1024 cumulative 2).
        assert!(text.contains("le=\"4\"} 1"), "{text}");
        assert!(text.contains("le=\"1024\"} 2"), "{text}");
        let inf = text
            .lines()
            .find(|l| l.starts_with("pl_queue_wait_us_bucket") && l.contains("+Inf"))
            .unwrap();
        assert!(inf.ends_with(" 2"), "{inf}");
    }

    #[test]
    fn label_escaping() {
        let r = MetricsRegistry::new();
        r.counter("pl_x_total", &[("path", "a\"b\\c\nd")]).inc();
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("path=\"a\\\"b\\\\c\\nd\""), "{text}");
    }
}
