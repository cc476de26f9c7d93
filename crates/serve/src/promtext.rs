//! A small Prometheus text-format parser used as an in-repo conformance
//! check: [`parse_prometheus`] validates family/type/label/sample
//! well-formedness, that no `# TYPE` header is an orphan (a declared
//! family with zero samples), that every sample belongs to a declared
//! family, and that histogram series are internally consistent —
//! cumulative buckets monotone non-decreasing under ascending `le`,
//! `+Inf` present and equal to `_count`.
//!
//! This is a *validator*, not a full client: it understands exactly the
//! subset [`crate::render_prometheus`] emits (which is spec-conformant
//! text format), and errors out loudly on anything else.

use std::collections::BTreeMap;

/// What [`parse_prometheus`] found, when the document validates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromReport {
    /// Families declared via `# TYPE`, name → kind keyword.
    pub families: BTreeMap<String, String>,
    /// Total sample lines.
    pub samples: usize,
    /// Histogram series validated (one per `(family, labelset)`).
    pub histogram_series: usize,
}

#[derive(Debug, Default)]
struct HistSeries {
    buckets: Vec<(f64, f64)>, // (le, cumulative count) in order seen
    sum: Option<f64>,
    count: Option<f64>,
}

fn parse_labels(block: &str) -> Result<Vec<(String, String)>, String> {
    // block is the text between `{` and `}`.
    let mut labels = Vec::new();
    let mut rest = block.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].trim().to_string();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label value not quoted: {after:?}"));
        }
        // Scan the quoted value honouring backslash escapes.
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e)) => value.push(e),
                    None => return Err(format!("dangling escape in {after:?}")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value: {after:?}"))?;
        labels.push((key, value));
        rest = after[1 + end + 1..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
    Ok(labels)
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// One parsed sample line: `(metric name, labels, value)`.
type Sample = (String, Vec<(String, String)>, f64);

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, labels, rest) = match line.find('{') {
        Some(open) => {
            let close =
                line.rfind('}').ok_or_else(|| format!("unbalanced label braces: {line:?}"))?;
            if close < open {
                return Err(format!("unbalanced label braces: {line:?}"));
            }
            (&line[..open], parse_labels(&line[open + 1..close])?, &line[close + 1..])
        }
        None => {
            let sp = line
                .find(|c: char| c.is_ascii_whitespace())
                .ok_or_else(|| format!("sample without value: {line:?}"))?;
            (&line[..sp], Vec::new(), &line[sp..])
        }
    };
    let name = name_part.trim().to_string();
    if !valid_metric_name(&name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let value_text = rest.trim();
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse::<f64>().map_err(|_| format!("bad sample value {v:?} in {line:?}"))?,
    };
    Ok((name, labels, value))
}

/// The family a sample belongs to: for histograms the `_bucket`/`_sum`/
/// `_count` suffix strips back to the declared family name.
fn family_of<'a>(name: &'a str, families: &BTreeMap<String, String>) -> Option<(String, &'a str)> {
    if families.contains_key(name) {
        return Some((name.to_string(), ""));
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if families.get(base).map(String::as_str) == Some("histogram") {
                return Some((base.to_string(), suffix));
            }
        }
    }
    None
}

fn series_id(family: &str, labels: &[(String, String)]) -> String {
    let mut l: Vec<String> =
        labels.iter().filter(|(k, _)| k != "le").map(|(k, v)| format!("{k}={v}")).collect();
    l.sort();
    format!("{family}|{}", l.join(","))
}

/// Parses and validates a Prometheus text exposition. Returns an error
/// string naming the first violation, or a [`PromReport`] summarising
/// the validated document.
pub fn parse_prometheus(text: &str) -> Result<PromReport, String> {
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    let mut samples_per_family: BTreeMap<String, usize> = BTreeMap::new();
    let mut hist: BTreeMap<String, HistSeries> = BTreeMap::new();
    let mut samples = 0usize;

    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts.next().ok_or(format!("line {}: TYPE without name", ln + 1))?;
                    let kind = parts.next().ok_or(format!("line {}: TYPE without kind", ln + 1))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {}: bad family name {name:?}", ln + 1));
                    }
                    if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                        return Err(format!("line {}: unknown TYPE kind {kind:?}", ln + 1));
                    }
                    if families.insert(name.to_string(), kind.to_string()).is_some() {
                        return Err(format!("line {}: duplicate TYPE for {name:?}", ln + 1));
                    }
                }
                Some("HELP") => {
                    let name = parts.next().ok_or(format!("line {}: HELP without name", ln + 1))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {}: bad HELP name {name:?}", ln + 1));
                    }
                }
                _ => {} // other comments are legal and ignored
            }
            continue;
        }
        let (name, labels, value) =
            parse_sample(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
        let Some((family, suffix)) = family_of(&name, &families) else {
            return Err(format!("line {}: sample {name:?} has no preceding # TYPE", ln + 1));
        };
        samples += 1;
        *samples_per_family.entry(family.clone()).or_insert(0) += 1;
        if families.get(&family).map(String::as_str) == Some("histogram") {
            let id = series_id(&family, &labels);
            let entry = hist.entry(id).or_default();
            match suffix {
                "_bucket" => {
                    let le = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .ok_or(format!("line {}: _bucket without le label", ln + 1))?;
                    let le_val = match le.1.as_str() {
                        "+Inf" => f64::INFINITY,
                        v => v
                            .parse::<f64>()
                            .map_err(|_| format!("line {}: bad le value {v:?}", ln + 1))?,
                    };
                    entry.buckets.push((le_val, value));
                }
                "_sum" => entry.sum = Some(value),
                "_count" => entry.count = Some(value),
                _ => {
                    return Err(format!(
                        "line {}: bare sample {name:?} for histogram family",
                        ln + 1
                    ))
                }
            }
        }
    }

    // No orphan TYPE headers.
    for family in families.keys() {
        if samples_per_family.get(family).copied().unwrap_or(0) == 0 {
            return Err(format!("family {family:?} declared by # TYPE but has no samples"));
        }
    }
    // Histogram series consistency.
    for (id, series) in &hist {
        if series.buckets.is_empty() {
            return Err(format!("histogram series {id:?} has no _bucket samples"));
        }
        for pair in series.buckets.windows(2) {
            if pair[1].0 <= pair[0].0 {
                return Err(format!("histogram series {id:?}: le edges not ascending"));
            }
            if pair[1].1 < pair[0].1 {
                return Err(format!("histogram series {id:?}: cumulative buckets decrease"));
            }
        }
        let (last_le, last_count) = *series.buckets.last().unwrap();
        if !last_le.is_infinite() {
            return Err(format!("histogram series {id:?}: missing le=\"+Inf\" bucket"));
        }
        let count =
            series.count.ok_or_else(|| format!("histogram series {id:?}: missing _count"))?;
        if series.sum.is_none() {
            return Err(format!("histogram series {id:?}: missing _sum"));
        }
        if last_count != count {
            return Err(format!(
                "histogram series {id:?}: +Inf bucket {last_count} != _count {count}"
            ));
        }
    }

    Ok(PromReport { families, samples, histogram_series: hist.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use crate::render::render_prometheus;

    #[test]
    fn rendered_exposition_validates() {
        let r = MetricsRegistry::new();
        r.help("pl_steps_total", "steps");
        r.counter("pl_steps_total", &[("tenant", "0")]).add(3);
        r.gauge("pl_in_flight", &[("shard", "0")]).set(0.0);
        let h = r.histogram("pl_queue_wait_us", &[("tenant", "0")]);
        h.observe(7);
        h.observe(12345);
        let report = parse_prometheus(&render_prometheus(&r.snapshot())).expect("validates");
        assert_eq!(report.families.len(), 3);
        assert_eq!(report.families["pl_queue_wait_us"], "histogram");
        assert_eq!(report.histogram_series, 1);
        assert!(report.samples > 40, "histogram emits one line per bucket");
    }

    #[test]
    fn orphan_type_is_rejected() {
        let text = "# TYPE pl_ghost counter\n# TYPE pl_real counter\npl_real 1\n";
        let err = parse_prometheus(text).unwrap_err();
        assert!(err.contains("pl_ghost"), "{err}");
    }

    #[test]
    fn undeclared_sample_is_rejected() {
        let err = parse_prometheus("pl_mystery 42\n").unwrap_err();
        assert!(err.contains("no preceding # TYPE"), "{err}");
    }

    #[test]
    fn non_monotone_histogram_is_rejected() {
        let text = "# TYPE pl_h histogram\n\
                    pl_h_bucket{le=\"1\"} 5\n\
                    pl_h_bucket{le=\"2\"} 3\n\
                    pl_h_bucket{le=\"+Inf\"} 5\n\
                    pl_h_sum 9\npl_h_count 5\n";
        let err = parse_prometheus(text).unwrap_err();
        assert!(err.contains("decrease"), "{err}");
    }

    #[test]
    fn inf_bucket_must_equal_count() {
        let text = "# TYPE pl_h histogram\n\
                    pl_h_bucket{le=\"1\"} 5\n\
                    pl_h_bucket{le=\"+Inf\"} 5\n\
                    pl_h_sum 9\npl_h_count 6\n";
        let err = parse_prometheus(text).unwrap_err();
        assert!(err.contains("!= _count"), "{err}");
    }

    #[test]
    fn missing_inf_bucket_is_rejected() {
        let text = "# TYPE pl_h histogram\n\
                    pl_h_bucket{le=\"1\"} 5\n\
                    pl_h_sum 9\npl_h_count 5\n";
        let err = parse_prometheus(text).unwrap_err();
        assert!(err.contains("+Inf"), "{err}");
    }

    #[test]
    fn bad_label_syntax_is_rejected() {
        assert!(parse_prometheus("# TYPE a counter\na{x=unquoted} 1\n").is_err());
        assert!(parse_prometheus("# TYPE a counter\na{x=\"open} 1\n").is_err());
        assert!(parse_prometheus("# TYPE a counter\na{} nope\n").is_err());
    }

    #[test]
    fn escaped_label_values_round_trip() {
        let r = MetricsRegistry::new();
        r.counter("pl_x_total", &[("p", "a\"b\\c\nd")]).inc();
        let report = parse_prometheus(&render_prometheus(&r.snapshot())).expect("validates");
        assert_eq!(report.samples, 1);
    }
}
