//! The committed retune artifact (`TUNE_db.json`): machine-readable
//! before/after evidence that the retune loop ran — per-shape measured
//! winners next to the incumbent they replaced, and before/after-retune
//! serving throughput rows. Lives alongside `BENCH_serve.json`
//! (hand-rolled JSON, same idiom — no serialization crates here).

use crate::retuner::RetuneReport;

/// File name of the committed retune artifact (resolve with
/// `pl_bench::workspace_path`).
pub const TUNE_DB_ARTIFACT: &str = "TUNE_db.json";

/// One before/after serving-throughput row.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// `"pre-retune"` or `"post-retune"`.
    pub phase: String,
    /// Batch width.
    pub batch: usize,
    /// Shard count.
    pub shards: usize,
    /// Measured decode throughput.
    pub steps_per_s: f64,
}

/// The artifact document.
#[derive(Debug, Clone, Default)]
pub struct TuneArtifact {
    /// Host fingerprint the measurements are valid for.
    pub fingerprint: String,
    /// Per-shape outcomes: `(key, old_spec, old_gflops, new_spec,
    /// new_gflops, weight, changed)`.
    pub shapes: Vec<(String, String, f64, String, f64, u64, bool)>,
    /// Before/after serving rows.
    pub serve: Vec<ServeRow>,
}

impl TuneArtifact {
    /// Folds a cycle's outcomes in (absent incumbents render as `"-"`
    /// with 0 GFLOPS).
    pub fn add_report(&mut self, report: &RetuneReport) {
        for o in &report.outcomes {
            self.shapes.push((
                o.key.clone(),
                o.old_spec.clone().unwrap_or_else(|| "-".into()),
                o.old_gflops.unwrap_or(0.0),
                o.new_spec.clone(),
                o.new_gflops,
                o.weight,
                o.changed,
            ));
        }
    }

    /// Renders the document. Row order is insertion order — callers add
    /// shapes hottest-first, so regeneration on an unchanged workload
    /// diffs cleanly.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"artifact\": \"tune_db\",\n");
        out.push_str(&format!("  \"fingerprint\": \"{}\",\n", self.fingerprint));
        out.push_str("  \"rows\": [\n");
        let mut rows: Vec<String> = Vec::new();
        for (key, old_spec, old_gflops, new_spec, new_gflops, weight, changed) in &self.shapes {
            rows.push(format!(
                "    {{\"kind\": \"shape\", \"key\": \"{key}\", \"old_spec\": \"{old_spec}\", \
                 \"old_gflops\": {old_gflops:.3}, \"new_spec\": \"{new_spec}\", \
                 \"new_gflops\": {new_gflops:.3}, \"weight\": {weight}, \"changed\": {changed}}}"
            ));
        }
        for r in &self.serve {
            rows.push(format!(
                "    {{\"kind\": \"serve\", \"phase\": \"{}\", \"batch\": {}, \
                 \"shards\": {}, \"steps_per_s\": {:.3}}}",
                r.phase, r.batch, r.shards, r.steps_per_s
            ));
        }
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Minimal structural validation of a rendered artifact: header present,
/// braces/brackets balanced, and at least the row kinds counted. Returns
/// `(shape_rows, serve_rows)`, or `None` when the text is not a tune_db
/// document — what the demo and CI assert after writing.
pub fn parse_summary(json: &str) -> Option<(usize, usize)> {
    if !json.contains("\"artifact\": \"tune_db\"") || !json.contains("\"fingerprint\"") {
        return None;
    }
    let balanced = |open: char, close: char| {
        let mut depth = 0i64;
        for c in json.chars() {
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
        }
        depth == 0
    };
    if !balanced('{', '}') || !balanced('[', ']') {
        return None;
    }
    let count = |kind: &str| json.matches(&format!("\"kind\": \"{kind}\"")).count();
    Some((count("shape"), count("serve")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneArtifact {
        let mut a =
            TuneArtifact { fingerprint: "linux/x86_64/zen4/4t".into(), ..Default::default() };
        a.shapes.push((
            "gemm/zen4/32x8x32/f32".into(),
            "abc".into(),
            1.2,
            "aBC".into(),
            9.7,
            640,
            true,
        ));
        a.serve.push(ServeRow {
            phase: "pre-retune".into(),
            batch: 8,
            shards: 1,
            steps_per_s: 7800.0,
        });
        a.serve.push(ServeRow {
            phase: "post-retune".into(),
            batch: 8,
            shards: 1,
            steps_per_s: 10050.0,
        });
        a
    }

    #[test]
    fn renders_and_validates() {
        let json = sample().to_json();
        assert_eq!(parse_summary(&json), Some((1, 2)));
        assert!(json.contains("\"old_spec\": \"abc\""));
        assert!(json.contains("\"new_spec\": \"aBC\""));
        assert!(json.contains("\"phase\": \"post-retune\""));
    }

    #[test]
    fn truncated_or_foreign_text_fails_validation() {
        let json = sample().to_json();
        assert!(parse_summary(&json[..json.len() / 2]).is_none(), "truncated must not parse");
        assert!(parse_summary("{\"bench\": \"serve_throughput\"}").is_none());
        assert!(parse_summary("").is_none());
    }

    #[test]
    fn empty_artifact_still_renders_balanced_json() {
        let json = TuneArtifact { fingerprint: "fp".into(), ..Default::default() }.to_json();
        assert_eq!(parse_summary(&json), Some((0, 0)));
    }
}
