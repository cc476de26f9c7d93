//! What the benchmark reports: the catalogue of workloads and metrics (the
//! same names `BENCHMARK.json` lists), the result file, and `compare`.

use crate::json::{self, obj, Value};
use crate::traffic::{TargetKind, Traffic, MID, SMALL};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// What the number was measured on, where the name does not say.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric { name: name.to_string(), value, unit: unit.to_string(), note: String::new() }
    }

    pub fn note(mut self, note: String) -> Self {
        self.note = note;
        self
    }
}

/// A gated end-to-end metric: a later change may not make it worse than
/// the parent's median by more than `bound` (a share of that median).
pub struct Gate {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const GATES: [Gate; 9] = [
    // Ten runs of one commit on the 2-vCPU host this was sized on spread by
    // 0.3-3.5% (quartile distance over median), the prefill medians by up
    // to 5.5%: a prompt's chunks queue behind each other, so its samples
    // come from a few populations. A bound is three times the worst spread
    // seen for its metric, rounded up.
    Gate { name: "tok_s", unit: "tok/s", higher_is_better: true, bound: 0.15 },
    Gate { name: "ttft_ms_p50", unit: "ms", higher_is_better: false, bound: 0.20 },
    Gate { name: "itl_ms_p50", unit: "ms", higher_is_better: false, bound: 0.15 },
    // Set-up is short and is timed a few times per run, not thousands:
    // it gets the widest bound.
    Gate { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    Gate { name: "gemm_gflops", unit: "GFLOP/s", higher_is_better: true, bound: 0.15 },
    Gate { name: "gemv_gflops", unit: "GFLOP/s", higher_is_better: true, bound: 0.15 },
    Gate { name: "i8_gops", unit: "GOP/s", higher_is_better: true, bound: 0.15 },
    Gate { name: "conv_gflops", unit: "GFLOP/s", higher_is_better: true, bound: 0.15 },
    Gate { name: "spmm_gflops", unit: "GFLOP/s", higher_is_better: true, bound: 0.15 },
];

pub fn gate(name: &str) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.name == name)
}

/// A per-layer metric's value, with the unit the catalogue gives it, so
/// what a traced run prints cannot drift from what `BENCHMARK.json` lists.
pub fn layer(name: &str, value: f64) -> Metric {
    let entry = LAYER_METRICS.iter().find(|l| l.0 == name);
    Metric::new(name, value, entry.expect("per-layer metrics are in the catalogue").1)
}

/// A gated metric's value, with the unit the catalogue gives it.
pub fn gated(name: &str, value: f64) -> Metric {
    Metric::new(name, value, gate(name).expect("gated metrics are in the catalogue").unit)
}

/// The gated metrics every model workload reports; these are
/// `BENCHMARK.json`'s `end_to_end`.
#[cfg(test)]
pub const MODEL_GATES: [&str; 4] = ["tok_s", "ttft_ms_p50", "itl_ms_p50", "setup_s"];

/// Every per-layer metric a `--trace` run reports, as `(name, unit, higher
/// is better)`; these are `BENCHMARK.json`'s `per_layer`.
pub const LAYER_METRICS: [(&str, &str, bool); 42] = [
    ("host.peak_gflops", "GFLOP/s", true),
    ("host.triad_gbs", "GB/s", true),
    ("tpp.brgemm_gflops", "GFLOP/s", true),
    ("tpp.brgemm_pct_peak", "%", true),
    ("runtime.region_us", "us", false),
    ("kernels.gemm_gflops.512x512x512", "GFLOP/s", true),
    ("kernels.loop_overhead_pct.512x512x512", "%", false),
    ("kernels.gemm_gflops.2048x8x512", "GFLOP/s", true),
    ("kernels.loop_overhead_pct.2048x8x512", "%", false),
    ("kernels.i8_gops", "GOP/s", true),
    ("kernels.conv_gflops", "GFLOP/s", true),
    ("kernels.spmm_gflops", "GFLOP/s", true),
    ("dnn.plan_exec_us.attn.n1", "us", false),
    ("dnn.plan_exec_us.attn.n8", "us", false),
    ("dnn.plan_exec_us.attn.n96", "us", false),
    ("dnn.plan_exec_us.ffn_up.n1", "us", false),
    ("dnn.plan_exec_us.ffn_up.n8", "us", false),
    ("dnn.plan_exec_us.ffn_up.n96", "us", false),
    ("dnn.plan_exec_us.ffn_down.n1", "us", false),
    ("dnn.plan_exec_us.ffn_down.n8", "us", false),
    ("dnn.plan_exec_us.ffn_down.n96", "us", false),
    ("dnn.prefill_ms_per_tok", "ms", false),
    ("dnn.step_ms", "ms", false),
    ("dnn.step_ms_1t", "ms", false),
    ("dnn.step_nonproj_ms", "ms", false),
    ("dnn.weight_mb_per_step", "MB", false),
    ("serve.step_overhead_us", "us", false),
    ("serve.pump_ms.b1", "ms", false),
    ("serve.pump_ms.b4", "ms", false),
    ("serve.pump_ms.b8", "ms", false),
    ("router.route_overhead_us", "us", false),
    ("dnn.pack_events", "count", false),
    ("serve.mean_batch", "count", true),
    ("serve.batches", "count", true),
    ("serve.mixed_batches", "count", true),
    ("serve.prefill_chunks", "count", true),
    ("serve.rejected", "count", false),
    ("serve.queue_wait_us_bucket", "us", false),
    ("kv.shared_pages", "count", true),
    ("kv.cow_splits", "count", false),
    ("router.sessions_per_shard", "count", false),
    ("trace_overhead_pct", "%", false),
];

pub enum Kind {
    /// `pl_kernels` alone; see [`crate::kernels`].
    Kernels,
    Model(Traffic),
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: which layers do its work and which do not.
    /// One line of at most 200 characters, as `BENCHMARK.json` requires.
    pub why: &'static str,
    pub kind: Kind,
}

/// `serve.decode`'s traffic, which `router.2x1` repeats through a router.
const DECODE: Traffic = Traffic {
    model: MID,
    target: TargetKind::Server,
    sessions: 4,
    prompt: 8,
    steps: 32,
    shared_prefix: false,
    staggered: true,
};

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "kernels.standalone",
        why: "pl_kernels on packed operands, no model or server (paper Fig. 2/7/8): pl_tpp does all the work, pl_serve and pl_router none",
        kind: Kind::Kernels,
    },
    Workload {
        name: "decode.single",
        why: "mid model, DecoderModel::forward directly, one sequence, P=64 O=64 (paper Fig. 11 shape); pl_serve is bypassed, so a batcher change must not move it",
        kind: Kind::Model(Traffic {
            model: MID,
            target: TargetKind::Direct,
            sessions: 1,
            prompt: 64,
            steps: 64,
            shared_prefix: false,
            staggered: false,
        }),
    },
    Workload {
        name: "serve.decode",
        why: "mid model through Server, 4 closed-loop sessions, P=8 O=32: decode-dominated continuous batching, weights streamed every step",
        kind: Kind::Model(DECODE),
    },
    Workload {
        name: "serve.prefill",
        why: "mid model through Server, 2 sessions, P=96 O=4, every second prompt shares a 64-token prefix: wide activations, chunked prefill, prefix-cache hits",
        kind: Kind::Model(Traffic {
            model: MID,
            target: TargetKind::Server,
            sessions: 2,
            prompt: 96,
            steps: 4,
            shared_prefix: true,
            // In phase: a decode step sent while the other session prefills
            // would wait out the whole prompt, and the few gaps of a run
            // would then be drawn from two far-apart populations.
            staggered: false,
        }),
    },
    Workload {
        name: "serve.small",
        why: "small model through Server, 8 sessions, P=8 O=96: kernels nearly free, so queueing, linger, fork/join and reply delivery dominate",
        kind: Kind::Model(Traffic {
            model: SMALL,
            target: TargetKind::Server,
            sessions: 8,
            prompt: 8,
            steps: 96,
            shared_prefix: false,
            staggered: true,
        }),
    },
    Workload {
        name: "router.2x1",
        why: "serve.decode's traffic through Router{shards:2,total_threads:2}: the same server code as two one-thread shards; isolates routing cost",
        kind: Kind::Model(Traffic { target: TargetKind::Router, ..DECODE }),
    },
];

/// What one run of one workload produced.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// End-to-end metrics with a bound (see [`GATES`]).
    pub gated: Vec<Metric>,
    /// Printed, not gated: tails, sample counts, memory, warm-up.
    pub diagnostics: Vec<Metric>,
    /// Per-layer metrics; empty unless the run was traced.
    pub layers: Vec<Metric>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub inputs_fnv: u64,
    pub outputs_fnv: u64,
    /// The FMA canary before and after the workload, GFLOP/s.
    pub peak_before: f64,
    pub peak_after: f64,
    pub errors: Vec<String>,
}

fn metrics_json(ms: &[Metric]) -> Value {
    Value::Arr(
        ms.iter()
            .map(|m| {
                let mut members = vec![
                    ("name", Value::from(m.name.as_str())),
                    ("value", m.value.into()),
                    ("unit", m.unit.as_str().into()),
                ];
                if !m.note.is_empty() {
                    members.push(("note", m.note.as_str().into()));
                }
                obj(members)
            })
            .collect(),
    )
}

fn metrics_from(v: Option<&Value>) -> Vec<Metric> {
    v.map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Metric {
                name: m.get("name")?.as_str()?.to_string(),
                value: m.get("value")?.as_f64()?,
                unit: m.get("unit")?.as_str()?.to_string(),
                note: m.get("note").and_then(Value::as_str).unwrap_or("").to_string(),
            })
        })
        .collect()
}

impl WorkloadResult {
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("name", self.name.as_str().into()),
            ("gated", metrics_json(&self.gated)),
            ("diagnostics", metrics_json(&self.diagnostics)),
            ("layers", metrics_json(&self.layers)),
            ("ops_attempted", self.ops_attempted.into()),
            ("ops_ok", (self.ops_attempted - self.ops_failed.min(self.ops_attempted)).into()),
            ("ops_failed", self.ops_failed.into()),
            // u64 fingerprints do not fit a JSON number.
            ("inputs_fnv", format!("{:016x}", self.inputs_fnv).into()),
            ("outputs_fnv", format!("{:016x}", self.outputs_fnv).into()),
            ("host_peak_gflops_before", self.peak_before.into()),
            ("host_peak_gflops_after", self.peak_after.into()),
            ("errors", Value::Arr(self.errors.iter().map(|e| e.as_str().into()).collect())),
        ])
    }

    pub fn from_json(v: &Value) -> Option<WorkloadResult> {
        let num = |key: &str| v.get(key).and_then(Value::as_f64);
        let hex = |key: &str| {
            v.get(key).and_then(Value::as_str).and_then(|s| u64::from_str_radix(s, 16).ok())
        };
        Some(WorkloadResult {
            name: v.get("name")?.as_str()?.to_string(),
            gated: metrics_from(v.get("gated")),
            diagnostics: metrics_from(v.get("diagnostics")),
            layers: metrics_from(v.get("layers")),
            ops_attempted: num("ops_attempted")? as u64,
            ops_failed: num("ops_failed")? as u64,
            inputs_fnv: hex("inputs_fnv")?,
            outputs_fnv: hex("outputs_fnv")?,
            peak_before: num("host_peak_gflops_before")?,
            peak_after: num("host_peak_gflops_after")?,
            errors: v
                .get("errors")
                .map(Value::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|e| e.as_str().map(str::to_string))
                .collect(),
        })
    }

    /// The last line of a contract run: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (per-layer metrics for a traced run,
    /// end-to-end ones otherwise).
    pub fn contract_line(&self, traced: bool) -> String {
        let metrics = if traced { &self.layers } else { &self.gated };
        obj(vec![
            ("correct", (self.ops_failed == 0 && self.errors.is_empty()).into()),
            ("attempted", self.ops_attempted.into()),
            ("failed", self.ops_failed.into()),
            (
                "metrics",
                Value::Obj(
                    metrics
                        .iter()
                        .map(|m| {
                            let entry = obj(vec![
                                ("value", m.value.into()),
                                ("unit", m.unit.as_str().into()),
                            ]);
                            (m.name.clone(), entry)
                        })
                        .collect(),
                ),
            ),
        ])
        .emit()
    }
}

/// A result file: the header that says what was run on what, and one
/// entry per workload.
pub struct ResultFile {
    pub header: Value,
    pub workloads: Vec<WorkloadResult>,
}

impl ResultFile {
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("header", self.header.clone()),
            ("workloads", Value::Arr(self.workloads.iter().map(|w| w.to_json()).collect())),
        ])
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let v = json::parse(text)?;
        let header = v.get("header").ok_or("result file has no header")?.clone();
        let workloads = v
            .get("workloads")
            .ok_or("result file has no workloads")?
            .as_arr()
            .iter()
            .map(|w| WorkloadResult::from_json(w).ok_or("malformed workload entry".to_string()))
            .collect::<Result<_, _>>()?;
        Ok(ResultFile { header, workloads })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The host itself moved by more than [`CANARY_LIMIT`], so the pair
    /// says nothing about the program.
    Unresolved,
}

/// Largest relative move of the FMA canary that still lets a workload's
/// numbers be compared.
const CANARY_LIMIT: f64 = 0.10;

/// A file's usual canary reading: the median of all it holds. On a shared
/// host single readings jump 10-20% upwards (a turbo state, an idle sibling
/// thread) without the workloads moving at all, so readings are judged
/// against their own run's norm and only downwards.
fn canary_norm(f: &ResultFile) -> f64 {
    crate::stats::median(f.workloads.iter().flat_map(|w| [w.peak_before, w.peak_after]).collect())
}

/// Whether the canary dipped below the run's norm around workload `w`.
fn canary_dipped(w: &WorkloadResult, norm: f64) -> bool {
    w.peak_before.min(w.peak_after) < (1.0 - CANARY_LIMIT) * norm
}

fn verdict(g: &Gate, a: f64, b: f64, host_moved: bool) -> Verdict {
    let worse = if g.higher_is_better { b < a * (1.0 - g.bound) } else { b > a * (1.0 + g.bound) };
    match (host_moved, worse) {
        (true, _) => Verdict::Unresolved,
        (false, true) => Verdict::Regressed,
        (false, false) => Verdict::Ok,
    }
}

/// One row per (metric, workload) present in both files: both values, the
/// ratio with its base, and the verdict under the metric's bound. Returns
/// the table and whether any row regressed.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Result<(String, bool), String> {
    for (file, label) in [(a, "first"), (b, "second")] {
        if file.header.get("comparable") != Some(&Value::Bool(true)) {
            return Err(format!("the {label} file is a smoke run and compares with nothing"));
        }
    }
    let window = |f: &ResultFile| f.header.get("window_s").and_then(Value::as_f64);
    if window(a) != window(b) {
        return Err("the files were measured over different window lengths".into());
    }
    let mut table = format!(
        "{:<20} {:<13} {:>12} {:>12} {:<8} {:>7}  {:<24} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "unit", "B/A", "base", "bound"
    );
    let mut regressed = false;
    let (norm_a, norm_b) = (canary_norm(a), canary_norm(b));
    let norms_differ = (norm_a - norm_b).abs() > CANARY_LIMIT * norm_a.max(norm_b);
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else { continue };
        let host_moved = norms_differ || canary_dipped(wa, norm_a) || canary_dipped(wb, norm_b);
        for ma in &wa.gated {
            let (Some(mb), Some(g)) = (wb.gated.iter().find(|m| m.name == ma.name), gate(&ma.name))
            else {
                continue;
            };
            let v = verdict(g, ma.value, mb.value, host_moved);
            regressed |= v == Verdict::Regressed;
            // The side on which the metric gets worse.
            let sign = if g.higher_is_better { '-' } else { '+' };
            table += &format!(
                "{:<20} {:<13} {:>12.4} {:>12.4} {:<8} {:>7.4}  {:<24} {:>6}  {}\n",
                wa.name,
                ma.name,
                ma.value,
                mb.value,
                ma.unit,
                mb.value / ma.value,
                format!("A = {:.4} {}", ma.value, ma.unit),
                format!("{sign}{:.0}%", g.bound * 100.0),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved (host peak moved > 10%)",
                }
            );
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(tok_s: f64, peak_after: f64) -> ResultFile {
        let w = WorkloadResult {
            name: "serve.decode".into(),
            gated: vec![
                Metric::new("tok_s", tok_s, "tok/s"),
                Metric::new("itl_ms_p50", 100.0, "ms").note("n=5".into()),
            ],
            diagnostics: vec![Metric::new("rss_peak_mb", 90.5, "MB")],
            layers: vec![Metric::new("dnn.step_ms", 30.6, "ms")],
            ops_attempted: 400,
            ops_failed: 0,
            inputs_fnv: 0xfeed_0000_0000_0001,
            outputs_fnv: 0x0000_0000_0000_0002,
            peak_before: 100.0,
            peak_after,
            errors: vec![],
        };
        let header = obj(vec![("comparable", true.into()), ("window_s", 10.0.into())]);
        ResultFile { header, workloads: vec![w] }
    }

    #[test]
    fn result_files_round_trip_through_their_json() {
        let f = file(32.4, 101.0);
        let back = ResultFile::parse(&f.to_json().emit_pretty()).unwrap();
        assert_eq!(back.workloads, f.workloads);
        assert_eq!(back.header, f.header);
        assert!(ResultFile::parse("{\"header\":{}}").is_err());
    }

    #[test]
    fn compare_applies_each_bound_on_its_worse_side() {
        let base = file(32.4, 101.0);
        let bound = gate("tok_s").unwrap().bound;
        // One point inside the bound passes, one point outside does not.
        let (table, bad) = compare(&base, &file(32.4 * (1.01 - bound), 101.0)).unwrap();
        assert!(!bad && table.contains(" ok"), "{table}");
        let (table, bad) = compare(&base, &file(32.4 * (0.99 - bound), 101.0)).unwrap();
        assert!(bad && table.contains("regressed"), "{table}");
        // Faster is never a regression.
        assert!(!compare(&base, &file(64.8, 101.0)).unwrap().1);
        // A host that moved 15% resolves nothing, and passes nothing.
        let (table, bad) = compare(&base, &file(32.4 * 0.5, 85.0)).unwrap();
        assert!(!bad && table.contains("unresolved") && !table.contains(" ok"), "{table}");
    }

    #[test]
    fn a_canary_dip_unresolves_its_workload_only_and_a_burst_nothing() {
        let three = |peaks: [f64; 3]| {
            let mut f = file(32.4, 100.0);
            let w = f.workloads.pop().unwrap();
            for (i, after) in peaks.into_iter().enumerate() {
                let name = format!("w{i}");
                f.workloads.push(WorkloadResult { name, peak_after: after, ..w.clone() });
            }
            f
        };
        // w1 dips 15% below the run's norm of 100; w2 bursts 30% above it.
        let (table, bad) = compare(&three([100.0; 3]), &three([100.0, 85.0, 130.0])).unwrap();
        let verdict_of = |w: &str| table.lines().find(|l| l.starts_with(w)).unwrap().to_string();
        assert!(!bad && verdict_of("w0").ends_with(" ok"), "{table}");
        assert!(verdict_of("w1").contains("unresolved"), "{table}");
        assert!(verdict_of("w2").ends_with(" ok"), "{table}");
    }

    #[test]
    fn smoke_runs_and_mixed_windows_do_not_compare() {
        let mut smoke = file(32.4, 101.0);
        smoke.header = obj(vec![("comparable", false.into()), ("window_s", 10.0.into())]);
        assert!(compare(&file(32.4, 101.0), &smoke).is_err());
        let mut longer = file(32.4, 101.0);
        longer.header = obj(vec![("comparable", true.into()), ("window_s", 20.0.into())]);
        assert!(compare(&file(32.4, 101.0), &longer).is_err());
    }

    #[test]
    fn the_contract_line_has_exactly_the_contract_keys() {
        let f = file(32.4, 101.0);
        let line = json::parse(&f.workloads[0].contract_line(false)).unwrap();
        let Value::Obj(members) = &line else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let tok = line.get("metrics").unwrap().get("tok_s").unwrap();
        assert_eq!(tok.get("value").unwrap().as_f64(), Some(32.4));
        assert_eq!(tok.get("unit").unwrap().as_str(), Some("tok/s"));
        let traced = json::parse(&f.workloads[0].contract_line(true)).unwrap();
        assert!(traced.get("metrics").unwrap().get("dnn.step_ms").is_some());
    }

    /// `BENCHMARK.json` is written by hand; it must name what the code emits.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let manifest = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            let entries = manifest.get(key).unwrap().as_arr();
            entries.iter().map(|e| e.get("name").unwrap().as_str().unwrap().to_string()).collect()
        };
        let model_workloads: Vec<&str> =
            WORKLOADS.iter().filter(|w| matches!(w.kind, Kind::Model(_))).map(|w| w.name).collect();
        assert_eq!(names("workloads"), model_workloads);
        for e in manifest.get("workloads").unwrap().as_arr() {
            let w = WORKLOADS.iter().find(|w| Some(w.name) == e.get("name").unwrap().as_str());
            assert_eq!(e.get("why").unwrap().as_str(), Some(w.unwrap().why));
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let mut gates = names("end_to_end");
        gates.sort();
        let mut want = MODEL_GATES.to_vec();
        want.sort();
        assert_eq!(gates, want);
        for e in manifest.get("end_to_end").unwrap().as_arr() {
            let g = gate(e.get("name").unwrap().as_str().unwrap()).unwrap();
            assert_eq!(e.get("unit").unwrap().as_str(), Some(g.unit));
            assert_eq!(e.get("bound").unwrap().as_f64(), Some(g.bound));
            let better = if g.higher_is_better { "higher" } else { "lower" };
            assert_eq!(e.get("better").unwrap().as_str(), Some(better));
        }
        let layers = manifest.get("per_layer").unwrap().as_arr();
        assert_eq!(layers.len(), LAYER_METRICS.len());
        for (e, (name, unit, higher)) in layers.iter().zip(LAYER_METRICS) {
            assert_eq!(e.get("name").unwrap().as_str(), Some(name));
            assert_eq!(e.get("unit").unwrap().as_str(), Some(unit));
            let better = if higher { "higher" } else { "lower" };
            assert_eq!(e.get("better").unwrap().as_str(), Some(better));
        }
        assert_eq!(manifest.get("paths").unwrap().as_arr(), [Value::from("benchmark")]);
    }
}
