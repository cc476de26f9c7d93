//! `plbench`: the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! plbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! plbench run [--seed <n>] [--seconds <s>] [--trace] [--smoke] [--out <file>]
//! plbench compare <A.json> <B.json>
//! ```

mod host;
mod json;
mod kernels;
mod ledger;
mod report;
mod rng;
mod stats;
mod trace;
mod traffic;

use json::{obj, Value};
use ledger::Effort;
use pl_dnn::DecoderConfig;
use report::{Kind, Metric, ResultFile, Workload, WorkloadResult, LAYER_METRICS, WORKLOADS};
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traffic::{Stack, Traffic, POOL_THREADS};

/// Measured window of `run` when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;
/// Window of a `--smoke` run: long enough for one short request.
const SMOKE_SECONDS: f64 = 0.3;
/// Decode steps of each first request that the output check replays.
const CHECK_STEPS: usize = 8;
/// Where a traced run leaves its spans, one file per workload.
const TRACE_DIR: &str = "benchmark/results";

#[derive(Clone, Copy)]
struct Opts {
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

/// Builds `make()` at least `min_builds` times and for at least 0.3 s in
/// all (short set-ups are repeated until their median is steady), and
/// returns the last product with the median build time in seconds.
fn timed_setup<T>(min_builds: usize, mut make: impl FnMut() -> T) -> (T, f64) {
    let (mut times, mut total) = (Vec::new(), 0.0);
    loop {
        let t = Instant::now();
        let built = make();
        times.push(t.elapsed().as_secs_f64());
        total += times[times.len() - 1];
        if times.len() >= min_builds && (total >= 0.3 || min_builds == 1 || times.len() >= 200) {
            return (built, stats::median(times));
        }
    }
}

fn latency_metrics(name: &str, sorted_ms: &[f64], gated: &mut Vec<Metric>, diag: &mut Vec<Metric>) {
    let n = sorted_ms.len();
    gated.push(
        report::gated(&format!("{name}_ms_p50"), stats::quantile(sorted_ms, 500))
            .note(format!("n={n}")),
    );
    let tail = match stats::tail(sorted_ms) {
        Some((p, v)) => {
            Metric::new(&format!("{name}_ms_tail"), v, "ms").note(format!("p{p}, n={n}"))
        }
        None => Metric::new(&format!("{name}_ms_tail"), f64::NAN, "ms")
            .note(format!("n={n}: too few samples for a tail")),
    };
    diag.push(tail);
}

/// Ledgers already measured in this process, by model: the probes do not
/// depend on the traffic, so `run` takes them once per model.
type Ledgers = Vec<(DecoderConfig, Vec<Metric>)>;

fn run_model(
    w: &Workload,
    traffic: &Traffic,
    o: Opts,
    ledgers: &mut Ledgers,
    res: &mut WorkloadResult,
) {
    let mut traffic = *traffic;
    if o.smoke {
        traffic.prompt = traffic.prompt.min(16);
        traffic.steps = traffic.steps.min(4);
    }
    // Set-up is reported by untraced runs only; a traced run builds once.
    let builds = if o.smoke || o.trace { 1 } else { 3 };
    let (stack, setup_s) = timed_setup(builds, || Stack::build(traffic.model, traffic.target));
    let check_steps = if o.smoke { 2 } else { CHECK_STEPS };
    let window = Duration::from_secs_f64(o.seconds);
    let r = traffic::run(&traffic, &stack, o.seed, window, o.trace, check_steps);
    drop(stack);

    res.gated.push(
        report::gated("tok_s", r.tok_s).note(format!(
            "{} sessions, P={} O={}",
            traffic.sessions, traffic.prompt, traffic.steps
        )),
    );
    latency_metrics("ttft", &r.ttft_ms, &mut res.gated, &mut res.diagnostics);
    latency_metrics("itl", &r.itl_ms, &mut res.gated, &mut res.diagnostics);
    res.gated.push(report::gated("setup_s", setup_s));
    res.diagnostics.push(Metric::new("warmup_s", r.warmup_s, "s"));
    res.diagnostics.push(Metric::new("rss_peak_mb", host::rss_peak_mb(), "MB"));
    res.diagnostics.push(Metric::new("kv_peak_mb", r.kv_peak_mb, "MB"));
    res.diagnostics.push(Metric::new("ops_checked", r.ops_checked as f64, "count"));
    res.ops_attempted = r.ops_attempted;
    res.ops_failed = r.ops_failed;
    res.inputs_fnv = r.inputs_fnv;
    res.outputs_fnv = r.outputs_fnv;
    res.errors = r.errors;

    if !o.trace {
        return;
    }
    let mut rec = trace::Recorder::new(Instant::now(), 0);
    rec.on = true;
    let mut layers = match ledgers.iter().find(|(model, _)| *model == traffic.model) {
        Some((_, probed)) => probed.clone(),
        None => {
            let probed = ledger::run(traffic.model, o.seed, Effort { smoke: o.smoke }, &mut rec);
            ledgers.push((traffic.model, probed.clone()));
            probed
        }
    };
    layers.extend(r.counters.iter().map(|(name, value)| report::layer(name, *value)));
    let (traced, untraced) = r.round_ms_by_tracing.unwrap_or((f64::NAN, f64::NAN));
    layers.push(report::layer("trace_overhead_pct", 100.0 * (traced - untraced) / untraced).note(
        format!("decode rounds take {traced:.3} ms with per-op spans, {untraced:.3} ms without"),
    ));
    // Report in the catalogue's order, and only what the catalogue names.
    res.layers = LAYER_METRICS
        .iter()
        .filter_map(|(name, _, _)| layers.iter().find(|m| m.name == *name).cloned())
        .collect();
    if res.layers.len() != LAYER_METRICS.len() || layers.len() != LAYER_METRICS.len() {
        res.errors.push("the ledger and the metric catalogue disagree".into());
    }

    // Ledger spans are on their own clock, which started after the traffic.
    let mut spans = r.spans;
    spans.extend(rec.spans);
    let path = format!("{TRACE_DIR}/trace-{}.json", w.name);
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| trace::write_spans(std::io::BufWriter::new(f), spans));
    match written {
        Ok(()) => println!("  spans written to {path}"),
        Err(e) => res.errors.push(format!("{path}: {e}")),
    }
}

fn run_kernels(o: Opts, res: &mut WorkloadResult) {
    let pool = pl_runtime::ThreadPool::new(POOL_THREADS);
    let builds = if o.smoke { 1 } else { 3 };
    let (mut cases, setup_s) = timed_setup(builds, || {
        kernels::KERNELS.iter().map(|k| (k.build)(o.seed)).collect::<Vec<_>>()
    });
    let window = Duration::from_secs_f64(o.seconds / kernels::KERNELS.len() as f64);
    for (spec, case) in kernels::KERNELS.iter().zip(&mut cases) {
        let min_calls = if o.smoke { 1 } else { 3 };
        let times = kernels::time_calls(|| case.call(&pool), 1, min_calls, window);
        res.ops_attempted += times.len() as u64;
        let calls = times.len();
        res.gated.push(
            report::gated(spec.metric, spec.ops / stats::median(times) / 1e9)
                .note(format!("{}, n={calls}", spec.shape)),
        );
        let error = case.error();
        if error.is_nan() || error > 1.0 {
            res.ops_failed += 1;
            res.errors.push(format!("{}: output error is {error:.3} of its tolerance", spec.shape));
        }
    }
    res.gated.push(report::gated("setup_s", setup_s));
    res.diagnostics.push(Metric::new("rss_peak_mb", host::rss_peak_mb(), "MB"));
}

fn run_workload(w: &Workload, o: Opts, ledgers: &mut Ledgers) -> WorkloadResult {
    let effort = Effort { smoke: o.smoke };
    let mut res = WorkloadResult { name: w.name.to_string(), ..Default::default() };
    res.peak_before = ledger::host_peak(effort);
    match &w.kind {
        Kind::Kernels => run_kernels(o, &mut res),
        Kind::Model(traffic) => run_model(w, traffic, o, ledgers, &mut res),
    }
    res.peak_after = ledger::host_peak(effort);
    res
}

fn print_result(r: &WorkloadResult) {
    let line = |m: &Metric, bound: String| {
        println!("  {:<40} {:>14.4} {:<8} {bound:<12} {}", m.name, m.value, m.unit, m.note);
    };
    for m in &r.gated {
        let g = report::gate(&m.name).expect("gated metrics are in the catalogue");
        let arrow = if g.higher_is_better { "higher" } else { "lower" };
        line(m, format!("{arrow} {:.0}%", g.bound * 100.0));
    }
    r.diagnostics.iter().for_each(|m| line(m, String::new()));
    r.layers.iter().for_each(|m| line(m, String::new()));
    println!(
        "  ops_attempted {} ops_ok {} ops_failed {}",
        r.ops_attempted,
        r.ops_attempted - r.ops_failed.min(r.ops_attempted),
        r.ops_failed
    );
    if r.inputs_fnv != 0 {
        println!("  inputs_fnv {:016x} outputs_fnv {:016x}", r.inputs_fnv, r.outputs_fnv);
    }
    println!("  host.peak_gflops before {:.2} after {:.2}", r.peak_before, r.peak_after);
    r.errors.iter().for_each(|e| println!("  ERROR {e}"));
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn header(o: Opts) -> Value {
    let isa = host::detect_isa();
    obj(vec![
        ("git_rev", command_output("git", &["rev-parse", "--short", "HEAD"]).into()),
        ("rustc", command_output("rustc", &["-V"]).into()),
        ("rustflags", std::env::var("RUSTFLAGS").unwrap_or_default().into()),
        ("nproc", (std::thread::available_parallelism().map_or(1, |n| n.get()) as u64).into()),
        ("pool_threads", (POOL_THREADS as u64).into()),
        (
            "isa",
            obj(vec![
                ("avx2", isa.avx2.into()),
                ("fma", isa.fma.into()),
                ("avx512f", isa.avx512f.into()),
                ("avx512_vnni", isa.avx512_vnni.into()),
            ]),
        ),
        ("seed", o.seed.into()),
        ("window_s", o.seconds.into()),
        ("traced", o.trace.into()),
        // A smoke run exercises the code paths; its numbers mean nothing.
        ("comparable", (!o.smoke).into()),
    ])
}

/// Runs all six workloads (and, with `--trace`, each model workload again
/// traced) and optionally writes the result file.
fn run_all(o: Opts, out: Option<&str>) -> ExitCode {
    let head = header(o);
    println!("plbench {}", head.emit());
    let mut results = Vec::new();
    let mut ledgers = Ledgers::new();
    for w in &WORKLOADS {
        println!("{} — {}", w.name, w.why);
        let is_model = matches!(w.kind, Kind::Model(_));
        // A smoke run makes one pass per workload, traced, so that every
        // code path (rounds with and without spans, the ledger) runs once.
        let mut res = run_workload(w, Opts { trace: o.smoke && is_model, ..o }, &mut ledgers);
        if o.trace && !o.smoke && is_model {
            let traced = run_workload(w, o, &mut ledgers);
            res.layers = traced.layers;
            res.errors.extend(traced.errors);
            res.ops_failed += traced.ops_failed;
            res.ops_attempted += traced.ops_attempted;
        }
        print_result(&res);
        results.push(res);
    }
    let failed = results.iter().any(|r| r.ops_failed > 0 || !r.errors.is_empty());
    if let Some(path) = out {
        let file = ResultFile { header: head, workloads: results };
        if let Err(e) = std::fs::write(path, file.to_json().emit_pretty()) {
            eprintln!("plbench: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("results written to {path}");
    }
    if failed {
        eprintln!("plbench: output checks failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One workload, as `BENCHMARK.json`'s command is run: human-readable
/// lines, then the one-line JSON result last.
fn run_one(name: &str, o: Opts) -> ExitCode {
    let Some(w) = WORKLOADS.iter().find(|w| w.name == name) else {
        eprintln!("plbench: no workload named {name:?}");
        return ExitCode::from(2);
    };
    if o.trace && matches!(w.kind, Kind::Kernels) {
        eprintln!(
            "plbench: {name} has no traced form; every model workload's ledger probes the kernels"
        );
        return ExitCode::from(2);
    }
    println!("{} — {}", w.name, w.why);
    let res = run_workload(w, o, &mut Ledgers::new());
    print_result(&res);
    let line = res.contract_line(o.trace);
    let mut stdout = std::io::stdout().lock();
    if writeln!(stdout, "{line}").and_then(|()| stdout.flush()).is_err() {
        return ExitCode::FAILURE;
    }
    if res.ops_failed > 0 || !res.errors.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| ResultFile::parse(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    match load(a).and_then(|fa| load(b).and_then(|fb| report::compare(&fa, &fb))) {
        Ok((table, regressed)) => {
            println!("A = {a}\nB = {b}\n{table}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("plbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  plbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  plbench run [--seed <n>] [--seconds <s>] [--trace] [--smoke] [--out <file>]
  plbench compare <A.json> <B.json>";

/// The value given for `flag`, parsed, or `default` when it was not given.
fn flag_value<T: std::str::FromStr>(
    flag: &str,
    given: Option<&str>,
    default: T,
) -> Result<T, String> {
    given.map_or(Ok(default), |v| v.parse().map_err(|_| format!("{flag} {v}: not a valid value")))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);

    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare_files(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let smoke = has("--smoke");
    let opts = flag_value("--seed", value_of("--seed"), 1u64).and_then(|seed| {
        let default = if smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS };
        let seconds = flag_value("--seconds", value_of("--seconds"), default)?;
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds {seconds}: out of range"));
        }
        Ok(Opts { seed, seconds, trace: false, smoke })
    });
    let opts = match opts {
        Ok(o) => o,
        Err(e) => {
            eprintln!("plbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.first().map(String::as_str), value_of("--workload")) {
        (Some("run"), _) => run_all(Opts { trace: has("--trace"), ..opts }, value_of("--out")),
        (_, Some(name)) => run_one(name, Opts { trace: value_of("--trace") == Some("1"), ..opts }),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
