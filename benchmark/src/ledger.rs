//! The layer ledger: each layer probed from outside, through its public
//! functions, on the shapes the workload's model uses. Adjacent rows are
//! meant to be subtracted: a step minus its plan executions is time the
//! decoder owns, a served step minus a direct step is time the server owns.

use crate::host;
use crate::kernels::{time_calls, KERNELS};
use crate::report::{layer, Metric};
use crate::rng::SplitMix64;
use crate::stats::median;
use crate::trace::Recorder;
use crate::traffic::{router_config, server_config, POOL_THREADS, WEIGHT_SEED};
use pl_dnn::matmul::Trans;
use pl_dnn::{
    DecoderConfig, DecoderModel, KvPagePool, KvSnapshot, MatmulPlan, DEFAULT_PAGE_TOKENS,
};
use pl_router::Router;
use pl_runtime::ThreadPool;
use pl_serve::{Server, SessionExport};
use pl_tpp::brgemm::{Brgemm, BrgemmDesc};
use std::sync::Arc;
use std::time::Duration;

/// Context length of the decode-step probes (the prompt that is prefilled
/// to get there also gives `dnn.prefill_ms_per_tok`); 16 in a smoke run.
const CONTEXT: usize = 96;
/// Activation widths of the plan probes: one decode lane, a full decode
/// batch, a whole `serve.prefill` prompt.
const WIDTHS: [usize; 3] = [1, 8, 96];

/// How hard to probe: `smoke` keeps every code path and cuts repetitions.
#[derive(Clone, Copy)]
pub struct Effort {
    pub smoke: bool,
}

impl Effort {
    fn calls(self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// Untimed calls before the timed ones.
    fn warm(self, full: usize) -> usize {
        if self.smoke {
            0
        } else {
            full
        }
    }

    fn window(self, ms: u64) -> Duration {
        Duration::from_millis(if self.smoke { 1 } else { ms })
    }

    fn context(self) -> usize {
        if self.smoke {
            16
        } else {
            CONTEXT
        }
    }
}

/// Peak FMA rate over the pool's thread count: the roofline's compute
/// roof, and run before and after a workload as the noise canary.
pub fn host_peak(effort: Effort) -> f64 {
    host::peak_gflops(POOL_THREADS, effort.window(200))
}

/// Runs every probe for `cfg` and returns the per-layer metrics. Each probe
/// is also a span, so the trace shows what the ledger itself cost.
pub fn run(cfg: DecoderConfig, seed: u64, effort: Effort, rec: &mut Recorder) -> Vec<Metric> {
    let mut out = Vec::new();
    let pool = Arc::new(ThreadPool::new(POOL_THREADS));

    // Host roofline.
    let peak = rec.time(0, 0, "ledger.host", || host_peak(effort));
    out.push(layer("host.peak_gflops", peak));
    let llc = host::llc_bytes();
    // Each triad array is four times the last-level cache, capped at
    // 128 MiB: first touch costs ~4 us a page on a VM, so three 1 GiB
    // arrays would take longer than the workload. Smoke runs use 1/8.
    let array = (4 * llc).min(128 << 20) / if effort.smoke { 8 } else { 1 };
    let triad = rec.time(0, 0, "ledger.host", || host::triad_gbs(POOL_THREADS, array, 2));
    out.push(layer("host.triad_gbs", triad).note(format!(
        "3 arrays of {} MiB, LLC {} MiB",
        array >> 20,
        llc >> 20
    )));

    // pl_tpp: the microkernel alone, operands in cache, one thread.
    let brgemm_gflops = rec.time(0, 0, "ledger.tpp", || {
        let (m, brcount) = (32, 16);
        let kernel = Brgemm::<f32, f32, f32>::new(BrgemmDesc::blocked(m, m, m));
        let mut rng = SplitMix64::stream(seed, &[20]);
        let a = rng.vec(m * m * brcount, -0.5, 0.5);
        let b = rng.vec(m * m * brcount, -0.5, 0.5);
        let mut c = vec![0.0f32; m * m];
        let call = || {
            c.fill(0.0);
            kernel.execute_stride(&a, m * m, &b, m * m, &mut c, brcount);
        };
        let t = median(time_calls(call, 2, effort.calls(20), effort.window(100)));
        2.0 * (m * m * m * brcount) as f64 / t / 1e9
    });
    out.push(layer("tpp.brgemm_gflops", brgemm_gflops));
    out.push(layer("tpp.brgemm_pct_peak", 100.0 * brgemm_gflops / (peak / POOL_THREADS as f64)));

    // pl_runtime: an empty parallel region, fork to join.
    let region = rec.time(0, 0, "ledger.runtime", || {
        median(time_calls(|| pool.parallel(|_| {}), 10, effort.calls(2000), effort.window(20)))
    });
    out.push(layer("runtime.region_us", region * 1e6));

    // pl_kernels: the standalone kernels, a few calls each.
    rec.time(0, 0, "ledger.kernels", || {
        for spec in &KERNELS {
            let mut case = (spec.build)(seed);
            let t = median(time_calls(
                || case.call(&pool),
                effort.warm(1),
                effort.calls(2),
                effort.window(100),
            ));
            let name = match spec.metric {
                "gemm_gflops" => "kernels.gemm_gflops.512x512x512".to_string(),
                "gemv_gflops" => "kernels.gemm_gflops.2048x8x512".to_string(),
                other => format!("kernels.{other}"),
            };
            out.push(layer(&name, spec.ops / t / 1e9).note(spec.shape.into()));
            if let Some(shape) = name.strip_prefix("kernels.gemm_gflops.") {
                // The share of the call that the microkernel's own rate on
                // every pool thread does not explain: loop nest, region
                // fork/join, and operands that no longer sit in cache.
                let explained = spec.ops / (brgemm_gflops * 1e9 * POOL_THREADS as f64);
                out.push(layer(
                    &format!("kernels.loop_overhead_pct.{shape}"),
                    100.0 * (1.0 - explained / t),
                ));
            }
        }
    });

    // pl_dnn: prepared plans on the model's three projection shapes.
    let (h, f) = (cfg.hidden, cfg.ffn);
    let mut plan_us_n1 = [0.0f64; 3];
    rec.time(0, 0, "ledger.dnn.plans", || {
        for (i, (role, m, k)) in
            [("attn", h, h), ("ffn_up", f, h), ("ffn_down", h, f)].into_iter().enumerate()
        {
            let mut rng = SplitMix64::stream(seed, &[21, i as u64]);
            let plan = MatmulPlan::new(&rng.vec(m * k, -0.05, 0.05), Trans::No, m, k);
            for n in WIDTHS {
                let act = rng.vec(k * n, -1.0, 1.0);
                let t = median(time_calls(
                    || drop(plan.execute(&act, n, &pool)),
                    effort.warm(1),
                    effort.calls(2),
                    effort.window(30),
                ));
                if n == 1 {
                    plan_us_n1[i] = t * 1e6;
                }
                out.push(
                    layer(&format!("dnn.plan_exec_us.{role}.n{n}"), t * 1e6)
                        .note(format!("{m}x{k} weight")),
                );
            }
        }
    });

    // pl_dnn: the decoder itself.
    let model = Arc::new(DecoderModel::new(cfg, WEIGHT_SEED));
    let mut rng = SplitMix64::stream(seed, &[22]);
    let mut state = model.new_state(128);
    let context_tokens = effort.context();
    let prompt = rng.vec(h * context_tokens, -1.0, 1.0);
    let (prefill_s, last) = rec.time(0, 0, "ledger.dnn.prefill", || {
        let t = std::time::Instant::now();
        let y = model.forward(&mut state, &prompt, context_tokens, &pool);
        (t.elapsed().as_secs_f64(), y[y.len() - h..].to_vec())
    });
    out.push(
        layer("dnn.prefill_ms_per_tok", prefill_s * 1e3 / context_tokens as f64)
            .note(format!("one {context_tokens}-token prompt")),
    );
    let context: KvSnapshot = state.snapshot();

    let steps = effort.calls(8);
    let step_s = rec.time(0, 0, "ledger.dnn.step", || {
        let mut x = last.clone();
        median(time_calls(|| x = model.forward(&mut state, &x, 1, &pool), 0, steps, Duration::ZERO))
    });
    out.push(layer("dnn.step_ms", step_s * 1e3));
    let step_1t = rec.time(0, 0, "ledger.dnn.step_1t", || {
        let one = ThreadPool::new(1);
        let pages = KvPagePool::new(h, DEFAULT_PAGE_TOKENS);
        let mut state =
            model.state_from_snapshot(&pages, &context).expect("an unbounded pool has room");
        let mut x = last.clone();
        median(time_calls(
            || x = model.forward(&mut state, &x, 1, &one),
            0,
            effort.calls(4),
            Duration::ZERO,
        ))
    });
    out.push(layer("dnn.step_ms_1t", step_1t * 1e3).note("one-thread pool".into()));
    let proj_ms = cfg.layers as f64 * (4.0 * plan_us_n1[0] + plan_us_n1[1] + plan_us_n1[2]) / 1e3;
    out.push(
        layer("dnn.step_nonproj_ms", step_s * 1e3 - proj_ms)
            .note(format!("step minus {proj_ms:.3} ms of plan executes")),
    );
    out.push(
        layer("dnn.weight_mb_per_step", model.weight_stream_bytes_per_step() as f64 / 1e6)
            .note("computed from plan sizes".into()),
    );

    // pl_serve: one session through a started server, at the same context.
    let export = SessionExport { tenant: 0, generated: 0, kv: context };
    let served = rec.time(0, 0, "ledger.serve.step", || {
        let mut server = Server::new(Arc::clone(&model), Arc::clone(&pool), server_config());
        server.start();
        let id = server.import_session(&export).expect("import the probe session");
        let mut x = last.clone();
        let t = median(time_calls(
            || x = server.step(id, &x).expect("served step"),
            0,
            steps,
            Duration::ZERO,
        ));
        server.shutdown();
        t
    });
    out.push(layer("serve.step_overhead_us", (served - step_s) * 1e6));

    // pl_serve: one hand-pumped batch of B queued decode lanes.
    rec.time(0, 0, "ledger.serve.pump", || {
        for lanes in [1usize, 4, 8] {
            let server = Server::new(Arc::clone(&model), Arc::clone(&pool), server_config());
            let ids: Vec<u64> = (0..lanes)
                .map(|_| server.import_session(&export).expect("import a lane"))
                .collect();
            let round = || {
                let replies: Vec<_> = ids
                    .iter()
                    .map(|&id| server.submit_step(id, &last).expect("queue a lane"))
                    .collect();
                let t = std::time::Instant::now();
                let mut done = 0;
                while done < lanes {
                    done += server.pump();
                }
                let took = t.elapsed().as_secs_f64();
                replies.into_iter().for_each(|r| drop(r.recv().expect("lane reply")));
                took
            };
            let t = median((0..effort.calls(2)).map(|_| round()).collect());
            out.push(layer(&format!("serve.pump_ms.b{lanes}"), t * 1e3));
        }
    });

    // pl_router: a step through the router against the same step through
    // one of its shards' equals (a server on a one-thread pool).
    let routed = rec.time(0, 0, "ledger.router.step", || {
        let router_steps = effort.calls(4);
        let prompt = &prompt[..8 * h];
        let mut router = Router::new(Arc::clone(&model), router_config()).expect("router config");
        router.start();
        let id = router.create_session(0).expect("router session");
        let y = router.prefill(id, prompt, 8).expect("router prefill");
        let mut x = y[y.len() - h..].to_vec();
        let via_router = median(time_calls(
            || x = router.step(id, &x).expect("routed step"),
            0,
            router_steps,
            Duration::ZERO,
        ));
        router.shutdown();

        let one = Arc::new(ThreadPool::new(POOL_THREADS / 2));
        let mut server = Server::new(Arc::clone(&model), one, server_config());
        server.start();
        let id = server.create_session(0).expect("shard-sized session");
        let y = server.prefill(id, prompt, 8).expect("shard-sized prefill");
        let mut x = y[y.len() - h..].to_vec();
        let direct = median(time_calls(
            || x = server.step(id, &x).expect("shard-sized step"),
            0,
            router_steps,
            Duration::ZERO,
        ));
        server.shutdown();
        via_router - direct
    });
    out.push(layer("router.route_overhead_us", routed * 1e6));
    out
}
