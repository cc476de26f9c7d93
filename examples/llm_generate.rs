//! LLM decoding example (paper §IV-A / Fig. 11): prompt prefill ("first
//! token") and KV-cached autoregressive steps ("next tokens") on a scaled
//! decoder.
//!
//! ```sh
//! cargo run --release --example llm_generate
//! ```

use pl_dnn::{Decoder, DecoderConfig};
use pl_runtime::global_pool;
use pl_tensor::{fill_uniform, Xorshift};

fn main() {
    let pool = global_pool();
    let cfg = DecoderConfig { layers: 2, hidden: 128, heads: 4, ffn: 256, vocab: 512, ffn_mats: 2 };
    let prompt = 32usize;
    let generate = 8usize;
    let mut decoder = Decoder::new(cfg, prompt + generate, 5);

    let mut rng = Xorshift::new(6);
    let mut x = vec![0.0f32; cfg.hidden * prompt];
    fill_uniform(&mut x, &mut rng, -0.5, 0.5);

    let t0 = std::time::Instant::now();
    let mut state = decoder.prefill(&x, prompt, pool);
    let t_first = t0.elapsed().as_secs_f64();
    println!("prefill {prompt} tokens: {:.2} ms (first-token latency)", t_first * 1e3);

    let mut next_times = Vec::new();
    for i in 0..generate {
        // Feed the last hidden state back in (greedy hidden-state loop;
        // a real LM would sample a token and embed it).
        let last = state[state.len() - cfg.hidden..].to_vec();
        let t0 = std::time::Instant::now();
        state = decoder.step(&last, pool);
        let dt = t0.elapsed().as_secs_f64();
        next_times.push(dt);
        println!("  token {i}: {:.2} ms, {} cached", dt * 1e3, decoder.cached_tokens());
    }
    let avg_next = next_times.iter().sum::<f64>() / next_times.len() as f64;
    println!(
        "avg next-token {:.2} ms; prefill/next ratio {:.1}x",
        avg_next * 1e3,
        t_first / avg_next
    );
}
