//! Property-based tests over the core invariants.
//!
//! The seed expressed these with `proptest`; the workspace has no
//! registry dependencies, so the same properties run through a small
//! hand-rolled harness: each property draws its inputs from a seeded
//! [`Xorshift`] stream, so runs are deterministic and a failing case is
//! reproducible from the printed case index.

use pl_kernels::gemm::reference_gemm;
use pl_kernels::{Gemm, GemmShape, GemmTuning};
use pl_runtime::ThreadPool;
use pl_tensor::{Bf16, BlockedMatrix, Element, Xorshift};

/// Draws a value in `lo..hi` from the stream.
fn draw(rng: &mut Xorshift, lo: usize, hi: usize) -> usize {
    lo + (rng.next_u64() as usize) % (hi - lo)
}

fn block_of(dim: usize) -> usize {
    for c in [16, 8, 4, 2, 1] {
        if dim.is_multiple_of(c) {
            return c;
        }
    }
    1
}

/// Any parallel spec over any (divisible) shape equals the reference.
#[test]
fn gemm_matches_reference() {
    let mut rng = Xorshift::new(0x9e3779b97f4a7c15);
    let specs = ["aBC", "BCa", "Bca", "cBa", "aCB"];
    let pool = ThreadPool::new(2);
    for case in 0..24 {
        let (bm, bn, bk) = (8usize, 8usize, 8usize);
        let (mb, nb, kb) = (draw(&mut rng, 1, 4), draw(&mut rng, 1, 4), draw(&mut rng, 1, 5));
        let (m, n, k) = (mb * bm, nb * bn, kb * bk);
        let spec = specs[draw(&mut rng, 0, specs.len())];
        let seed = rng.next_u64() % 1000;
        let sh = GemmShape { m, n, k, bm, bn, bk };
        let mut data_rng = Xorshift::new(seed);
        let mut a_cm = vec![0.0f32; m * k];
        let mut b_cm = vec![0.0f32; k * n];
        pl_tensor::fill_uniform(&mut a_cm, &mut data_rng, -1.0, 1.0);
        pl_tensor::fill_uniform(&mut b_cm, &mut data_rng, -1.0, 1.0);
        let mut a = BlockedMatrix::<f32>::a_layout(m, k, bm, bk).unwrap();
        a.pack_from_colmajor(&a_cm);
        let mut b = BlockedMatrix::<f32>::b_layout(k, n, bk, bn).unwrap();
        b.pack_from_colmajor(&b_cm);
        let gemm = Gemm::<f32, f32, f32>::new(sh, GemmTuning::simple(spec)).unwrap();
        let mut c = BlockedMatrix::<f32>::c_layout(m, n, bm, bn).unwrap();
        gemm.execute(&a, &b, &mut c, &pool).unwrap();
        let want = reference_gemm(&a_cm, &b_cm, m, n, k);
        let got = c.unpack_to_colmajor();
        for i in 0..got.len() {
            assert!(
                (got[i] - want[i]).abs() < 1e-3 * k as f32,
                "case {case}: spec {spec} {m}x{n}x{k} idx {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }
}

/// Blocked-matrix pack/unpack round-trips for arbitrary shapes.
#[test]
fn blocked_roundtrip() {
    let mut rng = Xorshift::new(0xdeadbeefcafe);
    for case in 0..32 {
        let rows_b = draw(&mut rng, 1, 6);
        let cols_b = draw(&mut rng, 1, 6);
        let br = block_of(rows_b * 4);
        let bc = block_of(cols_b * 4);
        let rows = rows_b * br.max(4);
        let cols = cols_b * bc.max(4);
        let br = block_of(rows);
        let bc = block_of(cols);
        let mut data_rng = Xorshift::new(rng.next_u64() % 500);
        let src: Vec<f32> = (0..rows * cols).map(|_| data_rng.next_f32() - 0.5).collect();
        let mut m = BlockedMatrix::<f32>::a_layout(rows, cols, br, bc).unwrap();
        m.pack_from_colmajor(&src);
        assert_eq!(m.unpack_to_colmajor(), src, "case {case}: {rows}x{cols} b{br}x{bc}");
    }
}

/// BF16 conversion is monotone and bounded by one ULP of 8-bit mantissa.
#[test]
fn bf16_conversion_error_bound() {
    let mut rng = Xorshift::new(0x1234567);
    let mut checked = 0usize;
    while checked < 256 {
        let bits = rng.next_u64() as u32;
        let v = f32::from_bits(bits);
        if !(v.is_finite() && v.abs() > 1e-30 && v.abs() < 1e30) {
            continue;
        }
        checked += 1;
        let r = Bf16::from_f32(v).to_f32();
        assert!(((r - v) / v).abs() <= 2.0f32.powi(-8), "bits {bits:#x}: {v} -> {r}");
    }
}

/// Softmax over random columns is a probability distribution.
#[test]
fn softmax_is_distribution() {
    let mut rng = Xorshift::new(0xf00dfeed);
    for case in 0..32 {
        let n = draw(&mut rng, 1, 32);
        let mut data_rng = Xorshift::new(rng.next_u64() % 500);
        let x: Vec<f32> = (0..n).map(|_| (data_rng.next_f32() - 0.5) * 20.0).collect();
        let mut y = vec![0.0f32; n];
        pl_tpp::softmax::softmax_cols(n, 1, &x, n, &mut y, n);
        let s: f32 = y.iter().sum();
        assert!((s - 1.0).abs() < 1e-4, "case {case}: sum {s}");
        assert!(y.iter().all(|&v| (0.0..=1.0).contains(&v)), "case {case}");
    }
}

/// Any spec string the generator emits parses and builds a plan.
#[test]
fn generated_specs_always_compile() {
    let mut rng = Xorshift::new(0xabcdef);
    for case in 0..24 {
        let c = pl_autotuner::Constraints {
            max_blockings: vec![draw(&mut rng, 0, 2), draw(&mut rng, 0, 3), 1],
            parallel_loops: vec![1, 2],
            max_candidates: draw(&mut rng, 5, 60),
        };
        let specs = pl_autotuner::generate(3, &c);
        assert!(!specs.is_empty(), "case {case}");
        for s in &specs {
            parlooper::spec::parse(s, 3).unwrap_or_else(|e| panic!("case {case}: {s}: {e:?}"));
        }
    }
}

/// The schedule simulation covers the iteration space exactly once for
/// worksharing specs, for any thread count.
#[test]
fn simulation_partition_is_exact() {
    let mut rng = Xorshift::new(0x5eed);
    for case in 0..24 {
        let threads = draw(&mut rng, 1, 6);
        let trips = draw(&mut rng, 1, 8);
        let specs = vec![
            parlooper::LoopSpecs::new(0, trips * 2, 1),
            parlooper::LoopSpecs::new(0, trips * 3, 1),
        ];
        let tl = parlooper::ThreadedLoop::new(&specs, "AB").unwrap();
        let sim = tl.simulate(threads);
        let mut all: Vec<Vec<usize>> = sim.into_iter().flatten().collect();
        all.sort();
        all.dedup();
        assert_eq!(
            all.len(),
            trips * 2 * trips * 3,
            "case {case}: threads {threads} trips {trips}"
        );
    }
}

#[test]
fn bf16_element_trait_consistency() {
    for i in 0..1000u32 {
        let v = (i as f32 - 500.0) * 0.37;
        assert_eq!(Bf16::from_f32(v).to_f32(), Bf16::from_f32_rne(v).to_f32_exact());
    }
}

/// Random alloc / append / pin / drop / snapshot sequences over a bounded
/// KV page pool — with a small prefix cache registering sequences,
/// handing their pages to new ones (adopt-then-append), evicting entries
/// adopters still hold and outliving adopters that close — hold the
/// allocator's invariants: the pool's `allocated` count always equals the
/// number of distinct live pages (no leak, no double-free), every
/// sequence reads back exactly what was appended or adopted, pinned page
/// handles are never mutated through another writer (COW isolation), and
/// exhaustion only fires at the residency bound.
#[test]
fn kv_page_pool_refcount_discipline() {
    use pl_dnn::{KvPage, KvPagePool, KvSeq, KvSnapshot, PrefixCache};
    use std::collections::HashSet;
    use std::sync::Arc;

    let mut rng = Xorshift::new(0xbadc0ffee);
    let (mut cow_seen, mut adoptions) = (0u64, 0u64);
    for case in 0..16 {
        let hidden = [3usize, 4, 7][draw(&mut rng, 0, 3)];
        let page_tokens = [1usize, 2, 3, 4][draw(&mut rng, 0, 4)];
        let max_pages = draw(&mut rng, 6, 40);
        let pool = KvPagePool::bounded(hidden, page_tokens, max_pages);
        // Small enough that registrations evict entries still adopted.
        let cache = PrefixCache::new(&pool, 3);
        // The K rows of a sequence stand in for its prompt, the V rows
        // for its outputs: `(rows, prompt, outputs)` per registration.
        type Registered = (Vec<(Vec<f32>, Vec<f32>)>, Vec<f32>, Vec<f32>);
        let mut registered: Vec<Registered> = Vec::new();

        // Model: per-sequence mirrors of every appended K/V row, plus
        // pinned page handles with the contents frozen at pin time.
        let mut seqs: Vec<KvSeq> = Vec::new();
        let mut mirror: Vec<Vec<(Vec<f32>, Vec<f32>)>> = Vec::new();
        let mut pinned: Vec<(Arc<KvPage>, Vec<f32>, Vec<f32>)> = Vec::new();

        for op in 0..240 {
            match draw(&mut rng, 0, 100) {
                // Register a sequence's full pages with the cache (its
                // pages become shared with it, older entries are evicted).
                0..=5 => {
                    if let Some(i) = (!seqs.is_empty()).then(|| draw(&mut rng, 0, seqs.len())) {
                        let prompt: Vec<f32> =
                            mirror[i].iter().flat_map(|(k, _)| k.clone()).collect();
                        let output: Vec<f32> =
                            mirror[i].iter().flat_map(|(_, v)| v.clone()).collect();
                        let hit = cache.lookup(&prompt);
                        let added =
                            cache.register(&prompt, &hit, std::slice::from_ref(&seqs[i]), &output);
                        assert!(added <= mirror[i].len() / page_tokens, "case {case} op {op}");
                        registered.push((mirror[i].clone(), prompt, output));
                    }
                }
                // Adopt a registered prompt's cached pages into a new
                // sequence; later appends extend it on pages of its own.
                6..=11 => {
                    if let Some(r) =
                        (!registered.is_empty()).then(|| draw(&mut rng, 0, registered.len()))
                    {
                        let (rows, prompt, output) = &registered[r];
                        let hit = cache.lookup(prompt);
                        if !hit.is_empty() {
                            let mut served = Vec::new();
                            hit.write_outputs(&mut served);
                            assert_eq!(served, output[..served.len()], "case {case} op {op}");
                            let mut seq = KvSeq::new(&pool);
                            seq.adopt(&hit, 0);
                            assert_eq!(seq.len(), hit.tokens());
                            assert_eq!(
                                seq.shared_pages(),
                                seq.page_count(),
                                "adopted by reference"
                            );
                            mirror.push(rows[..hit.tokens()].to_vec());
                            adoptions += 1;
                            seqs.push(seq);
                        }
                    }
                }
                // Append a token to a random (possibly new) sequence.
                12..=54 => {
                    let i = draw(&mut rng, 0, seqs.len() + 1);
                    if i == seqs.len() {
                        seqs.push(KvSeq::new(&pool));
                        mirror.push(Vec::new());
                    }
                    let mut k = vec![0.0f32; hidden];
                    let mut v = vec![0.0f32; hidden];
                    pl_tensor::fill_uniform(&mut k, &mut rng, -1.0, 1.0);
                    pl_tensor::fill_uniform(&mut v, &mut rng, -1.0, 1.0);
                    match seqs[i].append(&pool, &k, &v) {
                        Ok(()) => mirror[i].push((k, v)),
                        Err(e) => {
                            // Exhaustion is only legal exactly at the bound
                            // with nothing left on the free list.
                            assert_eq!(e.max_pages, max_pages, "case {case} op {op}");
                            assert_eq!(pool.free_pages(), 0, "case {case} op {op}");
                            assert_eq!(
                                pool.allocated_pages(),
                                max_pages,
                                "case {case} op {op}: exhausted below the bound"
                            );
                            if !seqs.is_empty() {
                                let victim = draw(&mut rng, 0, seqs.len());
                                seqs.remove(victim);
                                mirror.remove(victim);
                            }
                        }
                    }
                }
                // Pin a page handle (an external sharer): later writes to
                // that page must COW-split away from the pin.
                55..=69 => {
                    if let Some(i) = (!seqs.is_empty()).then(|| draw(&mut rng, 0, seqs.len())) {
                        if seqs[i].page_count() > 0 {
                            // Bias toward the tail page so subsequent
                            // appends actually hit the COW path.
                            let p = seqs[i].page_count() - 1;
                            let page = Arc::clone(&seqs[i].pages()[p]);
                            let (k, v) = (page.k().to_vec(), page.v().to_vec());
                            pinned.push((page, k, v));
                        }
                    }
                }
                // Drop a whole sequence (frees every unshared page).
                70..=79 => {
                    if !seqs.is_empty() {
                        let i = draw(&mut rng, 0, seqs.len());
                        seqs.remove(i);
                        mirror.remove(i);
                    }
                }
                // Unpin a held handle.
                80..=89 => {
                    if !pinned.is_empty() {
                        let i = draw(&mut rng, 0, pinned.len());
                        pinned.remove(i);
                    }
                }
                // Snapshot round-trip: dense bytes encode/decode, restore
                // into the pool, verify, drop the restored pages.
                _ => {
                    if let Some(i) = (!seqs.is_empty()).then(|| draw(&mut rng, 0, seqs.len())) {
                        let snap = KvSnapshot::from_seqs(
                            std::slice::from_ref(&seqs[i]),
                            mirror[i].len().max(1),
                        );
                        let bytes = snap.to_bytes();
                        let back = KvSnapshot::from_bytes(&bytes)
                            .unwrap_or_else(|| panic!("case {case} op {op}: decode failed"));
                        assert_eq!(back, snap, "case {case} op {op}: bytes round-trip");
                        if let Ok(restored) = snap.restore(&pool) {
                            let seq = &restored[0];
                            for (t, (k, v)) in mirror[i].iter().enumerate() {
                                assert_eq!(seq.k_tok(t), &k[..], "case {case} op {op} tok {t}");
                                assert_eq!(seq.v_tok(t), &v[..], "case {case} op {op} tok {t}");
                            }
                        }
                    }
                }
            }

            // Invariant 1: the pool's allocated count equals the number of
            // distinct physical pages reachable from sequences and pins —
            // a leak inflates the left side, a double-free deflates it.
            let mut live: HashSet<*const KvPage> = HashSet::new();
            for s in &seqs {
                for p in s.pages() {
                    live.insert(Arc::as_ptr(p));
                }
            }
            for (p, _, _) in &pinned {
                live.insert(Arc::as_ptr(p));
            }
            // The cache holds one page per entry (one layer here); those
            // nobody else holds are live through it alone.
            let cache_only = cache.entries() - cache.shared_pages();
            assert!(cache.entries() <= 3, "case {case} op {op}: cache over its page bound");
            assert_eq!(
                pool.allocated_pages(),
                live.len() + cache_only,
                "case {case} op {op}: pool accounting diverged from live set"
            );
            assert!(
                pool.allocated_pages() + pool.free_pages() <= max_pages,
                "case {case} op {op}: residency exceeded the bound"
            );

            // Invariant 2: every sequence reads back its own history.
            for (i, s) in seqs.iter().enumerate() {
                assert_eq!(s.len(), mirror[i].len(), "case {case} op {op} seq {i}");
                for (t, (k, v)) in mirror[i].iter().enumerate() {
                    assert_eq!(s.k_tok(t), &k[..], "case {case} op {op} seq {i} tok {t}");
                    assert_eq!(s.v_tok(t), &v[..], "case {case} op {op} seq {i} tok {t}");
                }
            }

            // Invariant 3: pinned handles still hold their frozen contents
            // — any writer that touched a shared page must have split off
            // a private copy first.
            for (j, (p, k, v)) in pinned.iter().enumerate() {
                assert_eq!(p.k(), &k[..], "case {case} op {op} pin {j}: K mutated under pin");
                assert_eq!(p.v(), &v[..], "case {case} op {op} pin {j}: V mutated under pin");
            }
        }

        cow_seen += pool.cow_splits();
        drop(seqs);
        drop(pinned);
        assert_eq!(cache.shared_pages(), 0, "case {case}: a dropped adopter still counted");
        assert_eq!(pool.allocated_pages(), cache.entries(), "case {case}: cached pages survive");
        cache.clear();
        assert_eq!(pool.allocated_pages(), 0, "case {case}: pages leaked at teardown");
        assert_eq!(
            pool.resident_pages(),
            pool.free_pages(),
            "case {case}: teardown left pages outside the free list"
        );
    }
    assert!(cow_seen > 0, "the op mix never exercised a COW split");
    assert!(adoptions > 50, "the op mix barely exercised adoption: {adoptions}");
}

/// Seeded interleavings of pipelined `submit_step` (up to three tickets
/// outstanding per session) and `pump` in manual mode, pumped from the
/// submitting thread (`pumpers == 0`) or from two concurrent threads.
/// Batches are whatever is queued when a pump collects, so partial and
/// deferred batches are the common case — and must not be visible: every
/// reply arrives exactly once, in ticket order, bit-identical to an
/// unbatched `Decoder` over the same inputs. With `close_behind`, each
/// session is closed right after its last submit, while steps of it are
/// still queued: the close returns after every one of them is answered.
fn pipelined_steps_keep_program_order(seed: u64, pumpers: usize, close_behind: bool) {
    use pl_dnn::{Decoder, DecoderConfig, DecoderModel};
    use pl_serve::{ServeError, Server, ServerConfig, StepResult};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{Receiver, TryRecvError};
    use std::sync::Arc;

    const DEPTH: usize = 3;
    const KV: usize = 16;
    let mut rng = Xorshift::new(seed);
    let sessions = draw(&mut rng, 1, 5);
    let tenants = draw(&mut rng, 1, 3);
    let max_batch = draw(&mut rng, 1, 5);
    let steps = draw(&mut rng, 4, 11);
    let case =
        format!("seed {seed:#x} pumpers {pumpers}: {sessions} sessions, max_batch {max_batch}");

    let cfg = DecoderConfig::scaled_for_tests();
    let model = Arc::new(DecoderModel::new(cfg, 4711));
    let server = Server::new(
        Arc::clone(&model),
        Arc::new(ThreadPool::new(2)),
        ServerConfig { tenants, max_batch, kv_capacity: KV, ..Default::default() },
    );
    // Pipelined inputs cannot feed back, so each session's are fixed up
    // front; the oracle decodes them one at a time.
    let oracle_pool = ThreadPool::new(1);
    let inputs: Vec<Vec<Vec<f32>>> = (0..sessions)
        .map(|_| {
            (0..steps)
                .map(|_| {
                    let mut x = vec![0.0f32; cfg.hidden];
                    pl_tensor::fill_uniform(&mut x, &mut rng, -0.5, 0.5);
                    x
                })
                .collect()
        })
        .collect();
    let oracle: Vec<Vec<Vec<f32>>> = inputs
        .iter()
        .map(|xs| {
            let mut d = Decoder::from_model(Arc::clone(&model), KV);
            xs.iter().map(|x| d.step(x, &oracle_pool)).collect()
        })
        .collect();

    let ids: Vec<_> = (0..sessions).map(|s| server.create_session(s % tenants).unwrap()).collect();
    let pump = || {
        let ran = server.pump();
        assert!(ran <= max_batch, "{case}: a batch of {ran}");
        ran
    };
    /// Ends the pumpers' loop however the submitting thread leaves the
    /// scope, so a failed assertion reports instead of hanging the scope.
    struct Submitting<'a>(&'a AtomicBool);
    impl Drop for Submitting<'_> {
        fn drop(&mut self) {
            self.0.store(false, Ordering::Release);
        }
    }
    let submitting = AtomicBool::new(true);
    let mut answered: Vec<Receiver<StepResult>> = Vec::new();
    std::thread::scope(|scope| {
        for _ in 0..pumpers {
            scope.spawn(|| {
                while submitting.load(Ordering::Acquire) || server.in_flight() > 0 {
                    if pump() == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
        let _submitting = Submitting(&submitting);
        let mut submitted = vec![0usize; sessions];
        let mut waiting: Vec<VecDeque<(usize, Receiver<StepResult>)>> =
            (0..sessions).map(|_| VecDeque::new()).collect();
        while answered.len() < sessions * steps {
            let s = draw(&mut rng, 0, sessions);
            if submitted[s] < steps && waiting[s].len() < DEPTH && draw(&mut rng, 0, 100) < 60 {
                let t = submitted[s];
                waiting[s].push_back((t, server.submit_step(ids[s], &inputs[s][t]).unwrap()));
                submitted[s] += 1;
                if close_behind && submitted[s] == steps {
                    let closed = server.close_session(ids[s]);
                    assert_eq!(closed, Ok(steps as u64), "{case}: session {s} closed short");
                    for (t, rx) in waiting[s].drain(..) {
                        let y = rx.try_recv().unwrap_or_else(|e| {
                            panic!("{case}: session {s} step {t} unanswered at its close: {e}")
                        });
                        assert_eq!(y.unwrap(), oracle[s][t], "{case}: session {s} step {t}");
                        answered.push(rx);
                    }
                }
            } else if pumpers == 0 {
                pump();
            } else {
                std::thread::yield_now();
            }
            for (s, queue) in waiting.iter_mut().enumerate() {
                // Newest first: a reply seen for a later ticket means every
                // earlier ticket's reply was delivered before it.
                let mut replies = Vec::new();
                for (t, rx) in queue.iter().rev() {
                    match rx.try_recv() {
                        Ok(y) => replies.push(y),
                        Err(TryRecvError::Empty) => {
                            assert!(replies.is_empty(), "{case}: session {s} answered past {t}")
                        }
                        Err(TryRecvError::Disconnected) => panic!("{case}: ticket {t} dropped"),
                    }
                }
                for y in replies.into_iter().rev() {
                    let (t, rx) = queue.pop_front().unwrap();
                    assert_eq!(y.unwrap(), oracle[s][t], "{case}: session {s} step {t}");
                    answered.push(rx);
                }
            }
        }
    });
    assert_eq!((server.in_flight(), server.pending()), (0, 0), "{case}");
    assert_eq!(pump(), 0, "{case}");
    for rx in &answered {
        assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)), "{case}: second reply");
    }
    let snap = server.stats().snapshot();
    assert_eq!((snap.completed, snap.failed), ((sessions * steps) as u64, 0), "{case}");
    assert!(snap.gemm_shapes.iter().all(|&((_, n, _), _)| n <= max_batch), "{case}");
    for &id in &ids {
        let closed = server.close_session(id);
        let want =
            if close_behind { Err(ServeError::UnknownSession(id)) } else { Ok(steps as u64) };
        assert_eq!(closed, want, "{case}");
    }
    assert_eq!(server.session_count(), 0, "{case}");
}

#[test]
fn pipelined_steps_keep_program_order_under_partial_batches() {
    for seed in 0..12u64 {
        pipelined_steps_keep_program_order(0x5e55_1000 + seed, 0, false);
    }
    for seed in 0..8u64 {
        pipelined_steps_keep_program_order(0x5e55_2000 + seed, 2, false);
    }
}

#[test]
fn pipelined_steps_keep_program_order_through_a_close_behind_them() {
    for seed in 0..12u64 {
        pipelined_steps_keep_program_order(0x5e55_3000 + seed, 0, true);
    }
    for seed in 0..8u64 {
        pipelined_steps_keep_program_order(0x5e55_4000 + seed, 2, true);
    }
}
