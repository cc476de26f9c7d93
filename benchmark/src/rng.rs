//! Seeded inputs and output fingerprints. Everything a workload feeds the
//! program is drawn here from `--seed`; the program's own RNG is not used,
//! so a change to it cannot change the benchmark's inputs.

/// SplitMix64: a full-period 64-bit generator whose streams are cheap to
/// derive from a tag, which is what per-session, per-request inputs need.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream named by `seed` and `tags` (e.g. slot and request index).
    pub fn stream(seed: u64, tags: &[u64]) -> Self {
        let mut rng = SplitMix64(seed);
        for &t in tags {
            rng.0 = rng.next_u64() ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)` from the top 24 bits (exact in f32).
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32)
    }

    pub fn vec(&mut self, len: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..len).map(|_| self.uniform(lo, hi)).collect()
    }
}

/// FNV-1a over f32 bit patterns: the fingerprint printed for a request's
/// inputs and outputs, equal on any run of the same seed and program.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn add(&mut self, xs: &[f32]) {
        for x in xs {
            for b in x.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// Stream tags, so no two kinds of input share a stream.
const TAG_PROMPT: u64 = 1;
const TAG_PREFIX: u64 = 2;

/// The prompt (`hidden x tokens`, column-major) of request `req` of session
/// slot `slot`. With `shared_prefix = Some((which, len))` the first `len`
/// tokens are system prefix number `which`, identical for every request
/// that names it.
pub fn prompt(
    seed: u64,
    hidden: usize,
    tokens: usize,
    slot: usize,
    req: usize,
    shared_prefix: Option<(usize, usize)>,
) -> Vec<f32> {
    let mut own = SplitMix64::stream(seed, &[TAG_PROMPT, slot as u64, req as u64]);
    match shared_prefix {
        None => own.vec(hidden * tokens, -1.0, 1.0),
        Some((which, len)) => {
            let len = len.min(tokens);
            let mut x =
                SplitMix64::stream(seed, &[TAG_PREFIX, which as u64]).vec(hidden * len, -1.0, 1.0);
            x.extend(own.vec(hidden * (tokens - len), -1.0, 1.0));
            x
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = prompt(7, 8, 4, 1, 2, None);
        assert_eq!(a, prompt(7, 8, 4, 1, 2, None));
        assert_ne!(a, prompt(8, 8, 4, 1, 2, None));
        assert_ne!(a, prompt(7, 8, 4, 2, 2, None));
        assert_ne!(a, prompt(7, 8, 4, 1, 3, None));
        assert_eq!(a.len(), 32);
        assert!(a.iter().all(|x| (-1.0..1.0).contains(x)));
        let (mut f, mut g) = (Fnv::default(), Fnv::default());
        f.add(&a);
        g.add(&prompt(7, 8, 4, 1, 2, None));
        assert_eq!(f.0, g.0);
    }

    #[test]
    fn a_shared_prefix_is_shared_and_the_tail_is_not() {
        let a = prompt(7, 8, 6, 0, 1, Some((0, 4)));
        let b = prompt(7, 8, 6, 3, 5, Some((0, 4)));
        let c = prompt(7, 8, 6, 0, 1, Some((1, 4)));
        assert_eq!(a[..32], b[..32]);
        assert_ne!(a[32..], b[32..]);
        assert_ne!(a[..32], c[..32]);
        assert_eq!(a.len(), 48);
        // A prefix longer than the prompt is cut to the prompt.
        assert_eq!(prompt(7, 8, 2, 0, 1, Some((0, 4))), a[..16]);
    }
}
