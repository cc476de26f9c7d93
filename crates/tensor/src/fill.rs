//! Deterministic pseudo-random fills and the RNG behind them.

use crate::dtype::Element;
use std::sync::OnceLock;

/// xorshift64* generator: tiny, fast, reproducible — the style of RNG a
/// TPP keeps as per-thread state (`get_rng_state()` in paper Listing 6).
#[derive(Debug, Clone)]
pub struct Xorshift {
    state: u64,
}

impl Xorshift {
    /// Creates a generator; a zero seed is remapped to a fixed constant
    /// (xorshift has a zero fixpoint).
    pub fn new(seed: u64) -> Self {
        Xorshift { state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed } }
    }

    /// Next 64 random bits.
    #[inline(always)]
    pub fn next_u64(&mut self) -> u64 {
        self.state = step(self.state);
        self.state.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Advances the generator past `n` draws in O(64) work — the state
    /// [`Self::next_u64`] would leave after `n` calls — so disjoint spans of
    /// one stream can be drawn in parallel. The state update is linear over
    /// GF(2); the jump applies the table of its `2^i`-th powers for every
    /// set bit `i` of `n`.
    pub fn jump(&mut self, n: u64) {
        let powers = step_powers();
        for (i, power) in powers.iter().enumerate() {
            if n >> i & 1 == 1 {
                self.state = power.apply(self.state);
            }
        }
    }

    /// Next 32 random bits.
    #[inline(always)]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform f32 in `[0, 1)`.
    #[inline(always)]
    pub fn next_f32(&mut self) -> f32 {
        // 24 mantissa-ish bits scaled down: exact representability.
        (self.next_u32() >> 8) as f32 * (1.0 / 16_777_216.0)
    }

    /// Standard normal via Box-Muller.
    fn next_normal(&mut self) -> f32 {
        let mut u1 = self.next_f32();
        if u1 < 1e-12 {
            u1 = 1e-12;
        }
        let u2 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }
}

/// The xorshift state update: a linear map on the 64 state bits.
#[inline(always)]
fn step(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// A 64x64 matrix over GF(2), stored by columns: column `j` is the image
/// of state bit `j`.
#[derive(Clone, Copy)]
struct Gf2Matrix([u64; 64]);

impl Gf2Matrix {
    /// The image of `x`: the XOR of the columns of its set bits.
    fn apply(&self, x: u64) -> u64 {
        (0..64).filter(|j| x >> j & 1 == 1).fold(0, |acc, j| acc ^ self.0[j])
    }

    /// `self * self`.
    fn square(&self) -> Self {
        Gf2Matrix(self.0.map(|col| self.apply(col)))
    }
}

/// `step^(2^i)` for `i` in `0..64`, built once.
fn step_powers() -> &'static [Gf2Matrix; 64] {
    static POWERS: OnceLock<[Gf2Matrix; 64]> = OnceLock::new();
    POWERS.get_or_init(|| {
        let mut m = Gf2Matrix(std::array::from_fn(|j| step(1 << j)));
        std::array::from_fn(|_| {
            let power = m;
            m = m.square();
            power
        })
    })
}

/// Fills a slice with uniform values in `[lo, hi)`.
pub fn fill_uniform<T: Element>(data: &mut [T], rng: &mut Xorshift, lo: f32, hi: f32) {
    for v in data {
        *v = T::from_f32(lo + (hi - lo) * rng.next_f32());
    }
}

/// Fills a slice with normal values.
pub fn fill_normal<T: Element>(data: &mut [T], rng: &mut Xorshift, mean: f32, std: f32) {
    for v in data {
        *v = T::from_f32(mean + std * rng.next_normal());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::Bf16;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Xorshift::new(123);
        let mut b = Xorshift::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xorshift::new(1);
        let mut b = Xorshift::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = Xorshift::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn jump_equals_that_many_draws() {
        let mut lengths = vec![0u64, 1, 2, 63, 64, 65, 1000];
        let mut pick = Xorshift::new(17);
        lengths.extend((0..20).map(|_| pick.next_u64() % (1 << 22)));
        for seed in [0, 1, 0x0070_6c62_656e_6368] {
            for &n in &lengths {
                let mut drawn = Xorshift::new(seed);
                for _ in 0..n {
                    drawn.next_u64();
                }
                let mut jumped = Xorshift::new(seed);
                jumped.jump(n);
                assert_eq!(jumped.state, drawn.state, "seed {seed}, n {n}");
                assert_eq!(jumped.next_u64(), drawn.next_u64());
            }
        }
    }

    #[test]
    fn jumps_compose() {
        let mut pick = Xorshift::new(23);
        for _ in 0..20 {
            let (a, b) = (pick.next_u64() >> 2, pick.next_u64() >> 2);
            let mut twice = Xorshift::new(5);
            twice.jump(a);
            twice.jump(b);
            let mut once = Xorshift::new(5);
            once.jump(a + b);
            assert_eq!(twice.state, once.state, "{a} + {b}");
        }
    }

    #[test]
    fn uniform_range_and_mean() {
        let mut rng = Xorshift::new(99);
        let mut buf = vec![0.0f32; 40_000];
        fill_uniform(&mut buf, &mut rng, -1.0, 1.0);
        assert!(buf.iter().all(|&v| (-1.0..1.0).contains(&v)));
        let mean = buf.iter().sum::<f32>() / buf.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xorshift::new(7);
        let mut buf = vec![0.0f32; 40_000];
        fill_normal(&mut buf, &mut rng, 2.0, 0.5);
        let mean = buf.iter().sum::<f32>() / buf.len() as f32;
        let var = buf.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / buf.len() as f32;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn bf16_fill_stays_in_range() {
        let mut rng = Xorshift::new(11);
        let mut buf = vec![Bf16::ZERO; 1000];
        fill_uniform(&mut buf, &mut rng, 0.0, 1.0);
        assert!(buf.iter().all(|v| (0.0..=1.0).contains(&v.to_f32())));
    }
}
