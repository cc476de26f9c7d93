//! Deterministic pseudo-random fills and the RNG state used by the dropout
//! TPP (`get_rng_state()` in paper Listing 6).

use crate::dtype::Element;

/// xorshift64* generator: tiny, fast, reproducible — the style of RNG the
/// TPP dropout primitive keeps as per-thread state.
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
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Next 32 random bits.
    #[inline(always)]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform f32 in `[0, 1)`.
    #[inline(always)]
    pub fn next_f32(&mut self) -> f32 {
        // 24 mantissa-ish bits scaled down: exact representability.
        (self.next_u32() >> 8) as f32 * (1.0 / 16_777_216.0)
    }

    /// Standard normal via Box-Muller.
    pub fn next_normal(&mut self) -> f32 {
        let mut u1 = self.next_f32();
        if u1 < 1e-12 {
            u1 = 1e-12;
        }
        let u2 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }
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
