//! Constraint-driven exhaustive generation of `loop_spec_string`
//! candidates (paper §II-D).
//!
//! The tunable decisions are mapped 1:1 onto spec strings:
//! (i) how many times to block each loop, (ii) the blocking sizes — prefix
//! products of the trip count's prime factors (the paper's example
//! strategy), (iii) which loops to parallelize, and (iv) the loop order —
//! all permutations subject to (i)-(iii).

use std::collections::BTreeSet;

/// Per-problem generation constraints.
#[derive(Debug, Clone)]
pub struct Constraints {
    /// Max blocking count per logical loop (paper: 2 for K, 3 for M/N).
    pub max_blockings: Vec<usize>,
    /// Loops allowed to be parallelized (paper: the M and N loops).
    pub parallel_loops: Vec<usize>,
    /// Upper bound on generated candidates.
    pub max_candidates: usize,
}

impl Constraints {
    /// The paper's GEMM defaults: block K up to `ka` times, M/N up to
    /// `mb`/`nb` times, parallelize M (loop 1) and N (loop 2).
    pub fn gemm(ka: usize, mb: usize, nb: usize, max_candidates: usize) -> Self {
        Constraints { max_blockings: vec![ka, mb, nb], parallel_loops: vec![1, 2], max_candidates }
    }
}

/// Prime factorization in ascending order (with multiplicity).
fn prime_factors(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut d = 2;
    while d * d <= n {
        while n.is_multiple_of(d) {
            out.push(d);
            n /= d;
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// Blocking-step candidates for a loop with `trips` iterations of `step`:
/// prefix products of the prime factors times the step, largest first
/// (outermost blocking first), as in the paper's §II-D item 2.
pub fn blocking_ladder(trips: usize, step: usize) -> Vec<usize> {
    let factors = prime_factors(trips);
    let mut ladder = Vec::new();
    let mut prod = step;
    for f in factors {
        prod *= f;
        ladder.push(prod);
    }
    // Outermost-first order, excluding the full extent (no point blocking
    // by the whole loop).
    ladder.pop();
    ladder.reverse();
    ladder
}

/// Generates up to `max_candidates` distinct spec strings for `num_loops`
/// logical loops under the constraints. Every returned string uses each
/// loop letter `1 + blockings` times and parallelizes either nothing or one
/// consecutive group drawn from `parallel_loops`.
pub fn generate(num_loops: usize, c: &Constraints) -> Vec<String> {
    assert!(num_loops <= 26);
    let mut results: BTreeSet<String> = BTreeSet::new();

    // Enumerate blocking counts per loop: 0..=max.
    let mut counts = vec![0usize; num_loops];
    loop {
        // Multiset of letters for this blocking assignment.
        let mut letters = Vec::new();
        for (l, &extra) in counts.iter().enumerate() {
            for _ in 0..=extra {
                letters.push((b'a' + l as u8) as char);
            }
        }
        permute_into(&mut letters.clone(), 0, &mut |perm| {
            if results.len() >= c.max_candidates {
                return;
            }
            let base: String = perm.iter().collect();
            // Sequential variant.
            results.insert(base.clone());
            // Parallel variants: uppercase each single allowed occurrence,
            // and each adjacent pair of allowed letters (collapse(2)).
            for i in 0..perm.len() {
                let li = (perm[i] as u8 - b'a') as usize;
                if !c.parallel_loops.contains(&li) {
                    continue;
                }
                let mut v: Vec<char> = perm.to_vec();
                v[i] = v[i].to_ascii_uppercase();
                results.insert(v.iter().collect());
                if i + 1 < perm.len() {
                    let lj = (perm[i + 1] as u8 - b'a') as usize;
                    if lj != li && c.parallel_loops.contains(&lj) {
                        let mut w: Vec<char> = perm.to_vec();
                        w[i] = w[i].to_ascii_uppercase();
                        w[i + 1] = w[i + 1].to_ascii_uppercase();
                        results.insert(w.iter().collect());
                    }
                }
            }
        });
        if results.len() >= c.max_candidates {
            break;
        }
        // Odometer increment over blocking counts.
        let mut i = 0;
        loop {
            if i == num_loops {
                break;
            }
            counts[i] += 1;
            if counts[i] <= c.max_blockings[i] {
                break;
            }
            counts[i] = 0;
            i += 1;
        }
        if i == num_loops {
            break;
        }
    }

    results.into_iter().take(c.max_candidates).collect()
}

/// Distinct permutations of a multiset (recursive, with duplicate pruning).
fn permute_into(letters: &mut Vec<char>, start: usize, f: &mut impl FnMut(&[char])) {
    if start == letters.len() {
        f(letters);
        return;
    }
    let mut seen = BTreeSet::new();
    for i in start..letters.len() {
        if !seen.insert(letters[i]) {
            continue;
        }
        letters.swap(start, i);
        permute_into(letters, start + 1, f);
        letters.swap(start, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_factorization() {
        assert_eq!(prime_factors(1), Vec::<usize>::new());
        assert_eq!(prime_factors(12), vec![2, 2, 3]);
        assert_eq!(prime_factors(17), vec![17]);
        assert_eq!(prime_factors(64), vec![2; 6]);
    }

    #[test]
    fn ladder_prefix_products() {
        // trips=8, step=2: factors 2,2,2; prefix products x step: 4, 8, 16;
        // drop the full extent (16), outermost first -> [8, 4].
        assert_eq!(blocking_ladder(8, 2), vec![8, 4]);
        assert_eq!(blocking_ladder(1, 4), Vec::<usize>::new());
        // Ladder entries divide each other (perfect nesting by design).
        let l = blocking_ladder(36, 1);
        for w in l.windows(2) {
            assert_eq!(w[0] % w[1], 0);
        }
    }

    #[test]
    fn generation_without_blocking() {
        let c = Constraints {
            max_blockings: vec![0, 0, 0],
            parallel_loops: vec![1, 2],
            max_candidates: 1000,
        };
        let specs = generate(3, &c);
        // 6 permutations of "abc"; each with up to 2 single-uppercase (b,c)
        // and adjacent-pair variants.
        assert!(specs.contains(&"abc".to_string()));
        assert!(specs.contains(&"aBc".to_string()));
        assert!(specs.contains(&"aBC".to_string()));
        assert!(!specs.iter().any(|s| s.contains('A')), "loop a not parallelizable");
        // All distinct.
        let set: BTreeSet<_> = specs.iter().collect();
        assert_eq!(set.len(), specs.len());
    }

    #[test]
    fn generation_respects_occurrence_counts() {
        let c = Constraints {
            max_blockings: vec![1, 1, 0],
            parallel_loops: vec![],
            max_candidates: 10_000,
        };
        let specs = generate(3, &c);
        for s in &specs {
            let na = s.chars().filter(|c| c.eq_ignore_ascii_case(&'a')).count();
            let nb = s.chars().filter(|c| c.eq_ignore_ascii_case(&'b')).count();
            let nc = s.chars().filter(|c| c.eq_ignore_ascii_case(&'c')).count();
            assert!((1..=2).contains(&na), "{s}");
            assert!((1..=2).contains(&nb), "{s}");
            assert_eq!(nc, 1, "{s}");
        }
        // Includes fully blocked variants.
        assert!(specs.iter().any(|s| s.len() == 5));
    }

    #[test]
    fn cap_is_respected() {
        let c = Constraints {
            max_blockings: vec![2, 3, 3],
            parallel_loops: vec![1, 2],
            max_candidates: 100,
        };
        let specs = generate(3, &c);
        assert_eq!(specs.len(), 100);
    }

    #[test]
    fn all_generated_specs_parse() {
        let c = Constraints::gemm(1, 2, 2, 500);
        let specs = generate(3, &c);
        for s in &specs {
            parlooper::spec::parse(s, 3).unwrap_or_else(|e| panic!("spec {s}: {e}"));
        }
    }
}
