//! Data-movement TPPs: the out-of-place transpose. The VNNI reformatting
//! of paper §III-A2 is `pl_tensor::VnniMatrix`, which packs whole operands.

use pl_tensor::Element;

/// Out-of-place transpose: `out (n x m) = input (m x n)^T`, column-major.
pub fn transpose<TI: Element, TO: Element>(
    m: usize,
    n: usize,
    input: &[TI],
    ldi: usize,
    out: &mut [TO],
    ldo: usize,
) {
    debug_assert!(ldi >= m && ldo >= n);
    // Tile 8x8 for cache friendliness on large panels.
    const TILE: usize = 8;
    for c0 in (0..n).step_by(TILE) {
        for r0 in (0..m).step_by(TILE) {
            for c in c0..(c0 + TILE).min(n) {
                for r in r0..(r0 + TILE).min(m) {
                    out[r * ldo + c] = TO::from_f32(input[c * ldi + r].to_f32());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_small() {
        // 2x3 col-major: [[1,3,5],[2,4,6]] logically.
        let x = vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut y = vec![0.0f32; 6];
        transpose(2, 3, &x, 2, &mut y, 3);
        // y is 3x2 col-major: col0 = row0 of x = [1,3,5].
        assert_eq!(y, vec![1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let (m, n) = (13, 9); // deliberately not tile-aligned
        let x: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.7).collect();
        let mut t = vec![0.0f32; m * n];
        let mut tt = vec![0.0f32; m * n];
        transpose(m, n, &x, m, &mut t, n);
        transpose(n, m, &t, n, &mut tt, m);
        assert_eq!(x, tt);
    }

    #[test]
    fn transpose_with_lds() {
        let x = vec![1.0f32, 2.0, 99.0, 3.0, 4.0, 99.0]; // 2x2 in ld-3
        let mut y = vec![0.0f32; 8]; // ld 4
        transpose(2, 2, &x, 3, &mut y, 4);
        assert_eq!(y[0], 1.0);
        assert_eq!(y[1], 3.0);
        assert_eq!(y[4], 2.0);
        assert_eq!(y[5], 4.0);
    }
}
