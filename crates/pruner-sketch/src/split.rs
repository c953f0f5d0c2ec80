//! Integer factor-split sampling — the "sample perfect tile" primitive.
//!
//! Ansor's annotation step fills every tile level with a divisor of the
//! (padded) axis extent. These helpers enumerate divisors and sample random
//! divisor chains whose product equals the extent, the exact combinatorial
//! object evolutionary search mutates.

use rand::Rng;
use std::borrow::Cow;

/// All divisors of `n` in ascending order.
///
/// # Panics
/// Panics if `n` is zero.
pub(crate) fn divisors(n: u64) -> Vec<u64> {
    assert!(n > 0, "divisors of zero are undefined");
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            small.push(d);
            if d * d != n {
                large.push(n / d);
            }
        }
        d += 1;
    }
    large.reverse();
    small.extend(large);
    small
}

/// Samples a uniform random chain of `parts` factors whose product is
/// exactly `extent`.
///
/// Each factor is drawn from the divisors of the remaining quotient, so the
/// chain always multiplies back to `extent`. The distribution is biased
/// toward balanced chains by sampling positions, matching Ansor's sampler
/// in spirit (exact uniformity over factorizations is not required — only
/// full support).
///
/// # Panics
/// Panics if `parts` is zero or `extent` is zero.
pub fn sample_split(rng: &mut impl Rng, extent: u64, parts: usize) -> Vec<u64> {
    assert!(parts > 0, "cannot split into zero parts");
    assert!(extent > 0, "cannot split a zero extent");
    let mut out = vec![0; parts];
    draw_split(extent, &mut out, rng, |n| Cow::Owned(divisors(n)));
    out
}

/// Fills `out` with a chain of factors multiplying to `extent`, the one
/// definition of a split draw: each factor but the last is one uniform
/// draw from `divisors_of` the remaining quotient (ascending divisors; the
/// candidate arena passes a cached table), the last is what remains.
pub(crate) fn draw_split<'a>(
    extent: u64,
    out: &mut [u64],
    rng: &mut impl Rng,
    divisors_of: impl Fn(u64) -> Cow<'a, [u64]>,
) {
    let parts = out.len();
    let mut remaining = extent;
    for slot in out.iter_mut().take(parts - 1) {
        let divs = divisors_of(remaining);
        let f = divs[rng.gen_range(0..divs.len())];
        *slot = f;
        remaining /= f;
    }
    out[parts - 1] = remaining;
}

/// Counts the number of ordered `parts`-way factorizations of `extent`.
///
/// Useful for reporting search-space sizes; computed by dynamic programming
/// over the divisor lattice.
pub(crate) fn count_splits(extent: u64, parts: usize) -> u128 {
    if parts == 0 {
        return 0;
    }
    let divs = divisors(extent);
    let index = |v: u64| divs.binary_search(&v).expect("divisor must be present");
    // ways[i] = number of ways to write divs[i] as an ordered product of
    // `level` factors.
    let mut ways: Vec<u128> = divs.iter().map(|_| 1u128).collect(); // level 1
    for _ in 1..parts {
        let mut next = vec![0u128; divs.len()];
        for (i, &d) in divs.iter().enumerate() {
            // d = f * q, sum ways[q] over divisors f of d.
            for &f in divisors(d).iter() {
                next[i] += ways[index(d / f)];
            }
        }
        ways = next;
    }
    ways[index(extent)]
}

/// Rounds `extent` up so it has a divisor close to a desired tile size; used
/// to pad awkward (prime) extents the way TVM pads loop bounds.
///
/// Returns the padded extent (`>= extent`), the smallest multiple of
/// `quantum` at or above `extent`. `quantum` must be non-zero.
pub(crate) fn pad_to_quantum(extent: u64, quantum: u64) -> u64 {
    assert!(quantum > 0, "quantum must be positive");
    extent.div_ceil(quantum) * quantum
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn divisors_of_12() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
    }

    #[test]
    fn divisors_of_prime() {
        assert_eq!(divisors(13), vec![1, 13]);
    }

    #[test]
    fn divisors_of_one() {
        assert_eq!(divisors(1), vec![1]);
    }

    #[test]
    fn sample_split_product_invariant() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for extent in [1u64, 7, 12, 56, 224, 768, 1000] {
            for parts in 1..=5 {
                let s = sample_split(&mut rng, extent, parts);
                assert_eq!(s.len(), parts);
                assert_eq!(s.iter().product::<u64>(), extent, "extent={extent} parts={parts}");
            }
        }
    }

    #[test]
    fn sample_split_covers_space() {
        // For extent 4 into 2 parts, all of (1,4),(2,2),(4,1) must appear.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(sample_split(&mut rng, 4, 2));
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn count_splits_matches_enumeration() {
        // 12 = 2^2 * 3; ordered 2-way factorizations = d(12) = 6.
        assert_eq!(count_splits(12, 2), 6);
        // 4 into 3 parts: (1,1,4),(1,4,1),(4,1,1),(1,2,2),(2,1,2),(2,2,1) = 6.
        assert_eq!(count_splits(4, 3), 6);
        assert_eq!(count_splits(1, 4), 1);
    }

    #[test]
    fn count_splits_one_part() {
        assert_eq!(count_splits(360, 1), 1);
    }

    #[test]
    fn padding_rounds_up() {
        assert_eq!(pad_to_quantum(13, 4), 16);
        assert_eq!(pad_to_quantum(16, 4), 16);
        assert_eq!(pad_to_quantum(1, 4), 4);
    }
}
