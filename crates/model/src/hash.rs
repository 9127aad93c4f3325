//! Stable, seed-friendly hashing.
//!
//! Every stochastic component in the workspace derives its randomness from
//! explicit seeds so that experiments are reproducible bit-for-bit across
//! runs and platforms. `std::collections::hash_map::DefaultHasher` is not
//! guaranteed stable across Rust releases, so the workspace's FNV-1a and
//! SplitMix64 finalizer and the hash → `[0, 1)` map ([`llmdm_rt::hash`],
//! re-exported here) are the base, and this module adds the
//! seed-splitting helper on top.

pub use llmdm_rt::hash::{combine, fnv1a, fnv1a_str, splitmix, unit_f64};

/// Derive a deterministic sub-seed from a base seed and a label.
///
/// This is how components split one experiment seed into independent
/// streams: `seed_for(seed, "cascade-noise")`, `seed_for(seed, "workload")`.
#[inline]
pub fn seed_for(seed: u64, label: &str) -> u64 {
    combine(splitmix(seed), fnv1a_str(label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_f64_in_range() {
        for i in 0..10_000u64 {
            let u = unit_f64(splitmix(i));
            assert!((0.0..1.0).contains(&u), "u={u}");
        }
    }

    #[test]
    fn seed_for_distinct_labels_differ() {
        assert_ne!(seed_for(7, "a"), seed_for(7, "b"));
        assert_ne!(seed_for(7, "a"), seed_for(8, "a"));
    }

    #[test]
    fn unit_f64_is_roughly_uniform() {
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|i| unit_f64(splitmix(i))).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }
}
