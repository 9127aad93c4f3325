//! Stable, seed-friendly hashing — the workspace's one copy.
//!
//! Every stochastic component derives its randomness from explicit seeds
//! so that experiments are reproducible bit-for-bit across runs and
//! platforms. `std::collections::hash_map::DefaultHasher` is not
//! guaranteed stable across Rust releases, so FNV-1a and the SplitMix64
//! finalizer are written out here, once. Their outputs are load-bearing:
//! trace and stream ids, rendezvous routes, HNSW levels, fault decisions
//! and the store's page/WAL checksums are all functions of them.

/// FNV-1a 64-bit hash of a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a of a string.
#[inline]
pub fn fnv1a_str(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

/// SplitMix64 finalizer — decorrelates sequential seeds.
#[inline]
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Combine two hash values into one (order-sensitive).
#[inline]
pub fn combine(a: u64, b: u64) -> u64 {
    splitmix(a ^ b.rotate_left(17).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Map a hash to a uniform f64 in `[0, 1)`.
#[inline]
pub fn unit_f64(h: u64) -> f64 {
    // Use the top 53 bits for a uniformly distributed mantissa.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // FNV-1a test vectors from the reference implementation.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a_str("foobar"), fnv1a(b"foobar"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn splitmix_known_vectors() {
        // First two outputs of the reference SplitMix64 stream from state 0.
        assert_eq!(splitmix(0), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix(0x9e37_79b9_7f4a_7c15), 0x6e789e6aa1b965f4);
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
    }
}
