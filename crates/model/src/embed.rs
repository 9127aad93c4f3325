//! Deterministic text embeddings.
//!
//! The paper's challenge sections lean on embedding vectors everywhere:
//! historical prompts are "typically represented as vectors" (§III-A), the
//! semantic cache matches queries "in the form of vectors" (§III-C), and
//! multi-modal items are "encoded in the same embedding space" (§II-D1).
//! Real deployments would use an LLM encoder; offline we use a classic
//! hashed character-n-gram bag projected through a seeded signed random
//! projection. This preserves the property the downstream systems rely on:
//! **textually similar inputs land near each other in cosine space**, while
//! remaining fully deterministic.

use crate::error::ModelError;
use crate::hash::{combine, fnv1a, fnv1a_str, splitmix};

/// Salt that keeps a trigram's feature apart from the same text as a word.
const GRAM_SALT: u64 = 0x6772616d;

/// Features projected side by side. One feature's projection is a chain
/// of `dim` dependent SplitMix steps, bound by the latency of each step;
/// independent chains interleaved keep the multiplier busy instead. Seven
/// is as many chain states as stay in registers beside SplitMix's three
/// constants on x86-64 (4 lanes: 34 µs for a 150-byte prompt, 6: 23, 7: 20,
/// 8: 24, 16: 47); the value changes the speed only, never the result.
const LANES: usize = 7;

/// Deterministic text embedder.
#[derive(Debug, Clone)]
pub struct Embedder {
    dim: usize,
    seed: u64,
    ngram: usize,
}

impl Embedder {
    /// Create an embedder producing `dim`-dimensional unit vectors.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Embedder { dim, seed, ngram: 3 }
    }

    /// Default 64-dimensional embedder, sufficient for the workspace's
    /// similarity tasks while keeping index benchmarks fast.
    pub fn standard(seed: u64) -> Self {
        Self::new(64, seed)
    }

    /// The output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Embed `text` into an L2-normalized vector.
    ///
    /// Features are hashed character trigrams plus whole lowercased words;
    /// each feature contributes a ±1 pattern over the output dims derived
    /// from a per-feature seed (a signed random projection). Bumps the
    /// `model.embed` counter when the recorder is on.
    pub fn embed(&self, text: &str) -> Result<Vec<f32>, ModelError> {
        if text.is_empty() {
            return Err(ModelError::EmptyInput);
        }
        llmdm_obs::counter_add("model.embed", 1.0);
        let lower = text.to_lowercase();
        let mut projection = Projection::new(self.dim, self.seed);
        // Word-level features (weight 2: words matter more than trigrams).
        for word in lower.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()) {
            projection.add(fnv1a_str(word), 2);
        }
        // Character n-gram features for robustness to small edits: every
        // window of `ngram` chars, hashed as the bytes between its char
        // boundaries. A text shorter than one window is its own feature.
        let bounds = || lower.char_indices().map(|(at, _)| at).chain([lower.len()]);
        let mut windows = bounds().zip(bounds().skip(self.ngram)).peekable();
        if windows.peek().is_none() {
            projection.add(combine(fnv1a_str(&lower), GRAM_SALT), 1);
        }
        for (from, to) in windows {
            projection.add(combine(fnv1a(&lower.as_bytes()[from..to]), GRAM_SALT), 1);
        }
        let mut v = projection.finish();
        normalize(&mut v);
        Ok(v)
    }

    /// Embed a batch of texts.
    pub fn embed_batch<'a, I: IntoIterator<Item = &'a str>>(
        &self,
        texts: I,
    ) -> Result<Vec<Vec<f32>>, ModelError> {
        texts.into_iter().map(|t| self.embed(t)).collect()
    }
}

/// The signed random projection of a stream of weighted features.
///
/// Feature `f` walks a SplitMix chain from `combine(seed, f)`, one step
/// per output dim; a step whose top two bits are zero (a quarter of them:
/// the sparse-ish projection) adds the feature's weight to that dim, with
/// the step's low bit as the sign. Features are buffered and walked
/// [`LANES`] at a time.
///
/// The sums are kept in `i32` and converted once. That is bit-identical
/// to adding `±weight as f32` feature by feature: every contribution is a
/// small integer, a text of `n` chars has at most `n` n-grams and `n / 2`
/// words of weight 2, so every partial sum is an integer of magnitude at
/// most `2n`, and `f32` holds integers exactly (and adds them exactly, in
/// any order) below 2²⁴ — which covers every text under 8 Mi chars.
struct Projection {
    seed: u64,
    sums: Vec<i32>,
    states: [u64; LANES],
    weights: [i32; LANES],
    pending: usize,
}

impl Projection {
    fn new(dim: usize, seed: u64) -> Self {
        Projection { seed, sums: vec![0; dim], states: [0; LANES], weights: [0; LANES], pending: 0 }
    }

    fn add(&mut self, feature: u64, weight: i32) {
        self.states[self.pending] = combine(self.seed, feature);
        self.weights[self.pending] = weight;
        self.pending += 1;
        if self.pending == LANES {
            self.walk();
        }
    }

    /// Walk the buffered chains across all dims. Lanes past `pending`
    /// carry weight 0 and add nothing, so a partial batch needs no loop
    /// of its own.
    fn walk(&mut self) {
        self.weights[self.pending..].fill(0);
        self.pending = 0;
        let (mut states, weights) = (self.states, self.weights);
        for sum in self.sums.iter_mut() {
            for lane in 0..LANES {
                let s = splitmix(states[lane]);
                states[lane] = s;
                let taken = (s >> 62 == 0) as i32;
                let sign = 1 - 2 * (s & 1) as i32;
                *sum += taken * sign * weights[lane];
            }
        }
    }

    fn finish(mut self) -> Vec<f32> {
        if self.pending > 0 {
            self.walk();
        }
        self.sums.into_iter().map(|sum| sum as f32).collect()
    }
}

fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    } else {
        // Degenerate case (all features cancelled): deterministic unit basis.
        v[0] = 1.0;
    }
}

/// Cosine similarity between two equal-length vectors.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmdm_rt::rand::rngs::SmallRng;
    use llmdm_rt::rand::{Rng, SeedableRng};

    fn emb() -> Embedder {
        Embedder::standard(42)
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = emb();
        let v = e.embed("show the names of stadiums").unwrap();
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4);
    }

    #[test]
    fn deterministic() {
        let e = emb();
        assert_eq!(e.embed("hello").unwrap(), e.embed("hello").unwrap());
    }

    #[test]
    fn similar_texts_are_closer_than_dissimilar() {
        let e = emb();
        let a = e.embed("What are the names of stadiums that had concerts in 2014?").unwrap();
        let b = e.embed("What are the names of stadiums that had concerts in 2015?").unwrap();
        let c = e.embed("median house price per zip code region").unwrap();
        assert!(cosine(&a, &b) > cosine(&a, &c) + 0.2, "{} vs {}", cosine(&a, &b), cosine(&a, &c));
    }

    #[test]
    fn case_insensitive() {
        let e = emb();
        assert_eq!(e.embed("Stadium Names").unwrap(), e.embed("stadium names").unwrap());
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(emb().embed(""), Err(ModelError::EmptyInput));
    }

    #[test]
    fn different_seeds_different_spaces() {
        let a = Embedder::standard(1).embed("stadium").unwrap();
        let b = Embedder::standard(2).embed("stadium").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn batch_matches_single() {
        let e = emb();
        let batch = e.embed_batch(["a cat", "a dog"]).unwrap();
        assert_eq!(batch[0], e.embed("a cat").unwrap());
        assert_eq!(batch[1], e.embed("a dog").unwrap());
    }

    #[test]
    fn short_text_embeds() {
        let e = emb();
        assert!(e.embed("ab").is_ok());
    }

    /// The kernel `embed` replaced, kept as the oracle: an `f32` sum per
    /// feature, one SplitMix chain at a time, trigrams as collected
    /// `String`s.
    fn reference_embed(e: &Embedder, text: &str) -> Vec<f32> {
        use crate::hash::unit_f64;
        let add_feature = |v: &mut [f32], feature: u64, weight: f32| {
            let mut s = combine(e.seed, feature);
            for slot in v.iter_mut() {
                s = splitmix(s);
                let sign = if s & 1 == 0 { 1.0 } else { -1.0 };
                if unit_f64(s) < 0.25 {
                    *slot += sign * weight;
                }
            }
        };
        let lower = text.to_lowercase();
        let mut v = vec![0f32; e.dim];
        for word in lower.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()) {
            add_feature(&mut v, fnv1a_str(word), 2.0);
        }
        let chars: Vec<char> = lower.chars().collect();
        if chars.len() >= e.ngram {
            for w in chars.windows(e.ngram) {
                let s: String = w.iter().collect();
                add_feature(&mut v, combine(fnv1a_str(&s), 0x6772616d), 1.0);
            }
        } else {
            add_feature(&mut v, combine(fnv1a_str(&lower), 0x6772616d), 1.0);
        }
        normalize(&mut v);
        v
    }

    fn assert_bit_identical(e: &Embedder, text: &str) {
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
        assert_eq!(
            bits(e.embed(text).unwrap()),
            bits(reference_embed(e, text)),
            "dim {} seed {} text {text:.80}",
            e.dim,
            e.seed,
        );
    }

    /// `len` chars drawn from `alphabet`.
    fn random_text(rng: &mut SmallRng, alphabet: &[char], len: usize) -> String {
        (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect()
    }

    const ASCII: &[char] = &['a', 'b', 'e', 'T', 'Z', '0', '7', ' ', ' ', '_', ',', '?'];
    const MULTI_BYTE: &[char] = &['É', 'ß', '漢', 'é', 'a', ' ', 'ü', '字', '1', '-'];
    /// `İ` lowercases to two chars, so the lowered text outgrows the input.
    const EXPANDING: &[char] = &['İ', 'I', 'i', ' ', 'x', 'İ'];
    const PUNCTUATION: &[char] = &['?', '!', '…', ' ', '—', '.', '#'];

    #[test]
    fn kernel_is_bit_identical_to_the_reference() {
        let mut rng = SmallRng::seed_from_u64(19);
        for dim in [1usize, 7, 64, 100] {
            for seed in [0u64, 42, 0xdead_beef_0bad_cafe] {
                let e = Embedder::new(dim, seed);
                // Shorter than one n-gram, at it, and just past it.
                for text in ["a", "ab", "abc", "abcd", "É", "ß漢", "İ", "?", "  ", "a b", "İİ"] {
                    assert_bit_identical(&e, text);
                }
                for alphabet in [ASCII, MULTI_BYTE, EXPANDING, PUNCTUATION] {
                    // Every feature count mod the lane width, then longer texts.
                    for len in (1..=40).chain([63, 64, 65, 206, 511, 2_000]) {
                        assert_bit_identical(&e, &random_text(&mut rng, alphabet, len));
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_is_bit_identical_on_every_length_to_2000() {
        let mut rng = SmallRng::seed_from_u64(23);
        let embedders: Vec<Embedder> = [1usize, 7, 64, 100]
            .into_iter()
            .flat_map(|dim| [0u64, 42, 7].map(|seed| Embedder::new(dim, seed)))
            .collect();
        let alphabets = [ASCII, MULTI_BYTE, EXPANDING, PUNCTUATION];
        for len in 1..=2_000 {
            // The embedder turns over every length, the alphabet every
            // twelve, so each of the 48 pairs sees ~40 lengths.
            let text = random_text(&mut rng, alphabets[len / embedders.len() % 4], len);
            assert_bit_identical(&embedders[len % embedders.len()], &text);
        }
    }

    #[test]
    fn kernel_is_bit_identical_on_a_mebibyte() {
        // 2²⁰ chars: the partial sums stay far below the 2²⁴ at which the
        // reference's `f32` accumulator would start to round.
        let mut rng = SmallRng::seed_from_u64(29);
        let text = random_text(&mut rng, ASCII, 1 << 20);
        assert_bit_identical(&Embedder::standard(42), &text);
        assert_bit_identical(&Embedder::new(7, 7), &text);
    }

    #[test]
    fn cosine_identity() {
        let e = emb();
        let v = e.embed("identical").unwrap();
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-5);
    }
}
