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
//!
//! A feature's pattern is a pure function of its chain's start, and prompts
//! repeat almost every word and trigram, so each thread keeps the patterns
//! it has computed in a small memo and a repeated feature is added from
//! bitmasks instead of walked again. The memo changes the speed only: the
//! output bits are those of the plain walk for every text, seed and dim.

use std::cell::RefCell;

use crate::error::ModelError;
use crate::hash::{combine, fnv1a, fnv1a_str, splitmix};

/// Salt that keeps a trigram's feature apart from the same text as a word.
const GRAM_SALT: u64 = 0x6772616d;

/// Chains stepped side by side by either walk. One chain is a run of
/// dependent SplitMix steps, bound by the latency of each step;
/// independent chains interleaved keep the multiplier busy instead. Seven
/// is as many chain states as stay in registers beside SplitMix's three
/// constants on x86-64 (4 lanes: 34 µs for a 150-byte prompt, 6: 23, 7: 20,
/// 8: 24, 16: 47, measured when every feature walked); the value changes
/// the speed only, never the result.
const LANES: usize = 7;

/// Output dims one memoized block covers: one bit of a `u64` per dim.
const BLOCK: usize = 64;

/// Slots in each thread's memo: 2 048 × 32 B = 64 KiB (DESIGN.md §17).
const SLOTS: usize = 2048;

/// [`BLOCK`] steps of a SplitMix chain, as bitmasks: bit `d` of `taken`
/// is set when step `d + 1` from `start` adds to its dim, and bit `d` of
/// `sign` when that step's low bit is set (it subtracts). `next` is the
/// state after the last step: the next block's `start`.
///
/// A block whose `next` is its own `start` is a mark instead: the chain
/// was seen once and not yet memoized. (A real block that ends where it
/// began would read as a mark too and be walked every time, which costs
/// speed, not bits.)
#[derive(Clone, Copy)]
struct Block {
    start: u64,
    taken: u64,
    sign: u64,
    next: u64,
}

impl Block {
    /// The memo slot a block starting at `start` is filed in.
    fn slot(start: u64) -> usize {
        start as usize % SLOTS
    }

    fn mark(start: u64) -> Block {
        Block { start, taken: 0, sign: 0, next: start }
    }

    /// Whether this is the memoized block that starts at `start`.
    fn holds(&self, start: u64) -> bool {
        self.start == start && self.next != start
    }
}

thread_local! {
    /// This thread's blocks and marks, direct-mapped by [`Block::slot`]
    /// and overwritten on a collision. A block is a function of its start
    /// state alone (not of the seed, the dim or the feature), so every
    /// embedder on the thread shares the table and a hit is exact. An
    /// empty slot holds a start that files elsewhere, so it never
    /// answers a lookup.
    static MEMO: RefCell<Box<[Block]>> = RefCell::new(
        (0..SLOTS as u64).map(|i| Block { start: i + 1, taken: 0, sign: 0, next: 0 }).collect(),
    );
}

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
        let mut v = MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            let mut projection = Projection::new(self.dim, self.seed, &mut memo);
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
            projection.finish()
        });
        normalize(&mut v);
        Ok(v)
    }
}

/// The signed random projection of a stream of weighted features.
///
/// Feature `f` walks a SplitMix chain from `combine(seed, f)`, one step
/// per output dim; a step whose top two bits are zero (a quarter of them:
/// the sparse-ish projection) adds the feature's weight to that dim, with
/// the step's low bit as the sign. The chain is looked up [`BLOCK`] steps
/// at a time in the thread's memo, and a block it holds is added straight
/// from its masks. A chain the memo has never seen is buffered and walked
/// across every dim [`LANES`] at a time, exactly as without a memo, and
/// leaves a mark; so a text of new features costs only a lookup and a
/// mark per feature more than without the memo.
/// A marked chain seen again (or a later block the memo lost) is walked
/// one block at a time with masks, filed, and added from them.
///
/// The sums are kept in `i32` and converted once. That is bit-identical
/// to adding `±weight as f32` feature by feature: every contribution is a
/// small integer, a text of `n` chars has at most `n` n-grams and `n / 2`
/// words of weight 2, so every partial sum is an integer of magnitude at
/// most `2n`, and `f32` holds integers exactly (and adds them exactly, in
/// any order) below 2²⁴ — which covers every text under 8 Mi chars. The
/// order is why a memo hit, added before the chains buffered ahead of it,
/// changes no bit.
struct Projection<'m> {
    sums: Vec<i32>,
    seed: u64,
    memo: &'m mut [Block],
    /// Chains seen for the first time, walked across every dim.
    fresh: Lanes,
    /// Blocks seen before and not held, walked one block each.
    filing: Lanes,
}

/// Chains waiting for a walk: where each starts, its weight and the first
/// dim it covers.
#[derive(Default)]
struct Lanes {
    starts: [u64; LANES],
    weights: [i32; LANES],
    bases: [usize; LANES],
    len: usize,
}

impl Lanes {
    /// Buffer a chain; `true` once all lanes are taken.
    fn push(&mut self, start: u64, weight: i32, base: usize) -> bool {
        (self.starts[self.len], self.weights[self.len], self.bases[self.len]) =
            (start, weight, base);
        self.len += 1;
        self.len == LANES
    }
}

impl<'m> Projection<'m> {
    fn new(dim: usize, seed: u64, memo: &'m mut [Block]) -> Self {
        Projection {
            sums: vec![0; dim],
            seed,
            memo,
            fresh: Lanes::default(),
            filing: Lanes::default(),
        }
    }

    fn add(&mut self, feature: u64, weight: i32) {
        self.chain(combine(self.seed, feature), weight, 0);
    }

    /// Add the chain from `start` to the dims from `base` on: blocks the
    /// memo holds at once, the rest after a walk.
    fn chain(&mut self, mut start: u64, weight: i32, mut base: usize) {
        while base < self.sums.len() {
            let slot = Block::slot(start);
            let block = self.memo[slot];
            if block.holds(start) {
                self.apply(&block, weight, base);
                (start, base) = (block.next, base + BLOCK);
            } else if base == 0 && block.start != start {
                self.memo[slot] = Block::mark(start);
                if self.fresh.push(start, weight, base) {
                    self.walk_fresh();
                }
                return;
            } else {
                if self.filing.push(start, weight, base) {
                    self.walk_filing();
                }
                return;
            }
        }
    }

    /// Add `weight` at the dims from `base` that `block` takes.
    fn apply(&mut self, block: &Block, weight: i32, base: usize) {
        let dims = &mut self.sums[base..];
        let mut taken = block.taken;
        if dims.len() < BLOCK {
            taken &= (1 << dims.len()) - 1;
        }
        while taken != 0 {
            let d = taken.trailing_zeros() as usize;
            dims[d] += weight - 2 * weight * (block.sign >> d & 1) as i32;
            taken &= taken - 1;
        }
    }

    /// Walk the fresh chains across all dims, adding as they go. Lanes
    /// past `len` carry weight 0 and add nothing, so a partial batch
    /// needs no loop of its own.
    fn walk_fresh(&mut self) {
        let Lanes { starts: mut states, mut weights, len, .. } = std::mem::take(&mut self.fresh);
        weights[len..].fill(0);
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

    /// Walk one block of each filing chain as masks, file the blocks, add
    /// them and go on down their chains. Lanes past `len` are walked too
    /// and their results dropped.
    fn walk_filing(&mut self) {
        let Lanes { starts, weights, bases, len } = std::mem::take(&mut self.filing);
        let mut states = starts;
        let (mut taken, mut sign) = ([0u64; LANES], [0u64; LANES]);
        for d in 0..BLOCK {
            for lane in 0..LANES {
                let s = splitmix(states[lane]);
                states[lane] = s;
                taken[lane] |= ((s >> 62 == 0) as u64) << d;
                sign[lane] |= (s & 1) << d;
            }
        }
        for lane in 0..len {
            let block = Block {
                start: starts[lane],
                taken: taken[lane],
                sign: sign[lane],
                next: states[lane],
            };
            self.memo[Block::slot(block.start)] = block;
            self.apply(&block, weights[lane], bases[lane]);
        }
        for lane in 0..len {
            self.chain(states[lane], weights[lane], bases[lane] + BLOCK);
        }
    }

    fn finish(mut self) -> Vec<f32> {
        if self.fresh.len > 0 {
            self.walk_fresh();
        }
        // A filing walk may buffer the next blocks of its chains.
        while self.filing.len > 0 {
            self.walk_filing();
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

    /// `text` embedded on a fresh thread, whose memo is empty.
    fn embed_cold(e: &Embedder, text: &str) -> Vec<f32> {
        std::thread::scope(|s| s.spawn(|| e.embed(text).unwrap()).join().unwrap())
    }

    /// `embed` gives the reference's bits on this thread's memo as the
    /// texts before left it, on the memo warmed by this very text, and on
    /// an empty one.
    fn assert_bit_identical(e: &Embedder, text: &str) {
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
        let want = bits(reference_embed(e, text));
        for memo in ["as left", "warm", "cold"] {
            let got = match memo {
                "cold" => embed_cold(e, text),
                _ => e.embed(text).unwrap(),
            };
            assert_eq!(
                bits(got),
                want,
                "{memo} memo, dim {} seed {} text {text:.80}",
                e.dim,
                e.seed
            );
        }
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

    /// Two words whose chains start in the same memo slot, embedded in
    /// turn: each evicts the other's block (a word's second sighting
    /// files it), and a lookup that matched the slot but not the start it
    /// holds would add the other word's pattern.
    #[test]
    fn memo_tells_apart_features_that_share_a_slot() {
        for dim in [1usize, 7, 64, 100, 130] {
            let e = Embedder::new(dim, 42);
            let slot = |word: &str| Block::slot(combine(e.seed, fnv1a_str(word)));
            let mut seen = std::collections::HashMap::new();
            let (a, b) = (0..)
                .map(|i| format!("w{i}"))
                .find_map(|w| seen.insert(slot(&w), w.clone()).map(|earlier| (earlier, w)))
                .unwrap();
            assert_eq!(slot(&a), slot(&b));
            for _ in 0..3 {
                for text in
                    [&a, &b, &format!("{a} {a}"), &format!("{b} {b}"), &format!("{a} {b} {a}")]
                {
                    assert_bit_identical(&e, text);
                }
            }
        }
    }

    /// Eight threads embed the same texts in different orders, each
    /// through its own memo, and every result is the reference's.
    #[test]
    fn threads_embed_the_reference_bits() {
        let mut rng = SmallRng::seed_from_u64(31);
        let embedders: Vec<Embedder> =
            [1usize, 7, 64, 100, 130].into_iter().map(|dim| Embedder::new(dim, 7)).collect();
        let alphabets = [ASCII, MULTI_BYTE, EXPANDING, PUNCTUATION];
        let texts: Vec<String> =
            (0..40).map(|i| random_text(&mut rng, alphabets[i % 4], 1 + i * 7)).collect();
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
        let cases: Vec<(&Embedder, &str, Vec<u32>)> = embedders
            .iter()
            .flat_map(|e| texts.iter().map(move |t| (e, t.as_str())))
            .map(|(e, t)| (e, t, bits(reference_embed(e, t))))
            .collect();
        std::thread::scope(|s| {
            for thread in 0..8 {
                let cases = &cases;
                s.spawn(move || {
                    for round in 0..3 {
                        for i in 0..cases.len() {
                            let (e, text, want) =
                                &cases[(i * 7 + thread * 29 + round) % cases.len()];
                            assert_eq!(&bits(e.embed(text).unwrap()), want, "thread {thread}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn cosine_identity() {
        let e = emb();
        let v = e.embed("identical").unwrap();
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-5);
    }
}
