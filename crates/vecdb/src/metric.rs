//! Similarity metrics and the prepared scoring kernel every index ranks
//! through.
//!
//! All indexes rank by a *score* where **higher is better**, so L2 distance
//! is negated. This keeps heap logic identical across metrics.
//!
//! [`Metric::score`] is the one-off form: two slices in, one score out, both
//! cosine norms recomputed. An index never calls it per candidate. It keeps
//! its vectors in a `Rows` arena, which stores beside each row what the
//! metric needs of it (the inverse norm, for cosine), prepares the query
//! once per search (`Metric::prepare`) and then pays one chunked `dot` per
//! candidate (`Rows::score`). Because HNSW scores through `Rows::score`,
//! and flat through `Rows::scores`, which gives its bits, the same (query,
//! row) pair gets the same bits everywhere — which is what keeps
//! pre-filter ≡ exact scan.

/// Accumulator lanes of the chunked kernels. The value is part of the
/// result: with the reduction order in [`reduce`] it fixes the last bit of
/// every score, on every machine and at every optimisation level.
const LANES: usize = 8;

/// Fold the lanes in a fixed tree, then add the remainder's sum.
#[inline]
fn reduce(acc: [f32; LANES], tail: f32) -> f32 {
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7])) + tail
}

/// `Σ term(aᵢ, bᵢ)` over [`LANES`] independent accumulators: the serial
/// dependency chain of a single accumulator is what made the naive loop
/// slow, and independent lanes are what lets plain `rustc -O` use the
/// vector unit without reassociating anything on its own.
#[inline(always)]
fn chunked_sum(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0f32; LANES];
    let (mut ca, mut cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    for (x, y) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..LANES {
            acc[l] += term(x[l], y[l]);
        }
    }
    let tail: f32 = ca.remainder().iter().zip(cb.remainder()).map(|(x, y)| term(*x, *y)).sum();
    reduce(acc, tail)
}

/// The row width [`Rows::scores`] scores four rows at a time: every
/// embedding in the workspace is this wide.
const FAST_DIM: usize = 64;

/// [`dot`] of `q` against four rows at once, each bit for bit what `dot`
/// gives it: per row the same lanes, chunks, reduction and tail. One row's
/// lanes are chains of dependent adds; four independent rows side by side
/// keep the adder busy instead (a 256-row 64-d scan: 2.4× faster).
#[inline(always)]
fn dot_four<const D: usize>(q: &[f32; D], rows: [&[f32; D]; 4]) -> [f32; 4] {
    let mut acc = [[0f32; LANES]; 4];
    for c in 0..D / LANES {
        for (acc, row) in acc.iter_mut().zip(rows) {
            for l in 0..LANES {
                acc[l] += q[c * LANES + l] * row[c * LANES + l];
            }
        }
    }
    let tail = D / LANES * LANES;
    std::array::from_fn(|r| {
        reduce(acc[r], q[tail..].iter().zip(&rows[r][tail..]).map(|(x, y)| x * y).sum())
    })
}

/// Inner product.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    chunked_sum(a, b, |x, y| x * y)
}

/// Squared Euclidean distance.
#[inline]
fn sqdist(a: &[f32], b: &[f32]) -> f32 {
    chunked_sum(a, b, |x, y| (x - y) * (x - y))
}

/// `1 / ‖v‖`, or `0.0` for the zero vector so that its cosine against
/// anything comes out `0.0`.
#[inline]
fn inverse_norm(v: &[f32]) -> f32 {
    let sq = dot(v, v);
    if sq == 0.0 {
        0.0
    } else {
        sq.sqrt().recip()
    }
}

/// Supported similarity metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Cosine similarity in `[-1, 1]`.
    Cosine,
    /// Negative Euclidean distance (0 is a perfect match).
    L2,
    /// Inner product.
    Dot,
}

impl Metric {
    /// Score of `b` against query `a`; higher is better.
    ///
    /// For one-off comparisons. Indexes score through `Rows`, whose
    /// result can differ from this one in the last few ulps (different
    /// summation order, a stored inverse norm instead of a division).
    #[inline]
    pub fn score(&self, a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        match self {
            Metric::Cosine => {
                let (mut dot, mut na, mut nb) = (0f32, 0f32, 0f32);
                for (x, y) in a.iter().zip(b) {
                    dot += x * y;
                    na += x * x;
                    nb += y * y;
                }
                if na == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    dot / (na.sqrt() * nb.sqrt())
                }
            }
            Metric::L2 => {
                let mut d = 0f32;
                for (x, y) in a.iter().zip(b) {
                    let t = x - y;
                    d += t * t;
                }
                -d.sqrt()
            }
            Metric::Dot => a.iter().zip(b).map(|(x, y)| x * y).sum(),
        }
    }

    /// Ready `query` for [`Rows::score`]: under cosine its norm is taken
    /// here, once per search rather than once per candidate.
    pub(crate) fn prepare(self, query: &[f32]) -> Prepared<'_> {
        let scale = if self == Metric::Cosine { inverse_norm(query) } else { 1.0 };
        Prepared { query, scale }
    }
}

/// A query readied for scoring against many rows of one [`Rows`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Prepared<'q> {
    query: &'q [f32],
    /// The query's inverse norm under cosine; unused otherwise.
    scale: f32,
}

/// The cosine of `q` and a row from their dot product and the row's
/// inverse norm.
#[inline(always)]
fn cosine(q: &Prepared<'_>, dot: f32, row_scale: f32) -> f32 {
    dot * (q.scale * row_scale)
}

/// A row-major `f32` arena of equal-length vectors plus, under
/// [`Metric::Cosine`], each row's inverse norm taken once at insert. L2 and
/// dot product need nothing stored, so the scale column stays empty.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    dim: usize,
    metric: Metric,
    len: usize,
    data: Vec<f32>,
    scale: Vec<f32>,
}

impl Rows {
    pub(crate) fn new(dim: usize, metric: Metric) -> Self {
        Rows { dim, metric, len: 0, data: Vec::new(), scale: Vec::new() }
    }

    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    pub(crate) fn metric(&self) -> Metric {
        self.metric
    }

    /// Append `v` (the caller has checked its dimensionality) as the next row.
    pub(crate) fn push(&mut self, v: &[f32]) {
        debug_assert_eq!(v.len(), self.dim);
        self.data.extend_from_slice(v);
        if self.metric == Metric::Cosine {
            self.scale.push(inverse_norm(v));
        }
        self.len += 1;
    }

    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Move the last row into slot `i` and drop the last slot.
    pub(crate) fn swap_remove(&mut self, i: usize) {
        let last = self.len - 1;
        self.data.copy_within(last * self.dim..(last + 1) * self.dim, i * self.dim);
        self.data.truncate(last * self.dim);
        if self.metric == Metric::Cosine {
            self.scale.swap_remove(i);
        }
        self.len = last;
    }

    /// Row `i` as the query (graph pruning scores links against a stored
    /// node): borrows the row and reuses its stored scale.
    pub(crate) fn prepare_row(&self, i: usize) -> Prepared<'_> {
        let scale = if self.metric == Metric::Cosine { self.scale[i] } else { 1.0 };
        Prepared { query: self.row(i), scale }
    }

    /// Score of row `i` against `q`; higher is better. Cosines are true
    /// cosines (`dot · 1/‖q‖ · 1/‖row‖`), and a zero query or zero row
    /// scores `0.0`.
    #[inline]
    pub(crate) fn score(&self, q: &Prepared<'_>, i: usize) -> f32 {
        let row = self.row(i);
        match self.metric {
            Metric::Cosine => cosine(q, dot(q.query, row), self.scale[i]),
            Metric::L2 => -sqdist(q.query, row).sqrt(),
            Metric::Dot => dot(q.query, row),
        }
    }

    /// Every row's score against `q`, in row order, each bit for bit what
    /// [`Rows::score`] gives it. At [`FAST_DIM`] dims under cosine, rows
    /// are scored four at a time through [`dot_four`]. The scores come
    /// back in a buffer rather than through a callback: a consumer that
    /// branches between two rows' scores lets the compiler split the four
    /// interleaved rows back into one chain per row.
    pub(crate) fn scores(&self, q: &Prepared<'_>) -> Vec<f32> {
        let mut out = vec![0f32; self.len];
        let mut done = 0;
        if let (Ok(query), Metric::Cosine) = (<&[f32; FAST_DIM]>::try_from(q.query), self.metric) {
            let fours = self.data.chunks_exact(4 * FAST_DIM).zip(self.scale.chunks_exact(4));
            for ((four, scale), out) in fours.zip(out.chunks_exact_mut(4)) {
                let rows = std::array::from_fn(|r| {
                    four[r * FAST_DIM..][..FAST_DIM].try_into().expect("a row is FAST_DIM floats")
                });
                for ((o, dot), &scale) in out.iter_mut().zip(dot_four(query, rows)).zip(scale) {
                    *o = cosine(q, dot, scale);
                }
                done += 4;
            }
        }
        for (o, i) in out[done..].iter_mut().zip(done..) {
            *o = self.score(q, i);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmdm_rt::rand::rngs::SmallRng;
    use llmdm_rt::rand::{Rng, SeedableRng};

    #[test]
    fn cosine_of_identical_is_one() {
        let v = [0.3f32, 0.4, 0.5];
        assert!((Metric::Cosine.score(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        assert!(Metric::Cosine.score(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
    }

    #[test]
    fn l2_higher_is_closer() {
        let q = [0.0f32, 0.0];
        assert!(Metric::L2.score(&q, &[0.1, 0.0]) > Metric::L2.score(&q, &[5.0, 0.0]));
    }

    #[test]
    fn l2_self_is_zero() {
        let v = [1.0f32, 2.0];
        assert_eq!(Metric::L2.score(&v, &v), 0.0);
    }

    #[test]
    fn dot_product() {
        assert_eq!(Metric::Dot.score(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(Metric::Cosine.score(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    fn random_vec(rng: &mut SmallRng, dim: usize) -> Vec<f32> {
        (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// Every dim 1..=130 walks the whole-chunk loop 0..=16 times and every
    /// remainder length 0..=7.
    #[test]
    fn chunked_dot_tracks_f64_reference_at_every_dim() {
        let mut rng = SmallRng::seed_from_u64(5);
        for dim in 1..=130usize {
            let (a, b) = (random_vec(&mut rng, dim), random_vec(&mut rng, dim));
            let exact: f64 = a.iter().zip(&b).map(|(x, y)| *x as f64 * *y as f64).sum();
            // Relative to the sum of magnitudes: a dot product near zero
            // by cancellation has no small relative error in any order.
            let magnitude: f64 = a.iter().zip(&b).map(|(x, y)| (*x as f64 * *y as f64).abs()).sum();
            let got = dot(&a, &b) as f64;
            assert!((got - exact).abs() <= 1e-5 * magnitude, "dim {dim}: {got} vs {exact}");
        }
    }

    #[test]
    fn prepared_scores_agree_with_one_off_scores() {
        let mut rng = SmallRng::seed_from_u64(6);
        for metric in [Metric::Cosine, Metric::L2, Metric::Dot] {
            for dim in [1usize, 3, 8, 17, 64, 130] {
                let mut rows = Rows::new(dim, metric);
                let stored: Vec<Vec<f32>> = (0..8).map(|_| random_vec(&mut rng, dim)).collect();
                for v in &stored {
                    rows.push(v);
                }
                let query = random_vec(&mut rng, dim);
                let q = metric.prepare(&query);
                for (i, v) in stored.iter().enumerate() {
                    let (got, want) = (rows.score(&q, i), metric.score(&query, v));
                    // Two ulps at the scale of the terms summed, per term:
                    // the two forms differ only in summation order and in
                    // one division against two multiplications.
                    let scale = match metric {
                        Metric::Cosine => 1.0,
                        _ => query.iter().chain(v).map(|x| x * x).sum::<f32>().max(1.0),
                    };
                    let tol = 2.0 * f32::EPSILON * scale * dim as f32;
                    assert!((got - want).abs() <= tol, "{metric:?} dim {dim}: {got} vs {want}");
                }
                // A stored row used as the query scores the same bits.
                rows.push(&query);
                let as_row = rows.prepare_row(stored.len());
                for i in 0..stored.len() {
                    assert_eq!(rows.score(&as_row, i), rows.score(&q, i));
                }
            }
        }
    }

    /// Row counts with and without a remainder past the groups of four,
    /// dims on and off [`FAST_DIM`], zero rows and a zero query.
    #[test]
    fn scores_are_the_bits_of_score() {
        let mut rng = SmallRng::seed_from_u64(7);
        for metric in [Metric::Cosine, Metric::L2, Metric::Dot] {
            for dim in [3usize, FAST_DIM, FAST_DIM + 1] {
                for len in [0usize, 1, 4, 62, 67] {
                    let mut rows = Rows::new(dim, metric);
                    for i in 0..len {
                        let v = if i % 9 == 5 { vec![0.0; dim] } else { random_vec(&mut rng, dim) };
                        rows.push(&v);
                    }
                    for query in [random_vec(&mut rng, dim), vec![0.0; dim]] {
                        let q = metric.prepare(&query);
                        let seen: Vec<_> = rows.scores(&q).iter().map(|s| s.to_bits()).collect();
                        let want: Vec<_> = (0..len).map(|i| rows.score(&q, i).to_bits()).collect();
                        assert_eq!(seen, want, "{metric:?} dim {dim} len {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_query_and_zero_row_score_zero_under_cosine() {
        let mut rows = Rows::new(3, Metric::Cosine);
        rows.push(&[0.0, 0.0, 0.0]);
        rows.push(&[-1.0, 2.0, 0.5]);
        assert_eq!(rows.score(&Metric::Cosine.prepare(&[0.3, -0.4, 0.5]), 0), 0.0);
        assert_eq!(rows.score(&Metric::Cosine.prepare(&[0.0, 0.0, 0.0]), 1), 0.0);
        assert_eq!(rows.score(&Metric::Cosine.prepare(&[0.0, 0.0, 0.0]), 0), 0.0);
    }

    #[test]
    fn swap_remove_keeps_rows_and_scales_aligned() {
        let mut rows = Rows::new(2, Metric::Cosine);
        for v in [[3.0f32, 4.0], [1.0, 0.0], [0.0, 2.0]] {
            rows.push(&v);
        }
        rows.swap_remove(0);
        assert_eq!(rows.row(0), &[0.0, 2.0]);
        assert_eq!(rows.row(1), &[1.0, 0.0]);
        let q = Metric::Cosine.prepare(&[0.0, 1.0]);
        assert!((rows.score(&q, 0) - 1.0).abs() < 1e-6);
        rows.swap_remove(1);
        rows.swap_remove(0);
        assert!(rows.data.is_empty() && rows.scale.is_empty());
    }
}
