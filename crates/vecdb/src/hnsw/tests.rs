use std::collections::HashSet;

use super::*;
use crate::flat::FlatIndex;
use llmdm_rt::rand::rngs::SmallRng;
use llmdm_rt::rand::{Rng, SeedableRng};

fn random_vecs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0f32)).collect()).collect()
}

fn build(n: usize, seed: u64) -> (HnswIndex, Vec<Vec<f32>>) {
    let vecs = random_vecs(n, 16, seed);
    let mut idx = HnswIndex::new(16, Metric::Cosine, HnswConfig::default()).unwrap();
    for (i, v) in vecs.iter().enumerate() {
        idx.insert(i as u64, v.clone()).unwrap();
    }
    (idx, vecs)
}

#[test]
fn finds_inserted_vectors() {
    let (idx, vecs) = build(300, 11);
    for probe in [0usize, 123, 299] {
        let hits = idx.search(&vecs[probe], 1).unwrap();
        assert_eq!(hits[0].id, probe as u64, "probe {probe}");
    }
}

#[test]
fn recall_vs_flat_above_90_percent() {
    let (idx, vecs) = build(1000, 7);
    let mut flat = FlatIndex::new(16, Metric::Cosine);
    for (i, v) in vecs.iter().enumerate() {
        flat.insert(i as u64, v.clone()).unwrap();
    }
    let queries = random_vecs(50, 16, 555);
    let mut overlap = 0usize;
    let mut total = 0usize;
    for q in &queries {
        let gold: HashSet<u64> = flat.search(q, 10).unwrap().iter().map(|n| n.id).collect();
        let got = idx.search(q, 10).unwrap();
        overlap += got.iter().filter(|n| gold.contains(&n.id)).count();
        total += gold.len();
    }
    let recall = overlap as f64 / total as f64;
    assert!(recall > 0.9, "recall@10 = {recall}");
}

/// `n` 64-d vectors around 32 centres (jitter 0.3), and 256 queries that
/// are stored vectors nudged by 0.1: the clustered fixture of the
/// `vecdb_search` bench, at its seed, with four times its queries.
fn clustered(n: usize) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut query_rng = SmallRng::seed_from_u64(2);
    let jitter = |rng: &mut SmallRng, around: &[f32], spread: f32| -> Vec<f32> {
        around.iter().map(|x| x + spread * rng.gen_range(-1.0f32..1.0)).collect()
    };
    let centres: Vec<Vec<f32>> = (0..32).map(|_| jitter(&mut rng, &[0.0; 64], 1.0)).collect();
    let vecs: Vec<Vec<f32>> = (0..n)
        .map(|_| {
            let centre = rng.gen_range(0..centres.len());
            jitter(&mut rng, &centres[centre], 0.3)
        })
        .collect();
    let queries = (0..256)
        .map(|_| {
            let near = query_rng.gen_range(0..n);
            jitter(&mut query_rng, &vecs[near], 0.1)
        })
        .collect();
    (vecs, queries)
}

#[test]
fn every_cluster_is_reachable() {
    // Keeping only the closest links leaves whole clusters with no edge
    // in from the rest of the graph: then no `ef`, however wide, finds
    // them. With diverse links a search as wide as the index is exact.
    let (vecs, queries) = clustered(1000);
    let config = HnswConfig { ef_search: 1000, ..HnswConfig::default() };
    let mut idx = HnswIndex::new(64, Metric::Cosine, config).unwrap();
    let mut flat = FlatIndex::new(64, Metric::Cosine);
    for (i, v) in vecs.iter().enumerate() {
        idx.insert(i as u64, v.clone()).unwrap();
        flat.insert(i as u64, v.clone()).unwrap();
    }
    let ids = |hits: Vec<Neighbor>| hits.iter().map(|n| n.id).collect::<Vec<_>>();
    for (i, q) in queries.iter().enumerate() {
        let (got, gold) = (ids(idx.search(q, 10).unwrap()), ids(flat.search(q, 10).unwrap()));
        assert_eq!(got, gold, "query {i}");
    }
}

#[test]
fn copies_of_stored_vectors_keep_every_row_reachable() {
    // A copy scores every other row exactly as its original does. Were a
    // tie a reason to drop a link, the copy would keep the original as its
    // one link, and an original re-selecting its full block would keep
    // the copy as its one: a search landing on either finds only the two.
    let vecs = random_vecs(400, 16, 5);
    let config = HnswConfig { m: 4, ef_search: 1000, ..HnswConfig::default() };
    let mut idx = HnswIndex::new(16, Metric::Cosine, config).unwrap();
    for (i, v) in vecs.iter().enumerate() {
        idx.insert(i as u64, v.clone()).unwrap();
    }
    // Rows on an upper layer whose layer-0 block is full: a search at such
    // a row's vector starts its layer-0 walk there.
    let originals: Vec<usize> = (0..vecs.len())
        .filter(|&row| {
            let node = row as u32;
            idx.links.levels[row] >= 1 && idx.links.get(node, 0).len() == idx.links.cap(0)
        })
        .collect();
    assert!(originals.len() >= 10, "only {} full upper-layer rows", originals.len());
    for (i, &row) in originals.iter().enumerate() {
        idx.insert((vecs.len() + i) as u64, vecs[row].clone()).unwrap();
    }
    for &row in &originals {
        assert_eq!(idx.search(&vecs[row], 10).unwrap().len(), 10, "copy of row {row}");
    }
    let total = idx.len();
    assert_eq!(idx.search(&vecs[0], total).unwrap().len(), total);
}

#[test]
fn results_sorted_best_first() {
    let (idx, vecs) = build(200, 3);
    let hits = idx.search(&vecs[0], 10).unwrap();
    assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
}

#[test]
fn tombstoned_ids_not_returned() {
    let (mut idx, vecs) = build(200, 9);
    idx.remove(42).unwrap();
    assert_eq!(idx.len(), 199);
    let hits = idx.search(&vecs[42], 5).unwrap();
    assert!(hits.iter().all(|h| h.id != 42));
    assert!(idx.remove(42).is_err());
}

#[test]
fn compact_removes_tombstones() {
    let (mut idx, vecs) = build(200, 13);
    for id in 0..100u64 {
        idx.remove(id).unwrap();
    }
    assert!(idx.tombstone_ratio() > 0.4);
    idx.compact();
    assert_eq!(idx.tombstone_ratio(), 0.0);
    assert_eq!(idx.len(), 100);
    let hits = idx.search(&vecs[150], 1).unwrap();
    assert_eq!(hits[0].id, 150);
}

#[test]
fn duplicate_rejected() {
    let mut idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::default()).unwrap();
    idx.insert(1, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
    assert!(idx.insert(1, vec![0.0, 1.0, 0.0, 0.0]).is_err());
}

#[test]
fn empty_search_is_empty() {
    let idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::default()).unwrap();
    assert!(idx.search(&[1.0, 0.0, 0.0, 0.0], 3).unwrap().is_empty());
}

#[test]
fn higher_ef_no_worse_recall() {
    let (mut idx, vecs) = build(800, 21);
    let mut flat = FlatIndex::new(16, Metric::Cosine);
    for (i, v) in vecs.iter().enumerate() {
        flat.insert(i as u64, v.clone()).unwrap();
    }
    let queries = random_vecs(30, 16, 77);
    let recall = |idx: &HnswIndex| {
        let mut overlap = 0;
        for q in &queries {
            let gold: HashSet<u64> =
                flat.search(q, 5).unwrap().iter().map(|n| n.id).collect();
            overlap +=
                idx.search(q, 5).unwrap().iter().filter(|n| gold.contains(&n.id)).count();
        }
        overlap
    };
    idx.config.ef_search = 8;
    let low = recall(&idx);
    idx.config.ef_search = 128;
    let high = recall(&idx);
    assert!(high >= low, "low={low} high={high}");
}

#[test]
fn invalid_config_rejected() {
    assert!(HnswIndex::new(4, Metric::L2, HnswConfig { m: 0, ..Default::default() }).is_err());
}

#[test]
fn adaptive_search_matches_fixed_ef_recall_at_lower_cost() {
    let (idx, vecs) = build(1200, 31);
    let mut flat = FlatIndex::new(16, Metric::Cosine);
    for (i, v) in vecs.iter().enumerate() {
        flat.insert(i as u64, v.clone()).unwrap();
    }
    let queries = random_vecs(40, 16, 777);
    let mut fixed_recall = 0usize;
    let mut adaptive_recall = 0usize;
    let mut adaptive_scored = 0usize;
    let mut total = 0usize;
    for q in &queries {
        let gold: HashSet<u64> = flat.search(q, 10).unwrap().iter().map(|n| n.id).collect();
        let fixed = idx.search(q, 10).unwrap();
        let adaptive = idx.search_adaptive(q, 10, 24).unwrap();
        fixed_recall += fixed.iter().filter(|n| gold.contains(&n.id)).count();
        adaptive_recall += adaptive.neighbors.iter().filter(|n| gold.contains(&n.id)).count();
        adaptive_scored += adaptive.scored;
        total += gold.len();
    }
    let fr = fixed_recall as f64 / total as f64;
    let ar = adaptive_recall as f64 / total as f64;
    assert!(ar > fr - 0.05, "adaptive recall {ar} vs fixed {fr}");
    assert!(ar > 0.85, "adaptive recall {ar}");
    // Cost should stay well below exhaustive.
    assert!(
        adaptive_scored / queries.len() < 1200 / 2,
        "mean scored {}",
        adaptive_scored / queries.len()
    );
}

#[test]
fn adaptive_patience_trades_cost_for_recall() {
    let (idx, _) = build(800, 33);
    let queries = random_vecs(20, 16, 91);
    let cost_at = |patience: usize| {
        queries
            .iter()
            .map(|q| idx.search_adaptive(q, 10, patience).unwrap().scored)
            .sum::<usize>()
    };
    assert!(cost_at(4) <= cost_at(64), "more patience must not cost less");
}

#[test]
fn adaptive_search_respects_tombstones() {
    let (mut idx, vecs) = build(300, 35);
    idx.remove(17).unwrap();
    let out = idx.search_adaptive(&vecs[17], 5, 16).unwrap();
    assert!(out.neighbors.iter().all(|n| n.id != 17));
    assert_eq!(out.neighbors.len(), 5);
}

#[test]
fn adaptive_search_empty_index() {
    let idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::default()).unwrap();
    let out = idx.search_adaptive(&[1.0, 0.0, 0.0, 0.0], 3, 8).unwrap();
    assert!(out.neighbors.is_empty());
    assert_eq!(out.scored, 0);
}

/// Every promise the flat layout makes, checked block by block.
fn check_layout(idx: &HnswIndex) -> Result<(), String> {
    let (n, m, links) = (idx.ids.len(), idx.config.m, &idx.links);
    let check = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
    check(idx.deleted.len() == n && links.levels.len() == n && links.upper_at.len() == n, "columns".into())?;
    check(links.base.len() == n * (1 + 2 * m), "one layer-0 block per node".into())?;
    let upper_blocks: usize = links.levels.iter().map(|&l| l as usize).sum();
    check(links.upper.len() == upper_blocks * (1 + m), "one upper block per drawn level".into())?;
    // Level draws are a function of the seed and the row number alone.
    let mut fresh = HnswIndex::new(idx.rows.dim(), idx.rows.metric(), idx.config).unwrap();
    for node in 0..n as u32 {
        let level = links.levels[node as usize] as usize;
        check(level == fresh.draw_level(), format!("node {node} level {level} is not its draw"))?;
        for layer in 0..=level {
            let out = links.get(node, layer);
            let cap = if layer == 0 { 2 * m } else { m };
            check(out.len() <= cap, format!("node {node} layer {layer}: degree {}", out.len()))?;
            let mut sorted = out.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            check(sorted.len() == out.len(), format!("node {node} layer {layer}: duplicate link"))?;
            for &to in out {
                check((to as usize) < n, format!("node {node} layer {layer}: link {to} >= {n}"))?;
                check(to != node, format!("node {node} layer {layer}: self-link"))?;
                // A node is on layer `l` only if it drew at least `l`.
                let drew = links.levels[to as usize] as usize;
                check(drew >= layer, format!("node {to} (level {drew}) linked on layer {layer}"))?;
            }
        }
    }
    let top = links.levels.iter().map(|&l| l as usize).max();
    check(top.unwrap_or(0) == idx.max_level, "max_level is the highest draw".into())?;
    let entry_level = idx.entry.map(|e| links.levels[e as usize] as usize);
    check(entry_level == top, "the entry point sits on the top layer".into())?;
    check(idx.live == idx.deleted.iter().filter(|d| !**d).count(), "live count".into())?;
    check(idx.by_id.len() == idx.live, "one id per live row".into())
}

llmdm_rt::proptest! {
    /// Layout invariants hold after any interleaving of inserts, removes
    /// and compactions, at a degree small enough that every block fills
    /// and prunes.
    #[test]
    fn layout_invariants_survive_insert_remove_compact(
        m in 1usize..6,
        ops in llmdm_rt::proptest::collection::vec((0u8..8, 0u64..40, 0u64..1000), 1..120),
    ) {
        use llmdm_rt::proptest::prelude::*;
        let config = HnswConfig { m, ef_construction: 12, ef_search: 8, seed: 3 };
        let mut idx = HnswIndex::new(6, Metric::L2, config).unwrap();
        let mut live: Vec<u64> = Vec::new();
        for (op, id, seed) in ops {
            match op {
                // Mostly inserts, so graphs get big enough to have layers.
                0..=4 => {
                    let inserted = idx.insert(id, random_vecs(1, 6, seed).remove(0));
                    prop_assert_eq!(inserted.is_ok(), !live.contains(&id));
                    if inserted.is_ok() {
                        live.push(id);
                    }
                }
                5 | 6 => {
                    prop_assert_eq!(idx.remove(id).is_ok(), live.contains(&id));
                    live.retain(|&l| l != id);
                }
                _ => {
                    idx.compact();
                    prop_assert_eq!(idx.tombstone_ratio(), 0.0);
                }
            }
            if let Err(broken) = check_layout(&idx) {
                prop_assert!(false, "{broken}");
            }
        }
        // Rows stay in insertion order through it all, so a scan of every
        // row offers ids in the order the survivors went in.
        let scanned = idx.search_rows(&[0.0; 6], live.len(), 0..idx.rows() as u32).unwrap();
        prop_assert_eq!(scanned.len(), live.len());
        let mut by_row: Vec<u64> = live.clone();
        by_row.sort_by_key(|id| idx.row_of(*id));
        prop_assert_eq!(by_row, live);
    }
}

#[test]
fn default_layout_holds_at_default_degree() {
    let (mut idx, _) = build(600, 41);
    check_layout(&idx).unwrap();
    for id in (0..600).step_by(3) {
        idx.remove(id).unwrap();
    }
    check_layout(&idx).unwrap();
    idx.compact();
    check_layout(&idx).unwrap();
    assert_eq!(idx.rows(), 400);
}
