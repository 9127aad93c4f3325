//! Property-based tests for the transformation crate: JSON round-trips,
//! pattern-miner soundness, mapping-program correctness, and operator
//! laws.

use llmdm_transform::ops::{Grid, Op};
use llmdm_transform::synthesize::{apply_program, discover_program, relationality};
use llmdm_transform::{mine_pattern, synthesize_mapping};
use llmdm_rt::json::Json;
use llmdm_rt::proptest;
use llmdm_rt::proptest::prelude::*;

// ---------- JSON ----------

fn json_strategy() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1_000_000i64..1_000_000).prop_map(|i| Json::Num(i as f64)),
        "[a-zA-Z0-9 _.!?]{0,20}".prop_map(Json::Str),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            proptest::collection::vec(("[a-z][a-z0-9_]{0,8}", inner), 0..4).prop_map(|fields| {
                // Deduplicate keys (JSON objects with repeated keys are not
                // round-trippable by design).
                let mut seen = Vec::new();
                let mut out = Vec::new();
                for (k, v) in fields {
                    if !seen.contains(&k) {
                        seen.push(k.clone());
                        out.push((k, v));
                    }
                }
                Json::Obj(out)
            }),
        ]
    })
}

proptest! {
    /// serialize → parse is the identity on generated JSON values.
    #[test]
    fn json_roundtrip(v in json_strategy()) {
        let rendered = v.to_string();
        let reparsed = Json::parse(&rendered)
            .unwrap_or_else(|e| panic!("reparse of {rendered:?} failed: {e}"));
        prop_assert_eq!(v, reparsed);
    }

    /// A mined pattern matches every value it was mined from.
    #[test]
    fn mined_pattern_covers_training_values(
        month in 0usize..12,
        days in proptest::collection::vec(1u32..29, 1..8),
        year in 2000u32..2030,
    ) {
        let months = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
                      "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"];
        let values: Vec<String> = days
            .iter()
            .map(|d| format!("{} {d:02} {year}", months[month]))
            .collect();
        let refs: Vec<&str> = values.iter().map(|s| s.as_str()).collect();
        let p = mine_pattern(&refs).expect("structurally uniform column");
        for v in &refs {
            prop_assert!(p.matches(v), "pattern {p} rejects {v}");
        }
        prop_assert!(!p.matches("completely different"), "pattern {p} over-generalizes");
    }

    /// A synthesized mapping program reproduces every training pair and
    /// applies to fresh same-format values.
    #[test]
    fn mapping_program_correct_on_training_pairs(
        pairs in proptest::collection::vec((1u32..13, 1u32..29, 2000u32..2030), 2..6),
    ) {
        let months = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
                      "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"];
        let examples: Vec<(String, String)> = pairs
            .iter()
            .map(|(m, d, y)| {
                (format!("{} {d:02} {y}", months[(*m - 1) as usize]), format!("{m}/{d:02}/{y}"))
            })
            .collect();
        let refs: Vec<(&str, &str)> =
            examples.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
        let program = synthesize_mapping(&refs).expect("consistent mapping exists");
        for (src, dst) in &refs {
            let out = program.apply(src);
            prop_assert_eq!(out.as_deref(), Some(*dst));
        }
    }

    /// Transpose is an involution on rectangular grids.
    #[test]
    fn transpose_involution(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in any::<u32>(),
    ) {
        let grid: Grid = (0..rows)
            .map(|r| (0..cols).map(|c| format!("{}", (r * cols + c) as u32 ^ seed)).collect())
            .collect();
        let twice = Op::Transpose.apply(&Op::Transpose.apply(&grid));
        prop_assert_eq!(twice, grid);
    }

    /// DropEmptyRows and DropEmptyCols are idempotent.
    #[test]
    fn drop_ops_idempotent(
        cells in proptest::collection::vec(
            proptest::collection::vec(prop_oneof![Just(String::new()), Just("x".to_string())], 1..5),
            1..6,
        )
    ) {
        for op in [Op::DropEmptyRows, Op::DropEmptyCols] {
            let once = op.apply(&cells);
            let twice = op.apply(&once);
            prop_assert_eq!(&once, &twice, "op {:?} not idempotent", op);
        }
    }

    /// discover_program never returns a program that lowers relationality.
    #[test]
    fn discovery_never_hurts(
        body in proptest::collection::vec(
            proptest::collection::vec("[a-z0-9]{0,5}", 3),
            2..8,
        ),
        junk_rows in 0usize..3,
    ) {
        let mut grid: Grid = Vec::new();
        for _ in 0..junk_rows {
            grid.push(vec!["Report title".into(), String::new(), String::new()]);
        }
        grid.push(vec!["alpha".into(), "beta".into(), "gamma".into()]);
        grid.extend(body);
        let before = relationality(&grid);
        let (program, claimed) = discover_program(&grid, 3, 6);
        let after = relationality(&apply_program(&grid, &program));
        prop_assert!(after >= before - 1e-9, "program hurt: {before} -> {after}");
        prop_assert!((after - claimed).abs() < 1e-9, "claimed score mismatches");
    }
}
