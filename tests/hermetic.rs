//! The hermetic-build guard: every dependency in the workspace must be a
//! `path` dependency.
//!
//! The workspace's build invariant is that `cargo build --offline`
//! succeeds from a cold registry cache — no network, no vendored
//! registry, no lockfile churn. That only holds if no crate ever grows a
//! registry dependency, so this test parses the root manifest and every
//! `crates/*/Cargo.toml` and fails loudly on anything that is not a
//! `path = …` / `*.workspace = true` dependency.
//!
//! (Hand-rolled scanning, not a TOML crate — a TOML parser would itself
//! violate the invariant.)

use std::fs;
use std::path::{Path, PathBuf};

/// Find the workspace root: walk up from this test file's crate.
fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let candidate = dir.join("Cargo.toml");
        if candidate.exists() {
            if fs::read_to_string(&candidate)
                .map(|s| s.contains("[workspace]"))
                .unwrap_or(false)
            {
                return dir;
            }
        }
        assert!(dir.pop(), "workspace root not found above CARGO_MANIFEST_DIR");
    }
}

/// Collect `(manifest, offending line)` pairs for non-path dependencies.
fn scan_manifest(path: &Path) -> Vec<String> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let mut offenders = Vec::new();
    let mut in_dep_section = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            // [dependencies], [dev-dependencies], [build-dependencies],
            // [workspace.dependencies], and target-specific variants.
            in_dep_section = line.trim_matches(['[', ']']).ends_with("dependencies");
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let ok = line.contains("path =")
            || line.contains("path=")
            || line.ends_with(".workspace = true")
            || line.contains("workspace = true");
        if !ok {
            offenders.push(format!("{}: {line}", path.display()));
        }
    }
    offenders
}

#[test]
fn every_dependency_is_a_path_dependency() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates dir") {
        let dir = entry.expect("dir entry").path();
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "expected the full workspace, found {}", manifests.len());

    let offenders: Vec<String> = manifests.iter().flat_map(|m| scan_manifest(m)).collect();
    assert!(
        offenders.is_empty(),
        "non-path dependencies break the hermetic offline build:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn rt_crate_has_no_dependencies_at_all() {
    let root = workspace_root();
    let text = fs::read_to_string(root.join("crates/rt/Cargo.toml")).expect("rt manifest");
    let mut in_deps = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line.trim_matches(['[', ']']).ends_with("dependencies");
            continue;
        }
        if in_deps && !line.is_empty() && !line.starts_with('#') {
            panic!("llmdm-rt must stay dependency-free, found: {line}");
        }
    }
}

#[test]
fn obs_crate_depends_only_on_rt() {
    // llmdm-obs is the cross-cutting layer every crate may depend on; to
    // keep the dependency graph acyclic and the crate as hermetic as the
    // runtime itself, its only dependency is llmdm-rt.
    let root = workspace_root();
    let text = fs::read_to_string(root.join("crates/obs/Cargo.toml")).expect("obs manifest");
    let mut in_deps = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line.trim_matches(['[', ']']).ends_with("dependencies");
            continue;
        }
        if in_deps && !line.is_empty() && !line.starts_with('#') {
            assert!(
                line.starts_with("llmdm-rt"),
                "llmdm-obs may only depend on llmdm-rt, found: {line}"
            );
        }
    }
}

#[test]
fn resil_crate_depends_only_on_rt_and_obs() {
    // llmdm-resil is generic resilience machinery (fault plans, backoff,
    // breakers, deadlines, the retry executor). It must stay free of
    // domain crates so any layer — model, cascade, semcache, core — can
    // depend on it without cycles: its only dependencies are llmdm-rt
    // and llmdm-obs. (Dev-dependencies are covered too: the scan below
    // walks every `*dependencies` section.)
    let root = workspace_root();
    let text = fs::read_to_string(root.join("crates/resil/Cargo.toml")).expect("resil manifest");
    let mut in_deps = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line.trim_matches(['[', ']']).ends_with("dependencies");
            continue;
        }
        if in_deps && !line.is_empty() && !line.starts_with('#') {
            assert!(
                line.starts_with("llmdm-rt") || line.starts_with("llmdm-obs"),
                "llmdm-resil may only depend on llmdm-rt and llmdm-obs, found: {line}"
            );
        }
    }
}

#[test]
fn serve_crate_depends_only_on_rt_obs_resil() {
    // llmdm-serve is infrastructure, not domain logic: the scheduler is
    // generic over payload/result types, so it must never grow a
    // dependency on model, cascade, semcache, or core. Pinning it to
    // llmdm-rt + llmdm-obs + llmdm-resil keeps every domain crate free
    // to depend on serving without cycles.
    let root = workspace_root();
    let text = fs::read_to_string(root.join("crates/serve/Cargo.toml")).expect("serve manifest");
    let mut in_deps = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line.trim_matches(['[', ']']).ends_with("dependencies");
            continue;
        }
        if in_deps && !line.is_empty() && !line.starts_with('#') {
            assert!(
                line.starts_with("llmdm-rt")
                    || line.starts_with("llmdm-obs")
                    || line.starts_with("llmdm-resil"),
                "llmdm-serve may only depend on llmdm-rt, llmdm-obs, llmdm-resil, found: {line}"
            );
        }
    }
}

#[test]
fn store_crate_depends_only_on_rt_obs_resil() {
    // llmdm-store is the durable storage tier (pager, WAL, recovery).
    // Like serve, it is infrastructure: both sqlengine and semcache sit
    // on top of it, so it must never depend on a domain crate — only
    // llmdm-rt (runtime), llmdm-obs (counters/spans), and llmdm-resil
    // (fault plans driving the crash-injection kill points).
    let root = workspace_root();
    let text = fs::read_to_string(root.join("crates/store/Cargo.toml")).expect("store manifest");
    let mut in_deps = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line.trim_matches(['[', ']']).ends_with("dependencies");
            continue;
        }
        if in_deps && !line.is_empty() && !line.starts_with('#') {
            assert!(
                line.starts_with("llmdm-rt")
                    || line.starts_with("llmdm-obs")
                    || line.starts_with("llmdm-resil"),
                "llmdm-store may only depend on llmdm-rt, llmdm-obs, llmdm-resil, found: {line}"
            );
        }
    }
}

#[test]
fn sqlengine_crate_cone_is_pinned() {
    // llmdm-sqlengine grew a model seam for semantic operators
    // (LLM_MAP / LLM_FILTER / LLM_JOIN): llmdm-model supplies the
    // LanguageModel stack + UsageMeter, llmdm-semcache the semantic
    // cache whose live stats feed cache-aware cost estimates. Beyond
    // those and its storage/infra cone (rt, obs, store) it must not
    // grow dependencies — in particular not on serve, cascade, or core,
    // which all sit *above* the engine.
    let root = workspace_root();
    let text =
        fs::read_to_string(root.join("crates/sqlengine/Cargo.toml")).expect("sqlengine manifest");
    let allowed =
        ["llmdm-rt", "llmdm-obs", "llmdm-store", "llmdm-model", "llmdm-semcache"];
    let mut in_deps = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line.trim_matches(['[', ']']).ends_with("dependencies");
            continue;
        }
        if in_deps && !line.is_empty() && !line.starts_with('#') {
            assert!(
                allowed.iter().any(|a| line.starts_with(a)),
                "llmdm-sqlengine may only depend on {allowed:?}, found: {line}"
            );
        }
    }
}

#[test]
fn no_source_file_references_removed_crates() {
    // The replaced crates must not creep back in via `use` or `extern`.
    let root = workspace_root();
    let banned = ["rand::", "serde::", "proptest::prelude", "criterion::", "crossbeam::", "parking_lot::", "bytes::"];
    let mut offenders = Vec::new();
    visit(&root.join("crates"), &mut |p, text| {
        for line in text.lines() {
            let t = line.trim_start();
            if let Some(rest) = t.strip_prefix("use ") {
                for b in banned {
                    if rest.starts_with(b) {
                        offenders.push(format!("{}: {t}", p.display()));
                    }
                }
            }
        }
    });
    assert!(offenders.is_empty(), "external-crate imports crept back:\n{}", offenders.join("\n"));
}

#[test]
fn no_deprecated_items_in_library_crates() {
    // A replaced API is deleted and its callers ported in the same
    // change; an "adapter kept for now" is a second way in.
    let root = workspace_root();
    let perf = root.join("crates/bench/src/bin/perf");
    let mut offenders = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let src = entry.expect("entry").path().join("src");
        if !src.is_dir() {
            continue;
        }
        visit(&src, &mut |p, text| {
            if p.starts_with(&perf) {
                return;
            }
            for (n, line) in text.lines().enumerate() {
                if line.contains("#[deprecated") || line.contains("#[allow(deprecated)]") {
                    offenders.push(format!("{}:{}: {}", p.display(), n + 1, line.trim()));
                }
            }
        });
    }
    assert!(offenders.is_empty(), "deprecated items in library crates:\n{}", offenders.join("\n"));
}

#[test]
fn bench_targets_have_one_entry_point() {
    // How a bench run ends — gates, stamp, report, exit status — lives in
    // `llmdm_rt::bench` and nowhere else: a target gets its `main` from
    // the one `bench_main!`, never writes its own, and reads no env var
    // (run length and output path are the harness's two).
    let root = workspace_root();
    let perf = root.join("crates/bench/src/bin/perf");
    let benches = root.join("crates/bench/benches");
    let baseline = root.join("crates/bench/src/bin/bench_baseline.rs");
    let mut offenders = Vec::new();
    let (mut bench_main_defs, mut criterion_main_defs) = (0, 0);
    visit(&root.join("crates"), &mut |p, text| {
        if p.starts_with(&perf) {
            return;
        }
        bench_main_defs += text.matches("macro_rules! bench_main").count();
        criterion_main_defs += text.matches("macro_rules! criterion_main").count();
        let is_bench = p.starts_with(&benches);
        for (n, line) in text.lines().enumerate() {
            if (is_bench && line.contains("fn main"))
                || ((is_bench || p == baseline) && line.contains("std::env::var"))
            {
                offenders.push(format!("{}:{}: {}", p.display(), n + 1, line.trim()));
            }
        }
    });
    assert!(offenders.is_empty(), "hand-rolled bench entry points:\n{}", offenders.join("\n"));
    assert_eq!(bench_main_defs, 1, "exactly one `bench_main!` definition under crates/");
    assert_eq!(criterion_main_defs, 0, "`criterion_main!` is gone; `bench_main!` replaced it");
}

#[test]
fn sqlengine_keeps_no_thread_local_state() {
    // A statement's execution state — which executor its subqueries take,
    // the operator scope each prompt resolves in, the `llm:` totals — is
    // one value the statement lends down its call graph (`exec::Cx`),
    // never per-thread state that another statement on the thread shares.
    let src = workspace_root().join("crates/sqlengine/src");
    let mut offenders = Vec::new();
    visit(&src, &mut |p, text| {
        for (n, line) in text.lines().enumerate() {
            if line.contains("thread_local!") {
                offenders.push(format!("{}:{}: {}", p.display(), n + 1, line.trim()));
            }
        }
    });
    assert!(offenders.is_empty(), "thread-local state in sqlengine:\n{}", offenders.join("\n"));
}

#[test]
fn library_modules_are_pinned() {
    // The public modules of the serving layer, the semantic cache, the
    // cascade, the transformation crate and the vector database, as
    // DESIGN.md §3's "reached by" census accounts for them. A module that only an example and its
    // own tests reach is deleted with them, so adding or removing one
    // updates this list and the census together.
    let root = workspace_root();
    let pinned: [(&str, &[&str]); 5] = [
        ("serve", &["prelude", "qos", "queue", "request", "scheduler", "tenant"]),
        ("semcache", &["cache", "predictor", "stack"]),
        ("cascade", &["decision", "eval", "hotpot", "router", "solver"]),
        (
            "transform",
            &["colmap", "nl2txn", "ops", "pattern", "pipeline", "relational", "synthesize", "xml"],
        ),
        ("vecdb", &["collection", "error", "filter", "flat", "hnsw", "index", "metric"]),
    ];
    for (krate, want) in pinned {
        let lib = root.join("crates").join(krate).join("src/lib.rs");
        let text = fs::read_to_string(&lib).unwrap_or_else(|e| panic!("read {lib:?}: {e}"));
        let mut have: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("pub mod "))
            .map(|rest| rest.trim_end_matches([';', '{', ' ']))
            .collect();
        have.sort_unstable();
        assert_eq!(
            have, want,
            "llmdm-{krate}'s public modules changed; update this list and DESIGN.md §3"
        );
    }
}

#[test]
fn every_library_pub_fn_has_a_caller() {
    // A `pub fn` whose name occurs nowhere but its own definition and
    // its own file's `#[cfg(test)]` module (inline, or the file a
    // `#[cfg(test)] mod x;` names) — not in another call, another file's
    // test, an example or a doc — is surface nothing uses: a unit
    // test of a function is not a reason for the function to exist.
    // Names are counted as identifier tokens across crates/, examples/
    // and tests/; the `perf` package counts as a caller but its own
    // functions are not checked.
    let root = workspace_root();
    let perf = root.join("crates/bench/src/bin/perf");
    // Trait-method names: a definition satisfies a trait, not a caller.
    let trait_methods = ["new", "default", "fmt"];
    // Paper mechanisms DESIGN §3 marks "kept" whose only callers are
    // their own unit tests: `(file, fn, reason)`.
    let kept = [
        ("budget.rs", "offer", "§III-A budget-constrained prompt admission"),
        ("budget.rs", "store_mut", "§III-A budget-constrained prompt admission"),
        ("calibration.rs", "calibrate", "§III-E confidence calibration"),
        ("calibration.rs", "raw_signal_ece", "§III-E confidence calibration"),
        ("collection.rs", "search_filtered_learning", "§III-B2 filtered vector search"),
        ("hnsw.rs", "search_adaptive", "§III-B2 adaptive early termination"),
        ("nl2txn.rs", "execute_transfers", "§II-B NL2Transaction"),
        ("lake.rs", "add_table_rows", "§II-D per-row lake granularity"),
    ];
    let mut counts: std::collections::HashMap<String, usize> = Default::default();
    for dir in ["crates", "examples", "tests"] {
        visit(&root.join(dir), &mut |_, text| count_tokens(text, &mut counts));
    }
    let crates = root.join("crates");
    let mut uncalled = Vec::new();
    visit(&crates, &mut |p, text| {
        let in_src = p.strip_prefix(&crates).is_ok_and(|r| r.iter().nth(1) == Some("src".as_ref()));
        if p.starts_with(&perf) || !in_src {
            return;
        }
        let file = p.file_name().and_then(|f| f.to_str()).unwrap_or_default();
        let mut in_own_tests: std::collections::HashMap<String, usize> = Default::default();
        count_tokens(&unit_tests_of(p, text), &mut in_own_tests);
        for (n, line) in text.lines().enumerate() {
            let Some(name) = pub_fn_name(line) else { continue };
            let callers = counts.get(&name).copied().unwrap_or(0)
                .saturating_sub(1 + in_own_tests.get(&name).copied().unwrap_or(0));
            let is_kept = kept.iter().any(|&(f, k, _)| f == file && k == name);
            if callers == 0 && !trait_methods.contains(&name.as_str()) && !is_kept {
                uncalled.push(format!("{}:{}: {name}", p.display(), n + 1));
            }
        }
    });
    assert!(
        uncalled.is_empty(),
        "pub fns with no caller outside their own unit tests:\n{}",
        uncalled.join("\n")
    );
}

#[test]
fn pub_fns_no_other_crate_names_are_pinned() {
    // A library `pub fn` whose name occurs in no other crate — not in its
    // sources, tests, benches or examples, nor in the top-level
    // `examples/` and `tests/` — could be private to its crate. Names are
    // identifier tokens, so a name another crate uses for something else
    // hides a candidate: the count is a floor. It may only fall; when it
    // does, lower `PINNED` with it.
    const PINNED: usize = 111;
    let root = workspace_root();
    let crates = root.join("crates");
    let perf = crates.join("bench/src/bin/perf");
    let crate_of = |p: &Path| -> String {
        let rel = p.strip_prefix(&crates).ok().and_then(|r| r.iter().next());
        rel.map(|c| c.to_string_lossy().into_owned()).unwrap_or_default()
    };
    let mut by_crate: std::collections::HashMap<String, std::collections::HashMap<String, usize>> =
        Default::default();
    for dir in ["crates", "examples", "tests"] {
        visit(&root.join(dir), &mut |p, text| {
            count_tokens(text, by_crate.entry(crate_of(p)).or_default())
        });
    }
    let mut inside = Vec::new();
    visit(&crates, &mut |p, text| {
        let in_src = p.strip_prefix(&crates).is_ok_and(|r| r.iter().nth(1) == Some("src".as_ref()));
        if p.starts_with(&perf) || !in_src {
            return;
        }
        let own = crate_of(p);
        for name in text.lines().filter_map(pub_fn_name) {
            let elsewhere = by_crate.iter().any(|(k, counts)| *k != own && counts.contains_key(&name));
            if !elsewhere && !["new", "default", "fmt"].contains(&name.as_str()) {
                inside.push(format!("llmdm-{own}: {name}"));
            }
        }
    });
    inside.sort_unstable();
    assert!(
        inside.len() <= PINNED,
        "{} pub fns no other crate names (pinned at {PINNED}):\n{}",
        inside.len(),
        inside.join("\n")
    );
    assert_eq!(inside.len(), PINNED, "the count fell: lower PINNED to it");
}

/// The name a `pub fn` / `pub const fn` line defines.
fn pub_fn_name(line: &str) -> Option<String> {
    let t = line.trim_start();
    let rest = t.strip_prefix("pub fn ").or_else(|| t.strip_prefix("pub const fn "))?;
    Some(rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect())
}

fn count_tokens(text: &str, counts: &mut std::collections::HashMap<String, usize>) {
    for tok in text.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        if !tok.is_empty() {
            *counts.entry(tok.to_string()).or_default() += 1;
        }
    }
}

/// The text of the file `path`'s unit-test modules: a `#[cfg(test)] mod
/// … { … }` block from the attribute to the module's closing `}` in
/// column 0, and the whole file of a `#[cfg(test)] mod x;` declaration.
fn unit_tests_of(path: &Path, text: &str) -> String {
    let mut out = String::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let opens_mod = lines.peek().is_some_and(|next| next.starts_with("mod "));
        if line.trim_end() != "#[cfg(test)]" || !opens_mod {
            continue;
        }
        let declared =
            lines.peek().and_then(|l| l.trim_end().strip_prefix("mod ")?.strip_suffix(';'));
        if let Some(name) = declared {
            out.push_str(&fs::read_to_string(module_file(path, name)).expect("read test module"));
            continue;
        }
        for body in lines.by_ref() {
            if body.trim_end() == "}" {
                break;
            }
            out.push_str(body);
            out.push('\n');
        }
    }
    out
}

/// The file `name.rs` of a `mod name;` declared in `parent`: beside a
/// `lib.rs`/`main.rs`/`mod.rs`, in the directory named after any other
/// file.
fn module_file(parent: &Path, name: &str) -> PathBuf {
    let stem = parent.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
    let mut dir = parent.parent().expect("parent dir").to_path_buf();
    if !["lib", "main", "mod"].contains(&stem) {
        dir.push(stem);
    }
    dir.join(format!("{name}.rs"))
}

fn visit(dir: &Path, f: &mut impl FnMut(&Path, &str)) {
    for entry in fs::read_dir(dir).expect("read dir") {
        let p = entry.expect("entry").path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            visit(&p, f);
        } else if p.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = fs::read_to_string(&p) {
                f(&p, &text);
            }
        }
    }
}
