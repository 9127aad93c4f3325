//! Run metadata stamping: git revision + timestamp + seed.
//!
//! Every machine-readable artifact the workspace emits (`TRACE_*.json`,
//! `BENCH_*.json`) is stamped with the same metadata object so the perf
//! trajectory is diffable: two reports can always be attributed to the
//! exact commit and seed that produced them. The git revision is read
//! straight from `.git/HEAD` (no subprocess — the build stays hermetic
//! and works where `git` is not installed).

use std::path::{Path, PathBuf};

use crate::json::Json;

/// Seconds since the Unix epoch (0 if the system clock is before 1970).
pub fn timestamp_unix() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Resolve the current git commit hash by reading `.git/HEAD` (walking
/// up from the current directory; handles both direct detached-HEAD
/// hashes and `ref:` indirection, plus worktree `gitdir:` files).
/// Returns `None` outside a git checkout.
pub fn git_rev() -> Option<String> {
    let start = std::env::current_dir().ok()?;
    git_rev_from(&start)
}

fn git_rev_from(start: &Path) -> Option<String> {
    let mut dir = start.to_path_buf();
    loop {
        let dot_git = dir.join(".git");
        if dot_git.is_dir() {
            return resolve_head(&dot_git);
        }
        if dot_git.is_file() {
            // Worktree: `.git` is a file `gitdir: <path>`.
            let text = std::fs::read_to_string(&dot_git).ok()?;
            let gitdir = text.trim().strip_prefix("gitdir:")?.trim();
            let mut p = PathBuf::from(gitdir);
            if p.is_relative() {
                p = dir.join(p);
            }
            return resolve_head(&p);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn resolve_head(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref:") {
        let reference = reference.trim();
        if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
            return Some(hash.trim().to_string());
        }
        // Packed refs fallback.
        let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some((hash, name)) = line.split_once(' ') {
                if name.trim() == reference {
                    return Some(hash.trim().to_string());
                }
            }
        }
        return None;
    }
    (!head.is_empty()).then(|| head.to_string())
}

/// The shared metadata object: `git_rev`, `timestamp_unix`, and `seed`
/// (null when no seed applies). Returned as JSON object fields so both
/// the trace exporter (`llmdm-obs`) and [`crate::bench::Criterion::finish`]
/// embed the identical shape.
pub fn run_meta(seed: Option<u64>) -> Vec<(String, Json)> {
    vec![
        (
            "git_rev".to_string(),
            match git_rev() {
                Some(rev) => Json::Str(rev),
                None => Json::Null,
            },
        ),
        ("timestamp_unix".to_string(), Json::Num(timestamp_unix() as f64)),
        (
            "seed".to_string(),
            match seed {
                Some(s) => Json::Num(s as f64),
                None => Json::Null,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_is_sane() {
        // After 2020-01-01, before 2100.
        let t = timestamp_unix();
        assert!(t > 1_577_836_800, "timestamp {t}");
        assert!(t < 4_102_444_800, "timestamp {t}");
    }

    #[test]
    fn run_meta_shape() {
        let meta = run_meta(Some(7));
        let obj = Json::Obj(meta);
        assert_eq!(obj.get("seed").unwrap().as_u64().unwrap(), 7);
        assert!(obj.get("timestamp_unix").unwrap().as_u64().unwrap() > 0);
        // git_rev may be null outside a checkout, but the field exists.
        assert!(obj.get("git_rev").is_some());
        // And without a seed the field is null, not absent.
        let no_seed = Json::Obj(run_meta(None));
        assert_eq!(no_seed.get("seed").unwrap(), &Json::Null);
    }

    #[test]
    fn git_rev_in_this_repo_resolves() {
        // The workspace is a git repository; from its root the rev must
        // resolve to a 40-hex-char hash.
        let root = {
            let mut d = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            d.pop(); // crates/
            d.pop(); // repo root
            d
        };
        if root.join(".git").exists() {
            let rev = git_rev_from(&root).expect("rev resolves in a checkout");
            assert_eq!(rev.len(), 40, "rev {rev}");
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "rev {rev}");
        }
    }
}
