//! # llmdm-rt — the hermetic runtime substrate
//!
//! Zero-dependency replacements for every external crate the workspace
//! used, so `cargo build --offline` succeeds from a cold registry cache
//! and every stochastic experiment is deterministic end to end:
//!
//! | removed crate | replacement | module |
//! |---------------|-------------|--------|
//! | `rand`        | SplitMix64-seeded xoshiro256\*\* with a rand-compatible surface (`Rng::gen_range`/`gen_bool`/`fill`, `SeedableRng::seed_from_u64`, `seq::SliceRandom`) | [`rand`] |
//! | `serde`       | an owned JSON tree with a parser and a printer, built directly by each writer | [`json`] |
//! | `proptest`    | seeded generator strategies + shrink-by-halving runner ([`proptest!`] macro) | [`proptest`](mod@proptest) |
//! | `criterion`   | warmup + timed-iteration harness, median/p99, gated and stamped JSON reports behind one [`bench_main!`] | [`bench`](mod@bench) |
//! | `crossbeam`   | `std::thread::scope` (std since 1.63) | — |
//! | `parking_lot` | `std::sync::{Mutex, RwLock}` with poison recovery | — |
//!
//! The crate has **no** dependencies and must stay that way: the
//! workspace-level `tests/hermetic.rs` fails the build if any
//! non-`path` dependency appears anywhere in the workspace.
//!
//! Determinism contract: the PRNG output stream is pinned by
//! golden-value tests (`tests/prng_golden.rs`). Changing the generator
//! silently shifts every reproduced paper number, so those tests exist
//! to make such a change loud and deliberate.

#![warn(missing_docs)]

pub mod bench;
pub mod hash;
pub mod json;
pub mod meta;
pub mod proptest;
pub mod rand;
pub mod sync;

pub use crate::rand::{Rng, SeedableRng, SmallRng};
pub use sync::{lock_recover, read_recover, write_recover};
