//! The cost of the resilience layer when nothing is failing, pinned.
//!
//! DESIGN.md §9 claims the no-fault fast path is essentially free: a
//! `FaultyModel` carrying a no-op plan (`FaultPlan::is_noop`) skips the
//! fault hashing entirely, and a `ResilientClient` whose inner call
//! succeeds first try does one breaker poll and no backoff. This bench
//! measures a bare `SimLlm::complete` against the same call through
//!
//! 1. a `FaultyModel` with `FaultPlan::none()` — gated at <5% overhead;
//! 2. a full `ResilientClient(FaultyModel(SimLlm))` stack — gated under
//!    a looser 25% wrapper budget, since the breaker/stats mutexes are
//!    real work the fast path legitimately pays.
//!
//! The three paths are timed interleaved (`bench_interleaved`) and the
//! gates compare medians, so a slow spell on a shared box lands on every
//! path alike instead of on whichever one's window it hit.
//!
//! `scripts/verify.sh` runs this with `LLMDM_BENCH_FAST=1`; a regression
//! that puts hashing or allocation on the clean path fails the build.

use std::sync::Arc;

use llmdm_cascade::QaSolver;
use llmdm_model::{
    CompletionRequest, FaultyModel, LanguageModel, ModelZoo, ResilientClient, SimLlm,
};
use llmdm_resil::{FaultPlan, SimClock};
use llmdm_rt::bench::{black_box, Bound::AtMost, Criterion};

const SEED: u64 = 11;

fn prompts() -> Vec<String> {
    let w = llmdm_cascade::HotpotWorkload::generate(llmdm_cascade::HotpotConfig {
        n: 16,
        seed: SEED,
        ..Default::default()
    });
    w.items.iter().map(|i| i.prompt()).collect()
}

fn bench_paths(c: &mut Criterion) {
    llmdm_obs::disable();
    let zoo = ModelZoo::standard(SEED);
    zoo.register_solver(Arc::new(QaSolver));
    let model: Arc<SimLlm> = zoo.medium();
    let prompts = prompts();

    let clock = SimClock::new();
    let noop_plan = Arc::new(FaultPlan::none());
    assert!(noop_plan.is_noop());
    let faulty = Arc::new(FaultyModel::new(
        model.clone() as Arc<dyn LanguageModel>,
        noop_plan,
        clock.clone(),
    ));
    let wrapped = ResilientClient::with_defaults(faulty.clone() as Arc<dyn LanguageModel>, clock);

    let complete = |m: &dyn LanguageModel, at: &mut usize| {
        *at = (*at + 1) % prompts.len();
        let req = CompletionRequest::new(prompts[*at].clone());
        black_box(m.complete(black_box(&req)).expect("ok"));
    };
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    c.benchmark_group("resil_noop").bench_interleaved(&mut [
        ("bare_model", &mut || complete(model.as_ref(), &mut i)),
        ("faulty_noop", &mut || complete(faulty.as_ref(), &mut j)),
        ("resilient_stack", &mut || complete(&wrapped, &mut k)),
    ]);
}

/// A no-op fault plan may cost at most 5 % over a bare completion.
const NOOP_RATIO_MAX: f64 = 1.05;
/// The full stack's budget is looser: the breaker/stats mutexes are real
/// work the fast path legitimately pays.
const WRAPPED_RATIO_MAX: f64 = 1.25;

fn gates(c: &mut Criterion) {
    let bare = c.stat("resil_noop/bare_model").median_ns as f64;
    let noop = c.stat("resil_noop/faulty_noop").median_ns as f64;
    let stack = c.stat("resil_noop/resilient_stack").median_ns as f64;
    c.gate("resil_noop faulty_noop/bare_model (median)", noop / bare, AtMost(NOOP_RATIO_MAX));
    c.gate(
        "resil_noop resilient_stack/bare_model (median)",
        stack / bare,
        AtMost(WRAPPED_RATIO_MAX),
    );
}

llmdm_rt::bench_main!("resil_overhead", Some(SEED), bench_paths, gates);
