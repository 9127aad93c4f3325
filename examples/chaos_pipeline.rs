//! chaos_pipeline — the resilience layer under escalating fault schedules.
//!
//! Runs the same 30-query HotpotQA cascade workload under three fault
//! schedules — `quiet` (no faults), `lossy` (per-tier rate-limit /
//! timeout / truncation / malformed rates), and `outage` (lossy plus a
//! hard outage window on the cheap tier and a burst) — and then
//! *self-validates* the resilience invariants:
//!
//! 1. no panics: every query either answers or fails cleanly;
//! 2. retries never exceed the policy cap;
//! 3. exact dollar reconciliation: what the fault injectors say executed
//!    equals what the usage meter billed, to the cent and beyond;
//! 4. accuracy degrades monotonically with fault severity but never
//!    reaches zero (graceful degradation, not collapse);
//! 5. identical seed + plan ⇒ byte-identical fault sequence and report.
//!
//! ```text
//! cargo run --example chaos_pipeline
//! ```

use std::sync::Arc;

use llmdm::cascade::{CascadeRouter, DecisionModel, HotpotConfig, HotpotWorkload, QaSolver};
use llmdm::model::prelude::*;
use llmdm::resil::{FaultKind, FaultPlan, FaultRates, SimClock, TierPlan, Window};

const SEED: u64 = 17;
const QUERIES: usize = 30;
/// Simulated time between arriving queries: lets open breakers cool
/// down and walks the timeline through outage windows.
const INTER_ARRIVAL_MS: u64 = 2_000;
/// Per-query latency budget. Small enough that a tier stuck behind a
/// long outage hint fails fast and falls through instead of sleeping
/// out the whole outage.
const QUERY_BUDGET_MS: u64 = 10_000;
/// FNV-1a of the three rendered schedule reports, concatenated in
/// schedule order: pins every count, cost and fault tally of the run.
const REPORT_DIGEST: u64 = 0x3fcc_e37a_46c4_11f5;

/// The three escalating schedules.
fn schedules() -> Vec<FaultPlan> {
    let lossy_tiers = vec![
        TierPlan::with_rates(
            "sim-small",
            FaultRates { rate_limited: 0.15, timeout: 0.08, truncated: 0.07, malformed: 0.05 },
        )
        .retry_hint(200)
        .timeout_latency(500),
        TierPlan::with_rates(
            "sim-medium",
            FaultRates { rate_limited: 0.10, timeout: 0.05, truncated: 0.05, malformed: 0.03 },
        )
        .retry_hint(200)
        .timeout_latency(500),
        TierPlan::with_rates(
            "sim-large",
            FaultRates { rate_limited: 0.05, timeout: 0.02, truncated: 0.02, malformed: 0.01 },
        )
        .retry_hint(200)
        .timeout_latency(500),
    ];
    let lossy = FaultPlan::new("lossy", SEED, lossy_tiers.clone());
    // Outage: the lossy schedule, plus the cheap tier goes hard-down for
    // 24 simulated seconds mid-run and a burst doubles all rates early.
    let outage_tiers: Vec<TierPlan> = lossy_tiers
        .into_iter()
        .map(|t| {
            if t.tier == "sim-small" {
                t.outage(Window::new(16_000, 40_000))
            } else {
                t
            }
        })
        .collect();
    let outage =
        FaultPlan::new("outage", SEED, outage_tiers).burst(Window::new(0, 8_000), 2.0);
    vec![FaultPlan::none(), lossy, outage]
}

/// Everything one schedule run produces, rendered deterministically.
struct RunReport {
    name: String,
    accuracy: f64,
    answered: usize,
    exhausted: usize,
    degraded: usize,
    fallbacks: u64,
    total_cost: f64,
    executed_cost: f64,
    metered_cost: f64,
    retries: u64,
    retry_cap_ok: bool,
    fault_seq: String,
    rendered: String,
}

fn run_schedule(plan: &FaultPlan) -> RunReport {
    // Fresh zoo per schedule so runs are fully independent.
    let zoo = ModelZoo::standard(SEED);
    zoo.register_solver(Arc::new(QaSolver));
    let workload =
        HotpotWorkload::generate(HotpotConfig { n: QUERIES, seed: SEED, ..Default::default() });

    // Train the decision model on clean calibration traffic, then zero
    // the meter: calibration is free in the experiment.
    let train = HotpotWorkload::generate(HotpotConfig {
        n: 120,
        seed: SEED + 1000,
        ..Default::default()
    });
    let calibration: Vec<(String, String)> =
        train.items.iter().map(|i| (i.prompt(), i.gold.clone())).collect();
    let clean = zoo.cascade_order();
    let data = CascadeRouter::collect_training_data(&clean, &calibration);
    zoo.meter().reset();
    let mut decision = DecisionModel::new();
    decision.train(&data, 400, 0.8);

    // Wrap every tier in the fault injector and the default retry client
    // on one shared clock via the ModelStack builder, keeping the typed
    // injector and retry handles for the executed-cost reconciliation
    // and the retry-cap check below…
    let clock = SimClock::new();
    let plan = Arc::new(plan.clone());
    let stacks: Vec<ModelStack> = clean
        .iter()
        .map(|m| {
            ModelStack::over(m.clone() as Arc<dyn LanguageModel>)
                .on_clock(clock.clone())
                .with_faults(plan.clone())
                .with_default_retry()
        })
        .collect();
    let faulty: Vec<Arc<FaultyModel>> =
        stacks.iter().map(|s| s.faulty().expect("with_faults applied").clone()).collect();
    let resilient: Vec<Arc<ResilientClient>> =
        stacks.iter().map(|s| s.resilient().expect("retry applied").clone()).collect();
    // …and build the cascade over them.
    let erased: Vec<Arc<dyn LanguageModel>> = stacks.into_iter().map(ModelStack::build_arc).collect();
    let cascade = CascadeRouter::new_dyn(erased, decision, 0.6);

    let mut answered = 0usize;
    let mut exhausted = 0usize;
    let mut degraded = 0usize;
    let mut fallbacks = 0u64;
    let mut correct = 0usize;
    let mut total_cost = 0.0f64;
    for item in &workload.items {
        match cascade.answer_within(&item.prompt(), QUERY_BUDGET_MS, &clock) {
            Ok(a) => {
                answered += 1;
                total_cost += a.total_cost;
                fallbacks += u64::from(a.fallbacks);
                if a.degraded {
                    degraded += 1;
                }
                if a.text.trim() == item.gold {
                    correct += 1;
                }
            }
            Err(_) => exhausted += 1,
        }
        clock.advance(INTER_ARRIVAL_MS);
    }

    // Per-tier resilience accounting.
    let mut retries = 0u64;
    let mut retry_cap_ok = true;
    for tier in &resilient {
        let s = tier.stats();
        retries += s.retries;
        if s.retries > s.calls * u64::from(tier.policy().max_retries) {
            retry_cap_ok = false;
        }
    }

    // The deterministic fault sequence: per-tier call and fault counts.
    let mut fault_seq = String::new();
    let mut executed_cost = 0.0f64;
    for f in &faulty {
        executed_cost += f.executed_cost();
        fault_seq.push_str(&format!("tier={} calls={}", f.name(), f.calls()));
        for kind in FaultKind::all() {
            fault_seq.push_str(&format!(" {}={}", kind.label(), f.fault_count(kind)));
        }
        fault_seq.push('\n');
    }
    let metered_cost = zoo.meter().snapshot().total_dollars();
    let accuracy = correct as f64 / workload.items.len() as f64;

    let rendered = format!(
        "schedule={} answered={} exhausted={} degraded={} fallbacks={} \
         accuracy={:.4} cascade_cost=${:.6} executed=${:.6} metered=${:.6} retries={}\n{}",
        plan.name,
        answered,
        exhausted,
        degraded,
        fallbacks,
        accuracy,
        total_cost,
        executed_cost,
        metered_cost,
        retries,
        fault_seq,
    );

    RunReport {
        name: plan.name.clone(),
        accuracy,
        answered,
        exhausted,
        degraded,
        fallbacks,
        total_cost,
        executed_cost,
        metered_cost,
        retries,
        retry_cap_ok,
        fault_seq,
        rendered,
    }
}

fn main() {
    println!("chaos_pipeline: {QUERIES} HotpotQA queries through the resilient cascade\n");

    let plans = schedules();
    let mut reports = Vec::new();
    for plan in &plans {
        let report = run_schedule(plan);
        println!("{}", report.rendered);
        reports.push(report);
    }

    // ---- Invariant 1: every query accounted for, no panics. ----------
    for r in &reports {
        assert_eq!(r.answered + r.exhausted, QUERIES, "{}: queries lost", r.name);
    }
    // The quiet schedule must answer everything with zero fallbacks.
    assert_eq!(reports[0].answered, QUERIES, "quiet schedule dropped queries");
    assert_eq!(reports[0].fallbacks, 0, "quiet schedule had fallbacks");
    assert_eq!(reports[0].degraded, 0, "quiet schedule degraded");

    // ---- Invariant 2: retries never exceed the policy cap. -----------
    for r in &reports {
        assert!(r.retry_cap_ok, "{}: retries exceeded cap", r.name);
    }
    assert_eq!(reports[0].retries, 0, "quiet schedule retried");

    // ---- Invariant 3: exact dollar reconciliation. -------------------
    // What the injectors observed executing == what the meter billed.
    for r in &reports {
        let diff = (r.executed_cost - r.metered_cost).abs();
        assert!(
            diff < 1e-9,
            "{}: executed ${:.9} != metered ${:.9}",
            r.name,
            r.executed_cost,
            r.metered_cost
        );
    }

    // ---- Invariant 4: graceful degradation, not collapse. ------------
    // Accuracy may only drift down as fault severity rises (small
    // tolerance: escalation to bigger tiers can mask mild fault rates)
    // and must stay strictly positive even under outage.
    assert!(
        reports[1].accuracy <= reports[0].accuracy + 0.10,
        "lossy accuracy {} above quiet {}",
        reports[1].accuracy,
        reports[0].accuracy
    );
    assert!(
        reports[2].accuracy <= reports[1].accuracy + 0.10,
        "outage accuracy {} above lossy {}",
        reports[2].accuracy,
        reports[1].accuracy
    );
    for r in &reports {
        assert!(r.accuracy > 0.0, "{}: accuracy collapsed to zero", r.name);
    }
    // Faulty schedules must actually have exercised the fallback path.
    assert!(reports[2].fallbacks > 0, "outage schedule never fell back");

    // ---- Invariant 5: determinism. -----------------------------------
    // The reports are pinned byte for byte.
    let rendered: String = reports.iter().map(|r| r.rendered.as_str()).collect();
    assert_eq!(
        llmdm::rt::hash::fnv1a(rendered.as_bytes()),
        REPORT_DIGEST,
        "schedule reports changed"
    );
    // Identical seed + plan ⇒ byte-identical fault sequence and report.
    for (plan, first) in plans.iter().zip(&reports) {
        let again = run_schedule(plan);
        assert_eq!(
            first.fault_seq, again.fault_seq,
            "{}: fault sequence not reproducible",
            plan.name
        );
        assert_eq!(
            first.rendered, again.rendered,
            "{}: report not byte-identical across reruns",
            plan.name
        );
    }

    // Cost sanity: faults cost money (retried timeouts bill twice,
    // escalation hits pricier tiers), so the faulty schedules should
    // never be cheaper than quiet by more than noise.
    println!(
        "cost: quiet=${:.4} lossy=${:.4} outage=${:.4}",
        reports[0].total_cost, reports[1].total_cost, reports[2].total_cost
    );

    println!("\nchaos_pipeline: all resilience invariants hold");
}
