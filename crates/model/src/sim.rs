//! The simulated language model: [`SimLlm`] and the [`LanguageModel`] trait.
//!
//! A [`SimLlm`] call pipeline is:
//!
//! 1. tokenize the prompt and check the context window,
//! 2. parse the [`PromptEnvelope`] and route
//!    to the registered solver for its task id,
//! 3. ask the solver for the correct answer and instance difficulty,
//! 4. draw a deterministic per-(model, prompt) coin against the tier's
//!    capability curve ([`CapabilityCurve`]) to decide
//!    whether this call succeeds,
//! 5. on failure, emit a deterministic corruption (one of the solver's
//!    plausible wrong answers, or a perturbed gold answer),
//! 6. meter tokens/dollars and compute simulated latency.
//!
//! Determinism: the same model asked the same prompt always returns the
//! same completion. This mirrors temperature-0 API behaviour and makes all
//! experiments reproducible. Callers that need resampling (self-consistency
//! voting in `llmdm-validate`) vary the prompt with a nonce header.

use std::sync::Arc;
use std::time::Duration;

use std::sync::RwLock;

use llmdm_resil::Deadline;

use crate::capability::CapabilityCurve;
use crate::error::ModelError;
use crate::hash::{combine, fnv1a_str, unit_f64};
use crate::latency::LatencyModel;
use crate::solver::{PromptEnvelope, PromptSolver};
use crate::tokenizer::Tokenizer;
use crate::usage::{TokenUsage, UsageMeter};

/// A completion request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletionRequest {
    /// The full prompt text (normally an envelope built with
    /// [`PromptEnvelope::builder`]).
    pub prompt: String,
    /// Maximum output tokens (advisory; the simulation truncates).
    pub max_output_tokens: usize,
    /// The absolute point on the simulated clock by which the call must
    /// finish. The retry layer (`ResilientClient`) runs under it; a bare
    /// model ignores it.
    pub deadline: Deadline,
}

impl CompletionRequest {
    /// A request with the default output budget and no deadline. An
    /// empty prompt is rejected at `complete` time, as
    /// [`ModelError::EmptyInput`].
    pub fn new(prompt: impl Into<String>) -> Self {
        CompletionRequest {
            prompt: prompt.into(),
            max_output_tokens: 512,
            deadline: Deadline::unbounded(),
        }
    }
}

/// A completion result.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The model's answer text.
    pub text: String,
    /// The producing model's name.
    pub model: String,
    /// Token accounting for this call.
    pub usage: TokenUsage,
    /// Dollar cost of this call.
    pub cost: f64,
    /// Simulated wall-clock latency (not actually slept).
    pub latency: Duration,
    /// The model's self-reported confidence in `[0, 1]`. Correlated with —
    /// but not equal to — the true probability of correctness, as with
    /// logprob-derived confidence from a real API.
    pub confidence: f64,
    /// Answered from a cache without calling a model: `cost` is zero and
    /// nothing was billed.
    pub cached: bool,
}

/// Object-safe language-model interface implemented by [`SimLlm`].
pub trait LanguageModel: Send + Sync {
    /// The model's name (stable; used for pricing and reporting).
    fn name(&self) -> &str;
    /// Complete a prompt.
    fn complete(&self, req: &CompletionRequest) -> Result<Completion, ModelError>;
    /// The model's context window in tokens.
    fn context_window(&self) -> usize;
}

/// Configuration for one simulated model.
#[derive(Debug, Clone)]
pub struct SimLlmConfig {
    /// Model name, e.g. `sim-large`.
    pub name: String,
    /// The tier's accuracy curve.
    pub curve: CapabilityCurve,
    /// Context window in tokens.
    pub context_window: usize,
    /// Latency model.
    pub latency: LatencyModel,
    /// Confidence noise amplitude.
    pub confidence_noise: f64,
    /// Base seed; combined with the prompt hash per call.
    pub seed: u64,
}

/// A deterministic simulated LLM.
pub struct SimLlm {
    config: SimLlmConfig,
    tokenizer: Tokenizer,
    meter: UsageMeter,
    solvers: RwLock<Vec<Arc<dyn PromptSolver>>>,
}

impl std::fmt::Debug for SimLlm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimLlm")
            .field("name", &self.config.name)
            .field(
                "solvers",
                &self.read_solvers().iter().map(|s| s.task_id()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl SimLlm {
    /// Create a model with the default solver set (`echo`, `oracle`,
    /// `arith`).
    pub fn new(config: SimLlmConfig, meter: UsageMeter) -> Self {
        let llm =
            SimLlm { config, tokenizer: Tokenizer::new(), meter, solvers: RwLock::new(Vec::new()) };
        llm.register(Arc::new(crate::solver::EchoSolver));
        llm.register(Arc::new(crate::solver::OracleSolver));
        llm.register(Arc::new(crate::solver::ArithmeticSolver));
        llm
    }

    /// Read-lock the solver registry, recovering from poison (a solver
    /// registration cannot leave the `Vec` half-mutated in a way that
    /// matters, so a poisoned lock is safe to enter).
    fn read_solvers(&self) -> std::sync::RwLockReadGuard<'_, Vec<Arc<dyn PromptSolver>>> {
        self.solvers.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Register (or replace) a solver for its task id.
    pub fn register(&self, solver: Arc<dyn PromptSolver>) {
        let mut solvers = self.solvers.write().unwrap_or_else(|e| e.into_inner());
        solvers.retain(|s| s.task_id() != solver.task_id());
        solvers.push(solver);
    }

    /// The capability curve of this model.
    pub fn curve(&self) -> &CapabilityCurve {
        &self.config.curve
    }

    /// The usage meter this model bills into.
    pub fn meter(&self) -> &UsageMeter {
        &self.meter
    }

    /// The shared tokenizer.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    fn find_solver(&self, task: &str) -> Option<Arc<dyn PromptSolver>> {
        self.read_solvers().iter().find(|s| s.task_id() == task).cloned()
    }

    /// Deterministically corrupt `answer` given the solver's alternatives.
    fn corrupt(answer: &str, alternatives: &[String], seed: u64) -> String {
        // Prefer an alternative different from the gold answer.
        if !alternatives.is_empty() {
            let start = (seed % alternatives.len() as u64) as usize;
            for off in 0..alternatives.len() {
                let cand = &alternatives[(start + off) % alternatives.len()];
                if cand != answer {
                    return cand.clone();
                }
            }
        }
        if answer.is_empty() {
            return "unable to determine".to_string();
        }
        // Perturb: replace the longest word with "unknown".
        let words: Vec<&str> = answer.split_whitespace().collect();
        if let Some((idx, _)) =
            words.iter().enumerate().max_by_key(|(i, w)| (w.len(), usize::MAX - i))
        {
            let mut out: Vec<String> = words.iter().map(|w| w.to_string()).collect();
            out[idx] = "unknown".to_string();
            let candidate = out.join(" ");
            if candidate != answer {
                return candidate;
            }
        }
        format!("{answer} (unverified)")
    }
}

impl LanguageModel for SimLlm {
    fn name(&self) -> &str {
        &self.config.name
    }

    fn context_window(&self) -> usize {
        self.config.context_window
    }

    fn complete(&self, req: &CompletionRequest) -> Result<Completion, ModelError> {
        let mut span = llmdm_obs::span("model.complete");
        span.field("model", self.config.name.as_str());
        // The one empty-prompt check: an empty or whitespace-only prompt
        // is a permanent, typed error, not a downstream solver panic.
        if req.prompt.trim().is_empty() {
            return Err(ModelError::EmptyInput);
        }
        let input_tokens = self.tokenizer.count(&req.prompt);
        if input_tokens > self.config.context_window {
            return Err(ModelError::ContextOverflow {
                tokens: input_tokens,
                limit: self.config.context_window,
            });
        }
        let env = PromptEnvelope::parse(&req.prompt).ok_or_else(|| {
            ModelError::UnsupportedPrompt(req.prompt.chars().take(40).collect())
        })?;
        let solver = self.find_solver(&env.task).ok_or_else(|| {
            ModelError::UnsupportedPrompt(format!("task `{}` has no solver", env.task))
        })?;
        let solved = solver.solve(&env)?;

        let shots = env.examples();
        let call_seed = combine(self.config.seed, fnv1a_str(&req.prompt));

        // Multi-part (combined) prompts roll an independent coin per part.
        let (mut text, p, correct) = if solved.parts.is_empty() {
            let p = self.config.curve.p_correct(solved.difficulty, shots);
            let correct = unit_f64(call_seed) < p;
            let text = if correct {
                solved.answer.clone()
            } else {
                Self::corrupt(&solved.answer, &solved.alternatives, combine(call_seed, 0xbad))
            };
            (text, p, correct)
        } else {
            let mut lines = Vec::with_capacity(solved.parts.len());
            let mut p_sum = 0.0;
            let mut all_ok = true;
            for (i, part) in solved.parts.iter().enumerate() {
                let p = self.config.curve.p_correct(part.difficulty, shots);
                p_sum += p;
                let part_seed = combine(call_seed, i as u64 + 1);
                if unit_f64(part_seed) < p {
                    lines.push(part.answer.clone());
                } else {
                    all_ok = false;
                    lines.push(Self::corrupt(
                        &part.answer,
                        &part.alternatives,
                        combine(part_seed, 0xbad),
                    ));
                }
            }
            (lines.join("\n"), p_sum / solved.parts.len() as f64, all_ok)
        };
        // Enforce the output budget by token-truncating.
        let out_toks = self.tokenizer.encode(&text);
        if out_toks.len() > req.max_output_tokens {
            text = self.tokenizer.decode(&out_toks[..req.max_output_tokens]);
        }
        let output_tokens = self.tokenizer.count(&text).max(1);

        // Confidence: a noisy, correctness-tinted estimate of p. Correct
        // answers read as more confident — the signal cascade decision
        // models learn from — but with enough noise to be imperfect.
        let noise = self.config.confidence_noise * (2.0 * unit_f64(combine(call_seed, 0xc0f)) - 1.0);
        let confidence =
            (0.15 + 0.55 * p + if correct { 0.22 } else { -0.08 } + noise).clamp(0.01, 0.99);

        let usage = TokenUsage { input_tokens, output_tokens };
        let cost = self.meter.record(&self.config.name, usage);
        let latency = self.config.latency.latency(input_tokens, output_tokens, call_seed);

        if span.is_recording() {
            span.field("tokens_in", input_tokens);
            span.field("tokens_out", output_tokens);
            span.field("cost_usd", cost);
            span.field("latency_ms", latency.as_secs_f64() * 1e3);
            span.field("confidence", confidence);
            llmdm_obs::observe("model.latency_ms", latency.as_secs_f64() * 1e3);
        }

        let model = self.config.name.clone();
        Ok(Completion { text, model, usage, cost, latency, confidence, cached: false })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::PriceTable;
    use crate::solver::PromptEnvelope as Env;

    fn model(capability: f64) -> SimLlm {
        let config = SimLlmConfig {
            name: "sim-test".into(),
            curve: CapabilityCurve::new(capability, 0.6, 0.5, 8),
            context_window: 4096,
            latency: LatencyModel::default(),
            confidence_noise: 0.1,
            seed: 7,
        };
        SimLlm::new(config, UsageMeter::new(PriceTable::standard()))
    }

    fn oracle_prompt(gold: &str, difficulty: f64, nonce: u64) -> String {
        Env::builder("oracle")
            .header("gold", gold)
            .header("difficulty", difficulty)
            .header("nonce", nonce)
            .header("alt", format!("not-{gold}"))
            .body("answer the question")
            .build()
    }

    #[test]
    fn perfect_model_always_correct_on_easy() {
        let m = model(1.0);
        for nonce in 0..50 {
            let req = CompletionRequest::new(oracle_prompt("paris", 0.0, nonce));
            assert_eq!(m.complete(&req).unwrap().text, "paris");
        }
    }

    #[test]
    fn weak_model_often_wrong_on_hard() {
        let m = model(0.25);
        let mut wrong = 0;
        for nonce in 0..100 {
            let req = CompletionRequest::new(oracle_prompt("paris", 0.9, nonce));
            if m.complete(&req).unwrap().text != "paris" {
                wrong += 1;
            }
        }
        assert!(wrong > 60, "wrong={wrong}");
    }

    #[test]
    fn accuracy_ordering_small_medium_large() {
        let tiers = [model(0.3), model(0.8), model(0.95)];
        let acc: Vec<f64> = tiers
            .iter()
            .map(|m| {
                let mut ok = 0;
                for nonce in 0..200 {
                    let req = CompletionRequest::new(oracle_prompt("x", 0.5, nonce));
                    if m.complete(&req).unwrap().text == "x" {
                        ok += 1;
                    }
                }
                ok as f64 / 200.0
            })
            .collect();
        assert!(acc[0] < acc[1] && acc[1] < acc[2], "{acc:?}");
    }

    #[test]
    fn determinism_same_prompt_same_answer() {
        let m = model(0.5);
        let req = CompletionRequest::new(oracle_prompt("paris", 0.7, 1));
        assert_eq!(m.complete(&req).unwrap().text, m.complete(&req).unwrap().text);
    }

    #[test]
    fn corruption_prefers_alternatives() {
        let out = SimLlm::corrupt("gold", &["alt-a".into(), "alt-b".into()], 3);
        assert!(out == "alt-a" || out == "alt-b");
    }

    #[test]
    fn corruption_never_returns_gold() {
        for seed in 0..20 {
            assert_ne!(SimLlm::corrupt("gold", &["gold".into(), "other".into()], seed), "gold");
            assert_ne!(SimLlm::corrupt("single word", &[], seed), "single word");
        }
    }

    #[test]
    fn context_overflow_rejected() {
        let m = model(0.9);
        let long = "word ".repeat(10_000);
        let req = CompletionRequest::new(Env::builder("echo").body(long).build());
        assert!(matches!(m.complete(&req), Err(ModelError::ContextOverflow { .. })));
    }

    #[test]
    fn unstructured_prompt_rejected() {
        let m = model(0.9);
        let req = CompletionRequest::new("free text with no envelope");
        assert!(matches!(m.complete(&req), Err(ModelError::UnsupportedPrompt(_))));
    }

    #[test]
    fn usage_metered() {
        let m = model(0.9);
        let req = CompletionRequest::new(oracle_prompt("paris", 0.1, 0));
        let c = m.complete(&req).unwrap();
        assert!(c.usage.input_tokens > 0);
        assert!(c.usage.output_tokens > 0);
        assert_eq!(m.meter().snapshot().total_calls(), 1);
    }

    #[test]
    fn output_budget_truncates() {
        let m = model(1.0);
        let long_answer = "tok ".repeat(100);
        let mut req = CompletionRequest::new(
            Env::builder("oracle").header("gold", long_answer.trim()).header("difficulty", 0.0).build(),
        );
        req.max_output_tokens = 5;
        let c = m.complete(&req).unwrap();
        assert!(c.usage.output_tokens <= 5);
    }

    #[test]
    fn confidence_correlates_with_correctness() {
        let m = model(0.6);
        let (mut conf_ok, mut n_ok, mut conf_bad, mut n_bad) = (0.0, 0, 0.0, 0);
        for nonce in 0..300 {
            let req = CompletionRequest::new(oracle_prompt("paris", 0.7, nonce));
            let c = m.complete(&req).unwrap();
            if c.text == "paris" {
                conf_ok += c.confidence;
                n_ok += 1;
            } else {
                conf_bad += c.confidence;
                n_bad += 1;
            }
        }
        assert!(n_ok > 10 && n_bad > 10);
        assert!(conf_ok / n_ok as f64 > conf_bad / n_bad as f64 + 0.1);
    }

    #[test]
    fn examples_improve_accuracy() {
        let m = model(0.55);
        let run = |shots: usize| {
            let mut ok = 0;
            for nonce in 0..300 {
                let prompt = Env::builder("oracle")
                    .header("gold", "yes")
                    .header("difficulty", 0.9)
                    .header("examples", shots)
                    .header("nonce", nonce)
                    .header("alt", "no")
                    .build();
                if m.complete(&CompletionRequest::new(prompt)).unwrap().text == "yes" {
                    ok += 1;
                }
            }
            ok
        };
        assert!(run(8) > run(0) + 20, "8-shot={} 0-shot={}", run(8), run(0));
    }

    #[test]
    fn complete_rejects_empty_prompts_with_typed_error() {
        let m = model(0.9);
        for bad in ["", "   ", "\n\t "] {
            assert_eq!(m.complete(&CompletionRequest::new(bad)), Err(ModelError::EmptyInput));
        }
    }

    #[test]
    fn arith_task_end_to_end() {
        let m = model(1.0);
        let req = CompletionRequest::new(Env::builder("arith").body("6 * 7").build());
        assert_eq!(m.complete(&req).unwrap().text, "42");
    }
}
