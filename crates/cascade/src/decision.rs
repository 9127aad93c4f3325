//! The trainable decision model of the cascade (Fig. 6: "a decision model
//! is required to determine whether the LLM results are acceptable").
//!
//! A logistic regression over features observable *without* the gold
//! answer: the model's self-reported confidence, the answer's shape, the
//! prompt size, and which tier produced it. Trained by gradient descent on
//! a labelled calibration workload.

use llmdm_model::Completion;

/// Feature vector for one (query, completion) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Features {
    /// The model's self-reported confidence.
    pub confidence: f64,
    /// Output length in tokens, squashed to `[0, 1]`.
    pub answer_len: f64,
    /// Prompt length in tokens, squashed to `[0, 1]`.
    pub prompt_len: f64,
    /// Tier index scaled to `[0, 1]` (0 = cheapest).
    pub tier: f64,
}

impl Features {
    /// Extract features from a completion produced by tier `tier_idx` of
    /// `n_tiers`.
    pub fn extract(completion: &Completion, tier_idx: usize, n_tiers: usize) -> Features {
        Features {
            confidence: completion.confidence,
            answer_len: (completion.usage.output_tokens as f64 / 64.0).min(1.0),
            prompt_len: (completion.usage.input_tokens as f64 / 1024.0).min(1.0),
            tier: if n_tiers <= 1 { 0.0 } else { tier_idx as f64 / (n_tiers - 1) as f64 },
        }
    }

    fn as_array(&self) -> [f64; 5] {
        // Bias term last.
        [self.confidence, self.answer_len, self.prompt_len, self.tier, 1.0]
    }
}

/// Logistic-regression accept/escalate model.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionModel {
    weights: [f64; 5],
}

impl Default for DecisionModel {
    fn default() -> Self {
        // Sensible prior: trust confidence.
        DecisionModel { weights: [4.0, 0.0, 0.0, 0.0, -2.0] }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl DecisionModel {
    /// Untrained model with the confidence-trusting prior.
    pub fn new() -> Self {
        Self::default()
    }

    /// Predicted probability that the answer is correct.
    pub fn predict(&self, f: &Features) -> f64 {
        let x = f.as_array();
        sigmoid(self.weights.iter().zip(x).map(|(w, v)| w * v).sum())
    }

    /// Train on labelled `(features, correct)` pairs with plain gradient
    /// descent on the logistic loss.
    pub fn train(&mut self, data: &[(Features, bool)], epochs: usize, lr: f64) {
        if data.is_empty() {
            return;
        }
        for _ in 0..epochs {
            let mut grad = [0f64; 5];
            for (f, y) in data {
                let x = f.as_array();
                let p = self.predict(f);
                let err = p - if *y { 1.0 } else { 0.0 };
                for (g, v) in grad.iter_mut().zip(x) {
                    *g += err * v;
                }
            }
            for (w, g) in self.weights.iter_mut().zip(grad) {
                *w -= lr * g / data.len() as f64;
            }
        }
    }

    /// Classification accuracy at a 0.5 threshold (for calibration tests).
    pub fn accuracy(&self, data: &[(Features, bool)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let ok = data
            .iter()
            .filter(|(f, y)| (self.predict(f) >= 0.5) == *y)
            .count();
        ok as f64 / data.len() as f64
    }

    /// The learned weights (confidence, answer_len, prompt_len, tier, bias).
    pub fn weights(&self) -> [f64; 5] {
        self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(conf: f64) -> Features {
        Features { confidence: conf, answer_len: 0.2, prompt_len: 0.3, tier: 0.0 }
    }

    /// Synthetic separable data: high confidence ⇒ correct.
    fn labelled() -> Vec<(Features, bool)> {
        let mut data = Vec::new();
        for i in 0..100 {
            let conf = i as f64 / 100.0;
            data.push((feat(conf), conf > 0.45));
        }
        data
    }

    #[test]
    fn training_learns_confidence_signal() {
        let mut m = DecisionModel { weights: [0.0; 5] };
        let data = labelled();
        m.train(&data, 2000, 0.5);
        assert!(m.accuracy(&data) > 0.9, "acc={}", m.accuracy(&data));
        assert!(m.weights()[0] > 0.0, "confidence weight should be positive");
    }

    #[test]
    fn prior_trusts_confidence() {
        let m = DecisionModel::new();
        assert!(m.predict(&feat(0.9)) > m.predict(&feat(0.1)));
    }

    #[test]
    fn predict_in_unit_interval() {
        let m = DecisionModel::new();
        for c in [0.0, 0.5, 1.0] {
            let p = m.predict(&feat(c));
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn empty_training_is_noop() {
        let mut m = DecisionModel::new();
        let before = m.weights();
        m.train(&[], 10, 0.1);
        assert_eq!(before, m.weights());
    }

    #[test]
    fn feature_extraction_bounds() {
        use llmdm_model::TokenUsage;
        let c = Completion {
            text: "x".into(),
            model: "m".into(),
            usage: TokenUsage { input_tokens: 5000, output_tokens: 500 },
            cost: 0.0,
            latency: std::time::Duration::ZERO,
            confidence: 0.7,
            cached: false,
        };
        let f = Features::extract(&c, 1, 3);
        assert_eq!(f.answer_len, 1.0);
        assert_eq!(f.prompt_len, 1.0);
        assert!((f.tier - 0.5).abs() < 1e-12);
    }
}
