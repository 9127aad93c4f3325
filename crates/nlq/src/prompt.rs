//! DAIL-SQL-style prompt construction with similarity-based few-shot
//! example selection, plus combined prompts (§III-B1 query combination).

use llmdm_model::{Embedder, PromptEnvelope};

use crate::atoms::{Atom, Connective, Event, QueryShape};
use crate::domain::YEARS;

/// A pool of (question, SQL) example pairs for few-shot prompting.
#[derive(Debug, Clone)]
pub struct ExamplePool {
    examples: Vec<(String, String)>,
    vectors: Vec<Vec<f32>>,
    embedder: Embedder,
}

impl ExamplePool {
    /// Generate a deterministic example pool covering the grammar: one
    /// plain single, one superlative, and one pair per event/year stripe.
    pub fn generate(seed: u64) -> Self {
        let mut shapes: Vec<QueryShape> = Vec::new();
        for (i, year) in YEARS.iter().enumerate() {
            let e1 = Event::ALL[i % 3];
            let e2 = Event::ALL[(i + 1) % 3];
            shapes.push(QueryShape::Single(Atom::new(e1, *year)));
            shapes.push(QueryShape::Single(Atom::superlative(e2, *year)));
            shapes.push(QueryShape::Pair(
                Atom::new(e1, *year),
                if i % 2 == 0 { Connective::Or } else { Connective::And },
                Atom::new(e2, *year),
            ));
        }
        let examples: Vec<(String, String)> =
            shapes.iter().map(|s| (s.question(), s.gold_sql())).collect();
        let embedder = Embedder::standard(seed);
        let vectors = examples
            .iter()
            .map(|(q, _)| embedder.embed(q).expect("non-empty question"))
            .collect();
        ExamplePool { examples, vectors, embedder }
    }

    /// Number of examples in the pool.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// The `k` examples most similar to `question` (DAIL-SQL's masked
    /// question-similarity selection, embedded with the shared encoder).
    pub fn select(&self, question: &str, k: usize) -> Vec<&(String, String)> {
        let Ok(qv) = self.embedder.embed(question) else {
            return Vec::new();
        };
        let mut scored: Vec<(f32, usize)> = self
            .vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (llmdm_model::embed::cosine(&qv, v), i))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        scored.into_iter().take(k).map(|(_, i)| &self.examples[i]).collect()
    }
}

/// Builds `### task: nl2sql` prompts.
#[derive(Debug, Clone)]
pub struct PromptBuilder {
    pool: ExamplePool,
    /// Few-shot examples per single prompt.
    pub shots: usize,
    /// Few-shot examples per combined prompt.
    pub combined_shots: usize,
    schema_summary: String,
}

impl PromptBuilder {
    /// Create a builder with the given example pool and schema context.
    pub fn new(pool: ExamplePool, schema_summary: String) -> Self {
        PromptBuilder { pool, shots: 4, combined_shots: 8, schema_summary }
    }

    fn render(&self, questions: &[&str], shots: usize, anchor: &str) -> String {
        let mut body = String::from("Schema:\n");
        body.push_str(&self.schema_summary);
        body.push('\n');
        for (q, sql) in self.pool.select(anchor, shots) {
            body.push_str(&format!("Example Q: {q}\nExample SQL: {sql}\n"));
        }
        body.push('\n');
        for q in questions {
            body.push_str(&format!("Q: {q}\n"));
        }
        PromptEnvelope::builder("nl2sql").header("examples", shots).body(body).build()
    }

    /// A single-question prompt.
    pub fn single(&self, question: &str) -> String {
        self.render(&[question], self.shots, question)
    }

    /// A combined prompt answering several questions with one shared
    /// example block — the paper's query combination.
    pub fn combined(&self, questions: &[&str]) -> String {
        let anchor = questions.first().copied().unwrap_or("");
        self.render(questions, self.combined_shots, anchor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmdm_model::Tokenizer;

    fn builder() -> PromptBuilder {
        let db = crate::domain::concert_domain(1);
        PromptBuilder::new(ExamplePool::generate(1), db.schema_summary())
    }

    #[test]
    fn pool_generation_covers_grammar() {
        let pool = ExamplePool::generate(1);
        assert_eq!(pool.len(), 12);
        let has_sup = pool.examples.iter().any(|(q, _)| q.contains("most number"));
        let has_pair = pool.examples.iter().any(|(q, _)| q.contains(" or "));
        assert!(has_sup && has_pair);
    }

    #[test]
    fn selection_prefers_similar_examples() {
        let pool = ExamplePool::generate(1);
        let picks =
            pool.select("What are the names of stadiums that had concerts in 2013?", 3);
        assert_eq!(picks.len(), 3);
        // The most similar example should at least mention concerts.
        assert!(picks[0].0.contains("concert"), "top pick: {}", picks[0].0);
    }

    #[test]
    fn single_prompt_shape() {
        let b = builder();
        let p = b.single("What are the names of stadiums that had concerts in 2014?");
        let env = PromptEnvelope::parse(&p).unwrap();
        assert_eq!(env.task, "nl2sql");
        assert_eq!(env.examples(), 4);
        assert!(env.body.contains("Schema:"));
        assert_eq!(env.body.lines().filter(|l| l.starts_with("Q: ")).count(), 1);
    }

    #[test]
    fn combined_prompt_is_cheaper_than_sum_of_singles() {
        let b = builder();
        let tok = Tokenizer::new();
        let qs = [
            "Show the stadium ids of stadiums that had concerts in 2014",
            "Show the stadium ids of stadiums that had sports meetings in 2015",
            "Show the stadium ids of stadiums that had festivals in 2013",
            "Show the stadium ids of stadiums that had concerts in 2016",
        ];
        let combined = tok.count(&b.combined(&qs));
        let singles: usize = qs.iter().map(|q| tok.count(&b.single(q))).sum();
        assert!(
            (combined as f64) < singles as f64 * 0.55,
            "combined={combined} singles={singles}"
        );
    }

    #[test]
    fn combined_prompt_has_all_questions() {
        let b = builder();
        let qs = ["Q one?", "Q two?"];
        let p = b.combined(&qs);
        let env = PromptEnvelope::parse(&p).unwrap();
        assert_eq!(env.body.lines().filter(|l| l.starts_with("Q: ")).count(), 2);
        assert_eq!(env.examples(), b.combined_shots);
    }
}
