//! Workload generation: compositional NL2SQL query sets with controllable
//! sub-query sharing, plus the paper's exact Figure-7 queries.

use llmdm_rt::rand::rngs::SmallRng;
use llmdm_rt::rand::{Rng, SeedableRng};

use crate::atoms::{Atom, Connective, Event, QueryShape};
use crate::domain::YEARS;

/// One workload query.
#[derive(Debug, Clone, PartialEq)]
pub struct NlQuery {
    /// Workload-local id.
    pub id: usize,
    /// Compositional shape (atoms + connective).
    pub shape: QueryShape,
    /// The rendered natural-language question.
    pub text: String,
    /// The gold SQL.
    pub gold_sql: String,
}

impl NlQuery {
    /// Build a query from its shape.
    pub fn from_shape(id: usize, shape: QueryShape) -> Self {
        NlQuery { id, shape, text: shape.question(), gold_sql: shape.gold_sql() }
    }
}

/// Workload generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of queries.
    pub n: usize,
    /// Size of the atom pool to draw from; smaller pools mean more
    /// sub-query sharing across queries (the lever behind decomposition's
    /// cost savings).
    pub atom_pool: usize,
    /// Fraction of single-atom queries (the rest are pairs).
    pub single_fraction: f64,
    /// Fraction of single-atom queries that are superlative.
    pub superlative_fraction: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            n: 20,
            atom_pool: 8,
            single_fraction: 0.5,
            superlative_fraction: 0.4,
            seed: 0,
        }
    }
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The queries.
    pub queries: Vec<NlQuery>,
}

impl Workload {
    /// Generate a workload per `config`.
    pub fn generate(config: WorkloadConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        // Build the atom pool: distinct (event, year) combos, some
        // superlative.
        let mut pool: Vec<Atom> = Vec::new();
        'outer: for year in YEARS {
            for event in Event::ALL {
                pool.push(Atom::new(event, year));
                if pool.len() >= config.atom_pool {
                    break 'outer;
                }
            }
        }
        let mut queries = Vec::with_capacity(config.n);
        for id in 0..config.n {
            let shape = if rng.gen_bool(config.single_fraction) {
                let mut a = pool[rng.gen_range(0..pool.len())];
                if rng.gen_bool(config.superlative_fraction) {
                    a.superlative = true;
                }
                QueryShape::Single(a)
            } else {
                let a = pool[rng.gen_range(0..pool.len())];
                let mut b = pool[rng.gen_range(0..pool.len())];
                // Avoid degenerate identical pairs.
                if b == a {
                    b = pool[(pool.iter().position(|x| *x == a).unwrap_or(0) + 1) % pool.len()];
                }
                let conn = match rng.gen_range(0..3) {
                    0 => Connective::Or,
                    1 => Connective::And,
                    _ => Connective::AndNot,
                };
                QueryShape::Pair(a, conn, b)
            };
            queries.push(NlQuery::from_shape(id, shape));
        }
        Workload { queries }
    }
}

/// The paper's exact five Figure-7 queries (Q1–Q5).
pub fn fig7_queries() -> Vec<NlQuery> {
    let concert14 = Atom::new(Event::Concert, 2014);
    let meeting15 = Atom::new(Event::SportsMeeting, 2015);
    let shapes = [
        // Q1: "What are the names of stadiums that had concerts in 2014 or
        //      had sports meetings in 2015?"
        QueryShape::Pair(concert14, Connective::Or, meeting15),
        // Q2: "What are the names of stadiums that had the most number of
        //      concerts in 2014"
        QueryShape::Single(Atom::superlative(Event::Concert, 2014)),
        // Q3: "Show the names of stadiums with most number of sports
        //      meetings in 2015"
        QueryShape::Single(Atom::superlative(Event::SportsMeeting, 2015)),
        // Q4: "Show the names of stadiums that had concerts in 2014 and had
        //      sports meetings in 2015"
        QueryShape::Pair(concert14, Connective::And, meeting15),
        // Q5: "Show the names of stadiums that had concerts in 2014 but did
        //      not have sports meetings in 2015"
        QueryShape::Pair(concert14, Connective::AndNot, meeting15),
    ];
    shapes.iter().enumerate().map(|(i, s)| NlQuery::from_shape(i + 1, *s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct atoms across the workload: the model calls the
    /// decomposed pipeline makes.
    fn distinct_atoms(w: &Workload) -> usize {
        let mut keys: Vec<String> =
            w.queries.iter().flat_map(|q| q.shape.atoms()).map(|a| a.key()).collect();
        keys.sort();
        keys.dedup();
        keys.len()
    }

    #[test]
    fn fig7_has_five_queries_with_shared_atoms() {
        let qs = fig7_queries();
        assert_eq!(qs.len(), 5);
        let w = Workload { queries: qs };
        // Q1/Q4/Q5 share both atoms; Q2/Q3 add superlative variants:
        // distinct atoms = {c14, m15, c14-sup, m15-sup} = 4 vs 8 refs.
        assert_eq!(distinct_atoms(&w), 4);
        assert_eq!(w.queries.iter().map(|q| q.shape.atoms().len()).sum::<usize>(), 8);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::generate(WorkloadConfig::default());
        let b = Workload::generate(WorkloadConfig::default());
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn sharing_increases_with_smaller_pool() {
        let tight = Workload::generate(WorkloadConfig { atom_pool: 4, seed: 5, ..Default::default() });
        let loose = Workload::generate(WorkloadConfig { atom_pool: 12, seed: 5, ..Default::default() });
        assert!(distinct_atoms(&tight) <= distinct_atoms(&loose));
    }

    #[test]
    fn gold_sql_is_executable_for_generated_workload() {
        let mut db = crate::domain::concert_domain(11);
        let w = Workload::generate(WorkloadConfig { n: 30, seed: 3, ..Default::default() });
        for q in &w.queries {
            assert!(db.query(&q.gold_sql).is_ok(), "bad gold sql: {}", q.gold_sql);
        }
    }

    #[test]
    fn no_degenerate_pairs() {
        let w = Workload::generate(WorkloadConfig { n: 100, seed: 9, ..Default::default() });
        for q in &w.queries {
            if let QueryShape::Pair(a, _, b) = q.shape {
                assert_ne!(a, b, "degenerate pair in {}", q.text);
            }
        }
    }
}
