//! Seeded input generators: a pure function of `(workload, seed, fast)`.
//!
//! The program under test sees only what these functions return: DDL, one
//! bulk-load script per tenant, and the request list (or, for
//! `vec_search`, documents and queries). No generator reads the clock,
//! the environment or process state.

use std::collections::HashSet;

use llmdm_rt::rand::seq::SliceRandom;
use llmdm_rt::rand::{Rng, SeedableRng, SmallRng};
use llmdm_serve::Priority;

/// Requests per `serve_requests` call.
pub const WAVE: usize = 16;
pub const TENANTS: usize = 4;
/// Waves per pass: 128 x 16 = 2048 requests, 20 beyond the 99th percentile.
const WAVES: usize = 128;
const FAST_WAVES: usize = 6;

/// Who submits a request and at which priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub tenant: u8,
    pub class: Priority,
}

/// Deals `0..n` in shuffled rounds: any `n` consecutive draws from the
/// start of a round hold each value once. A mix drawn from a deck has its
/// exact proportions whatever the seed, so seeds change which request is
/// which, not how much work a pass is.
struct Deck {
    cards: Vec<usize>,
    left: usize,
}

impl Deck {
    fn new(n: usize) -> Self {
        Deck {
            cards: (0..n).collect(),
            left: 0,
        }
    }

    fn draw(&mut self, rng: &mut SmallRng) -> usize {
        if self.left == 0 {
            self.cards.shuffle(rng);
            self.left = self.cards.len();
        }
        self.left -= 1;
        self.cards[self.left]
    }
}

/// Tenants evenly; classes 50/30/20 interactive/standard/batch.
struct Slots {
    tenants: Deck,
    classes: Deck,
}

impl Slots {
    fn new() -> Self {
        Slots {
            tenants: Deck::new(TENANTS),
            classes: Deck::new(10),
        }
    }

    fn draw(&mut self, rng: &mut SmallRng) -> Slot {
        let class = match self.classes.draw(rng) {
            0..=4 => Priority::Interactive,
            5..=7 => Priority::Standard,
            _ => Priority::Batch,
        };
        Slot {
            tenant: self.tenants.draw(rng) as u8,
            class,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct SqlReq {
    pub slot: Slot,
    /// A `;`-separated script (`execute_script`) rather than one statement.
    pub script: bool,
    pub sql: String,
    /// Rows (or row pairs) this request feeds to `LLM_*` operators.
    pub llm_rows: u32,
    /// Encoded bytes of the rows this request inserts, updates or deletes.
    pub changed_bytes: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub struct SqlPlan {
    /// `CREATE TABLE … PERSIST`, the same for every tenant.
    pub ddl: Vec<String>,
    /// `(table, unique key column)`, for comparing final table states.
    pub tables: Vec<(&'static str, &'static str)>,
    /// One bulk-load script per tenant.
    pub load: Vec<String>,
    pub requests: Vec<SqlReq>,
    /// Whether requests change table contents (state is then rebuilt
    /// before every pass).
    pub mutating: bool,
}

pub fn sql_plan(workload: &str, seed: u64, fast: bool) -> Option<SqlPlan> {
    let waves = if fast { FAST_WAVES } else { WAVES };
    Some(match workload {
        "rel_read" => rel_read(seed, waves, if fast { (400, 100) } else { (1200, 400) }),
        "rel_write" => rel_write(seed, waves, if fast { (200, 50) } else { (600, 200) }),
        "sem_cold" => sem_cold(seed, waves, if fast { 64 } else { 512 }),
        "sem_shared" => sem_shared(seed, waves, if fast { 64 } else { 512 }),
        _ => return None,
    })
}

// ------------------------------------------------------------ relational

const CATEGORIES: usize = 16;
const BRANDS: usize = 32;
const REGIONS: usize = 8;

const REL_DDL: [&str; 3] = [
    "CREATE TABLE items (id INT, category TEXT, brand TEXT, price FLOAT, stock INT, name TEXT, descr TEXT) PERSIST",
    "CREATE TABLE orders (oid INT, item_id INT, qty INT, region TEXT) PERSIST",
    "CREATE TABLE regions (region TEXT, zone TEXT) PERSIST",
];
const REL_TABLES: [(&str, &str); 3] = [("items", "id"), ("orders", "oid"), ("regions", "region")];

fn price(rng: &mut SmallRng) -> String {
    let cents = rng.gen_range(100..50_000);
    format!("{}.{:02}", cents / 100, cents % 100)
}

/// Width of `items.descr`: rows this wide put a thousand of them past the
/// 64-page buffer pool, while a request still costs about a millisecond.
const DESCR: usize = 192;

fn item_values(rng: &mut SmallRng, id: usize) -> String {
    let words: Vec<&str> = (0..32)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect();
    format!(
        "({id}, 'cat{:02}', 'brand{:02}', {}, {}, 'item-{id}', '{:<DESCR$.DESCR$}')",
        rng.gen_range(0..CATEGORIES),
        rng.gen_range(0..BRANDS),
        price(rng),
        rng.gen_range(0..1000),
        words.join(" "),
    )
}

/// Bytes `PersistentDb` encodes an `items` row into: a 2-byte arity, a
/// tag per value, 8 bytes per number, a 4-byte length per string.
fn item_row_bytes(id: usize) -> u32 {
    let name = format!("item-{id}").len();
    (2 + 9 + (5 + 5) + (5 + 7) + 9 + 9 + (5 + name) + (5 + DESCR)) as u32
}

/// `BEGIN; INSERT …; COMMIT;` with the rows in chunks, so the load is one
/// durable transaction instead of one whole-table rewrite per row.
fn load_script(inserts: Vec<(&str, Vec<String>)>) -> String {
    let mut sql = String::from("BEGIN;\n");
    for (table, rows) in inserts {
        for chunk in rows.chunks(500) {
            sql.push_str(&format!(
                "INSERT INTO {table} VALUES {};\n",
                chunk.join(", ")
            ));
        }
    }
    sql.push_str("COMMIT;");
    sql
}

fn rel_load(seed: u64, tenant: usize, items: usize, orders: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ (0x7e11 + tenant as u64));
    let item_rows = (0..items).map(|id| item_values(&mut rng, id)).collect();
    let order_rows = (0..orders)
        .map(|oid| {
            format!(
                "({oid}, {}, {}, 'r{}')",
                rng.gen_range(0..items),
                rng.gen_range(1..=10),
                rng.gen_range(0..REGIONS)
            )
        })
        .collect();
    let region_rows = (0..REGIONS)
        .map(|r| format!("('r{r}', 'zone{}')", r % 3))
        .collect();
    load_script(vec![
        ("items", item_rows),
        ("orders", order_rows),
        ("regions", region_rows),
    ])
}

fn top_k_read(rng: &mut SmallRng, id_below: Option<usize>) -> String {
    let stable = id_below
        .map(|n| format!(" AND id < {n}"))
        .unwrap_or_default();
    format!(
        "SELECT id, name, price FROM items WHERE category = 'cat{:02}'{stable} AND price < {} \
         ORDER BY price DESC, id LIMIT 10",
        rng.gen_range(0..CATEGORIES),
        price(rng)
    )
}

fn read_req(slot: Slot, sql: String) -> SqlReq {
    SqlReq {
        slot,
        script: false,
        sql,
        llm_rows: 0,
        changed_bytes: 0,
    }
}

fn rel_read(seed: u64, waves: usize, (items, orders): (usize, usize)) -> SqlPlan {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (mut slots, mut kinds) = (Slots::new(), Deck::new(10));
    let requests = (0..waves * WAVE)
        .map(|_| {
            let slot = slots.draw(&mut rng);
            let sql = match kinds.draw(&mut rng) {
                0..=3 => format!(
                    "SELECT id, name, price, stock FROM items WHERE id = {}",
                    rng.gen_range(0..items)
                ),
                4..=6 => top_k_read(&mut rng, None),
                7..=8 => format!(
                    "SELECT category, COUNT(*), AVG(price), SUM(stock) FROM items \
                     WHERE stock > {} GROUP BY category ORDER BY category",
                    rng.gen_range(0..900)
                ),
                _ => format!(
                    "SELECT g.zone, COUNT(*), SUM(o.qty) FROM orders o JOIN regions g \
                     ON o.region = g.region WHERE o.qty >= {} GROUP BY g.zone ORDER BY g.zone",
                    rng.gen_range(1..=10)
                ),
            };
            read_req(slot, sql)
        })
        .collect();
    SqlPlan {
        ddl: REL_DDL.map(String::from).to_vec(),
        tables: REL_TABLES.to_vec(),
        load: (0..TENANTS)
            .map(|t| rel_load(seed, t, items, orders))
            .collect(),
        requests,
        mutating: false,
    }
}

/// What the generator remembers of one tenant's `items` while it writes
/// the request list, so every statement has a row to act on.
struct Ledger {
    /// Ids at or above the stable region that exist right now.
    live: Vec<usize>,
    next_id: usize,
    /// Ids some request of the current wave reads or writes. Requests of a
    /// wave run concurrently, so no two may touch the same row.
    touched: HashSet<usize>,
}

impl Ledger {
    fn fresh_id(&mut self) -> usize {
        self.next_id += 1;
        self.touched.insert(self.next_id - 1);
        self.next_id - 1
    }

    /// A live id no request of this wave has touched; `remove` takes it
    /// out of the table. Hundreds are live and a wave touches at most a
    /// few dozen, so the search is short.
    fn pick(&mut self, rng: &mut SmallRng, remove: bool) -> usize {
        loop {
            let at = rng.gen_range(0..self.live.len());
            let id = self.live[at];
            if self.touched.insert(id) {
                if remove {
                    self.live.swap_remove(at);
                }
                return id;
            }
        }
    }
}

fn rel_write(seed: u64, waves: usize, (items, orders): (usize, usize)) -> SqlPlan {
    // Filter reads stay below `stable` and writes at or above it, so a
    // read's rows never depend on which write of its wave ran first.
    let stable = items / 4;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ledgers: Vec<Ledger> = (0..TENANTS)
        .map(|_| Ledger {
            live: (stable..items).collect(),
            next_id: items,
            touched: HashSet::new(),
        })
        .collect();
    let (mut slots, mut kinds) = (Slots::new(), Deck::new(20));
    let mut requests = Vec::with_capacity(waves * WAVE);
    for _ in 0..waves {
        ledgers.iter_mut().for_each(|l| l.touched.clear());
        for _ in 0..WAVE {
            let slot = slots.draw(&mut rng);
            let ledger = &mut ledgers[slot.tenant as usize];
            let insert = |rng: &mut SmallRng, ledger: &mut Ledger| {
                let id = ledger.fresh_id();
                ledger.live.push(id);
                (
                    format!("INSERT INTO items VALUES {}", item_values(rng, id)),
                    item_row_bytes(id),
                )
            };
            let write = |script, sql, changed_bytes| SqlReq {
                slot,
                script,
                sql,
                llm_rows: 0,
                changed_bytes,
            };
            let req = match kinds.draw(&mut rng) {
                0..=5 => {
                    let (sql, bytes) = insert(&mut rng, ledger);
                    write(false, sql, bytes)
                }
                6..=11 => {
                    let id = ledger.pick(&mut rng, false);
                    let sql = format!(
                        "UPDATE items SET price = {}, stock = {} WHERE id = {id}",
                        price(&mut rng),
                        rng.gen_range(0..1000)
                    );
                    write(false, sql, item_row_bytes(id))
                }
                12..=13 => {
                    let id = ledger.pick(&mut rng, true);
                    write(
                        false,
                        format!("DELETE FROM items WHERE id = {id}"),
                        item_row_bytes(id),
                    )
                }
                14..=15 => {
                    let mut sql = String::from("BEGIN; ");
                    let mut bytes = 0;
                    for _ in 0..4 {
                        let (stmt, b) = insert(&mut rng, ledger);
                        sql.push_str(&stmt);
                        sql.push_str("; ");
                        bytes += b;
                    }
                    sql.push_str("COMMIT");
                    write(true, sql, bytes)
                }
                16..=17 => {
                    // A point read of a row no request of this wave writes.
                    let mut id = rng.gen_range(0..ledger.next_id);
                    while !ledger.touched.insert(id) {
                        id = rng.gen_range(0..ledger.next_id);
                    }
                    read_req(
                        slot,
                        format!("SELECT id, name, price, stock FROM items WHERE id = {id}"),
                    )
                }
                _ => read_req(slot, top_k_read(&mut rng, Some(stable))),
            };
            requests.push(req);
        }
    }
    SqlPlan {
        ddl: REL_DDL.map(String::from).to_vec(),
        tables: REL_TABLES.to_vec(),
        load: (0..TENANTS)
            .map(|t| rel_load(seed, t, items, orders))
            .collect(),
        requests,
        mutating: true,
    }
}

// -------------------------------------------------------------- semantic

const SEM_DDL: [&str; 2] = [
    "CREATE TABLE reviews (id INT, product TEXT, body TEXT, category TEXT, brand TEXT) PERSIST",
    "CREATE TABLE catalog (pid INT, pname TEXT) PERSIST",
];
const SEM_TABLES: [(&str, &str); 2] = [("reviews", "id"), ("catalog", "pid")];
const CATALOG_ROWS: usize = 16;
/// Rows an `LLM_MAP` / `LLM_FILTER` request reads, and row pairs an
/// `LLM_JOIN` request matches: every request feeds 8 inputs to the model
/// stack, which keeps a 2048-request pass of unique prompts near 3 s.
const WINDOW: usize = 8;
/// Review rows of an `LLM_JOIN` request ...
const JOIN_SIDE: usize = 4;
/// ... and catalog rows: 4 x 2 pairs.
const CAT_SIDE: usize = WINDOW / JOIN_SIDE;

const MAKERS: [&str; 8] = [
    "Acme", "Borealis", "Cobalt", "Dynamo", "Ember", "Fjord", "Glint", "Halo",
];
const THINGS: [&str; 8] = [
    "kettle", "lamp", "drill", "tent", "router", "blender", "scooter", "camera",
];
const WORDS: [&str; 24] = [
    "good",
    "great",
    "love",
    "happy",
    "excellent",
    "wonderful",
    "bad",
    "terrible",
    "hate",
    "awful",
    "sad",
    "broken",
    "battery",
    "strap",
    "screen",
    "handle",
    "arrived",
    "late",
    "early",
    "packaging",
    "works",
    "stopped",
    "after",
    "weeks",
];

fn product(tenant: usize, row: usize) -> String {
    format!(
        "{} {} {row}-t{tenant}",
        MAKERS[row % 8],
        THINGS[(row / 8) % 8]
    )
}

fn sem_load(seed: u64, tenant: usize, reviews: usize) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ (0x5e3a + tenant as u64));
    let review_rows = (0..reviews)
        .map(|id| {
            let body: Vec<&str> = (0..8)
                .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
                .collect();
            // The trailing tag makes every body, and so every prompt built
            // from one, unique across rows and tenants.
            format!(
                "({id}, '{}', '{} #{tenant}-{id}', 'cat{:02}', 'brand{:02}')",
                product(tenant, id),
                body.join(" "),
                rng.gen_range(0..CATEGORIES),
                rng.gen_range(0..BRANDS),
            )
        })
        .collect();
    // Catalog products are none of the reviewed ones. If they were, the
    // prompts for (review a, catalog b) and (review b, catalog a) would
    // hold the same words and nearly the same trigrams, and the semantic
    // cache scores such a pair above even its exact-reuse threshold: one
    // would be answered with the other's completion.
    let catalog_rows = (0..CATALOG_ROWS)
        .map(|pid| {
            format!(
                "({pid}, '{}')",
                product(tenant, reviews + pid).to_uppercase()
            )
        })
        .collect();
    load_script(vec![("reviews", review_rows), ("catalog", catalog_rows)])
}

#[derive(Clone, Copy)]
enum Sem {
    Map,
    Filter,
    Join,
}

/// One semantic query over `column`, reading the review window at `at`
/// (and for a join the catalog window at `cat_at`).
fn sem_sql(kind: Sem, column: &str, template: &str, at: usize, cat_at: usize) -> String {
    match kind {
        Sem::Map => format!(
            "SELECT id, LLM_MAP({column}, '{template}') FROM reviews WHERE id >= {at} AND id <= {}",
            at + WINDOW - 1
        ),
        Sem::Filter => format!(
            "SELECT id FROM reviews WHERE id >= {at} AND id <= {} AND LLM_FILTER({column}, '{template}')",
            at + WINDOW - 1
        ),
        Sem::Join => format!(
            "SELECT r.id, c.pid FROM reviews r LLM_JOIN catalog c ON r.id >= {at} AND r.id <= {} \
             AND c.pid >= {cat_at} AND c.pid <= {} AND LLM_MATCH(r.{column}, c.pname, '{template}')",
            at + JOIN_SIDE - 1,
            cat_at + CAT_SIDE - 1
        ),
    }
}

fn sem_plan(seed: u64, reviews: usize, requests: Vec<SqlReq>) -> SqlPlan {
    SqlPlan {
        ddl: SEM_DDL.map(String::from).to_vec(),
        tables: SEM_TABLES.to_vec(),
        load: (0..TENANTS).map(|t| sem_load(seed, t, reviews)).collect(),
        requests,
        mutating: false,
    }
}

fn sem_req(slot: Slot, sql: String) -> SqlReq {
    SqlReq {
        slot,
        script: false,
        sql,
        llm_rows: WINDOW as u32,
        changed_bytes: 0,
    }
}

fn sem_cold(seed: u64, waves: usize, reviews: usize) -> SqlPlan {
    let mut rng = SmallRng::seed_from_u64(seed);
    // Requests issued so far per (tenant, kind): window and rubric number
    // both derive from it, so no two requests of a pass share a prompt.
    let mut issued = [[0usize; 3]; TENANTS];
    let (mut slots, mut kinds) = (Slots::new(), Deck::new(16));
    let requests = (0..waves * WAVE)
        .map(|_| {
            let slot = slots.draw(&mut rng);
            let kind = match kinds.draw(&mut rng) {
                0..=7 => Sem::Map,
                8..=13 => Sem::Filter,
                _ => Sem::Join,
            };
            let n = &mut issued[slot.tenant as usize][kind as usize];
            let count = *n;
            *n += 1;
            let sql = match kind {
                Sem::Map | Sem::Filter => {
                    let windows = reviews / WINDOW;
                    let template = match kind {
                        Sem::Map => format!("sentiment of this review, rubric {}", count / windows),
                        _ => format!("positive tone? rubric {}", count / windows),
                    };
                    sem_sql(kind, "body", &template, (count % windows) * WINDOW, 0)
                }
                Sem::Join => {
                    let sides = CATALOG_ROWS / CAT_SIDE;
                    let combos = reviews / JOIN_SIDE * sides;
                    let combo = count % combos;
                    sem_sql(
                        kind,
                        "product",
                        &format!("same product? rubric {}", count / combos),
                        combo / sides * JOIN_SIDE,
                        combo % sides * CAT_SIDE,
                    )
                }
            };
            sem_req(slot, sql)
        })
        .collect();
    sem_plan(seed, reviews, requests)
}

fn sem_shared(seed: u64, waves: usize, reviews: usize) -> SqlPlan {
    let mut rng = SmallRng::seed_from_u64(seed);
    // 20 hot query texts, asked by every tenant. Categories and brands
    // are the same 16 and 32 values everywhere, so map and filter prompts
    // repeat across tenants; only the join's catalog names differ. About
    // 150 distinct prompts in all, which the 256-entry cache holds.
    let hot: Vec<String> = (0..20)
        .map(|i| {
            let style = i % 2;
            match i {
                0..=8 => {
                    let at = rng.gen_range(0..reviews / WINDOW) * WINDOW;
                    sem_sql(
                        Sem::Map,
                        "category",
                        &format!("normalize category label, style {style}"),
                        at,
                        0,
                    )
                }
                9..=16 => {
                    let at = rng.gen_range(0..reviews / WINDOW) * WINDOW;
                    sem_sql(
                        Sem::Filter,
                        "brand",
                        &format!("premium brand? style {style}"),
                        at,
                        0,
                    )
                }
                _ => {
                    let at = rng.gen_range(0..reviews / JOIN_SIDE) * JOIN_SIDE;
                    sem_sql(Sem::Join, "category", "category names this product?", at, 0)
                }
            }
        })
        .collect();
    let (mut slots, mut texts) = (Slots::new(), Deck::new(hot.len()));
    let requests = (0..waves * WAVE)
        .map(|_| {
            let slot = slots.draw(&mut rng);
            sem_req(slot, hot[texts.draw(&mut rng)].clone())
        })
        .collect();
    sem_plan(seed, reviews, requests)
}

// ---------------------------------------------------------------- vector

pub const DIM: usize = 64;
const CLUSTERS: usize = 32;
pub const SHARDS: usize = 10;
pub const LANGS: [&str; 4] = ["en", "de", "ja", "pt"];
pub const K: usize = 10;

#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    pub vector: Vec<f32>,
    pub shard: i64,
    pub lang: &'static str,
}

/// The attribute predicate of one search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scope {
    /// Plain ANN search.
    All,
    /// One shard: about 10 % of the documents.
    Shard(i64),
    /// One shard and one language: about 2.5 %.
    ShardLang(i64, &'static str),
}

impl Scope {
    pub fn admits(&self, doc: &Doc) -> bool {
        match *self {
            Scope::All => true,
            Scope::Shard(s) => doc.shard == s,
            Scope::ShardLang(s, l) => doc.shard == s && doc.lang == l,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct VecReq {
    pub slot: Slot,
    pub query: Vec<f32>,
    pub scope: Scope,
}

#[derive(Debug, Clone, PartialEq)]
pub struct VecPlan {
    /// Document `i` has id `i`.
    pub docs: Vec<Doc>,
    pub requests: Vec<VecReq>,
}

fn jitter(rng: &mut SmallRng, around: &[f32], spread: f32) -> Vec<f32> {
    around
        .iter()
        .map(|x| x + spread * rng.gen_range(-1.0f32..1.0))
        .collect()
}

pub fn vec_plan(seed: u64, fast: bool) -> VecPlan {
    let (docs, waves) = if fast {
        (600, FAST_WAVES)
    } else {
        (8000, WAVES)
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..CLUSTERS)
        .map(|_| jitter(&mut rng, &[0.0; DIM], 1.0))
        .collect();
    let docs: Vec<Doc> = (0..docs)
        .map(|_| {
            let center = &centers[rng.gen_range(0..CLUSTERS)];
            Doc {
                vector: jitter(&mut rng, center, 0.3),
                shard: rng.gen_range(0..SHARDS) as i64,
                lang: LANGS[rng.gen_range(0..LANGS.len())],
            }
        })
        .collect();
    let (mut slots, mut scopes) = (Slots::new(), Deck::new(10));
    let requests = (0..waves * WAVE)
        .map(|_| {
            let slot = slots.draw(&mut rng);
            let near = &docs[rng.gen_range(0..docs.len())].vector;
            let query = jitter(&mut rng, near, 0.1);
            let shard = rng.gen_range(0..SHARDS) as i64;
            let scope = match scopes.draw(&mut rng) {
                0..=5 => Scope::All,
                6..=8 => Scope::Shard(shard),
                _ => Scope::ShardLang(shard, LANGS[rng.gen_range(0..LANGS.len())]),
            };
            VecReq { slot, query, scope }
        })
        .collect();
    VecPlan { docs, requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in ["rel_read", "rel_write", "sem_cold", "sem_shared"] {
            let a = format!("{:?}", sql_plan(w, 7, true).unwrap());
            assert_eq!(a, format!("{:?}", sql_plan(w, 7, true).unwrap()), "{w}");
            assert_ne!(
                a,
                format!("{:?}", sql_plan(w, 8, true).unwrap()),
                "{w}: seed is ignored"
            );
        }
        let a = format!("{:?}", vec_plan(7, true));
        assert_eq!(a, format!("{:?}", vec_plan(7, true)));
        assert_ne!(a, format!("{:?}", vec_plan(8, true)));
        assert!(sql_plan("nope", 7, true).is_none());
    }

    #[test]
    fn a_deck_deals_exact_proportions() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut deck = Deck::new(10);
        let mut seen = [0usize; 10];
        for _ in 0..50 {
            seen[deck.draw(&mut rng)] += 1;
        }
        assert_eq!(seen, [5; 10]);
        // The request mix follows: 4 in 10 rel_read requests are point lookups.
        let plan = sql_plan("rel_read", 11, false).unwrap();
        let points = plan
            .requests
            .iter()
            .filter(|r| r.sql.contains("WHERE id = "))
            .count();
        assert!(
            points.abs_diff(plan.requests.len() * 4 / 10) <= 4,
            "{points} point lookups"
        );
    }

    #[test]
    fn a_pass_is_whole_waves_and_large_enough_for_p99() {
        let plan = sql_plan("rel_read", 1, false).unwrap();
        assert_eq!(plan.requests.len() % WAVE, 0);
        assert!(plan.requests.len() >= 2000);
    }

    #[test]
    fn no_two_requests_of_a_write_wave_touch_one_row() {
        let plan = sql_plan("rel_write", 3, false).unwrap();
        let key = |sql: &str| -> Vec<String> {
            // Every id a statement names: `id = N`, or the first value of
            // each inserted row.
            let mut ids = Vec::new();
            for part in sql.split("id = ").skip(1) {
                ids.push(part.chars().take_while(char::is_ascii_digit).collect());
            }
            for part in sql.split("VALUES (").skip(1) {
                ids.push(part.chars().take_while(char::is_ascii_digit).collect());
            }
            ids
        };
        for wave in plan.requests.chunks(WAVE) {
            for tenant in 0..TENANTS as u8 {
                let mut seen = HashSet::new();
                for req in wave.iter().filter(|r| r.slot.tenant == tenant) {
                    for id in key(&req.sql) {
                        assert!(
                            seen.insert(id.clone()),
                            "row {id} twice in one wave: {}",
                            req.sql
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cold_prompts_are_unique_and_shared_prompts_are_few() {
        let cold = sql_plan("sem_cold", 5, false).unwrap();
        let texts: HashSet<(u8, &str)> = cold
            .requests
            .iter()
            .map(|r| (r.slot.tenant, r.sql.as_str()))
            .collect();
        assert_eq!(texts.len(), cold.requests.len(), "a cold request repeats");
        let shared = sql_plan("sem_shared", 5, false).unwrap();
        let texts: HashSet<&str> = shared.requests.iter().map(|r| r.sql.as_str()).collect();
        assert!(texts.len() <= 20, "{} hot texts", texts.len());
    }
}
