//! The four SQL workloads: serve -> `PersistentDb::execute` -> planner ->
//! `LLM_*` operators -> model stack (retry, semantic cache) -> store.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use llmdm_model::prelude::*;
use llmdm_model::ClientStats;
use llmdm_rt::lock_recover;
use llmdm_semcache::{
    shared_cache, CacheConfig, CacheStackExt, CacheStats, SemanticCache, SharedCache,
};
use llmdm_sqlengine::exec::{execute, execute_select_direct};
use llmdm_sqlengine::parser::parse_script;
use llmdm_sqlengine::semantic::SemSqlSolver;
use llmdm_sqlengine::{parse_statement, Database, ModelHandle, PersistentDb, ResultSet, Statement};
use llmdm_store::{MemVfs, PoolStats, Store, StoreConfig, Vfs, PAGE_SIZE};

use crate::decor::{self, CountingVfs, Mode, ModelAcc, Probe, Seat, VfsStats};
use crate::gen::{Slot, SqlPlan, WAVE};
use crate::pass::{run_pass, Measured, Pass};
use crate::stats::{median, ratio};
use crate::{trace_report, Args, Outcome, MIN_PASSES, TRACED_WAVES, WORKERS};

/// The shared model stack: sim large tier + `SemSqlSolver` -> default
/// retry -> [model probe] -> exact-reuse semantic cache -> [stack probe].
struct Stack {
    handle: ModelHandle,
    retry: Arc<ResilientClient>,
    cache: Option<SharedCache>,
}

fn build_stack(seed: u64, cached: bool) -> Stack {
    let zoo = ModelZoo::standard(seed);
    zoo.register_solver(Arc::new(SemSqlSolver));
    let meter = zoo.meter().clone();
    let mut stack = ModelStack::new(&zoo).with_default_retry();
    let retry = stack
        .resilient()
        .expect("retry layer was just added")
        .clone();
    stack = stack.with_layer(|inner, _| Arc::new(Probe::new(inner, Seat::Model)));
    // The thresholds `ModelHandle::sim` pins: only an identical prompt
    // may reuse an answer, or results would depend on evaluation order.
    let cache = cached.then(|| {
        shared_cache(CacheConfig {
            capacity: 256,
            reuse_threshold: 0.9999,
            augment_threshold: 0.9999,
            ..CacheConfig::default()
        })
    });
    if let Some(cache) = &cache {
        stack = stack.with_cache(cache.clone());
    }
    let model = stack
        .with_layer(|inner, _| Arc::new(Probe::new(inner, Seat::Stack)))
        .build_arc();
    let mut handle = ModelHandle::new(model, meter);
    if let Some(cache) = &cache {
        handle = handle.with_cache(cache.clone());
    }
    Stack {
        handle,
        retry,
        cache,
    }
}

struct Tenant {
    disk: Arc<Mutex<CountingVfs>>,
    db: Mutex<PersistentDb>,
}

fn open(disk: &Arc<Mutex<CountingVfs>>, handle: &ModelHandle) -> PersistentDb {
    let mut db = PersistentDb::open(disk.clone(), StoreConfig::default()).expect("store opens");
    db.set_model(handle.clone());
    db
}

struct State {
    stack: Stack,
    tenants: Vec<Tenant>,
}

/// Set-up: the model stack, and per tenant an empty disk, the tables and
/// the bulk load, then a reopen so passes start on a cold buffer pool, as
/// after a restart.
fn build_state(plan: &SqlPlan, seed: u64) -> State {
    let stack = build_stack(seed, true);
    let tenants = plan
        .load
        .iter()
        .map(|load| {
            let disk = Arc::new(Mutex::new(CountingVfs::default()));
            let mut db = open(&disk, &stack.handle);
            for ddl in &plan.ddl {
                db.execute(ddl).expect("DDL executes");
            }
            db.execute_script(load).expect("bulk load executes");
            drop(db);
            Tenant {
                db: Mutex::new(open(&disk, &stack.handle)),
                disk,
            }
        })
        .collect();
    State { stack, tenants }
}

/// The in-memory, non-PERSIST twin of the tenants: the differential
/// oracle every result is compared with, and the source of the purely
/// relational cost of the same statements.
struct Replica {
    dbs: Vec<Database>,
    expected: Vec<ResultSet>,
    relational_ns: u64,
    parse_ns: u64,
    plan_ns: u64,
    statements: u64,
    selects: u64,
    /// Planner and direct interpreter disagreed on the replica itself.
    disagreements: u64,
}

fn replay(plan: &SqlPlan, seed: u64) -> Replica {
    let oracle = ModelHandle::sim_uncached(seed);
    let probed = build_stack(seed, false).handle;
    let mut dbs: Vec<Database> = plan
        .load
        .iter()
        .map(|load| {
            let mut db = Database::new();
            for ddl in &plan.ddl {
                db.execute(&ddl.replace(" PERSIST", ""))
                    .expect("replica DDL executes");
            }
            db.execute_script(load).expect("replica load executes");
            db
        })
        .collect();
    let mut r = Replica {
        dbs: Vec::new(),
        expected: Vec::with_capacity(plan.requests.len()),
        relational_ns: 0,
        parse_ns: 0,
        plan_ns: 0,
        statements: 0,
        selects: 0,
        disagreements: 0,
    };
    // Read-only workloads repeat query texts; one text on one tenant has
    // one answer and one cost, so the oracle runs once per distinct pair.
    let mut seen: HashMap<(u8, &str), (usize, [u64; 3])> = HashMap::new();
    decor::set_mode(Mode::Count);
    for (i, req) in plan.requests.iter().enumerate() {
        let key = (req.slot.tenant, req.sql.as_str());
        if let Some(&(first, [relational, parse, explain])) =
            (!plan.mutating).then(|| seen.get(&key)).flatten()
        {
            r.expected.push(r.expected[first].clone());
            r.relational_ns += relational;
            r.parse_ns += parse;
            r.plan_ns += explain;
            r.statements += 1;
            r.selects += 1;
            continue;
        }
        let db = &mut dbs[req.slot.tenant as usize];
        let t0 = Instant::now();
        let statements = if req.script {
            parse_script(&req.sql)
        } else {
            parse_statement(&req.sql).map(|s| vec![s])
        }
        .unwrap_or_else(|e| panic!("generated SQL does not parse: {e}: {}", req.sql));
        let parse = t0.elapsed().as_nanos() as u64;
        let (mut relational, mut explain) = (0, 0);
        let mut last = ResultSet::empty();
        for stmt in &statements {
            let fail = |e| panic!("generated SQL fails on the replica: {e}: {}", req.sql);
            if let Statement::Select(select) = stmt {
                db.set_model(oracle.clone());
                let want = execute_select_direct(db, select).unwrap_or_else(fail);
                db.set_model(probed.clone());
                let t0 = Instant::now();
                black_box(
                    db.execute(&format!("EXPLAIN {}", req.sql))
                        .unwrap_or_else(fail),
                );
                explain += (t0.elapsed().as_nanos() as u64).saturating_sub(parse);
                decor::take_thread();
                let t0 = Instant::now();
                let got = execute(db, stmt).unwrap_or_else(fail);
                let ns = t0.elapsed().as_nanos() as u64;
                relational += ns.saturating_sub(decor::take_thread().stack_ns);
                r.disagreements += u64::from(!got.bit_eq(&want));
                r.selects += 1;
                last = want;
            } else {
                let t0 = Instant::now();
                last = execute(db, stmt).unwrap_or_else(fail);
                relational += t0.elapsed().as_nanos() as u64;
            }
        }
        r.relational_ns += relational;
        r.parse_ns += parse;
        r.plan_ns += explain;
        r.statements += statements.len() as u64;
        seen.insert(key, (i, [relational, parse, explain]));
        r.expected.push(last);
    }
    decor::set_mode(Mode::Off);
    r.dbs = dbs;
    r
}

/// What one request's handler observed.
struct SqlOut {
    result: Result<ResultSet, String>,
    /// Inside `PersistentDb::execute`, tenant lock excluded.
    db_ns: u64,
    model: ModelAcc,
    disk: VfsStats,
}

fn sql_pass(
    plan: &SqlPlan,
    slots: &[Slot],
    state: &State,
    waves: usize,
    workers: usize,
    seed: u64,
) -> Pass<SqlOut> {
    let mode = decor::mode();
    run_pass(slots, waves, workers, seed, mode == Mode::Trace, |i| {
        let req = &plan.requests[i];
        let tenant = &state.tenants[req.slot.tenant as usize];
        let mut db = lock_recover(&tenant.db);
        // This tenant's disk is only touched under its database lock, so
        // the difference of two readings belongs to this request.
        let disk0 = (mode != Mode::Off).then(|| lock_recover(&tenant.disk).stats());
        decor::take_thread();
        let span = (mode == Mode::Trace).then(|| llmdm_obs::span("perf.sqlengine.exec"));
        let t0 = Instant::now();
        let result = if req.script {
            db.execute_script(&req.sql)
        } else {
            db.execute(&req.sql)
        };
        let db_ns = t0.elapsed().as_nanos() as u64;
        drop(span);
        SqlOut {
            result: result.map_err(|e| e.to_string()),
            db_ns,
            model: decor::take_thread(),
            disk: disk0
                .map(|d| lock_recover(&tenant.disk).stats().since(&d))
                .unwrap_or_default(),
        }
    })
}

/// Requests of the pass whose output is not bit-equal to the oracle's
/// (refused and errored ones included).
fn wrong(pass: &Pass<SqlOut>, expected: &[ResultSet]) -> u64 {
    pass.served
        .iter()
        .zip(expected)
        .filter(|(served, want)| {
            !served
                .as_ref()
                .is_some_and(|s| s.out.result.as_ref().is_ok_and(|got| got.bit_eq(want)))
        })
        .count() as u64
}

/// Counters the layers keep themselves, read between passes.
struct Native {
    pool: PoolStats,
    cache: CacheStats,
    calls: u64,
    dollars: f64,
    client: ClientStats,
}

fn native(state: &State) -> Native {
    let mut pool = PoolStats::default();
    for t in &state.tenants {
        let p = lock_recover(&t.db).store().pool_stats();
        pool.hits += p.hits;
        pool.misses += p.misses;
        pool.evictions += p.evictions;
    }
    let usage = state.stack.handle.meter().snapshot();
    Native {
        pool,
        cache: state.stack.handle.cache_stats(),
        calls: usage.total_calls(),
        dollars: usage.total_dollars(),
        client: state.stack.retry.stats(),
    }
}

/// What the layers' own counters moved by over some passes. Kept as sums
/// of per-pass differences because a mutating workload's state, and its
/// counters with it, is rebuilt before every pass.
#[derive(Default)]
struct Tally {
    pool_hits: u64,
    pool_misses: u64,
    pool_evictions: u64,
    lookups: u64,
    cache_hits: u64,
    calls: u64,
    dollars: f64,
    retries: u64,
    backoff_ms: u64,
    cache_out_of_balance: bool,
}

impl Tally {
    fn add(&mut self, then: &Native, now: &Native) {
        let hits = |c: &CacheStats| c.reuse_hits + c.augment_hits + c.stale_serves;
        self.pool_hits += now.pool.hits - then.pool.hits;
        self.pool_misses += now.pool.misses - then.pool.misses;
        self.pool_evictions += now.pool.evictions - then.pool.evictions;
        self.lookups += now.cache.lookups - then.cache.lookups;
        self.cache_hits += hits(&now.cache) - hits(&then.cache);
        self.calls += now.calls - then.calls;
        self.dollars += now.dollars - then.dollars;
        self.retries += now.client.retries - then.client.retries;
        self.backoff_ms += now.client.backoff_ms_total - then.client.backoff_ms_total;
        self.cache_out_of_balance |= !now.cache.reconciles();
    }

    fn pool_hit_ratio(&self) -> f64 {
        ratio(
            self.pool_hits as f64,
            (self.pool_hits + self.pool_misses) as f64,
        )
    }

    fn cache_hit_ratio(&self) -> f64 {
        ratio(self.cache_hits as f64, self.lookups as f64)
    }
}

/// Each workload's premise: what must stay true of the generated load for
/// its numbers to mean what BENCHMARK.json says they mean.
fn premises(
    workload: &str,
    measured: &Tally,
    requests: u64,
    db_pages: u64,
    refused: u64,
    reconciles: bool,
) -> Vec<String> {
    let pool_pages = StoreConfig::default().pool_pages as u64;
    let calls_per_req = ratio(measured.calls as f64, requests as f64);
    let mut broken = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            broken.push(what);
        }
    };
    need(
        refused == 0,
        format!("{refused} requests were refused by the queue"),
    );
    need(reconciles, "ServeStats do not reconcile".into());
    need(
        !measured.cache_out_of_balance,
        "CacheStats do not reconcile".into(),
    );
    need(
        measured.retries == 0,
        format!("{} model retries without a fault plan", measured.retries),
    );
    match workload {
        "rel_read" | "rel_write" => {
            need(
                measured.calls == 0,
                format!("{} model calls on a relational workload", measured.calls),
            );
            if workload == "rel_read" {
                need(
                    db_pages > pool_pages,
                    format!("tables ({db_pages} pages) fit the {pool_pages}-page pool"),
                );
                need(
                    measured.pool_hit_ratio() < 1.0,
                    "every page request hit the pool".into(),
                );
            } else {
                need(
                    db_pages <= pool_pages,
                    format!("tables ({db_pages} pages) exceed the {pool_pages}-page pool"),
                );
            }
        }
        "sem_cold" => {
            let r = measured.cache_hit_ratio();
            need(
                r <= 0.1,
                format!("cache hit ratio {r:.3} > 0.1 on the cold workload"),
            );
            need(
                calls_per_req >= 1.0,
                format!("only {calls_per_req:.2} model calls per request"),
            );
        }
        "sem_shared" => {
            let r = measured.cache_hit_ratio();
            need(
                r >= 0.9,
                format!("cache hit ratio {r:.3} < 0.9 on the shared workload"),
            );
            need(
                calls_per_req < 1.0,
                format!("{calls_per_req:.2} model calls per request"),
            );
        }
        _ => unreachable!("not a SQL workload: {workload}"),
    }
    broken
}

/// Table contents that differ between a tenant and its replica twin.
fn table_mismatches(plan: &SqlPlan, state: &State, replica: &mut Replica) -> u64 {
    let mut bad = 0;
    for (tenant, twin) in state.tenants.iter().zip(&mut replica.dbs) {
        for (table, key) in &plan.tables {
            // Concurrent inserts of one wave may land in either order;
            // the key is unique, so sorting by it compares contents.
            let sql = format!("SELECT * FROM {table} ORDER BY {key}");
            let got = lock_recover(&tenant.db).execute(&sql);
            let want = twin.execute(&sql).expect("replica answers");
            bad += match got {
                Ok(got) if got.bit_eq(&want) => 0,
                Ok(got) => 1 + got.rows.len().abs_diff(want.rows.len()) as u64,
                Err(_) => 1 + want.rows.len() as u64,
            };
        }
    }
    bad
}

/// Kill every tenant's machine (unsynced bytes are lost) and reopen its
/// database; returns the state and each reopen's milliseconds.
fn crash_and_reopen(state: State) -> (State, Vec<f64>) {
    let State { stack, tenants } = state;
    let mut recovery_ms = Vec::new();
    let tenants = tenants
        .into_iter()
        .map(|Tenant { disk, db }| {
            drop(db);
            lock_recover(&disk).disk.crash();
            let t0 = Instant::now();
            let db = open(&disk, &stack.handle);
            recovery_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            Tenant {
                disk,
                db: Mutex::new(db),
            }
        })
        .collect();
    (State { stack, tenants }, recovery_ms)
}

/// `Store::scan` of every table, and truncate + append-all + commit of
/// every table, on a copy of one tenant's disk: milliseconds per table.
fn store_micro(disk: &MemVfs) -> (f64, f64) {
    let (mut scans, mut rewrites) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let copy = Arc::new(Mutex::new(disk.snapshot()));
        let mut store = Store::open(copy, StoreConfig::default()).expect("copy opens");
        let spaces = store.spaces();
        let t0 = Instant::now();
        let tables: Vec<Vec<Vec<u8>>> = spaces
            .iter()
            .map(|s| store.scan(s).expect("space scans"))
            .collect();
        scans.push(t0.elapsed().as_secs_f64() * 1e3 / spaces.len() as f64);
        let t0 = Instant::now();
        store
            .with_txn(|s| {
                for (space, records) in spaces.iter().zip(&tables) {
                    s.truncate_space(space)?;
                    for record in records {
                        s.append(space, record)?;
                    }
                }
                Ok(())
            })
            .expect("rewrite commits");
        rewrites.push(t0.elapsed().as_secs_f64() * 1e3 / spaces.len() as f64);
    }
    (median(&scans), median(&rewrites))
}

/// Microseconds per `SemanticCache::lookup` at the size and content the
/// workload left the cache in.
fn cache_lookup_us(cache: &SharedCache) -> f64 {
    let (config, entries) = {
        let c = lock_recover(cache);
        let entries: Vec<_> = c
            .iter()
            .map(|(q, r, kind)| (q.to_string(), r.to_string(), kind))
            .collect();
        (*c.config(), entries)
    };
    let mut fresh = SemanticCache::new(config);
    for (query, response, kind) in &entries {
        fresh.insert(query, response, *kind);
    }
    let t0 = Instant::now();
    for (query, _, _) in &entries {
        black_box(fresh.lookup(query));
    }
    ratio(t0.elapsed().as_secs_f64() * 1e6, entries.len() as f64)
}

/// Timed set-ups of a run, for the median.
const SETUPS: usize = 25;

pub fn run(args: &Args, plan: &SqlPlan) -> Outcome {
    let slots: Vec<Slot> = plan.requests.iter().map(|r| r.slot).collect();
    let waves = slots.len() / WAVE;
    let n = slots.len() as f64;
    let mut out = Outcome {
        requests_per_pass: slots.len(),
        ..Outcome::default()
    };

    // Set-up, timed. A set-up takes 10 to 40 ms, too short to read once,
    // so it is repeated for a median (mutating workloads rebuild before
    // every pass as well).
    let t0 = Instant::now();
    let setup = |setups: &mut Vec<f64>| {
        let t0 = Instant::now();
        let state = build_state(plan, args.seed);
        setups.push(t0.elapsed().as_secs_f64());
        state
    };
    let mut state = setup(&mut out.setups);
    while out.setups.len() < if args.fast { 3 } else { SETUPS } {
        state = setup(&mut out.setups);
    }
    let db_pages = {
        let file = StoreConfig::default().db_file;
        lock_recover(&state.tenants[0].disk).disk.len(&file) / PAGE_SIZE as u64
    };

    out.phase("set-up", t0);

    let t0 = Instant::now();
    let mut replica = replay(plan, args.seed);
    out.phase("oracle", t0);
    if replica.disagreements > 0 {
        out.broken.push(format!(
            "planner and direct interpreter disagree on {} replica queries",
            replica.disagreements
        ));
    }

    // One pass at `workers`, checked against the oracle and tallied.
    let checked_pass = |state: &State, out: &mut Outcome, tally: &mut Tally, waves, workers| {
        let then = native(state);
        let pass = sql_pass(plan, &slots, state, waves, workers, args.seed);
        tally.add(&then, &native(state));
        let bad = wrong(&pass, &replica.expected[..pass.served.len()]);
        out.attempted += pass.served.len() as u64;
        out.failed += bad;
        (pass, bad)
    };

    // Warm-up pass, discarded: caches fill, lazy set-up finishes.
    let t0 = Instant::now();
    let (warm, _) = checked_pass(&state, &mut out, &mut Tally::default(), waves, WORKERS);
    let mut reconciles = warm.reconciles;
    let mut refused = warm.refused;

    out.phase("warm-up", t0);

    // Measured passes: decorators pass through, tracing off.
    let t0 = Instant::now();
    let mut measured = Tally::default();
    let mut timed = Measured::new(slots.len(), WORKERS);
    while timed.passes() < MIN_PASSES || timed.seconds() < args.seconds {
        if plan.mutating {
            state = setup(&mut out.setups);
        }
        let (pass, bad) = checked_pass(&state, &mut out, &mut measured, waves, WORKERS);
        timed.push(&pass, slots.len() as u64 - bad);
        reconciles &= pass.reconciles;
        refused += pass.refused;
    }
    out.timing = timed.timing(&slots);
    out.passes = timed.passes();
    let requests = (timed.passes() * slots.len()) as u64;
    out.broken.extend(premises(
        &args.workload,
        &measured,
        requests,
        db_pages,
        refused,
        reconciles,
    ));
    out.phase("measured", t0);

    let t0 = Instant::now();
    if args.layers {
        let noop = run_pass(&slots, waves, WORKERS, args.seed, false, |_| ());
        out.layer("serve.noop_us_per_req", noop.wall_ns as f64 / 1e3 / n);

        // Traced pass: one worker, so spans never overlap; a prefix of the
        // request list, so the trace stays a few megabytes.
        if plan.mutating {
            state = setup(&mut out.setups);
        }
        decor::set_mode(Mode::Trace);
        llmdm_obs::reset();
        llmdm_obs::enable();
        let (traced, _) = checked_pass(
            &state,
            &mut out,
            &mut Tally::default(),
            TRACED_WAVES.min(waves),
            1,
        );
        llmdm_obs::disable();
        let report = llmdm_obs::snapshot();
        llmdm_obs::reset();

        // Accounting pass: one worker, so the serve determinism contract
        // makes every count exact; decorators count and time.
        if plan.mutating {
            state = setup(&mut out.setups);
        }
        decor::set_mode(Mode::Count);
        let mut tally = Tally::default();
        let (acct, _) = checked_pass(&state, &mut out, &mut tally, waves, 1);
        decor::set_mode(Mode::Off);
        trace_report(args, &mut out, &report, &traced, &acct.wave_ns);

        let (mut db_ns, mut model, mut disk) = (0u64, ModelAcc::default(), VfsStats::default());
        for served in acct.served.iter().flatten() {
            db_ns += served.out.db_ns;
            model.add(&served.out.model);
            disk.add(&served.out.disk);
        }
        let per_req_ms = |ns: u64| ns as f64 / 1e6 / n;
        let exec_ms = per_req_ms(db_ns);
        let relational_ms = per_req_ms(replica.relational_ns);
        let llm_rows: u64 = plan.requests.iter().map(|r| r.llm_rows as u64).sum();
        let changed: u64 = plan.requests.iter().map(|r| r.changed_bytes as u64).sum();
        let (scan_ms, rewrite_ms) = store_micro(&lock_recover(&state.tenants[0].disk).disk);
        let cache = state
            .stack
            .cache
            .as_ref()
            .expect("the served stack is cached");

        out.timing_layers();
        out.layer(
            "serve.batch_fill",
            ratio(acct.admitted as f64, acct.batches as f64),
        );
        out.layer(
            "serve.rejected",
            (refused + traced.refused + acct.refused) as f64,
        );
        out.layer("sqlengine.exec_ms_per_req", exec_ms);
        out.layer("sqlengine.relational_ms_per_req", relational_ms);
        out.layer(
            "sqlengine.parse_us_per_stmt",
            ratio(replica.parse_ns as f64 / 1e3, replica.statements as f64),
        );
        out.layer(
            "sqlengine.plan_us_per_stmt",
            ratio(replica.plan_ns as f64 / 1e3, replica.selects as f64),
        );
        out.layer(
            "sqlengine.prompts_per_input_row",
            ratio(model.prompts as f64, llm_rows as f64),
        );
        out.layer(
            "store.persist_ms_per_req",
            exec_ms - per_req_ms(model.stack_ns) - relational_ms,
        );
        out.layer("store.vfs_ms_per_req", per_req_ms(disk.ns));
        out.layer("store.bytes_read_per_req", disk.bytes_read as f64 / n);
        out.layer("store.bytes_written_per_req", disk.bytes_written as f64 / n);
        out.layer("store.syncs_per_req", disk.syncs as f64 / n);
        out.layer(
            "store.write_amp",
            ratio(disk.bytes_written as f64, changed as f64),
        );
        out.layer("store.pool_hit_ratio", tally.pool_hit_ratio());
        out.layer("store.pool_evictions", tally.pool_evictions as f64);
        out.layer(
            "store.wal_bytes_end",
            state
                .tenants
                .iter()
                .map(|t| lock_recover(&t.db).store().wal_len())
                .sum::<u64>() as f64,
        );
        out.layer("store.scan_ms_per_table", scan_ms);
        out.layer("store.rewrite_ms_per_table", rewrite_ms);
        out.layer(
            "semcache.self_ms_per_req",
            per_req_ms(model.stack_ns - model.model_ns),
        );
        out.layer("semcache.lookups_per_req", tally.lookups as f64 / n);
        out.layer("semcache.hit_ratio", tally.cache_hit_ratio());
        out.layer("semcache.entries_end", lock_recover(cache).len() as f64);
        out.layer("semcache.lookup_us", cache_lookup_us(cache));
        out.layer(
            "model.self_us_per_call",
            ratio(model.model_ns as f64 / 1e3, model.calls as f64),
        );
        out.layer("model.calls_per_req", tally.calls as f64 / n);
        out.layer(
            "model.sim_ms_per_call",
            ratio(model.sim_ns as f64 / 1e6, model.calls as f64),
        );
        out.layer("model.sim_ms_per_req", per_req_ms(model.sim_ns));
        out.layer("model.usd_per_kreq", tally.dollars * 1e3 / n);
        out.layer(
            "model.tokens_per_call",
            ratio(model.tokens as f64, model.calls as f64),
        );
        out.layer("model.retries", tally.retries as f64);
        out.layer("model.backoff_ms", tally.backoff_ms as f64);
        out.notes.push(format!(
            "accounting pass: {} requests, {} prompts, {} billed calls, {} vfs calls",
            acct.served.len(),
            model.prompts,
            tally.calls,
            disk.calls
        ));
        if model.calls != tally.calls {
            out.broken.push(format!(
                "model probe saw {} calls, the usage meter billed {}",
                model.calls, tally.calls
            ));
        }
    }

    out.phase("layers", t0);

    // The state has now run the whole request list exactly once since it
    // was built (read-only workloads never change it): every tenant must
    // hold what the replica holds, and still hold it after a crash.
    let t0 = Instant::now();
    let before_crash = table_mismatches(plan, &state, &mut replica);
    let (state, recovery_ms) = crash_and_reopen(state);
    let after_crash = table_mismatches(plan, &state, &mut replica);
    let tables = (plan.tables.len() * state.tenants.len()) as u64;
    out.attempted += 2 * tables;
    out.failed += before_crash + after_crash;
    out.layer("store.recovery_ms", median(&recovery_ms));
    out.phase("crash check", t0);
    out.notes.push(format!(
        "{tables} tables compared with the replica before and after MemVfs::crash(): {before_crash} + {after_crash} rows differ; {db_pages} pages per tenant"
    ));
    out
}
