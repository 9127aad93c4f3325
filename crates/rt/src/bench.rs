//! Wall-clock micro-benchmark harness, replacing the `criterion` crate
//! for this workspace's `harness = false` bench targets.
//!
//! API-compatible with the slice of criterion the benches use:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`BenchmarkGroup::throughput`], [`BenchmarkId::new`].
//!
//! Measurement model: a warmup phase (time-boxed), then up to
//! [`Criterion::max_samples`] individually timed iterations within a
//! measurement budget. Reported statistics are min / mean / **median /
//! p99** — the two the ROADMAP's perf PRs regress against.
//!
//! This module is also the only place that knows how a bench run ends.
//! A target is one or more `fn(&mut Criterion)` handed to
//! [`bench_main!`](crate::bench_main): they time their cases, read the
//! numbers back with [`Criterion::stat`], and hold each claim to its
//! bound with [`Criterion::gate`]. [`Criterion::finish`] then stamps the
//! run (`git_rev`, `timestamp_unix`, `seed`), writes
//! `BENCH_<label>.json` (override the directory with `LLMDM_BENCH_DIR`)
//! with every gate's outcome beside the timings, and only after the
//! report is on disk exits non-zero listing every gate that failed.

use crate::json::Json;
use std::fmt;
use std::path::Path;
use std::time::{Duration, Instant};

/// An opaque value the optimizer must assume is used (re-export of
/// `std::hint::black_box`, criterion-compatible name).
pub use std::hint::black_box;

/// Identifies a benchmark within a group (`function/param`).
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId { name: format!("{function_name}/{parameter}") }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// Per-iteration payload size for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// The timing callback handed to `bench_function` closures.
pub struct Bencher {
    samples: Vec<u64>,
    warmup: Duration,
    measure: Duration,
    max_samples: usize,
}

impl Bencher {
    /// Time `routine` repeatedly; one sample per invocation.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warmup: run without recording until the warmup budget is spent.
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warmup {
            black_box(routine());
        }
        // Measurement: individually timed iterations.
        let run_start = Instant::now();
        while run_start.elapsed() < self.measure && self.samples.len() < self.max_samples {
            let t = Instant::now();
            black_box(routine());
            self.samples.push(t.elapsed().as_nanos() as u64);
        }
    }
}

/// Summary statistics for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Full benchmark id (`group/function/param`).
    pub id: String,
    /// Number of measured iterations.
    pub iters: usize,
    /// Minimum ns/iter.
    pub min_ns: u64,
    /// Mean ns/iter.
    pub mean_ns: f64,
    /// Median ns/iter.
    pub median_ns: u64,
    /// 99th-percentile ns/iter.
    pub p99_ns: u64,
    /// Throughput in MiB/s or Melem/s, if declared.
    pub throughput: Option<(f64, &'static str)>,
}

impl BenchStats {
    fn from_samples(id: String, mut samples: Vec<u64>, tp: Option<Throughput>) -> Self {
        assert!(!samples.is_empty(), "benchmark `{id}` recorded no samples");
        samples.sort_unstable();
        let iters = samples.len();
        let min_ns = samples[0];
        let mean_ns = samples.iter().sum::<u64>() as f64 / iters as f64;
        let median_ns = samples[iters / 2];
        let p99_ns = samples[((iters as f64 * 0.99) as usize).min(iters - 1)];
        let throughput = tp.map(|t| match t {
            Throughput::Bytes(b) => {
                ((b as f64 / (1024.0 * 1024.0)) / (median_ns as f64 * 1e-9), "MiB/s")
            }
            Throughput::Elements(n) => ((n as f64 / 1e6) / (median_ns as f64 * 1e-9), "Melem/s"),
        });
        BenchStats { id, iters, min_ns, mean_ns, median_ns, p99_ns, throughput }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("iters".to_string(), Json::Num(self.iters as f64)),
            ("min_ns".to_string(), Json::Num(self.min_ns as f64)),
            ("mean_ns".to_string(), Json::Num(self.mean_ns)),
            ("median_ns".to_string(), Json::Num(self.median_ns as f64)),
            ("p99_ns".to_string(), Json::Num(self.p99_ns as f64)),
        ];
        if let Some((v, unit)) = self.throughput {
            fields.push(("throughput".to_string(), Json::Num(v)));
            fields.push(("throughput_unit".to_string(), Json::Str(unit.to_string())));
        }
        Json::Obj(fields)
    }
}

/// The bound a [`Criterion::gate`] holds a measured value to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The value must be `>=` this (speedups, savings ratios).
    AtLeast(f64),
    /// The value must be `<=` this (overhead ratios, ns budgets).
    AtMost(f64),
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(x) => write!(f, ">= {x}"),
            Bound::AtMost(x) => write!(f, "<= {x}"),
        }
    }
}

/// One recorded [`Criterion::gate`] outcome.
struct Gate {
    name: String,
    value: f64,
    bound: Bound,
}

impl Gate {
    /// A NaN value (a 0/0 ratio) fails either bound.
    fn pass(&self) -> bool {
        match self.bound {
            Bound::AtLeast(x) => self.value >= x,
            Bound::AtMost(x) => self.value <= x,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("value", Json::Num(self.value)),
            ("bound", Json::Str(self.bound.to_string())),
            ("pass", Json::Bool(self.pass())),
        ])
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.pass() { "ok" } else { "FAILED" };
        write!(f, "gate {:<66} {:>9.3}  ({})  {verdict}", self.name, self.value, self.bound)
    }
}

/// The harness entry point: holds timing budgets, collected results and
/// gate outcomes.
pub struct Criterion {
    /// Warmup budget per benchmark.
    pub warmup: Duration,
    /// Measurement budget per benchmark.
    pub measure: Duration,
    /// Sample-count cap per benchmark.
    pub max_samples: usize,
    results: Vec<BenchStats>,
    gates: Vec<Gate>,
}

/// Whether this is a smoke run (`LLMDM_BENCH_FAST=1`): budgets shrink, and
/// a target may skip the fixtures that take minutes to build.
pub fn fast() -> bool {
    std::env::var("LLMDM_BENCH_FAST").is_ok_and(|v| v == "1")
}

impl Default for Criterion {
    fn default() -> Self {
        let fast = fast();
        Criterion {
            warmup: Duration::from_millis(if fast { 20 } else { 150 }),
            measure: Duration::from_millis(if fast { 60 } else { 400 }),
            max_samples: 20_000,
            results: Vec::new(),
            gates: Vec::new(),
        }
    }
}

impl Criterion {
    /// Begin a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), throughput: None }
    }

    /// The stats recorded under the full id `group/function[/param]`.
    /// Panics naming the id if no such benchmark ran.
    pub fn stat(&self, id: &str) -> &BenchStats {
        self.results.iter().find(|s| s.id == id).unwrap_or_else(|| panic!("no stats for `{id}`"))
    }

    /// Hold `value` to `bound`: prints one line and records the outcome
    /// for the report. A failed gate does not stop the run —
    /// [`Criterion::finish`] fails it once the report is written.
    pub fn gate(&mut self, name: impl Into<String>, value: f64, bound: Bound) {
        let gate = Gate { name: name.into(), value, bound };
        println!("{gate}");
        self.gates.push(gate);
    }

    /// End the run: write `BENCH_<label>.json` into [`report_dir`],
    /// stamped with git rev, timestamp and `seed` — the seed the target
    /// actually drew its randomness from, `None` (rendered `null`) for a
    /// target that draws none. Exits non-zero, after the report is on
    /// disk, if any gate failed or the report could not be written.
    pub fn finish(&self, label: &str, seed: Option<u64>) {
        let path = report_dir().join(format!("BENCH_{label}.json"));
        if let Err(why) = self.report(&path, label, seed) {
            eprintln!("{why}");
            std::process::exit(1);
        }
    }

    /// [`Criterion::finish`] minus the exit: write the report to `path`,
    /// then return every failed gate as the error.
    fn report(&self, path: &Path, label: &str, seed: Option<u64>) -> Result<(), String> {
        let doc = Json::obj([
            ("label", Json::Str(label.to_string())),
            ("harness", Json::Str("llmdm-rt/bench".to_string())),
            ("meta", Json::Obj(crate::meta::run_meta(seed))),
            ("benchmarks", Json::Arr(self.results.iter().map(BenchStats::to_json).collect())),
            ("gates", Json::Arr(self.gates.iter().map(Gate::to_json).collect())),
        ]);
        std::fs::write(path, doc.render())
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        let failed: Vec<String> =
            self.gates.iter().filter(|g| !g.pass()).map(Gate::to_string).collect();
        if failed.is_empty() {
            return Ok(());
        }
        Err(format!("{} of {} gates failed:\n{}", failed.len(), self.gates.len(), failed.join("\n")))
    }
}

/// A named group of benchmarks sharing an optional throughput.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare per-iteration payload for subsequent benchmarks.
    pub fn throughput(&mut self, tp: Throughput) {
        self.throughput = Some(tp);
    }

    /// Measure one function.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl fmt::Display, mut f: F) {
        let full = format!("{}/{id}", self.name);
        let mut b = Bencher {
            samples: Vec::new(),
            warmup: self.criterion.warmup,
            measure: self.criterion.measure,
            max_samples: self.criterion.max_samples,
        };
        f(&mut b);
        let stats = BenchStats::from_samples(full, b.samples, self.throughput);
        print_stats_line(&stats);
        self.criterion.results.push(stats);
    }

    /// Measure several functions *interleaved*: one timed call of each
    /// per round, round after round, each getting the budget
    /// [`bench_function`](Self::bench_function) would give it. On a shared
    /// machine a slow spell then lands on every case alike, so the ratio
    /// of two medians is a ratio of work and not of whose window the
    /// neighbours disturbed — measure this way what a gate will compare.
    /// Every round runs the cases in a fresh (seeded) random order, so each
    /// runs equally often on the caches each of the others left behind. A
    /// case passes its own result through [`black_box`].
    pub fn bench_interleaved(&mut self, cases: &mut [(&str, &mut dyn FnMut())]) {
        use crate::rand::{seq::SliceRandom, SeedableRng, SmallRng};
        let budget = |per_case: Duration| per_case * cases.len() as u32;
        let (warmup, measure) = (budget(self.criterion.warmup), budget(self.criterion.measure));
        let mut rng = SmallRng::seed_from_u64(0);
        let mut order: Vec<usize> = (0..cases.len()).collect();
        let mut samples = vec![Vec::new(); cases.len()];
        let warm_start = Instant::now();
        while warm_start.elapsed() < warmup {
            order.shuffle(&mut rng);
            order.iter().for_each(|&case| (cases[case].1)());
        }
        let run_start = Instant::now();
        while samples[0].len() < self.criterion.max_samples {
            order.shuffle(&mut rng);
            for &case in &order {
                let t = Instant::now();
                (cases[case].1)();
                samples[case].push(t.elapsed().as_nanos() as u64);
            }
            if run_start.elapsed() >= measure {
                break;
            }
        }
        for ((id, _), samples) in cases.iter().zip(samples) {
            let full = format!("{}/{id}", self.name);
            let stats = BenchStats::from_samples(full, samples, self.throughput);
            print_stats_line(&stats);
            self.criterion.results.push(stats);
        }
    }

    /// End the group (criterion-compat no-op; results live on the
    /// parent [`Criterion`]).
    pub fn finish(self) {}
}

fn print_stats_line(s: &BenchStats) {
    let tp = match s.throughput {
        Some((v, unit)) => format!("  {v:10.1} {unit}"),
        None => String::new(),
    };
    println!(
        "{:<44} {:>10} iters  median {:>9}  p99 {:>9}{}",
        s.id,
        s.iters,
        fmt_ns(s.median_ns),
        fmt_ns(s.p99_ns),
        tp
    );
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Where bench JSON reports go: `LLMDM_BENCH_DIR` or the current dir.
pub fn report_dir() -> std::path::PathBuf {
    std::env::var_os("LLMDM_BENCH_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."))
}

/// The one way a bench target gets its `main`:
/// `bench_main!("label", seed, fn_a, fn_b);` runs each
/// `fn(&mut Criterion)` in order on a default [`Criterion`](crate::bench::Criterion)
/// and ends with [`Criterion::finish`](crate::bench::Criterion::finish)`(label, seed)`.
#[macro_export]
macro_rules! bench_main {
    ($label:expr, $seed:expr, $($target:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::default();
            $($target(&mut c);)+
            c.finish($label, $seed);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> Criterion {
        Criterion {
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(10),
            max_samples: 500,
            ..Criterion::default()
        }
    }

    /// A per-test report path (tests run on parallel threads).
    fn temp_report(test: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("llmdm_bench_{test}_{}.json", std::process::id()))
    }

    fn read_report(path: &Path) -> Json {
        let text = std::fs::read_to_string(path).expect("report is on disk");
        let _ = std::fs::remove_file(path);
        Json::parse(&text).expect("valid json")
    }

    #[test]
    fn collects_sane_stats() {
        let mut c = fast();
        {
            let mut g = c.benchmark_group("unit");
            g.throughput(Throughput::Bytes(1024));
            g.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
            g.bench_function(BenchmarkId::new("spin", 64), |b| {
                b.iter(|| (0..64u64).map(black_box).sum::<u64>())
            });
            g.finish();
        }
        let r = &c.results;
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].id, "unit/noop");
        assert_eq!(r[1].id, "unit/spin/64");
        for s in r {
            assert!(s.iters > 0);
            assert!(s.min_ns <= s.median_ns && s.median_ns <= s.p99_ns);
            assert!(s.mean_ns > 0.0);
        }
        assert!(r[0].throughput.is_some());
        assert_eq!(c.stat("unit/spin/64").id, "unit/spin/64");
    }

    #[test]
    fn interleaved_cases_run_once_per_round_in_shuffled_order() {
        let mut c = fast();
        let order = std::cell::RefCell::new(String::new());
        c.benchmark_group("trio").bench_interleaved(&mut [
            ("a", &mut || order.borrow_mut().push('a')),
            ("b", &mut || order.borrow_mut().push('b')),
            ("c", &mut || order.borrow_mut().push('c')),
        ]);
        // Every round (warmup included) runs each case exactly once, and
        // not always in the order given.
        let order = order.into_inner();
        let rounds: Vec<&[u8]> = order.as_bytes().chunks(3).collect();
        for round in &rounds {
            let mut sorted = round.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, b"abc", "{order}");
        }
        assert!(rounds.iter().any(|round| *round != b"abc"), "{order}");
        // One sample per timed call, the same number for every case.
        let iters = c.stat("trio/a").iters;
        assert!(iters >= 1 && iters <= rounds.len());
        assert_eq!((c.stat("trio/b").iters, c.stat("trio/c").iters), (iters, iters));
    }

    #[test]
    #[should_panic(expected = "no stats for `unit/missing`")]
    fn stat_on_an_unknown_id_panics_naming_it() {
        fast().stat("unit/missing");
    }

    #[test]
    fn json_report_roundtrips() {
        let mut c = fast();
        c.benchmark_group("g").bench_function("f", |b| b.iter(|| black_box(0)));
        let path = temp_report("roundtrip");
        c.report(&path, "test", None).expect("no gates, nothing to fail");
        let parsed = read_report(&path);
        assert_eq!(parsed.get("label").unwrap().as_str().unwrap(), "test");
        let benches = parsed.get("benchmarks").unwrap().as_arr().unwrap();
        assert_eq!(benches.len(), 1);
        assert_eq!(benches[0].get("id").unwrap().as_str().unwrap(), "g/f");
        assert!(benches[0].get("median_ns").unwrap().as_f64().unwrap() >= 0.0);
        // Stamped, with `seed: None` rendered as null rather than dropped.
        let meta = parsed.get("meta").unwrap();
        assert!(meta.get("timestamp_unix").unwrap().as_u64().unwrap() > 0);
        assert!(meta.get("git_rev").is_some());
        assert_eq!(meta.get("seed").unwrap(), &Json::Null);
        // Ungated targets still carry the (empty) gates array.
        assert!(parsed.get("gates").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn passing_gates_roundtrip_with_the_seed() {
        let mut c = fast();
        c.gate("speedup", 2.5, Bound::AtLeast(2.0));
        c.gate("overhead", 1.05, Bound::AtMost(1.05));
        let path = temp_report("passing");
        c.report(&path, "test", Some(11)).expect("both gates hold");
        let parsed = read_report(&path);
        assert_eq!(parsed.get("meta").unwrap().get("seed").unwrap().as_u64().unwrap(), 11);
        let gates = parsed.get("gates").unwrap().as_arr().unwrap();
        assert_eq!(gates.len(), 2);
        assert_eq!(gates[0].get("name").unwrap().as_str().unwrap(), "speedup");
        assert_eq!(gates[0].get("value").unwrap().as_f64().unwrap(), 2.5);
        assert_eq!(gates[0].get("bound").unwrap().as_str().unwrap(), ">= 2");
        assert_eq!(gates[1].get("bound").unwrap().as_str().unwrap(), "<= 1.05");
        for g in gates {
            assert_eq!(g.get("pass").unwrap(), &Json::Bool(true));
        }
    }

    #[test]
    fn failed_gates_are_reported_after_the_file_exists() {
        let mut c = fast();
        c.gate("speedup", 1.1, Bound::AtLeast(1.2));
        c.gate("held", 3.0, Bound::AtLeast(2.0));
        c.gate("overhead", 1.3, Bound::AtMost(1.25));
        c.gate("undefined", f64::NAN, Bound::AtMost(50.0));
        let path = temp_report("failing");
        let why = c.report(&path, "test", None).expect_err("three gates failed");
        // Every failure is listed, not just the first; the held gate is not.
        assert!(why.starts_with("3 of 4 gates failed"), "{why}");
        for name in ["speedup", "overhead", "undefined"] {
            assert!(why.contains(name), "{why}");
        }
        assert!(!why.contains("held"), "{why}");
        // And the report the failing run most needs is complete on disk.
        let parsed = read_report(&path);
        let pass: Vec<bool> = parsed
            .get("gates")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|g| g.get("pass").unwrap() == &Json::Bool(true))
            .collect();
        assert_eq!(pass, [false, true, false, false]);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("lookup_hit", 128).to_string(), "lookup_hit/128");
    }
}
