//! `perf` — the end-to-end benchmark of the serve -> SQL -> LLM -> store
//! request path, with per-layer numbers from a traced run.
//!
//! One process runs one workload:
//!
//! ```text
//! perf --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--fast]
//! perf --list        # the registry, as BENCHMARK.json
//! perf --selfcheck   # every workload twice; fail if a metric moves past its bound
//! ```
//!
//! Human-readable tables go first; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones, with neither both. See README.md.

mod decor;
mod gen;
mod pass;
mod registry;
mod sqlbench;
mod stats;
mod vecbench;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use llmdm_obs::Report;
use llmdm_rt::json::Json;

use pass::{Pass, Timing};
use registry::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, ratio, SpanIn};

/// Workers of the warm-up and measured passes: the cores of the box the
/// benchmark is sized for. The generator thread sleeps while they run.
pub const WORKERS: usize = 2;
/// Waves of the traced pass: a quarter of a full pass.
pub const TRACED_WAVES: usize = 32;
/// Fewest measured passes, however long they take.
pub const MIN_PASSES: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Keep running measured passes until they add up to this long, and
    /// at least [`MIN_PASSES`] times.
    pub seconds: f64,
    /// Print end-to-end metrics in the result line.
    pub end_to_end: bool,
    /// Run the accounting and traced passes and print per-layer metrics.
    pub layers: bool,
    /// Tiny sizes: a smoke test, not a measurement.
    pub fast: bool,
    /// Where `TRACE_perf_<workload>.json` goes.
    pub trace_dir: PathBuf,
}

/// What one workload run found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Premises and invariants that did not hold; any entry fails the run.
    pub broken: Vec<String>,
    pub timing: Timing,
    pub passes: usize,
    pub requests_per_pass: usize,
    /// Seconds of each set-up.
    pub setups: Vec<f64>,
    pub layers: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    /// Wall seconds of each phase of the run, for sizing workloads.
    pub phases: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "unregistered metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Record that the phase `name` ran from `since` until now.
    pub fn phase(&mut self, name: &'static str, since: std::time::Instant) {
        self.phases.push((name, since.elapsed().as_secs_f64()));
    }

    /// Queue-wait figures come from the measured passes, not the
    /// single-worker ones.
    pub fn timing_layers(&mut self) {
        let t = self.timing;
        self.layer("serve.queue_wait_p50_ms", t.wait_p50_ms);
        self.layer("serve.queue_wait_p99_ms", t.wait_p99_ms);
        self.layer(
            "serve.queue_wait_interactive_p50_ms",
            t.wait_interactive_p50_ms,
        );
        self.layer("serve.queue_wait_batch_p50_ms", t.wait_batch_p50_ms);
        self.layer("serve.worker_busy_ratio", t.busy_ratio);
    }
}

/// Digest the traced pass: exclusive time per `perf.*` layer, the check
/// that those add up to what the requests took, tracing overhead against
/// the same waves of the accounting pass, and `TRACE_perf_<workload>.json`.
pub fn trace_report<R>(
    args: &Args,
    out: &mut Outcome,
    report: &Report,
    traced: &Pass<R>,
    accounting_wave_ns: &[u64],
) {
    let spans: Vec<SpanIn> = report
        .spans
        .iter()
        .map(|s| SpanIn {
            id: s.id,
            parent: s.parent,
            name: &s.name,
            dur_ns: s.dur_ns,
        })
        .collect();
    let own = stats::layer_self_ns(&spans, "perf.");
    let served = || traced.served.iter().flatten();
    let requests = served().count() as f64;
    let wait_ns: u64 = served().map(|s| s.wait_ns).sum();
    let latency_ns: u64 = served().map(|s| s.wait_ns + s.exec_ns).sum();
    // `perf.wave` is the generator's span around a whole wave; everything
    // else hangs below one request.
    let in_requests: u64 = own
        .iter()
        .filter(|(name, _)| **name != "perf.wave")
        .map(|(_, ns)| ns)
        .sum();
    let sum_ratio = ratio((wait_ns + in_requests) as f64, latency_ns as f64);
    let same_waves: u64 = accounting_wave_ns.iter().take(traced.wave_ns.len()).sum();
    out.layer("obs.trace_sum_ratio", sum_ratio);
    out.layer(
        "obs.spans_per_req",
        ratio(report.spans.len() as f64, requests),
    );
    out.layer(
        "obs.overhead_ratio",
        ratio(traced.wave_ns.iter().sum::<u64>() as f64, same_waves as f64),
    );
    if !(0.95..=1.05).contains(&sum_ratio) {
        out.broken.push(format!(
            "layer self times are {sum_ratio:.3} of request latency"
        ));
    }

    let per_req_ms = |ns: u64| ratio(ns as f64 / 1e6, requests);
    let mut table = vec![("serve.queue_wait".to_string(), per_req_ms(wait_ns))];
    table.extend(
        own.iter()
            .map(|(name, ns)| (name.to_string(), per_req_ms(*ns))),
    );
    out.notes.push(format!(
        "traced pass, exclusive ms per request over {requests} requests: {}",
        table
            .iter()
            .map(|(k, v)| format!("{k} {v:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let extra = [(
        "perf_layers_ms_per_req".to_string(),
        Json::Obj(table.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()),
    )];
    let label = format!("perf_{}", args.workload);
    match report.write_trace(&args.trace_dir, &label, Some(args.seed), &extra) {
        Ok(path) => out.notes.push(format!(
            "{} spans written to {}",
            report.spans.len(),
            path.display()
        )),
        Err(e) => out.broken.push(format!("could not write the trace: {e}")),
    }
}

fn run_workload(args: &Args) -> Option<Outcome> {
    if args.workload == "vec_search" {
        Some(vecbench::run(args, &gen::vec_plan(args.seed, args.fast)))
    } else {
        let plan = gen::sql_plan(&args.workload, args.seed, args.fast)?;
        Some(sqlbench::run(args, &plan))
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Print the tables and the result line; `true` if the run is correct.
fn report(args: &Args, out: &Outcome) -> bool {
    let correct = out.failed == 0 && out.broken.is_empty();
    println!(
        "perf {} seed {}: {} measured passes x {} requests, {} set-ups, {} workers of {} cores",
        args.workload,
        args.seed,
        out.passes,
        out.requests_per_pass,
        out.setups.len(),
        WORKERS,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let mut metrics = Vec::new();
    if args.end_to_end {
        println!(
            "end-to-end (measured passes; see README, How the measured passes become numbers)"
        );
        for m in &END_TO_END {
            let value = match m.name {
                "req_per_s" => out.timing.req_per_s,
                "lat_p50_ms" => out.timing.lat_p50_ms,
                "lat_p99_ms" => out.timing.lat_p99_ms,
                "peak_rss_mb" => peak_rss_mb(),
                "setup_s" => median(&out.setups),
                other => unreachable!("end-to-end metric {other} is not measured"),
            };
            println!("  {:<38} {:>14.4} {}", m.name, value, m.unit);
            metrics.push((m.name, value, m.unit));
        }
    }
    if args.layers {
        println!("per-layer (accounting and traced passes; 0 = layer not on this path)");
        for m in &PER_LAYER {
            let value = out.layers.get(m.name).copied().unwrap_or(0.0);
            println!("  {:<38} {:>14.4} {}", m.name, value, m.unit);
            metrics.push((m.name, value, m.unit));
        }
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    let phases: Vec<String> = out
        .phases
        .iter()
        .map(|(name, s)| format!("{name} {s:.2}"))
        .collect();
    println!("note: wall seconds by phase: {}", phases.join(", "));
    let setups: Vec<String> = out.setups.iter().map(|s| format!("{s:.4}")).collect();
    println!("note: seconds of each set-up: {}", setups.join(" "));
    for broken in &out.broken {
        println!("BROKEN: {broken}");
    }
    println!(
        "fail_ratio {:.6} ({} of {} checks failed)",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        let entry = [
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ];
                        (name.to_string(), Json::obj(entry))
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.render());
    correct
}

/// Counts of the accounting pass: one worker makes them a function of the
/// seed alone, so two runs must print the very same digits.
const EXACT: [&str; 6] = [
    "model.calls_per_req",
    "model.usd_per_kreq",
    "model.sim_ms_per_req",
    "semcache.lookups_per_req",
    "store.bytes_written_per_req",
    "store.syncs_per_req",
];

/// Run every workload twice per seed in fresh processes: end-to-end
/// metrics must agree within their bounds, counts exactly.
fn selfcheck(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let run = |workload: &str, seed: u64| -> Option<Json> {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", workload]).args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ]);
        if args.fast {
            cmd.arg("--fast");
        }
        let output = cmd.output().ok()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = Json::parse(stdout.lines().last()?).ok()?;
        (output.status.success() && result.get("correct")?.as_bool().ok()?).then_some(result)
    };
    let mut ok = true;
    for w in &WORKLOADS {
        for seed in [registry::DEFAULT_SEED, 7] {
            let (Some(a), Some(b)) = (run(w.name, seed), run(w.name, seed)) else {
                println!("{:<12} seed {seed:<3} FAILED to run correctly", w.name);
                ok = false;
                continue;
            };
            let value = |r: &Json, name: &str| -> Option<f64> {
                r.get("metrics")?.get(name)?.get("value")?.as_f64().ok()
            };
            for name in EXACT {
                let (x, y) = (value(&a, name), value(&b, name));
                if x.is_none() || x != y {
                    println!("{:<12} seed {seed:<3} {name} {x:?} != {y:?}", w.name);
                    ok = false;
                }
            }
            for m in &END_TO_END {
                let (Some(x), Some(y)) = (value(&a, m.name), value(&b, m.name)) else {
                    println!("{:<12} seed {seed:<3} {:<12} missing", w.name, m.name);
                    ok = false;
                    continue;
                };
                // The worse of the two over the better, so order is moot.
                let (better, worse) = match m.better {
                    Better::Higher => (x.max(y), x.min(y)),
                    Better::Lower => (x.min(y), x.max(y)),
                };
                let moved = (worse - better).abs() / better;
                let within = moved <= m.bound;
                ok &= within;
                println!(
                    "{:<12} seed {seed:<3} {:<12} {x:>12.4} {y:>12.4} {:>6.2} % of {:>3.0} % {}",
                    w.name,
                    m.name,
                    moved * 100.0,
                    m.bound * 100.0,
                    if within { "ok" } else { "OUT OF BOUND" }
                );
            }
        }
    }
    ok
}

const USAGE: &str =
    "usage: perf --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--fast]
       perf --list | --selfcheck [--seconds <s>] [--fast]";

fn main() -> ExitCode {
    let mut args = Args {
        workload: String::new(),
        seed: registry::DEFAULT_SEED,
        seconds: registry::RUN_SECONDS as f64,
        end_to_end: true,
        layers: true,
        fast: false,
        trace_dir: llmdm_rt::bench::report_dir(),
    };
    let (mut list, mut check) = (false, false);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}\n{USAGE}");
                std::process::exit(2)
            })
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                args.workload = value("a name");
                true
            }
            "--seed" => value("a number").parse().map(|s| args.seed = s).is_ok(),
            "--seconds" => value("a number").parse().map(|s| args.seconds = s).is_ok(),
            "--trace" => match value("0 or 1").as_str() {
                "0" => {
                    args.layers = false;
                    true
                }
                "1" => {
                    args.end_to_end = false;
                    true
                }
                _ => false,
            },
            "--fast" => {
                args.fast = true;
                true
            }
            "--list" => {
                list = true;
                true
            }
            "--selfcheck" => {
                check = true;
                true
            }
            _ => false,
        };
        if !parsed {
            eprintln!("bad argument {flag}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if list {
        eprint!("{}", registry::describe());
        println!("{}", pretty(&registry::benchmark_json(), 0));
        return ExitCode::SUCCESS;
    }
    if check {
        return if selfcheck(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if registry::workload(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "unknown workload {:?}; one of {}\n{USAGE}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    }
    let out = run_workload(&args).expect("registered workloads have generators");
    if report(&args, &out) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `Json::render` is one line; BENCHMARK.json is read by people.
fn pretty(json: &Json, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let end = "  ".repeat(depth);
    match json {
        // Metric and workload entries stay on one line each.
        Json::Obj(fields) if depth >= 2 => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}: {}", Json::Str(k.clone()).render(), v.render()))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        Json::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        Json::Str(k.clone()).render(),
                        pretty(v, depth + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{end}}}", inner.join(",\n"))
        }
        Json::Arr(items) if items.iter().all(|i| matches!(i, Json::Obj(_))) => {
            let inner: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", pretty(i, depth + 1)))
                .collect();
            format!("[\n{}\n{end}]", inner.join(",\n"))
        }
        other => other.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny sizes, all five workloads end to end: generator, set-up,
    /// oracle, warm-up, measured, traced and accounting passes, crash and
    /// reopen, every premise. Must stay under 5 s.
    #[test]
    fn fast_smoke_drives_every_workload() {
        let t0 = std::time::Instant::now();
        for w in &WORKLOADS {
            let args = Args {
                workload: w.name.to_string(),
                seed: 7,
                seconds: 0.0,
                end_to_end: true,
                layers: true,
                fast: true,
                trace_dir: std::env::temp_dir(),
            };
            let out = run_workload(&args).expect("workload exists");
            // Sized-down tables cannot meet premises about sizes relative
            // to the pool or the cache; everything else must hold.
            let sized = |b: &&String| {
                !(b.contains("pages") || b.contains("hit ratio") || b.contains("hit the pool"))
            };
            let broken: Vec<&String> = out.broken.iter().filter(sized).collect();
            assert!(broken.is_empty(), "{}: {broken:?}", w.name);
            assert_eq!(
                out.failed, 0,
                "{}: {} of {} checks failed",
                w.name, out.failed, out.attempted
            );
            assert!(out.attempted > 0 && out.passes >= MIN_PASSES);
            assert!(out.timing.req_per_s > 0.0 && out.timing.lat_p99_ms >= out.timing.lat_p50_ms);
            for m in &PER_LAYER {
                let v = out.layers.get(m.name).copied().unwrap_or(0.0);
                assert!(v.is_finite() && v >= 0.0, "{}: {} = {v}", w.name, m.name);
            }
            let sum = out.layers["obs.trace_sum_ratio"];
            assert!(
                (0.95..=1.05).contains(&sum),
                "{}: trace sum ratio {sum}",
                w.name
            );
        }
        assert!(
            t0.elapsed().as_secs_f64() < 5.0 || cfg!(debug_assertions),
            "smoke took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn pretty_benchmark_json_parses_back() {
        let json = registry::benchmark_json();
        assert_eq!(Json::parse(&pretty(&json, 0)).expect("parses"), json);
    }
}
