//! One pass of the request list through `serve_requests`, as a closed
//! loop of waves: the single generator thread submits 16 requests, waits
//! for all of them, and submits the next 16.

use std::time::Instant;

use llmdm_serve::{serve_requests, Disposition, Priority, ServeConfig, ServeRequest};

use crate::gen::{Slot, WAVE};
use crate::stats::{median, percentile, percentile_of, ratio};

pub const QUEUE_CAPACITY: usize = 64;
pub const MAX_BATCH: usize = 4;

/// One request as the serving layer delivered it.
pub struct Served<R> {
    /// Wave submit to the start of this request's own work.
    pub wait_ns: u64,
    /// Its own work: everything the handler did for it.
    pub exec_ns: u64,
    pub out: R,
}

pub struct Pass<R> {
    /// By request index; `None` for a request the queue refused.
    pub served: Vec<Option<Served<R>>>,
    pub wall_ns: u64,
    pub wave_ns: Vec<u64>,
    pub admitted: u64,
    pub refused: u64,
    pub batches: u64,
    /// `ServeStats::reconciles()` held for every wave.
    pub reconciles: bool,
}

/// Run the first `waves` waves of `slots` on `workers` workers; `work`
/// does request `i`'s job on whichever worker dequeues it. With `trace`,
/// each request runs inside a `perf.request` span under the trace context
/// the serving layer minted for it.
pub fn run_pass<R: Send>(
    slots: &[Slot],
    waves: usize,
    workers: usize,
    seed: u64,
    trace: bool,
    work: impl Fn(usize) -> R + Sync,
) -> Pass<R> {
    let config = ServeConfig::builder()
        .workers(workers)
        .queue_capacity(QUEUE_CAPACITY)
        .max_batch(MAX_BATCH)
        .seed(seed)
        .build()
        .expect("serve config is valid");
    let mut pass = Pass {
        served: Vec::with_capacity(waves * WAVE),
        wall_ns: 0,
        wave_ns: Vec::with_capacity(waves),
        admitted: 0,
        refused: 0,
        batches: 0,
        reconciles: true,
    };
    let started = Instant::now();
    for (w, wave) in slots.chunks(WAVE).take(waves).enumerate() {
        let requests: Vec<ServeRequest<usize>> = wave
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                // Jobs of one tenant may share a handler batch.
                let tenant = format!("tenant{}", slot.tenant);
                ServeRequest::builder(tenant.clone(), w * WAVE + i)
                    .class(slot.class)
                    .batch_key(tenant)
                    .build()
                    .expect("request is valid")
            })
            .collect();
        let _span = trace.then(|| llmdm_obs::span("perf.wave"));
        let submit = Instant::now();
        let run = serve_requests(&config, requests, |_key, jobs| {
            jobs.iter()
                .map(|job| {
                    let _ctx = trace.then(|| job.trace.attach());
                    let entered = submit.elapsed().as_nanos() as u64;
                    let mut span = trace.then(|| llmdm_obs::span("perf.request"));
                    if let Some(s) = &mut span {
                        s.field("request", job.payload as u64);
                        s.field("wait_ns", entered);
                    }
                    let out = work(job.payload);
                    drop(span);
                    let left = submit.elapsed().as_nanos() as u64;
                    Ok::<_, ()>(Served {
                        wait_ns: entered,
                        exec_ns: left - entered,
                        out,
                    })
                })
                .collect()
        });
        pass.wave_ns.push(submit.elapsed().as_nanos() as u64);
        pass.admitted += run.stats.admitted;
        pass.refused += run.stats.rejected + run.stats.shed;
        pass.batches += run.stats.batches;
        pass.reconciles &= run.stats.reconciles();
        pass.served.extend(run.results.into_iter().map(|d| match d {
            Disposition::Done(Ok(served)) => Some(served),
            Disposition::Done(Err(())) | Disposition::Rejected(_) => None,
        }));
    }
    pass.wall_ns = started.elapsed().as_nanos() as u64;
    pass
}

/// The timing figures of a run's measured passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub req_per_s: f64,
    pub lat_p50_ms: f64,
    pub lat_p99_ms: f64,
    pub wait_p50_ms: f64,
    pub wait_p99_ms: f64,
    pub wait_interactive_p50_ms: f64,
    pub wait_batch_p50_ms: f64,
    /// Share of `workers x wall` the workers spent on requests.
    pub busy_ratio: f64,
}

/// What is kept of every measured pass: per request, when its work
/// started and ended after its wave's submit; per pass, the wall time.
///
/// Every pass replays the same requests, so the passes are repeated
/// measurements of the same 2048 latencies. The host adds noise of its own
/// (other guests, frequency steps) that only ever slows a pass down and
/// lasts from milliseconds to seconds, so the figures are built to shed
/// it: a request's latency is its **median over the passes** and the
/// percentiles are taken over requests; throughput uses the **lower
/// quartile** of the passes' wall times.
pub struct Measured {
    workers: usize,
    wall_ns: Vec<u64>,
    correct: Vec<u64>,
    busy_ns: Vec<u64>,
    /// `[request][pass]`
    wait_ns: Vec<Vec<u64>>,
    latency_ns: Vec<Vec<u64>>,
}

impl Measured {
    pub fn new(requests: usize, workers: usize) -> Self {
        Measured {
            workers,
            wall_ns: Vec::new(),
            correct: Vec::new(),
            busy_ns: Vec::new(),
            wait_ns: vec![Vec::new(); requests],
            latency_ns: vec![Vec::new(); requests],
        }
    }

    /// Keep a pass of which `correct` requests returned the expected
    /// output. A refused request has no latency; it fails the run anyway.
    pub fn push<R>(&mut self, pass: &Pass<R>, correct: u64) {
        self.wall_ns.push(pass.wall_ns);
        self.correct.push(correct);
        self.busy_ns
            .push(pass.served.iter().flatten().map(|s| s.exec_ns).sum());
        for (i, served) in pass.served.iter().enumerate() {
            if let Some(s) = served {
                self.wait_ns[i].push(s.wait_ns);
                self.latency_ns[i].push(s.wait_ns + s.exec_ns);
            }
        }
    }

    pub fn passes(&self) -> usize {
        self.wall_ns.len()
    }

    /// Seconds of measured passes so far.
    pub fn seconds(&self) -> f64 {
        self.wall_ns.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn timing(&self, slots: &[Slot]) -> Timing {
        let ms = |per_pass: &Vec<u64>| {
            median(
                &per_pass
                    .iter()
                    .map(|&ns| ns as f64 / 1e6)
                    .collect::<Vec<_>>(),
            )
        };
        let mut latency: Vec<f64> = self.latency_ns.iter().map(ms).collect();
        let wait: Vec<f64> = self.wait_ns.iter().map(ms).collect();
        let class_wait = |class: Priority| {
            let mut v: Vec<f64> = wait
                .iter()
                .zip(slots)
                .filter(|(_, s)| s.class == class)
                .map(|(w, _)| *w)
                .collect();
            percentile_of(&mut v, 0.5)
        };
        let mut all_wait = wait.clone();
        all_wait.sort_by(f64::total_cmp);
        latency.sort_by(f64::total_cmp);
        let mut wall: Vec<f64> = self.wall_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        let quiet_wall = percentile_of(&mut wall, 0.25);
        let busy: Vec<f64> = self
            .busy_ns
            .iter()
            .zip(&self.wall_ns)
            .map(|(&busy, &wall)| ratio(busy as f64, self.workers as f64 * wall as f64))
            .collect();
        Timing {
            req_per_s: ratio(
                self.correct.iter().copied().min().unwrap_or(0) as f64,
                quiet_wall,
            ),
            lat_p50_ms: percentile(&latency, 0.5),
            lat_p99_ms: percentile(&latency, 0.99),
            wait_p50_ms: percentile(&all_wait, 0.5),
            wait_p99_ms: percentile(&all_wait, 0.99),
            wait_interactive_p50_ms: class_wait(Priority::Interactive),
            wait_batch_p50_ms: class_wait(Priority::Batch),
            busy_ratio: median(&busy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass_of(latencies_us: &[u64], wall_ms: u64) -> Pass<()> {
        Pass {
            served: latencies_us
                .iter()
                .map(|&us| {
                    Some(Served {
                        wait_ns: us * 400,
                        exec_ns: us * 600,
                        out: (),
                    })
                })
                .collect(),
            wall_ns: wall_ms * 1_000_000,
            wave_ns: Vec::new(),
            admitted: latencies_us.len() as u64,
            refused: 0,
            batches: 1,
            reconciles: true,
        }
    }

    #[test]
    fn one_disturbed_pass_moves_nothing() {
        let slots: Vec<Slot> = (0..4)
            .map(|i| Slot {
                tenant: 0,
                class: if i < 2 {
                    Priority::Interactive
                } else {
                    Priority::Batch
                },
            })
            .collect();
        let quiet = [1000, 2000, 3000, 4000];
        let mut m = Measured::new(4, 2);
        for _ in 0..4 {
            m.push(&pass_of(&quiet, 10), 4);
        }
        let before = m.timing(&slots);
        // A pass the host slowed tenfold.
        m.push(&pass_of(&quiet.map(|us| us * 10), 100), 4);
        let after = m.timing(&slots);
        assert_eq!(m.passes(), 5);
        assert_eq!(after.lat_p50_ms, 2.0);
        assert_eq!(after.lat_p99_ms, 4.0);
        assert_eq!(after.req_per_s, 400.0);
        assert_eq!(after.wait_interactive_p50_ms, 0.4);
        assert_eq!(after.wait_batch_p50_ms, 1.2);
        for (a, b) in [
            (before.lat_p50_ms, after.lat_p50_ms),
            (before.lat_p99_ms, after.lat_p99_ms),
            (before.req_per_s, after.req_per_s),
            (before.wait_p99_ms, after.wait_p99_ms),
        ] {
            assert_eq!(a, b);
        }
        assert!((m.seconds() - 0.14).abs() < 1e-9);
    }
}
