//! Bench-owned decorators on the public seams of the request path.
//!
//! Every layer is measured from outside: [`Probe`] wraps a
//! `LanguageModel` (grafted with `ModelStack::with_layer`, once above the
//! semantic cache and once below it) and [`CountingVfs`] wraps the
//! `MemVfs` under each tenant's store. Both pass straight through in
//! [`Mode::Off`], which is how measured passes run.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

use llmdm_model::prelude::*;
use llmdm_store::{MemVfs, StoreError, Vfs};

/// What the decorators do on each call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Delegate and nothing else (measured passes).
    Off = 0,
    /// Time and count (accounting pass, replica pass).
    Count = 1,
    /// Time, count and open a `perf.<layer>` span (traced pass).
    Trace = 2,
}

// One benchmark runs per process, so the mode is process-wide. Relaxed:
// it publishes no data, and it only changes between passes, when no
// worker thread exists.
static MODE: AtomicU8 = AtomicU8::new(Mode::Off as u8);

pub fn set_mode(mode: Mode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        0 => Mode::Off,
        1 => Mode::Count,
        _ => Mode::Trace,
    }
}

/// What the model probes saw on this thread since [`take_thread`] last
/// ran. A request executes on one worker thread, so resetting before it
/// and reading after it attributes model work to the request.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelAcc {
    /// Prompts that reached the top of the model stack.
    pub prompts: u64,
    /// Nanoseconds inside the stack, cache included.
    pub stack_ns: u64,
    /// Calls that went below the cache (misses).
    pub calls: u64,
    /// Nanoseconds below the cache (retry client + simulated model).
    pub model_ns: u64,
    /// Simulated latency of the completions the request waited for.
    pub sim_ns: u64,
    /// Tokens moved by the calls below the cache.
    pub tokens: u64,
}

impl ModelAcc {
    pub fn add(&mut self, o: &ModelAcc) {
        self.prompts += o.prompts;
        self.stack_ns += o.stack_ns;
        self.calls += o.calls;
        self.model_ns += o.model_ns;
        self.sim_ns += o.sim_ns;
        self.tokens += o.tokens;
    }
}

thread_local! {
    static ACC: Cell<ModelAcc> = const { Cell::new(ModelAcc {
        prompts: 0, stack_ns: 0, calls: 0, model_ns: 0, sim_ns: 0, tokens: 0,
    }) };
}

/// Return and clear this thread's model accounting.
pub fn take_thread() -> ModelAcc {
    ACC.with(Cell::take)
}

/// Where in the stack a [`Probe`] sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seat {
    /// Above the semantic cache: sees every prompt.
    Stack,
    /// Below the cache, above retry: sees only misses.
    Model,
}

/// A timing and counting `LanguageModel` decorator.
pub struct Probe {
    inner: Arc<dyn LanguageModel>,
    seat: Seat,
}

impl Probe {
    pub fn new(inner: Arc<dyn LanguageModel>, seat: Seat) -> Self {
        Probe { inner, seat }
    }
}

impl LanguageModel for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, req: &CompletionRequest) -> Result<Completion, ModelError> {
        let mode = mode();
        if mode == Mode::Off {
            return self.inner.complete(req);
        }
        let _span = (mode == Mode::Trace).then(|| {
            llmdm_obs::span(match self.seat {
                Seat::Stack => "perf.semcache",
                Seat::Model => "perf.model",
            })
        });
        let t0 = Instant::now();
        let out = self.inner.complete(req);
        let ns = t0.elapsed().as_nanos() as u64;
        ACC.with(|acc| {
            let mut a = acc.get();
            match self.seat {
                Seat::Stack => {
                    a.prompts += 1;
                    a.stack_ns += ns;
                    if let Ok(c) = &out {
                        a.sim_ns += c.latency.as_nanos() as u64;
                    }
                }
                Seat::Model => {
                    a.calls += 1;
                    a.model_ns += ns;
                    if let Ok(c) = &out {
                        a.tokens += c.usage.total() as u64;
                    }
                }
            }
            acc.set(a);
        });
        out
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
}

/// Device-level counts of one tenant's disk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VfsStats {
    pub calls: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub syncs: u64,
    pub ns: u64,
}

impl VfsStats {
    pub fn since(&self, earlier: &VfsStats) -> VfsStats {
        VfsStats {
            calls: self.calls - earlier.calls,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            syncs: self.syncs - earlier.syncs,
            ns: self.ns - earlier.ns,
        }
    }

    pub fn add(&mut self, o: &VfsStats) {
        self.calls += o.calls;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
        self.syncs += o.syncs;
        self.ns += o.ns;
    }
}

/// A `MemVfs` that counts bytes, syncs and time spent in it.
///
/// The disk is in memory on purpose: the benchmark measures the engine's
/// work per request, and a real device's flush time would swamp it with
/// noise that no change to this repository can move. What the device
/// would have been asked to do is reported as counts instead.
#[derive(Debug, Default)]
pub struct CountingVfs {
    pub disk: MemVfs,
    // `Vfs::read_at` takes `&self`; the store keeps the disk behind a
    // mutex, so a `Cell` is enough.
    stats: Cell<VfsStats>,
}

impl CountingVfs {
    pub fn stats(&self) -> VfsStats {
        self.stats.get()
    }
}

fn on_disk<T>(
    stats: &Cell<VfsStats>,
    read: usize,
    written: usize,
    sync: bool,
    f: impl FnOnce() -> T,
) -> T {
    let mode = mode();
    if mode == Mode::Off {
        return f();
    }
    let _span = (mode == Mode::Trace).then(|| llmdm_obs::span("perf.store.vfs"));
    let t0 = Instant::now();
    let out = f();
    let mut s = stats.get();
    s.calls += 1;
    s.bytes_read += read as u64;
    s.bytes_written += written as u64;
    s.syncs += u64::from(sync);
    s.ns += t0.elapsed().as_nanos() as u64;
    stats.set(s);
    out
}

impl Vfs for CountingVfs {
    fn read_at(&self, file: &str, offset: u64, len: usize) -> Vec<u8> {
        on_disk(&self.stats, len, 0, false, || {
            self.disk.read_at(file, offset, len)
        })
    }

    fn write_at(&mut self, file: &str, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        on_disk(&self.stats, 0, data.len(), false, || {
            self.disk.write_at(file, offset, data)
        })
    }

    fn truncate(&mut self, file: &str, len: u64) -> Result<(), StoreError> {
        on_disk(&self.stats, 0, 0, false, || self.disk.truncate(file, len))
    }

    fn sync(&mut self, file: &str) -> Result<(), StoreError> {
        on_disk(&self.stats, 0, 0, true, || self.disk.sync(file))
    }

    fn len(&self, file: &str) -> u64 {
        self.disk.len(file)
    }
}
