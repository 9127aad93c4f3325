//! [`QosQueue`] — the serving layer's one queue: bounded,
//! priority-classed, weighted-fair.
//!
//! One backlog per [`Priority`] class behind a single mutex + condvar.
//! Producers never block: a full queue rejects (admission control).
//! Consumers pop *batches*: the queue picks which class to serve by
//! **credit-based weighted round-robin** (credits = class weights,
//! refreshed when every backlogged class is out), then coalesces up to
//! `max` same-`batch_key` items from that class's backlog, preserving
//! relative order among the rest. With a single class in use this is
//! plain FIFO with same-key coalescing.
//!
//! Properties the scheduler and the property tests rely on:
//!
//! * **Deterministic service order.** Class choice is a pure function of
//!   the queue state and the credit counters, both mutated only under
//!   the lock — the *sequence* of batches handed out is identical at any
//!   consumer count (which consumer gets each batch is racy; result
//!   slotting makes that invisible).
//! * **Weighted fairness.** With every class backlogged, batches are
//!   served 4:2:1 (Interactive:Standard:Batch).
//! * **Starvation freedom.** Any nonempty class is served at least once
//!   within any `sum(weights)` consecutive pops: credits bound how long
//!   higher classes can monopolize the consumer.
//! * **Shed order.** [`QosQueue::evict_lowest`] removes the *youngest*
//!   item of the *lowest* backlogged class — the load-shedding hook.

use std::sync::{Condvar, Mutex, MutexGuard};

use crate::queue::ServeError;
use crate::tenant::Priority;

/// An item schedulable by the QoS queue: it knows its priority class
/// and its micro-batching key.
pub trait QosItem {
    /// The priority class the weighted-fair dequeue serves by.
    fn priority(&self) -> Priority;
    /// The coalescing key: only items with equal keys share a dispatch.
    fn batch_key(&self) -> &str;
}

const CLASSES: usize = 3;

fn weights() -> [u32; CLASSES] {
    let mut w = [0; CLASSES];
    for p in Priority::all() {
        w[p.rank()] = p.weight();
    }
    w
}

struct Inner<T> {
    queues: [std::collections::VecDeque<T>; CLASSES],
    credits: [u32; CLASSES],
    len: usize,
    closed: bool,
}

impl<T: QosItem> Inner<T> {
    /// Pick the class the next batch is served from, spending one
    /// credit. Scan order is highest priority first; when every
    /// backlogged class is out of credits, refresh all credits from the
    /// weights and rescan. Callers guarantee `len > 0`.
    fn pick_class(&mut self) -> usize {
        for pass in 0..2 {
            if pass == 1 {
                self.credits = weights();
            }
            if let Some(c) =
                (0..CLASSES).find(|&c| !self.queues[c].is_empty() && self.credits[c] > 0)
            {
                self.credits[c] -= 1;
                return c;
            }
        }
        unreachable!("pick_class called on an empty queue");
    }
}

/// A bounded, priority-classed queue with weighted-fair batch dequeue.
pub struct QosQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> std::fmt::Debug for QosQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QosQueue").field("capacity", &self.capacity).finish()
    }
}

impl<T: QosItem> QosQueue<T> {
    /// A queue admitting at most `capacity` items at a time (clamped to
    /// ≥ 1).
    pub fn new(capacity: usize) -> Self {
        QosQueue {
            inner: Mutex::new(Inner {
                queues: Default::default(),
                credits: weights(),
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        llmdm_rt::lock_recover(&self.inner)
    }

    /// The configured high-water mark.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total queued items across classes.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether every class backlog is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue at the back of the item's class. Rejects (never blocks)
    /// at capacity with a deterministic depth-scaled retry hint, or with
    /// [`ServeError::Closed`] after close.
    pub fn try_push(&self, item: T) -> Result<(), ServeError> {
        let mut g = self.lock();
        if g.closed {
            return Err(ServeError::Closed);
        }
        if g.len >= self.capacity {
            let depth = g.len;
            return Err(ServeError::Rejected { depth, retry_after_ms: 5 * depth as u64 });
        }
        let rank = item.priority().rank();
        g.queues[rank].push_back(item);
        g.len += 1;
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// The lowest-priority class with queued work, if any.
    pub fn lowest_backlogged(&self) -> Option<Priority> {
        let g = self.lock();
        Priority::all().into_iter().rev().find(|p| !g.queues[p.rank()].is_empty())
    }

    /// Remove and return the **youngest** item of the lowest backlogged
    /// class — the deterministic load-shedding victim. `None` when
    /// empty.
    pub fn evict_lowest(&self) -> Option<T> {
        let mut g = self.lock();
        for c in (0..CLASSES).rev() {
            if let Some(item) = g.queues[c].pop_back() {
                g.len -= 1;
                return Some(item);
            }
        }
        None
    }

    /// Close the queue: producers fail with [`ServeError::Closed`],
    /// consumers drain the remainder and then observe end-of-stream.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Blocking weighted-fair batch pop: wait for work, pick the
    /// serving class by credit WRR, then coalesce up to `max`
    /// same-`batch_key` items from that class (front item decides the
    /// key; non-matching items keep their relative order). `None` means
    /// closed-and-drained.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<T>> {
        let max = max.max(1);
        let mut g = self.lock();
        loop {
            if g.len > 0 {
                let class = g.pick_class();
                let first = g.queues[class].pop_front().expect("picked class is nonempty");
                g.len -= 1;
                let mut batch = Vec::with_capacity(max);
                let mut i = 0;
                while batch.len() + 1 < max && i < g.queues[class].len() {
                    if g.queues[class][i].batch_key() == first.batch_key() {
                        let item = g.queues[class].remove(i).expect("index checked");
                        g.len -= 1;
                        batch.push(item);
                    } else {
                        i += 1;
                    }
                }
                batch.insert(0, first);
                return Some(batch);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Item {
        p: Priority,
        key: &'static str,
        n: u64,
    }

    impl QosItem for Item {
        fn priority(&self) -> Priority {
            self.p
        }
        fn batch_key(&self) -> &str {
            self.key
        }
    }

    fn item(p: Priority, key: &'static str, n: u64) -> Item {
        Item { p, key, n }
    }

    #[test]
    fn single_class_is_fifo_with_key_coalescing() {
        let q = QosQueue::new(16);
        for (key, n) in [("a", 1), ("b", 2), ("a", 3), ("a", 4), ("b", 5)] {
            q.try_push(item(Priority::Standard, key, n)).unwrap();
        }
        q.close();
        let b1: Vec<u64> = q.pop_batch(8).unwrap().into_iter().map(|i| i.n).collect();
        assert_eq!(b1, vec![1, 3, 4], "same-key items coalesce across gaps");
        let b2: Vec<u64> = q.pop_batch(8).unwrap().into_iter().map(|i| i.n).collect();
        assert_eq!(b2, vec![2, 5]);
        assert!(q.pop_batch(8).is_none());

        // `max` caps a batch even when more same-key items are queued.
        let q = QosQueue::new(16);
        for n in 0..6 {
            q.try_push(item(Priority::Standard, "a", n)).unwrap();
        }
        q.close();
        assert_eq!(q.pop_batch(4).unwrap().len(), 4);
        assert_eq!(q.pop_batch(4).unwrap().len(), 2);
    }

    #[test]
    fn weighted_fair_service_ratio() {
        // 40 items per class, batch size 1: the first 7 pops must follow
        // the 4:2:1 credit pattern, and the full drain serves everything.
        let q = QosQueue::new(1024);
        for n in 0..40 {
            for p in Priority::all() {
                q.try_push(item(p, p.label(), n)).unwrap();
            }
        }
        q.close();
        let mut order = Vec::new();
        while let Some(b) = q.pop_batch(1) {
            assert_eq!(b.len(), 1);
            order.push(b[0].p);
        }
        assert_eq!(order.len(), 120);
        use Priority::*;
        assert_eq!(
            &order[..7],
            &[Interactive, Interactive, Interactive, Interactive, Standard, Standard, Batch],
            "first round must follow the 4:2:1 credit schedule"
        );
        // Fairness over the whole run: within any 7-pop window while all
        // classes are backlogged, Batch is served exactly once.
        let backlogged_rounds = 40 / 4; // interactive drains last among the first…
        for w in 0..backlogged_rounds {
            let window = &order[w * 7..w * 7 + 7];
            assert_eq!(window.iter().filter(|p| **p == Batch).count(), 1, "window {w}");
        }
    }

    #[test]
    fn starvation_freedom_bound() {
        // Batch work is enqueued behind heavy Interactive pressure: it
        // must be served within sum(weights) pops.
        let q = QosQueue::new(1024);
        q.try_push(item(Priority::Batch, "bg", 0)).unwrap();
        for n in 0..100 {
            q.try_push(item(Priority::Interactive, "fg", n)).unwrap();
        }
        q.close();
        let bound = Priority::all().iter().map(|p| p.weight() as usize).sum::<usize>();
        let mut pops = 0;
        loop {
            let b = q.pop_batch(1).expect("batch item still queued");
            pops += 1;
            if b[0].p == Priority::Batch {
                break;
            }
            assert!(pops <= bound, "batch-class item starved past {bound} pops");
        }
    }

    #[test]
    fn evict_lowest_takes_youngest_of_lowest_class() {
        let q = QosQueue::new(16);
        q.try_push(item(Priority::Interactive, "a", 1)).unwrap();
        q.try_push(item(Priority::Batch, "b", 2)).unwrap();
        q.try_push(item(Priority::Batch, "b", 3)).unwrap();
        assert_eq!(q.lowest_backlogged(), Some(Priority::Batch));
        assert_eq!(q.evict_lowest().unwrap().n, 3, "youngest batch-class item goes first");
        assert_eq!(q.evict_lowest().unwrap().n, 2);
        assert_eq!(q.lowest_backlogged(), Some(Priority::Interactive));
        assert_eq!(q.evict_lowest().unwrap().n, 1);
        assert!(q.evict_lowest().is_none());
        assert_eq!(q.lowest_backlogged(), None);
    }

    #[test]
    fn capacity_rejects_with_depth_hint() {
        let q = QosQueue::new(2);
        q.try_push(item(Priority::Standard, "a", 1)).unwrap();
        q.try_push(item(Priority::Interactive, "a", 2)).unwrap();
        match q.try_push(item(Priority::Batch, "a", 3)) {
            Err(ServeError::Rejected { depth, retry_after_ms }) => {
                assert_eq!(depth, 2);
                assert_eq!(retry_after_ms, 10);
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn closed_queue_rejects_pushes_and_drains() {
        let q = QosQueue::new(4);
        q.try_push(item(Priority::Standard, "a", 1)).unwrap();
        q.close();
        assert_eq!(q.try_push(item(Priority::Standard, "a", 2)), Err(ServeError::Closed));
        assert_eq!(q.pop_batch(4).unwrap()[0].n, 1, "queued work survives close");
        assert!(q.pop_batch(4).is_none());
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        // 4 producers × 4 consumers over every class and two keys: each
        // of the 400 items is popped exactly once.
        let q = QosQueue::new(1024);
        let producers_done = std::sync::Barrier::new(5);
        let mut popped: Vec<u64> = std::thread::scope(|s| {
            for t in 0..4u64 {
                let (q, producers_done) = (&q, &producers_done);
                s.spawn(move || {
                    for i in 0..100u64 {
                        let p = Priority::all()[(i % 3) as usize];
                        let key = if i % 2 == 0 { "even" } else { "odd" };
                        q.try_push(item(p, key, t * 100 + i)).unwrap();
                    }
                    producers_done.wait();
                });
            }
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let q = &q;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(batch) = q.pop_batch(3) {
                            got.extend(batch.into_iter().map(|i| i.n));
                        }
                        got
                    })
                })
                .collect();
            // Consumers drain while producers push; close only after the
            // last push so none of them sees end-of-stream early.
            producers_done.wait();
            q.close();
            consumers.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        popped.sort_unstable();
        assert_eq!(popped, (0..400).collect::<Vec<u64>>());
    }

    #[test]
    fn higher_class_served_first_when_credits_fresh() {
        let q = QosQueue::new(16);
        q.try_push(item(Priority::Batch, "bg", 1)).unwrap();
        q.try_push(item(Priority::Interactive, "fg", 2)).unwrap();
        q.close();
        assert_eq!(q.pop_batch(4).unwrap()[0].n, 2, "interactive preempts batch");
        assert_eq!(q.pop_batch(4).unwrap()[0].n, 1);
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = std::sync::Arc::new(QosQueue::<Item>::new(4));
        std::thread::scope(|s| {
            let q2 = q.clone();
            let h = s.spawn(move || q2.pop_batch(2).map(|b| b[0].n));
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.try_push(item(Priority::Standard, "a", 42)).unwrap();
            assert_eq!(h.join().unwrap(), Some(42));
        });
    }
}
