//! FIFO work queue and ordered result slots for corpus runs.
//!
//! The corpus driver keeps **one persistent team** of workers alive for
//! the whole run and feeds it through a [`WorkQueue`]: the producer (the
//! walker thread) pushes files in walk order while workers drain, and
//! whichever worker is free takes the oldest file. There is no batch
//! boundary at which the team idles, and no per-worker queue to balance.
//!
//! Determinism is preserved by separating *scheduling* from *output
//! order*: every unit carries the index of a preassigned cell in a
//! [`ResultSlots`], reserved by the producer in encounter order. Workers
//! complete cells in any order; the producer drains the filled prefix in
//! index order, so sinks and reports observe exactly the sequence the
//! walker produced, byte-identical across thread counts, completion
//! orders and batch-size choices.
//!
//! Both types are std-only: one `Mutex` around a `VecDeque` and one
//! `Condvar` each. The units are whole files, so queue overhead is
//! noise.

use crate::report::PoolMetrics;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// A FIFO queue shared by a producer and a team of workers.
///
/// `pop` takes the oldest unit, blocks while the queue is empty, and
/// returns `None` only after [`close`](WorkQueue::close) once the queue
/// has drained. Scheduler-health numbers ([`stats`](WorkQueue::stats))
/// are kept under the same lock, so untraced runs have them too.
pub(crate) struct WorkQueue<T> {
    workers: usize,
    state: Mutex<Queue<T>>,
    cond: Condvar,
}

struct Queue<T> {
    items: VecDeque<T>,
    closed: bool,
    /// High-water mark of `items.len()`.
    depth_max: u64,
    /// Nanoseconds workers spent blocked in `pop`, summed.
    idle_ns: u64,
}

impl<T> WorkQueue<T> {
    /// An empty queue for a team of `workers` (at least one).
    pub(crate) fn new(workers: usize) -> WorkQueue<T> {
        WorkQueue {
            workers: workers.max(1),
            state: Mutex::new(Queue {
                items: VecDeque::new(),
                closed: false,
                depth_max: 0,
                idle_ns: 0,
            }),
            cond: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Queue<T>> {
        // Nothing that can panic runs under this lock.
        self.state.lock().expect("work queue lock poisoned")
    }

    /// The scheduler-health numbers accumulated so far.
    pub(crate) fn stats(&self) -> PoolMetrics {
        let q = self.lock();
        PoolMetrics {
            workers: self.workers,
            idle_ns: q.idle_ns,
            queue_depth_max: q.depth_max,
        }
    }

    /// Append one unit and wake one waiting worker.
    pub(crate) fn push(&self, item: T) {
        let mut q = self.lock();
        q.items.push_back(item);
        q.depth_max = q.depth_max.max(q.items.len() as u64);
        self.cond.notify_one();
    }

    /// Declare the stream finished: blocked and future `pop`s return
    /// `None` once the queue drains.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.cond.notify_all();
    }

    /// Take the oldest unit, blocking while the queue is empty. Returns
    /// `None` when the queue is closed and empty.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut q = self.lock();
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            let blocked = Instant::now();
            q = self.cond.wait(q).expect("work queue lock poisoned");
            q.idle_ns += blocked.elapsed().as_nanos() as u64;
        }
    }
}

/// Preassigned, in-order result cells.
///
/// The producer [`reserve`](ResultSlots::reserve)s cells in encounter
/// order and hands each work unit its cell index; workers
/// [`set`](ResultSlots::set) cells as they finish, in any order. The
/// producer then drains the *filled prefix* — results come out exactly
/// in reservation order, whatever the completion order was, which is
/// what keeps corpus output byte-identical across thread counts.
pub(crate) struct ResultSlots<T> {
    inner: Mutex<Slots<T>>,
    cond: Condvar,
}

struct Slots<T> {
    /// Index of `cells[0]` in the global reservation sequence.
    base: usize,
    cells: VecDeque<Option<T>>,
}

impl<T> ResultSlots<T> {
    /// An empty slot sequence.
    pub(crate) fn new() -> ResultSlots<T> {
        ResultSlots {
            inner: Mutex::new(Slots {
                base: 0,
                cells: VecDeque::new(),
            }),
            cond: Condvar::new(),
        }
    }

    /// Reserve `n` consecutive cells; returns the index of the first.
    pub(crate) fn reserve(&self, n: usize) -> usize {
        let mut s = self.inner.lock().unwrap();
        let start = s.base + s.cells.len();
        s.cells.extend((0..n).map(|_| None));
        start
    }

    /// Fill cell `index` (reserved earlier; filled exactly once).
    pub(crate) fn set(&self, index: usize, value: T) {
        let mut s = self.inner.lock().unwrap();
        let i = index - s.base;
        debug_assert!(s.cells[i].is_none(), "result slot {index} filled twice");
        s.cells[i] = Some(value);
        self.cond.notify_all();
    }

    /// Pop the filled prefix without blocking (producer-side streaming
    /// drain between batches).
    pub(crate) fn drain_ready(&self) -> Vec<T> {
        let mut s = self.inner.lock().unwrap();
        s.take_ready()
    }

    /// Pop the filled prefix, blocking until the first reserved cell is
    /// filled (empty only when nothing is reserved).
    pub(crate) fn drain_next(&self) -> Vec<T> {
        let mut s = self.inner.lock().unwrap();
        while matches!(s.cells.front(), Some(None)) {
            s = self.cond.wait(s).unwrap();
        }
        s.take_ready()
    }

    /// Pop everything, blocking until every reserved cell is filled.
    pub(crate) fn drain_all(&self) -> Vec<T> {
        let mut s = self.inner.lock().unwrap();
        let mut out = Vec::new();
        loop {
            out.extend(s.take_ready());
            if s.cells.is_empty() {
                return out;
            }
            s = self.cond.wait(s).unwrap();
        }
    }
}

impl<T> Slots<T> {
    fn take_ready(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        while matches!(self.cells.front(), Some(Some(_))) {
            out.push(self.cells.pop_front().unwrap().unwrap());
            self.base += 1;
        }
        out
    }
}

/// Resolve a thread-count option: 0 means all available CPUs.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn queue_delivers_everything_once() {
        let q: WorkQueue<usize> = WorkQueue::new(4);
        let seen = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let (q, seen) = (&q, &seen);
            for _ in 0..4 {
                scope.spawn(move || {
                    while let Some(i) = q.pop() {
                        seen.lock().unwrap().push(i);
                    }
                });
            }
            for i in 0..200 {
                q.push(i);
            }
            q.close();
        });
        let mut got = seen.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_pops_in_push_order() {
        let q: WorkQueue<usize> = WorkQueue::new(1);
        for i in 0..50 {
            q.push(i);
        }
        q.close();
        let got: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q: WorkQueue<u32> = WorkQueue::new(1);
        let got = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while let Some(v) = q.pop() {
                    got.fetch_add(v as usize, Ordering::SeqCst);
                }
                done.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.push(7);
            q.push(5);
            q.close();
        });
        assert_eq!(got.load(Ordering::SeqCst), 12);
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn result_slots_reorder_out_of_order_completions() {
        let slots: ResultSlots<&str> = ResultSlots::new();
        assert_eq!(slots.reserve(3), 0);
        slots.set(2, "c");
        assert!(slots.drain_ready().is_empty(), "prefix not filled yet");
        slots.set(0, "a");
        assert_eq!(slots.drain_ready(), ["a"], "only the filled prefix");
        assert_eq!(slots.reserve(1), 3, "indices keep counting after drain");
        slots.set(1, "b");
        slots.set(3, "d");
        assert_eq!(slots.drain_all(), ["b", "c", "d"]);
    }

    #[test]
    fn drain_next_waits_for_the_first_cell_only() {
        let slots: ResultSlots<usize> = ResultSlots::new();
        assert!(slots.drain_next().is_empty(), "nothing reserved");
        slots.reserve(3);
        slots.set(1, 1);
        let got = std::thread::scope(|scope| {
            let h = scope.spawn(|| slots.drain_next());
            slots.set(0, 0);
            h.join().unwrap()
        });
        assert_eq!(got, [0, 1], "the filled prefix, not the open cell 2");
        slots.set(2, 2);
        assert_eq!(slots.drain_next(), [2]);
    }

    #[test]
    fn drain_all_waits_for_stragglers() {
        let slots: ResultSlots<usize> = ResultSlots::new();
        slots.reserve(10);
        let out = std::thread::scope(|scope| {
            let h = scope.spawn(|| slots.drain_all());
            for i in (0..10).rev() {
                slots.set(i, i * i);
            }
            h.join().unwrap()
        });
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn stats_track_queue_depth() {
        let q: WorkQueue<usize> = WorkQueue::new(4);
        for i in 0..30 {
            q.push(i);
        }
        for _ in 0..10 {
            q.pop();
        }
        for i in 0..5 {
            q.push(i);
        }
        // Depth peaked at 30 before the pops; 25 are queued now.
        let stats = q.stats();
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.queue_depth_max, 30);
        assert_eq!(stats.idle_ns, 0, "nothing ever blocked");
    }

    #[test]
    fn blocked_pop_accrues_idle_time() {
        let q: WorkQueue<u32> = WorkQueue::new(1);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _ = q.pop();
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.push(1);
            q.close();
        });
        let stats = q.stats();
        assert!(stats.idle_ns > 0, "{stats:?}");
        let frac = stats.idle_frac(1.0);
        assert!(frac > 0.0 && frac <= 1.0, "{frac}");
        assert_eq!(stats.idle_frac(0.0), 0.0);
    }

    #[test]
    fn resolve_threads_zero_means_all_cpus() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
