//! The bounded row queue between the submit path and a shard worker under
//! `ShedOldest` backpressure.
//!
//! `std::sync::mpsc` almost fits, but two fault-tolerance requirements rule
//! it out: `ShedOldest` must evict the *oldest queued* row from the sender
//! side, and rows already queued must survive a worker panic so the
//! restarted worker can take over the backlog (an mpsc `Receiver` dies with
//! the thread that owns it). This is the classic bounded buffer instead —
//! one mutex, one condvar (the producer never waits: a full queue evicts) —
//! with explicit lifecycle flags:
//!
//! * `closed` — set by the engine at shutdown; the worker drains what is
//!   queued and then sees `false` from [`JobQueue::wait`].
//! * `dead` — set by the worker thread's [`DeathWatch`] guard if the
//!   supervisor itself dies (it should never: every detector panic is
//!   caught and handled). A dead queue refuses pushes instead of growing a
//!   backlog nobody will ever drain.
//!
//! Rows are stored flat, like the ring's arena: `dim` values a row in one
//! buffer, their `(seq, enqueued)` in another. A push copies a whole staged
//! group in under one lock, and a pop copies up to `max` rows out into the
//! worker's [`RowBlock`] under one lock (the ring lends its rows in place
//! instead; a queue shared with evicting producers cannot).
//!
//! [`DeathWatch`]: crate::ring::DeathWatch

use crate::ring::RowBlock;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

#[derive(Debug)]
struct Inner {
    /// Queued rows back to back, oldest first: `meta.len() × dim` values.
    values: VecDeque<f64>,
    /// Sequence number and enqueue stamp of each queued row, oldest first.
    meta: VecDeque<(u64, Instant)>,
    closed: bool,
    dead: bool,
}

/// Bounded MPSC row queue with sender-side eviction; see the module docs.
#[derive(Debug)]
pub(crate) struct JobQueue {
    inner: Mutex<Inner>,
    capacity: usize,
    dim: usize,
    not_empty: Condvar,
}

impl JobQueue {
    /// A queue of at most `capacity` rows of `dim` values.
    pub(crate) fn new(capacity: usize, dim: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                values: VecDeque::new(),
                meta: VecDeque::new(),
                closed: false,
                dead: false,
            }),
            capacity,
            dim,
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // The queue's own critical sections cannot panic, so poisoning can
        // only be inherited noise; proceed with the data either way.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Always-admitting push (`ShedOldest` backpressure) of every row of
    /// `rows` (row-major, one row per entry of `seqs`), all stamped
    /// `enqueued`: while full, the oldest queued row is evicted and its
    /// sequence number appended to `evicted` so the caller can account for
    /// it. `Err` on a dead or closed queue, with nothing pushed: enqueuing
    /// would be a silent loss.
    pub(crate) fn push_shed_oldest(
        &self,
        rows: &[f64],
        seqs: &[u64],
        enqueued: Instant,
        evicted: &mut Vec<u64>,
    ) -> Result<(), ()> {
        let dim = self.dim;
        let mut inner = self.lock();
        if inner.dead || inner.closed {
            return Err(());
        }
        for (i, &seq) in seqs.iter().enumerate() {
            if inner.meta.len() >= self.capacity {
                let (old, _) = inner.meta.pop_front().expect("a full queue is non-empty");
                inner.values.drain(..dim);
                evicted.push(old);
            }
            inner.values.extend(&rows[i * dim..(i + 1) * dim]);
            inner.meta.push_back((seq, enqueued));
        }
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until a row is queued (`true`), or the queue is closed *and*
    /// drained (`false`, the graceful-shutdown signal).
    pub(crate) fn wait(&self) -> bool {
        let mut inner = self.lock();
        loop {
            if !inner.meta.is_empty() {
                return true;
            }
            if inner.closed {
                return false;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Current queue length in rows.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().meta.len()
    }

    /// Non-blocking pop of up to `max` rows under one lock acquisition,
    /// appended to `out`; the queue-channel counterpart of the ring's batch
    /// pop.
    pub(crate) fn pop_batch(&self, out: &mut RowBlock, max: usize) -> usize {
        let mut inner = self.lock();
        let n = max.min(inner.meta.len());
        out.values.extend(inner.values.drain(..n * self.dim));
        for (seq, enqueued) in inner.meta.drain(..n) {
            out.seqs.push(seq);
            out.stamps.push(enqueued);
        }
        n
    }

    /// Shutdown signal: the worker drains the backlog, then exits.
    pub(crate) fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }

    /// Declares the consumer gone for good; future pushes fail instead of
    /// feeding a drain that will never come.
    pub(crate) fn mark_dead(&self) {
        let mut inner = self.lock();
        inner.dead = true;
        drop(inner);
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIM: usize = 2;

    fn row_of(seq: u64) -> [f64; DIM] {
        [seq as f64, -(seq as f64) - 0.5]
    }

    fn push(q: &JobQueue, seqs: &[u64]) -> Result<Vec<u64>, ()> {
        let rows: Vec<f64> = seqs.iter().flat_map(|&s| row_of(s)).collect();
        let mut evicted = Vec::new();
        q.push_shed_oldest(&rows, seqs, Instant::now(), &mut evicted)?;
        Ok(evicted)
    }

    /// Pops up to `max` rows, checking each against its sequence number.
    fn pop(q: &JobQueue, max: usize) -> Vec<u64> {
        let mut block = RowBlock::default();
        q.pop_batch(&mut block, max);
        for (row, &seq) in block.values.chunks_exact(DIM).zip(&block.seqs) {
            assert_eq!(row, row_of(seq), "row of seq {seq} damaged");
        }
        block.seqs
    }

    #[test]
    fn fifo_order_and_close_drain() {
        let q = JobQueue::new(4, DIM);
        assert_eq!(push(&q, &[0, 1, 2]), Ok(vec![]));
        q.close();
        for s in 0..3 {
            assert!(q.wait());
            assert_eq!(pop(&q, 1), vec![s]);
        }
        assert!(!q.wait(), "closed and drained");
    }

    #[test]
    fn shed_oldest_evicts_front() {
        let q = JobQueue::new(2, DIM);
        assert_eq!(push(&q, &[0, 1]), Ok(vec![]));
        assert_eq!(push(&q, &[2]), Ok(vec![0]), "oldest row is the one shed");
        assert_eq!(q.len(), 2);
        assert_eq!(pop(&q, 1), vec![1]);
        assert_eq!(
            push(&q, &[3, 4, 5]),
            Ok(vec![2, 3]),
            "a group evicts in order"
        );
        assert_eq!(pop(&q, 8), vec![4, 5]);
    }

    #[test]
    fn dead_queue_refuses_pushes() {
        let q = JobQueue::new(1, DIM);
        push(&q, &[0]).unwrap();
        q.mark_dead();
        assert!(push(&q, &[1]).is_err());
        assert_eq!(q.len(), 1, "a refused push evicts nothing");
    }

    #[test]
    fn queued_jobs_survive_for_a_new_consumer() {
        // The restart story: rows enqueued before a worker panic are still
        // there for whoever picks the queue back up.
        let q = JobQueue::new(8, DIM);
        push(&q, &[7, 8]).unwrap();
        // (No consumer existed yet; a restarted one simply pops.)
        assert!(q.wait());
        assert_eq!(pop(&q, 8), vec![7, 8]);
    }
}
