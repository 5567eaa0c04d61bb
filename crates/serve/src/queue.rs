//! The bounded job queue between the submit path and a shard worker under
//! `ShedOldest` backpressure.
//!
//! `std::sync::mpsc` almost fits, but two fault-tolerance requirements rule
//! it out: `ShedOldest` must evict the *oldest queued* job from the sender
//! side, and jobs already queued must survive a worker panic so the
//! restarted worker can take over the backlog (an mpsc `Receiver` dies with
//! the thread that owns it). This is the classic bounded buffer instead —
//! one mutex, one condvar (the producer never waits: a full queue evicts) —
//! with explicit lifecycle flags:
//!
//! * `closed` — set by the engine at shutdown; the worker drains what is
//!   queued and then sees `None` from [`JobQueue::pop_block`].
//! * `dead` — set by the worker thread's [`DeathWatch`] guard if the
//!   supervisor itself dies (it should never: every detector panic is
//!   caught and handled). A dead queue refuses pushes instead of growing a
//!   backlog nobody will ever drain.

use crate::shard::Job;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

#[derive(Debug)]
struct Inner {
    jobs: VecDeque<Job>,
    closed: bool,
    dead: bool,
}

/// Bounded MPSC job queue with sender-side eviction; see the module docs.
#[derive(Debug)]
pub(crate) struct JobQueue {
    inner: Mutex<Inner>,
    capacity: usize,
    not_empty: Condvar,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                jobs: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
                dead: false,
            }),
            capacity,
            not_empty: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // The queue's own critical sections cannot panic, so poisoning can
        // only be inherited noise; proceed with the data either way.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Always-admitting push (`ShedOldest` backpressure): when full, the
    /// oldest queued job is evicted and returned so the caller can account
    /// for it. `Err` on a dead or closed queue: enqueuing would be a silent
    /// loss.
    pub(crate) fn push_shed_oldest(&self, job: Job) -> Result<Option<Job>, ()> {
        let mut inner = self.lock();
        if inner.dead || inner.closed {
            return Err(());
        }
        let evicted = if inner.jobs.len() >= self.capacity {
            inner.jobs.pop_front()
        } else {
            None
        };
        inner.jobs.push_back(job);
        drop(inner);
        self.not_empty.notify_one();
        Ok(evicted)
    }

    /// Blocks for the next job; `None` once the queue is closed *and*
    /// drained (the graceful-shutdown signal).
    pub(crate) fn pop_block(&self) -> Option<Job> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking pop; production drains go through
    /// [`pop_batch`](Self::pop_batch) instead.
    #[cfg(test)]
    pub(crate) fn try_pop(&self) -> Option<Job> {
        self.lock().jobs.pop_front()
    }

    /// Current queue length.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Non-blocking pop of up to `max` jobs under one lock acquisition,
    /// appended to `out`; the queue-channel counterpart of the ring's batch
    /// pop.
    pub(crate) fn pop_batch(&self, out: &mut Vec<Job>, max: usize) -> usize {
        let mut inner = self.lock();
        let n = max.min(inner.jobs.len());
        out.extend(inner.jobs.drain(..n));
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
    use std::time::Instant;

    fn job(seq: u64) -> Job {
        Job {
            seq,
            point: vec![seq as f64],
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn fifo_order_and_close_drain() {
        let q = JobQueue::new(4);
        for s in 0..3 {
            q.push_shed_oldest(job(s)).unwrap();
        }
        q.close();
        assert_eq!(q.pop_block().unwrap().seq, 0);
        assert_eq!(q.pop_block().unwrap().seq, 1);
        assert_eq!(q.pop_block().unwrap().seq, 2);
        assert!(q.pop_block().is_none(), "closed and drained");
    }

    #[test]
    fn shed_oldest_evicts_front() {
        let q = JobQueue::new(2);
        assert!(q.push_shed_oldest(job(0)).unwrap().is_none());
        assert!(q.push_shed_oldest(job(1)).unwrap().is_none());
        let evicted = q.push_shed_oldest(job(2)).unwrap().unwrap();
        assert_eq!(evicted.seq, 0, "oldest job is the one shed");
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_pop().unwrap().seq, 1);
        assert_eq!(q.try_pop().unwrap().seq, 2);
    }

    #[test]
    fn dead_queue_refuses_pushes() {
        let q = JobQueue::new(1);
        q.push_shed_oldest(job(0)).unwrap();
        q.mark_dead();
        assert!(q.push_shed_oldest(job(1)).is_err());
        assert_eq!(q.len(), 1, "a refused push evicts nothing");
    }

    #[test]
    fn queued_jobs_survive_for_a_new_consumer() {
        // The restart story: jobs enqueued before a worker panic are still
        // there for whoever picks the queue back up.
        let q = JobQueue::new(8);
        q.push_shed_oldest(job(7)).unwrap();
        q.push_shed_oldest(job(8)).unwrap();
        // (No consumer existed yet; a restarted one simply pops.)
        assert_eq!(q.pop_block().unwrap().seq, 7);
        assert_eq!(q.pop_block().unwrap().seq, 8);
    }
}
