//! The lock-free fast path between the submit side and a shard worker: a
//! bounded single-producer/single-consumer ring with per-slot sequence
//! counters, plus the [`ShardChannel`] façade that lets the engine fall
//! back to the condvar [`JobQueue`] where sender-side eviction is needed.
//!
//! ## Why two channels
//!
//! [`JobQueue`] (one mutex, one condvar) takes a lock per job on both sides
//! and wakes the peer through a condvar. At millions of points per second
//! those two costs dominate the submit path. The ring replaces them with
//! two atomic operations per slot and no syscalls in the common case;
//! waiting sides spin briefly, then yield, then park on a timeout — no
//! wakeup protocol, so neither side ever takes a lock.
//!
//! The channel follows the backpressure policy alone: `Block` and
//! `DropNewest` run on the ring, `ShedOldest` on the queue (evicting the
//! *oldest queued* job from the sender side needs shared access to the
//! buffer interior, which the SPSC discipline forbids).
//!
//! ## Memory-ordering contract
//!
//! Positions are unbounded `u64`s; slot index is `pos & (capacity − 1)`
//! (capacity is a power of two, ≥ 2). Each slot carries a sequence counter
//! `seq` encoding its lap state:
//!
//! * `seq == pos`       — free: the producer may claim it for position `pos`.
//! * `seq == pos + 1`   — full: the job pushed at `pos` is visible to the
//!   consumer.
//! * consuming stores `seq = pos + capacity`, re-arming the slot for the
//!   producer's next lap.
//!
//! The producer claims with an `Acquire` load of `seq` (so the previous
//! lap's consume — including the payload move-out — happened-before the new
//! write), writes the payload, then publishes with a `Release` store of
//! `pos + 1`. The consumer mirrors it: `Acquire` load sees the payload,
//! move-out, `Release` store of `pos + capacity`. The `head`/`tail` cursors
//! are each written by exactly one side; the consumer's `head` store is
//! `Release` and the producer's batch-reservation `head` load is `Acquire`,
//! so a reservation of `capacity − (tail − head)` slots proves every slot in
//! the claimed range finished its previous lap (a stale `head` only
//! *under*-estimates free space, never over-claims).
//!
//! Lifecycle mirrors [`JobQueue`]: `closed` means drain-and-exit for the
//! consumer and refuse for the producer; `dead` (set by [`DeathWatch`] if
//! the worker thread dies) makes pushes fail instead of spinning forever.

#![allow(unsafe_code)]

use crate::queue::JobQueue;
use crate::shard::Job;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why a single-job push did not enqueue; the job is handed back. The
/// engine only ever pushes batches, so the single-job API (and this error)
/// exists for the unit and stress tests that drive the slot protocol one
/// job at a time.
#[cfg(test)]
#[derive(Debug)]
pub(crate) enum PushError {
    /// The ring is at capacity.
    Full(Job),
    /// The ring is dead or closed: enqueuing would be a silent loss or an
    /// eternal spin.
    Dead(Job),
}

/// Keeps the producer and consumer cursors on separate cache lines so the
/// two sides do not false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Slot {
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<Job>>,
}

/// Bounded SPSC ring; see the module docs for the slot-sequence protocol.
///
/// # Invariants (upheld by the engine, not the type system)
///
/// At most one thread pushes at a time and at most one thread pops at a
/// time (the shard's worker thread; a restarted worker is the *same*
/// thread, so the discipline survives panics). The engine's one submit path
/// satisfies the producer side: every submission holds the engine's `&mut
/// self` for its whole duration, and within it the producer lanes partition
/// shards by ownership — lane `p` of `P` is the unique pusher for every
/// shard `s` with `s % P == p` (a single lane is the calling thread), so
/// each ring sees exactly one producer thread for the whole scoped region.
/// Lanes are joined (scope exit) before the next submission may push, and
/// the join's happens-before edge hands the producer cursor on.
///
/// `close` / `mark_dead` / `len` are safe from any thread.
pub(crate) struct SpscRing {
    slots: Box<[Slot]>,
    mask: u64,
    capacity: u64,
    /// Producer cursor: the next position a push claims.
    tail: CachePadded<AtomicU64>,
    /// Consumer cursor: the next position a pop reads.
    head: CachePadded<AtomicU64>,
    closed: AtomicBool,
    dead: AtomicBool,
}

// SAFETY: the UnsafeCell payload is only touched under the slot-sequence
// protocol above — a slot is written only while `seq == pos` (excluding the
// consumer, which waits for `pos + 1`) and read only while `seq == pos + 1`
// (excluding the producer, which waits for the next lap's `pos`). The
// Acquire/Release pairs on `seq` order the payload accesses.
unsafe impl Send for SpscRing {}
unsafe impl Sync for SpscRing {}

/// Spin → yield → park escalation for the waiting side. No unpark pairing:
/// parks are timeout-bounded, so a peer never needs to signal.
struct Backoff(u32);

impl Backoff {
    fn new() -> Self {
        Self(0)
    }

    fn snooze(&mut self) {
        if self.0 < 6 {
            for _ in 0..(1u32 << self.0) {
                std::hint::spin_loop();
            }
        } else if self.0 < 12 {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(Duration::from_micros(100));
        }
        self.0 = (self.0 + 1).min(16);
    }
}

impl SpscRing {
    /// A ring holding at least `capacity` jobs (rounded up to a power of
    /// two, minimum 2 — with one slot the "free for this lap" and "full
    /// from last lap" sequence values coincide).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(2) as u64;
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicU64::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            mask: capacity - 1,
            capacity,
            tail: CachePadded(AtomicU64::new(0)),
            head: CachePadded(AtomicU64::new(0)),
            closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        }
    }

    /// Non-blocking push (producer side only).
    #[cfg(test)]
    pub(crate) fn try_push(&self, job: Job) -> Result<(), PushError> {
        if self.dead.load(Ordering::Acquire) || self.closed.load(Ordering::Acquire) {
            return Err(PushError::Dead(job));
        }
        let pos = self.tail.0.load(Ordering::Relaxed);
        let slot = &self.slots[(pos & self.mask) as usize];
        if slot.seq.load(Ordering::Acquire) != pos {
            return Err(PushError::Full(job));
        }
        // SAFETY: `seq == pos` means the slot finished its previous lap
        // (Acquire above pairs with the consumer's Release), and only this
        // producer can claim position `pos`.
        unsafe { (*slot.value.get()).write(job) };
        slot.seq.store(pos + 1, Ordering::Release);
        self.tail.0.store(pos + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Blocking push: spins/parks while full, fails only on a dead or closed
    /// ring.
    #[cfg(test)]
    pub(crate) fn push_block(&self, mut job: Job) -> Result<(), PushError> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_push(job) {
                Ok(()) => return Ok(()),
                Err(PushError::Full(j)) => {
                    job = j;
                    backoff.snooze();
                }
                Err(PushError::Dead(job)) => return Err(PushError::Dead(job)),
            }
        }
    }

    /// One reservation per call: claims `min(jobs.len(), free)` contiguous
    /// slots and moves that many jobs from the front of `jobs` into them.
    /// Returns the number pushed (0 when full); `Err` on a dead or closed
    /// ring with `jobs` untouched.
    pub(crate) fn try_push_batch(&self, jobs: &mut VecDeque<Job>) -> Result<u64, ()> {
        if self.dead.load(Ordering::Acquire) || self.closed.load(Ordering::Acquire) {
            return Err(());
        }
        let tail = self.tail.0.load(Ordering::Relaxed);
        // Acquire pairs with the consumer's Release store of `head`: every
        // slot the reservation covers observably finished its previous lap.
        // The subtraction saturates because a stale `head` can lag by more
        // than a full lap: `pop_batch` re-arms slots (seq stores) before its
        // single deferred `head` store, and `try_push` admits into re-armed
        // slots on seq alone, so `tail − head` can legitimately exceed
        // `capacity` here. Saturating to zero free slots just makes the
        // caller retry after the cursor store lands.
        let head = self.head.0.load(Ordering::Acquire);
        let free = self.capacity.saturating_sub(tail - head);
        let n = free.min(jobs.len() as u64);
        for i in 0..n {
            let pos = tail + i;
            let slot = &self.slots[(pos & self.mask) as usize];
            debug_assert_eq!(slot.seq.load(Ordering::Acquire), pos);
            let job = jobs.pop_front().expect("n <= jobs.len()");
            // SAFETY: `pos < head + capacity` proves the previous lap was
            // consumed, and the head Acquire above ordered that consume
            // before this write.
            unsafe { (*slot.value.get()).write(job) };
            // Publish in position order — the consumer reads sequentially.
            slot.seq.store(pos + 1, Ordering::Release);
        }
        self.tail.0.store(tail + n, Ordering::Relaxed);
        Ok(n)
    }

    /// Non-blocking pop (consumer side only).
    pub(crate) fn try_pop(&self) -> Option<Job> {
        let pos = self.head.0.load(Ordering::Relaxed);
        let slot = &self.slots[(pos & self.mask) as usize];
        if slot.seq.load(Ordering::Acquire) != pos + 1 {
            return None;
        }
        // SAFETY: `seq == pos + 1` publishes the payload (Acquire pairs
        // with the producer's Release), and only this consumer reads `pos`.
        let job = unsafe { (*slot.value.get()).assume_init_read() };
        slot.seq.store(pos + self.capacity, Ordering::Release);
        self.head.0.store(pos + 1, Ordering::Release);
        Some(job)
    }

    /// Pops up to `max` already-queued jobs into `out` (appending), one
    /// cursor update for the whole run. Returns the number popped.
    pub(crate) fn pop_batch(&self, out: &mut Vec<Job>, max: usize) -> usize {
        let head = self.head.0.load(Ordering::Relaxed);
        let mut n = 0u64;
        while (n as usize) < max {
            let pos = head + n;
            let slot = &self.slots[(pos & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != pos + 1 {
                break;
            }
            // SAFETY: as in `try_pop`.
            out.push(unsafe { (*slot.value.get()).assume_init_read() });
            slot.seq.store(pos + self.capacity, Ordering::Release);
            n += 1;
        }
        self.head.0.store(head + n, Ordering::Release);
        n as usize
    }

    /// Blocking pop; `None` once the ring is closed *and* drained (the
    /// graceful-shutdown signal, mirroring [`JobQueue::pop_block`]).
    pub(crate) fn pop_block(&self) -> Option<Job> {
        let mut backoff = Backoff::new();
        loop {
            if let Some(job) = self.try_pop() {
                return Some(job);
            }
            if self.closed.load(Ordering::Acquire) {
                // Re-check once: a push may have landed just before close.
                return self.try_pop();
            }
            backoff.snooze();
        }
    }

    /// Approximate occupancy (metrics only — racy by design).
    pub(crate) fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Relaxed);
        tail.saturating_sub(head) as usize
    }

    /// Shutdown signal: the consumer drains the backlog, then sees `None`.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Declares the consumer gone for good; blocked and future pushes fail
    /// instead of spinning on a ring nobody will ever drain.
    pub(crate) fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
    }
}

impl Drop for SpscRing {
    fn drop(&mut self) {
        // Drop any jobs still in flight. `&mut self` means both sides are
        // gone, so plain (get_mut) reads of the cursors are exact.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for pos in head..tail {
            let slot = &mut self.slots[(pos & self.mask) as usize];
            if *slot.seq.get_mut() == pos + 1 {
                // SAFETY: `seq == pos + 1` means this slot holds an
                // unconsumed job; exclusive access via `&mut self`.
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
        }
    }
}

/// The channel between the engine's submit path and one shard worker,
/// chosen by backpressure policy: the lock-free [`SpscRing`] under `Block`
/// and `DropNewest`, the condvar [`JobQueue`] under `ShedOldest`.
pub(crate) enum ShardChannel {
    /// Lock-free fast path (`Block` / `DropNewest` backpressure).
    Ring(SpscRing),
    /// Condvar queue with sender-side eviction (`ShedOldest`).
    Queue(JobQueue),
}

impl ShardChannel {
    #[cfg(test)]
    pub(crate) fn push_block(&self, job: Job) -> Result<(), PushError> {
        match self {
            Self::Ring(r) => r.push_block(job),
            Self::Queue(_) => unreachable!("single-job pushes are ring-only"),
        }
    }

    #[cfg(test)]
    pub(crate) fn try_push(&self, job: Job) -> Result<(), PushError> {
        match self {
            Self::Ring(r) => r.try_push(job),
            Self::Queue(_) => unreachable!("single-job pushes are ring-only"),
        }
    }

    /// Moves as many jobs as currently fit from the front of `jobs` into
    /// the ring under one slot reservation, returning the number pushed.
    /// `Err` means the channel is dead or closed (unpushed jobs stay in
    /// `jobs` for rollback).
    pub(crate) fn try_push_batch(&self, jobs: &mut VecDeque<Job>) -> Result<u64, ()> {
        match self {
            Self::Ring(r) => r.try_push_batch(jobs),
            Self::Queue(_) => unreachable!("Block and DropNewest always run on the ring channel"),
        }
    }

    /// Always-admitting push: a full queue evicts and returns its oldest
    /// job. `Err` means the channel is dead or closed.
    pub(crate) fn push_shed_oldest(&self, job: Job) -> Result<Option<Job>, ()> {
        match self {
            // Sender-side eviction needs shared access to the buffer
            // interior; the engine always pairs ShedOldest with the queue.
            Self::Ring(_) => unreachable!("ShedOldest always runs on the queue channel"),
            Self::Queue(q) => q.push_shed_oldest(job),
        }
    }

    pub(crate) fn pop_block(&self) -> Option<Job> {
        match self {
            Self::Ring(r) => r.pop_block(),
            Self::Queue(q) => q.pop_block(),
        }
    }

    /// Batch pop into `out` (appending), up to `max` jobs; the ring does it
    /// under one cursor update, the queue under one lock acquisition.
    pub(crate) fn pop_batch(&self, out: &mut Vec<Job>, max: usize) -> usize {
        match self {
            Self::Ring(r) => r.pop_batch(out, max),
            Self::Queue(q) => q.pop_batch(out, max),
        }
    }

    /// Ring occupancy when this channel is the ring (`None` on the queue
    /// fallback) — feeds the `ring_depth` gauge at drain time.
    pub(crate) fn ring_depth(&self) -> Option<usize> {
        match self {
            Self::Ring(r) => Some(r.len()),
            Self::Queue(_) => None,
        }
    }

    pub(crate) fn close(&self) {
        match self {
            Self::Ring(r) => r.close(),
            Self::Queue(q) => q.close(),
        }
    }

    pub(crate) fn mark_dead(&self) {
        match self {
            Self::Ring(r) => r.mark_dead(),
            Self::Queue(q) => q.mark_dead(),
        }
    }
}

/// Drop guard the worker thread holds: if the supervisor exits by panic
/// (its own bug — detector panics are caught inside it), the guard's `Drop`
/// marks the channel dead on the way out of the thread, upholding the
/// engine's "a dead shard is an error, never a hang" contract.
pub(crate) struct DeathWatch {
    channel: Arc<ShardChannel>,
    armed: bool,
}

impl DeathWatch {
    pub(crate) fn arm(channel: Arc<ShardChannel>) -> Self {
        Self {
            channel,
            armed: true,
        }
    }

    /// Normal worker exit: the channel was closed and drained, not
    /// abandoned.
    pub(crate) fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for DeathWatch {
    fn drop(&mut self) {
        if self.armed {
            self.channel.mark_dead();
        }
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
    fn capacity_rounds_up_to_power_of_two_min_two() {
        assert_eq!(SpscRing::new(1).capacity, 2);
        assert_eq!(SpscRing::new(3).capacity, 4);
        assert_eq!(SpscRing::new(4).capacity, 4);
        assert_eq!(SpscRing::new(1000).capacity, 1024);
    }

    #[test]
    fn fifo_order_and_close_drain() {
        let r = SpscRing::new(4);
        for s in 0..3 {
            r.try_push(job(s)).ok().unwrap();
        }
        r.close();
        assert_eq!(r.pop_block().unwrap().seq, 0);
        assert_eq!(r.pop_block().unwrap().seq, 1);
        assert_eq!(r.pop_block().unwrap().seq, 2);
        assert!(r.pop_block().is_none(), "closed and drained");
        assert!(matches!(r.try_push(job(9)), Err(PushError::Dead(_))));
    }

    #[test]
    fn full_ring_hands_job_back_until_a_slot_frees() {
        let r = SpscRing::new(2);
        r.try_push(job(0)).ok().unwrap();
        r.try_push(job(1)).ok().unwrap();
        match r.try_push(job(2)) {
            Err(PushError::Full(j)) => assert_eq!(j.seq, 2),
            _ => panic!("expected Full"),
        }
        assert_eq!(r.try_pop().unwrap().seq, 0);
        r.try_push(job(2)).ok().unwrap();
        assert_eq!(r.try_pop().unwrap().seq, 1);
        assert_eq!(r.try_pop().unwrap().seq, 2);
        assert!(r.try_pop().is_none());
    }

    #[test]
    fn wraparound_at_capacity_boundaries() {
        // Interleaved bursts lap a tiny ring many times; the slot sequence
        // counters must keep positions straight across every wrap.
        let r = SpscRing::new(4);
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for round in 0..100u64 {
            let burst = (round % 4) + 1;
            for _ in 0..burst {
                r.try_push(job(next_push)).ok().unwrap();
                next_push += 1;
            }
            for _ in 0..burst {
                assert_eq!(r.try_pop().unwrap().seq, next_pop);
                next_pop += 1;
            }
        }
        assert_eq!(r.len(), 0);
        assert_eq!(next_pop, next_push);
    }

    #[test]
    fn batch_push_claims_only_free_slots_and_preserves_order() {
        let r = SpscRing::new(4);
        let mut jobs: VecDeque<Job> = (0..6).map(job).collect();
        assert_eq!(r.try_push_batch(&mut jobs).unwrap(), 4);
        assert_eq!(jobs.len(), 2, "overflow stays with the caller");
        assert_eq!(r.try_push_batch(&mut jobs).unwrap(), 0, "ring is full");
        let mut out = Vec::new();
        assert_eq!(r.pop_batch(&mut out, 3), 3);
        assert_eq!(r.try_push_batch(&mut jobs).unwrap(), 2);
        assert_eq!(r.pop_batch(&mut out, 16), 3);
        let seqs: Vec<u64> = out.iter().map(|j| j.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn dead_ring_refuses_pushes_and_unblocks_producer() {
        let r = Arc::new(SpscRing::new(2));
        r.try_push(job(0)).ok().unwrap();
        r.try_push(job(1)).ok().unwrap();
        let r2 = Arc::clone(&r);
        let producer = std::thread::spawn(move || r2.push_block(job(2)).is_err());
        std::thread::sleep(Duration::from_millis(20));
        r.mark_dead();
        assert!(producer.join().unwrap(), "blocked push must fail, not hang");
        assert!(matches!(r.try_push(job(3)), Err(PushError::Dead(_))));
        assert!(matches!(r.try_push_batch(&mut VecDeque::new()), Err(())));
    }

    #[test]
    fn backlog_survives_for_the_same_consumer_thread() {
        // The restart story: a panicked worker restarts *on the same
        // thread*, so jobs pushed before the panic are still in the ring.
        let r = SpscRing::new(8);
        r.try_push(job(7)).ok().unwrap();
        r.try_push(job(8)).ok().unwrap();
        assert_eq!(r.pop_block().unwrap().seq, 7);
        assert_eq!(r.pop_block().unwrap().seq, 8);
    }

    #[test]
    fn dropping_a_nonempty_ring_drops_the_backlog() {
        // Exercised under ASan in CI: leaked or double-dropped jobs fail.
        let r = SpscRing::new(4);
        for s in 0..3 {
            r.try_push(job(s)).ok().unwrap();
        }
        r.try_pop().unwrap();
        drop(r);
    }

    #[test]
    fn two_thread_stress_preserves_order_across_wraps() {
        // Seeded two-thread stress over a tiny ring: bursts of seeded sizes
        // force constant wraparound and full/empty transitions; the
        // consumer asserts it sees exactly 0..N in order.
        const N: u64 = 20_000;
        let r = Arc::new(SpscRing::new(8));
        let producer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
                let mut pushed = 0u64;
                let mut staged: VecDeque<Job> = VecDeque::new();
                while pushed < N || !staged.is_empty() {
                    rng = rng
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let burst = 1 + (rng >> 33) % 7;
                    for _ in 0..burst {
                        if pushed < N {
                            staged.push_back(job(pushed));
                            pushed += 1;
                        }
                    }
                    // Alternate the two push APIs so both see the wraps.
                    if rng & 1 == 0 {
                        r.try_push_batch(&mut staged).unwrap();
                    } else if let Some(j) = staged.pop_front() {
                        r.push_block(j).ok().unwrap();
                    }
                    if (rng >> 20).is_multiple_of(4) {
                        std::thread::yield_now();
                    }
                }
                r.close();
            })
        };
        let mut rng: u64 = 0xDEAD_BEEF_CAFE_F00D;
        let mut seen = 0u64;
        let mut out = Vec::new();
        loop {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let max = 1 + ((rng >> 33) as usize) % 6;
            out.clear();
            if r.pop_batch(&mut out, max) == 0 {
                match r.pop_block() {
                    Some(j) => out.push(j),
                    None => break,
                }
            }
            for j in &out {
                assert_eq!(j.seq, seen, "out-of-order or lost job");
                seen += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, N, "every pushed job must be popped exactly once");
    }

    /// Lane-partitioned multi-producer stress under full-lap wraparound
    /// pressure, with a mid-run worker death. Mirrors the engine's
    /// `submit_batch_rows_parallel` contract: N producer lanes each the
    /// *sole* pusher for their own tiny ring (SPSC per ring is preserved;
    /// multi-producer means many rings, never two pushers on one). One
    /// consumer "dies" with its `DeathWatch` armed partway through — its
    /// lane's producer must fail fast instead of hanging, while every
    /// surviving lane drains its full sequence in order.
    #[test]
    fn lane_partitioned_producers_survive_wraps_and_a_death_watch_kill() {
        const LANES: usize = 4;
        const PER_LANE: u64 = 12_000;
        const KILLED: usize = 2;
        const KILL_AFTER: u64 = 512;

        let channels: Vec<Arc<ShardChannel>> = (0..LANES)
            .map(|_| Arc::new(ShardChannel::Ring(SpscRing::new(8))))
            .collect();

        // Consumers: each ring's unique popper, guarded like a real worker.
        // The killed one returns early without disarming — exactly the
        // supervisor-panic path — so Drop marks its channel dead.
        let consumers: Vec<_> = channels
            .iter()
            .enumerate()
            .map(|(idx, ch)| {
                let ch = Arc::clone(ch);
                std::thread::spawn(move || {
                    let mut watch = DeathWatch::arm(Arc::clone(&ch));
                    let mut seen = 0u64;
                    while let Some(j) = ch.pop_block() {
                        assert_eq!(j.seq, seen, "ring {idx} delivered out of order");
                        seen += 1;
                        if idx == KILLED && seen == KILL_AFTER {
                            return seen; // armed drop → mark_dead
                        }
                    }
                    watch.disarm();
                    seen
                })
            })
            .collect();

        // Producers: lane p owns ring p outright (the S == P case of the
        // engine's `shard % lanes == lane` ownership rule). Seeded bursts
        // against capacity-8 rings force a full lap every few iterations.
        let producers: Vec<_> = channels
            .iter()
            .enumerate()
            .map(|(lane, ch)| {
                let ch = Arc::clone(ch);
                std::thread::spawn(move || {
                    let mut rng: u64 = 0xA076_1D64_78BD_642F ^ ((lane as u64) << 17);
                    let mut staged: VecDeque<Job> = VecDeque::new();
                    let mut next = 0u64;
                    while next < PER_LANE || !staged.is_empty() {
                        rng = rng
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let burst = 1 + (rng >> 33) % 7;
                        for _ in 0..burst {
                            if next < PER_LANE {
                                staged.push_back(job(next));
                                next += 1;
                            }
                        }
                        // Alternate both push APIs across the wraps.
                        if rng & 1 == 0 {
                            if ch.try_push_batch(&mut staged).is_err() {
                                return Err(lane); // dead channel: fail fast
                            }
                        } else if let Some(j) = staged.pop_front() {
                            match ch.push_block(j) {
                                Ok(()) => {}
                                Err(PushError::Full(j)) => staged.push_front(j),
                                Err(PushError::Dead(_)) => return Err(lane),
                            }
                        }
                    }
                    Ok(lane)
                })
            })
            .collect();

        let mut dead_lanes = Vec::new();
        for (lane, p) in producers.into_iter().enumerate() {
            match p.join().expect("producer panicked") {
                Ok(done) => assert_eq!(done, lane),
                Err(l) => dead_lanes.push(l),
            }
        }
        // Only the killed lane's producer may observe death; the join
        // completing at all proves nobody hung on the dead ring.
        assert_eq!(dead_lanes, vec![KILLED], "exactly the killed lane fails");

        for ch in &channels {
            ch.close();
        }
        for (idx, c) in consumers.into_iter().enumerate() {
            let seen = c.join().expect("consumer panicked");
            if idx == KILLED {
                assert_eq!(seen, KILL_AFTER);
            } else {
                assert_eq!(seen, PER_LANE, "lane {idx} lost jobs");
            }
        }
        // The dead channel keeps refusing pushes after the fact.
        assert!(matches!(
            channels[KILLED].try_push(job(0)),
            Err(PushError::Dead(_))
        ));
    }
}
