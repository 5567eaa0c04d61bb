//! The lock-free fast path between the submit side and a shard worker: a
//! bounded single-producer/single-consumer ring of rows with per-slot
//! sequence counters, plus the [`ShardChannel`] façade that lets the engine
//! fall back to the condvar [`JobQueue`] where sender-side eviction is
//! needed.
//!
//! A row travels as `dim` f64s, never as a heap object of its own: the ring
//! owns a `capacity × dim` row arena next to its slots, a push copies rows
//! into the slots it claims, and a pop lends the worker up to `max` ready
//! rows **in place** — one contiguous row-major [`Block`] of the arena, the
//! block the worker logs and scores — and re-arms their slots when the block
//! is dropped. A pop stops at the arena's end, so a block never wraps.
//!
//! ## Why two channels
//!
//! [`JobQueue`] (one mutex, one condvar) takes a lock per call on both sides
//! and wakes the peer through a condvar. At millions of points per second
//! those two costs dominate the submit path. The ring replaces them with
//! two atomic operations per slot and no syscalls in the common case;
//! waiting sides spin briefly, then yield, then park on a timeout — no
//! wakeup protocol, so neither side ever takes a lock.
//!
//! The channel follows the backpressure policy alone: `Block` and
//! `DropNewest` run on the ring, `ShedOldest` on the queue (evicting the
//! *oldest queued* row from the sender side needs shared access to the
//! buffer interior, which the SPSC discipline forbids).
//!
//! ## Memory-ordering contract
//!
//! Positions are unbounded `u64`s; slot index is `pos & (capacity − 1)`
//! (capacity is a power of two, ≥ 2). Slot `i` owns the arena row
//! `arena[i·dim .. (i+1)·dim]`, `seqs[i]` and `stamps[i]`. Each slot
//! carries a sequence counter encoding its lap state:
//!
//! * `== pos`       — free: the producer may claim it for position `pos`.
//! * `== pos + 1`   — full: the row pushed at `pos` is visible to the
//!   consumer.
//! * consuming stores `pos + capacity`, re-arming the slot for the
//!   producer's next lap.
//!
//! **Who writes a slot's row, and when.** Only the producer, and only for a
//! position it has reserved: a push loads `head` with `Acquire` (pairing
//! with the consumer's `Release` store of it) and claims at most
//! `capacity − (tail − head)` positions past `tail`, which proves every
//! claimed slot finished its previous lap — the block that lent its row was
//! dropped and its counter re-armed before that `head` store. The producer
//! then copies the rows into the claimed arena rows and writes their
//! sequence numbers and stamps.
//!
//! **When it becomes readable.** The producer publishes each claimed slot
//! with a `Release` store of `pos + 1`, in position order, after all of the
//! push's rows are written. A pop lends a slot only after an `Acquire` load
//! has seen `pos + 1`, so the block reads the whole row.
//!
//! **When it is re-armed.** When the lent [`Block`] is dropped — after the
//! worker has logged and scored it, or while unwinding from a detector
//! panic — each of its slots gets a `Release` store of `pos + capacity`,
//! then `head` one `Release` store for the whole block. Until then the
//! producer never touches those rows, so no row is overwritten while it is
//! read. At most one block is out at a time (asserted). `head`/`tail` are
//! each written by exactly one side; a stale `head` only *under*-estimates
//! free space, never over-claims, so `tail − head ≤ capacity` always holds.
//!
//! Lifecycle mirrors [`JobQueue`]: `closed` means drain-and-exit for the
//! consumer and refuse for the producer; `dead` (set by [`DeathWatch`] if
//! the worker thread dies) makes pushes fail instead of spinning forever.

#![allow(unsafe_code)]

use crate::queue::JobQueue;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rows copied out of the [`JobQueue`]: the worker's reusable buffer for
/// the channel that cannot lend rows in place.
#[derive(Debug, Default)]
pub(crate) struct RowBlock {
    /// Row-major values, `dim` per row.
    pub(crate) values: Vec<f64>,
    /// Global submission sequence number of each row.
    pub(crate) seqs: Vec<u64>,
    /// Enqueue stamp of each row.
    pub(crate) stamps: Vec<Instant>,
}

impl RowBlock {
    pub(crate) fn clear(&mut self) {
        self.values.clear();
        self.seqs.clear();
        self.stamps.clear();
    }
}

/// A popped micro-batch: rows back to back, their sequence numbers, and
/// their enqueue stamps (every row of one submit call shares one stamp).
/// Either lent in place by the ring, whose slots it re-arms when dropped,
/// or copied out of the queue. Built only in this module.
pub(crate) struct Block<'a>(Source<'a>);

enum Source<'a> {
    /// Ring positions `head .. head + n`, all in one run of the arena.
    Lent {
        ring: &'a SpscRing,
        head: u64,
        n: usize,
    },
    Copied(&'a RowBlock),
}

impl Block<'_> {
    pub(crate) fn len(&self) -> usize {
        self.seqs().len()
    }

    /// The rows, row-major.
    pub(crate) fn values(&self) -> &[f64] {
        match self.0 {
            // SAFETY: the block's own slots (see `SpscRing::lent`).
            Source::Lent { ring, head, n } => unsafe {
                ring.lent(ring.row_ptr(ring.index(head)), n * ring.dim)
            },
            Source::Copied(rows) => &rows.values,
        }
    }

    pub(crate) fn seqs(&self) -> &[u64] {
        match self.0 {
            // SAFETY: the block's own slots (see `SpscRing::lent`).
            Source::Lent { ring, head, n } => unsafe {
                ring.lent(
                    UnsafeCell::raw_get(ring.seqs[ring.index(head)..].as_ptr()),
                    n,
                )
            },
            Source::Copied(rows) => &rows.seqs,
        }
    }

    pub(crate) fn stamps(&self) -> &[Instant] {
        match self.0 {
            // SAFETY: the block's own slots (see `SpscRing::lent`).
            Source::Lent { ring, head, n } => unsafe {
                ring.lent(
                    UnsafeCell::raw_get(ring.stamps[ring.index(head)..].as_ptr()),
                    n,
                )
            },
            Source::Copied(rows) => &rows.stamps,
        }
    }
}

impl Drop for Block<'_> {
    fn drop(&mut self) {
        if let Source::Lent { ring, head, n } = self.0 {
            ring.release(head, n);
        }
    }
}

/// Keeps the producer and consumer cursors on separate cache lines so the
/// two sides do not false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

/// Moves `values` into interior-mutable cells, reusing the allocation (so a
/// zeroed one stays uncommitted until written).
fn cells<T: Copy>(values: Vec<T>) -> Box<[UnsafeCell<T>]> {
    let values = values.into_boxed_slice();
    // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so the slice
    // layouts are identical; ownership moves, nothing aliases.
    unsafe { Box::from_raw(Box::into_raw(values) as *mut [UnsafeCell<T>]) }
}

/// Bounded SPSC ring of rows; see the module docs for the slot-sequence
/// protocol.
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
    /// Per-slot sequence counters (the lap state).
    slots: Box<[AtomicU64]>,
    /// Row arena: slot `i`'s row is `arena[i·dim .. (i+1)·dim]`.
    arena: Box<[UnsafeCell<f64>]>,
    /// Global sequence number of the row in each slot.
    seqs: Box<[UnsafeCell<u64>]>,
    /// Enqueue stamp of the row in each slot.
    stamps: Box<[UnsafeCell<Instant>]>,
    dim: usize,
    mask: u64,
    capacity: u64,
    /// Producer cursor: the next position a push claims.
    tail: CachePadded<AtomicU64>,
    /// Consumer cursor: the next position a pop reads.
    head: CachePadded<AtomicU64>,
    /// A [`Block`] is out; set and cleared by the consumer only.
    lending: AtomicBool,
    closed: AtomicBool,
    dead: AtomicBool,
}

// SAFETY: the UnsafeCell arena rows, sequence numbers and stamps (plain
// `Copy` data) are only touched under the slot-sequence protocol above — a
// slot is written only for a position the producer reserved below
// `head + capacity` (excluding the consumer, which waits for `pos + 1`) and
// read only between a pop that saw `pos + 1` and the drop of its block
// (excluding the producer, which waits for the re-arm). The Acquire/Release
// pairs on the counters and `head` order the accesses. Every other field is
// an atomic or is never written after construction.
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
    /// A ring holding at least `capacity` rows of `dim` values (rounded up
    /// to a power of two, minimum 2 — with one slot the "free for this lap"
    /// and "full from last lap" sequence values coincide).
    pub(crate) fn new(capacity: usize, dim: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(2);
        Self {
            slots: (0..capacity as u64).map(AtomicU64::new).collect(),
            // Zeroed: a ring that never fills never commits its whole arena.
            arena: cells(vec![0.0; capacity * dim]),
            seqs: cells(vec![0; capacity]),
            stamps: cells(vec![Instant::now(); capacity]),
            dim,
            mask: capacity as u64 - 1,
            capacity: capacity as u64,
            tail: CachePadded(AtomicU64::new(0)),
            head: CachePadded(AtomicU64::new(0)),
            lending: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        }
    }

    fn index(&self, pos: u64) -> usize {
        (pos & self.mask) as usize
    }

    fn counter(&self, pos: u64) -> &AtomicU64 {
        &self.slots[self.index(pos)]
    }

    /// Pointer to slot `idx`'s row. Derived from the whole arena (not one
    /// cell), so it may span the consecutive rows of a run.
    fn row_ptr(&self, idx: usize) -> *mut f64 {
        UnsafeCell::raw_get(self.arena.as_ptr()).wrapping_add(idx * self.dim)
    }

    /// A lent block's view of `len` values of ring storage at `ptr`.
    ///
    /// # Safety
    /// `ptr .. ptr + len` must lie in the storage of the slots of the
    /// outstanding block: slots a pop saw full, which stay full — so the
    /// producer leaves them alone — until the block is dropped, and the
    /// returned slice cannot outlive the `&self` of the block's borrow.
    unsafe fn lent<T>(&self, ptr: *const T, len: usize) -> &[T] {
        // SAFETY: per the contract above, the memory is initialized, in
        // bounds, and not written while the slice lives.
        unsafe { std::slice::from_raw_parts(ptr, len) }
    }

    /// The runs of slots that positions `pos .. pos + n` (`n ≤ capacity`)
    /// occupy: at most two, split at the arena's end, as `(first, slots)`.
    fn runs(&self, pos: u64, n: usize) -> [(usize, usize); 2] {
        let first = self.index(pos);
        let before_end = n.min(self.capacity as usize - first);
        [(first, before_end), (0, n - before_end)]
    }

    /// One reservation per call: claims `min(seqs.len(), free)` contiguous
    /// slots and copies that many rows from the front of `rows` (row-major,
    /// one row per entry of `seqs`) into them, all stamped `enqueued`.
    /// Returns the number pushed (0 when full); `Err` on a dead or closed
    /// ring, with nothing pushed.
    pub(crate) fn try_push_batch(
        &self,
        rows: &[f64],
        seqs: &[u64],
        enqueued: Instant,
    ) -> Result<usize, ()> {
        // The copy below reads `n · dim` values from `rows`: a memory-safety
        // condition, so checked in release builds too.
        assert_eq!(
            rows.len(),
            seqs.len() * self.dim,
            "one row of dim values per seq"
        );
        if self.dead.load(Ordering::Acquire) || self.closed.load(Ordering::Acquire) {
            return Err(());
        }
        let tail = self.tail.0.load(Ordering::Relaxed);
        // Acquire pairs with the consumer's Release store of `head`: every
        // slot the reservation covers observably finished its previous lap.
        let head = self.head.0.load(Ordering::Acquire);
        let free = (self.capacity - (tail - head)) as usize;
        let n = free.min(seqs.len());
        let mut copied = 0;
        for (first, len) in self.runs(tail, n) {
            // SAFETY: positions `tail .. tail + n` lie below
            // `head + capacity`, so their previous lap's block was dropped
            // and re-armed (ordered before these writes by the head
            // Acquire), no pop lends them before their counter store below,
            // and only this producer writes them. Each run is in bounds of
            // the arena, `seqs` and `stamps`, and of the source slices.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    rows.as_ptr().add(copied * self.dim),
                    self.row_ptr(first),
                    len * self.dim,
                );
                std::ptr::copy_nonoverlapping(
                    seqs.as_ptr().add(copied),
                    UnsafeCell::raw_get(self.seqs.as_ptr()).add(first),
                    len,
                );
                for stamp in &self.stamps[first..first + len] {
                    *stamp.get() = enqueued;
                }
            }
            copied += len;
        }
        for pos in tail..tail + n as u64 {
            debug_assert_eq!(self.counter(pos).load(Ordering::Acquire), pos);
            // Publish in position order — the consumer reads sequentially.
            self.counter(pos).store(pos + 1, Ordering::Release);
        }
        self.tail.0.store(tail + n as u64, Ordering::Relaxed);
        Ok(n)
    }

    /// Lends up to `max` already-queued rows in place, stopping at the
    /// arena's end. Their slots are re-armed, and `head` advanced, when the
    /// block is dropped.
    ///
    /// # Panics
    /// When the previous block is still out.
    pub(crate) fn pop(&self, max: usize) -> Block<'_> {
        assert!(
            !self.lending.swap(true, Ordering::Relaxed),
            "one popped block at a time"
        );
        let head = self.head.0.load(Ordering::Relaxed);
        let limit = max.min(self.capacity as usize - self.index(head));
        let mut n = 0;
        while n < limit
            && self.counter(head + n as u64).load(Ordering::Acquire) == head + n as u64 + 1
        {
            n += 1;
        }
        Block(Source::Lent {
            ring: self,
            head,
            n,
        })
    }

    /// Re-arms the `n` slots a block lent from `head`, then advances `head`
    /// past them (Release: the producer's reservation reads it).
    fn release(&self, head: u64, n: usize) {
        for pos in head..head + n as u64 {
            self.counter(pos)
                .store(pos + self.capacity, Ordering::Release);
        }
        self.head.0.store(head + n as u64, Ordering::Release);
        self.lending.store(false, Ordering::Relaxed);
    }

    /// Blocks until a row is ready to pop (`true`), or the ring is closed
    /// *and* drained (`false`, the graceful-shutdown signal, mirroring
    /// [`JobQueue::wait`]).
    pub(crate) fn wait(&self) -> bool {
        let mut backoff = Backoff::new();
        loop {
            let head = self.head.0.load(Ordering::Relaxed);
            let ready = || self.counter(head).load(Ordering::Acquire) == head + 1;
            if ready() {
                return true;
            }
            if self.closed.load(Ordering::Acquire) {
                // Re-check once: a push may have landed just before close.
                return ready();
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

    /// Shutdown signal: the consumer drains the backlog, then sees `false`
    /// from [`wait`](Self::wait).
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Declares the consumer gone for good; blocked and future pushes fail
    /// instead of spinning on a ring nobody will ever drain.
    pub(crate) fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
    }
}

/// The channel between the engine's submit path and one shard worker,
/// chosen by backpressure policy: the lock-free [`SpscRing`] under `Block`
/// and `DropNewest`, the condvar [`JobQueue`] under `ShedOldest`. Both carry
/// rows flat and hand the worker [`Block`]s.
pub(crate) enum ShardChannel {
    /// Lock-free fast path (`Block` / `DropNewest` backpressure).
    Ring(SpscRing),
    /// Condvar queue with sender-side eviction (`ShedOldest`).
    Queue(JobQueue),
}

impl ShardChannel {
    /// Copies as many rows as currently fit from the front of `rows` into
    /// the ring under one slot reservation, returning the number pushed.
    /// `Err` means the channel is dead or closed (nothing was pushed).
    pub(crate) fn try_push_batch(
        &self,
        rows: &[f64],
        seqs: &[u64],
        enqueued: Instant,
    ) -> Result<usize, ()> {
        match self {
            Self::Ring(r) => r.try_push_batch(rows, seqs, enqueued),
            Self::Queue(_) => unreachable!("Block and DropNewest always run on the ring channel"),
        }
    }

    /// Always-admitting push of every row: a full queue evicts its oldest
    /// rows, whose sequence numbers are appended to `evicted`. `Err` means
    /// the channel is dead or closed (nothing was pushed).
    pub(crate) fn push_shed_oldest(
        &self,
        rows: &[f64],
        seqs: &[u64],
        enqueued: Instant,
        evicted: &mut Vec<u64>,
    ) -> Result<(), ()> {
        match self {
            // Sender-side eviction needs shared access to the buffer
            // interior; the engine always pairs ShedOldest with the queue.
            Self::Ring(_) => unreachable!("ShedOldest always runs on the queue channel"),
            Self::Queue(q) => q.push_shed_oldest(rows, seqs, enqueued, evicted),
        }
    }

    /// Blocks until a row is ready (`true`) or the channel is closed and
    /// drained (`false`).
    pub(crate) fn wait(&self) -> bool {
        match self {
            Self::Ring(r) => r.wait(),
            Self::Queue(q) => q.wait(),
        }
    }

    /// Pops up to `max` rows as one block: the ring lends them in place
    /// (one cursor update when the block drops), the queue copies them into
    /// `buf` under one lock acquisition.
    pub(crate) fn pop_batch<'a>(&'a self, buf: &'a mut RowBlock, max: usize) -> Block<'a> {
        match self {
            Self::Ring(r) => r.pop(max),
            Self::Queue(q) => {
                buf.clear();
                q.pop_batch(buf, max);
                Block(Source::Copied(buf))
            }
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

    const DIM: usize = 3;

    /// Every row's values are a function of its sequence number, so a pop
    /// can check the row it got, not just the order.
    fn row_of(seq: u64) -> [f64; DIM] {
        let s = seq as f64;
        [s, -s - 0.5, s * 0.25 + 7.0]
    }

    fn push(r: &SpscRing, seqs: &[u64]) -> Result<usize, ()> {
        let rows: Vec<f64> = seqs.iter().flat_map(|&s| row_of(s)).collect();
        r.try_push_batch(&rows, seqs, Instant::now())
    }

    /// Spins until every row of `seqs` is in; `Err` on a dead ring.
    fn push_all(ch: &ShardChannel, seqs: &[u64]) -> Result<(), ()> {
        let rows: Vec<f64> = seqs.iter().flat_map(|&s| row_of(s)).collect();
        let stamp = Instant::now();
        let mut done = 0;
        let mut backoff = Backoff::new();
        while done < seqs.len() {
            match ch.try_push_batch(&rows[done * DIM..], &seqs[done..], stamp)? {
                0 => backoff.snooze(),
                n => done += n,
            }
        }
        Ok(())
    }

    /// The popped block's sequence numbers, after checking every row
    /// against its sequence number.
    fn checked(block: &Block<'_>) -> Vec<u64> {
        assert_eq!(block.values().len(), block.len() * DIM);
        assert_eq!(block.stamps().len(), block.len());
        for (row, &seq) in block.values().chunks_exact(DIM).zip(block.seqs()) {
            assert_eq!(row, row_of(seq), "row of seq {seq} damaged in transit");
        }
        block.seqs().to_vec()
    }

    fn pop(r: &SpscRing, max: usize) -> Vec<u64> {
        checked(&r.pop(max))
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two_min_two() {
        assert_eq!(SpscRing::new(1, DIM).capacity, 2);
        assert_eq!(SpscRing::new(3, DIM).capacity, 4);
        assert_eq!(SpscRing::new(4, DIM).capacity, 4);
        assert_eq!(SpscRing::new(1000, DIM).capacity, 1024);
        assert_eq!(SpscRing::new(1000, DIM).arena.len(), 1024 * DIM);
    }

    #[test]
    fn fifo_order_and_close_drain() {
        let r = SpscRing::new(4, DIM);
        assert_eq!(push(&r, &[0, 1, 2]), Ok(3));
        r.close();
        for s in 0..3 {
            assert!(r.wait());
            assert_eq!(pop(&r, 1), vec![s]);
        }
        assert!(!r.wait(), "closed and drained");
        assert_eq!(push(&r, &[9]), Err(()));
    }

    #[test]
    fn full_ring_hands_job_back_until_a_slot_frees() {
        let r = SpscRing::new(2, DIM);
        assert_eq!(push(&r, &[0, 1]), Ok(2));
        assert_eq!(push(&r, &[2]), Ok(0), "a full ring takes nothing");
        assert_eq!(pop(&r, 1), vec![0]);
        assert_eq!(push(&r, &[2]), Ok(1));
        assert_eq!(pop(&r, 8), vec![1], "a pop stops at the arena's end");
        assert_eq!(pop(&r, 8), vec![2]);
        assert!(pop(&r, 8).is_empty());
    }

    #[test]
    fn wraparound_at_capacity_boundaries() {
        // Interleaved bursts lap a tiny ring many times; the slot sequence
        // counters must keep positions straight across every wrap, and
        // every row must come out as it went in.
        let r = SpscRing::new(4, DIM);
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        for round in 0..100u64 {
            let burst = (round % 4) + 1;
            for _ in 0..burst {
                assert_eq!(push(&r, &[next_push]), Ok(1));
                next_push += 1;
            }
            for _ in 0..burst {
                assert_eq!(pop(&r, 1), vec![next_pop]);
                next_pop += 1;
            }
        }
        assert_eq!(r.len(), 0);
        assert_eq!(next_pop, next_push);
    }

    #[test]
    fn a_pop_stops_at_the_end_of_the_arena() {
        // Offset the cursors by 3 of 8 slots, then fill the ring: the push
        // splits at the arena's end (slots 3..8, then 0..3), and a pop
        // reaches the end and stops there, so every block is one run.
        let r = SpscRing::new(8, DIM);
        assert_eq!(push(&r, &[0, 1, 2]), Ok(3));
        assert_eq!(pop(&r, 3), vec![0, 1, 2]);
        let seqs: Vec<u64> = (3..11).collect();
        assert_eq!(push(&r, &seqs), Ok(8));
        assert_eq!(pop(&r, 16), vec![3, 4, 5, 6, 7], "up to the arena's end");
        assert_eq!(pop(&r, 16), vec![8, 9, 10], "the rest, from its start");
        // A short pop just before the end, then one that ends on it.
        assert_eq!(push(&r, &[11, 12, 13, 14, 15, 16, 17, 18]), Ok(8));
        assert_eq!(pop(&r, 3), vec![11, 12, 13]);
        assert_eq!(pop(&r, 8), vec![14, 15]);
        assert_eq!(pop(&r, 8), vec![16, 17, 18]);
    }

    #[test]
    fn stamps_travel_with_their_rows() {
        let r = SpscRing::new(8, DIM);
        let (a, b) = (Instant::now(), Instant::now() + Duration::from_millis(1));
        let rows: Vec<f64> = (0..5).flat_map(row_of).collect();
        assert_eq!(r.try_push_batch(&rows[..2 * DIM], &[0, 1], a), Ok(2));
        assert_eq!(r.try_push_batch(&rows[2 * DIM..], &[2, 3, 4], b), Ok(3));
        let block = r.pop(8);
        assert_eq!(checked(&block), vec![0, 1, 2, 3, 4]);
        assert_eq!(block.stamps(), &[a, a, b, b, b]);
    }

    #[test]
    fn a_lent_block_holds_its_slots_until_dropped() {
        let r = SpscRing::new(2, DIM);
        assert_eq!(push(&r, &[0, 1]), Ok(2));
        let block = r.pop(1);
        assert_eq!(push(&r, &[2]), Ok(0), "the lent slot is still full");
        assert_eq!(checked(&block), vec![0], "and still intact");
        drop(block);
        assert_eq!(push(&r, &[2]), Ok(1));
        assert_eq!(pop(&r, 2), vec![1]);
        assert_eq!(pop(&r, 2), vec![2]);
    }

    #[test]
    fn batch_push_claims_only_free_slots_and_preserves_order() {
        let r = SpscRing::new(4, DIM);
        assert_eq!(
            push(&r, &[0, 1, 2, 3, 4, 5]),
            Ok(4),
            "overflow stays with the caller"
        );
        assert_eq!(push(&r, &[4, 5]), Ok(0), "ring is full");
        let mut out = pop(&r, 3);
        assert_eq!(push(&r, &[4, 5]), Ok(2));
        while out.len() < 6 {
            out.extend(pop(&r, 16));
        }
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn dead_ring_refuses_pushes_and_unblocks_producer() {
        let ch = Arc::new(ShardChannel::Ring(SpscRing::new(2, DIM)));
        push_all(&ch, &[0, 1]).unwrap();
        let ch2 = Arc::clone(&ch);
        let producer = std::thread::spawn(move || push_all(&ch2, &[2]).is_err());
        std::thread::sleep(Duration::from_millis(20));
        ch.mark_dead();
        assert!(producer.join().unwrap(), "blocked push must fail, not hang");
        assert_eq!(push_all(&ch, &[3]), Err(()));
        assert_eq!(ch.try_push_batch(&[], &[], Instant::now()), Err(()));
    }

    #[test]
    fn backlog_survives_for_the_same_consumer_thread() {
        // The restart story: a panicked worker restarts *on the same
        // thread*, so rows pushed before the panic are still in the ring.
        let r = SpscRing::new(8, DIM);
        assert_eq!(push(&r, &[7, 8]), Ok(2));
        assert!(r.wait());
        assert_eq!(pop(&r, 1), vec![7]);
        assert!(r.wait());
        assert_eq!(pop(&r, 1), vec![8]);
    }

    #[test]
    fn dropping_a_nonempty_ring_drops_the_backlog() {
        // Exercised under ASan in CI: the arena is freed whole, backlog
        // and all.
        let r = SpscRing::new(4, DIM);
        assert_eq!(push(&r, &[0, 1, 2]), Ok(3));
        assert_eq!(pop(&r, 1), vec![0]);
        drop(r);
    }

    #[test]
    fn two_thread_stress_preserves_order_across_wraps() {
        // Seeded two-thread stress over a tiny ring: bursts of seeded sizes
        // force constant wraparound and full/empty transitions; the
        // consumer asserts it sees exactly 0..N in order, each row intact.
        const N: u64 = 20_000;
        let r = Arc::new(SpscRing::new(8, DIM));
        let producer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
                // Staged rows are `pushed..staged`.
                let (mut pushed, mut staged) = (0u64, 0u64);
                while pushed < N {
                    rng = rng
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    staged = (staged + 1 + (rng >> 33) % 7).min(N);
                    // Alternate whole-burst and one-row pushes so both see
                    // the wraps.
                    let end = if rng & 1 == 0 { staged } else { pushed + 1 };
                    let seqs: Vec<u64> = (pushed..end).collect();
                    pushed += push(&r, &seqs).unwrap() as u64;
                    if (rng >> 20).is_multiple_of(4) {
                        std::thread::yield_now();
                    }
                }
                r.close();
            })
        };
        let mut rng: u64 = 0xDEAD_BEEF_CAFE_F00D;
        let mut seen = 0u64;
        while r.wait() {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let max = 1 + ((rng >> 33) as usize) % 6;
            for seq in pop(&r, max) {
                assert_eq!(seq, seen, "out-of-order or lost row");
                seen += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, N, "every pushed row must be popped exactly once");
    }

    /// Lane-partitioned multi-producer stress under full-lap wraparound
    /// pressure, with a mid-run worker death. Mirrors the engine's
    /// `submit_batch_rows_parallel` contract: N producer lanes each the
    /// *sole* pusher for their own tiny ring (SPSC per ring is preserved;
    /// multi-producer means many rings, never two pushers on one). One
    /// consumer "dies" with its `DeathWatch` armed partway through — its
    /// lane's producer must fail fast instead of hanging, while every
    /// surviving lane drains its full sequence in order, each row intact.
    #[test]
    fn lane_partitioned_producers_survive_wraps_and_a_death_watch_kill() {
        const LANES: usize = 4;
        const PER_LANE: u64 = 12_000;
        const KILLED: usize = 2;
        const KILL_AFTER: u64 = 512;

        let channels: Vec<Arc<ShardChannel>> = (0..LANES)
            .map(|_| Arc::new(ShardChannel::Ring(SpscRing::new(8, DIM))))
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
                    let mut buf = RowBlock::default();
                    while ch.wait() {
                        for seq in checked(&ch.pop_batch(&mut buf, 1 + idx)) {
                            assert_eq!(seq, seen, "ring {idx} delivered out of order");
                            seen += 1;
                            if idx == KILLED && seen == KILL_AFTER {
                                return seen; // armed drop → mark_dead
                            }
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
                    let mut next = 0u64;
                    while next < PER_LANE {
                        rng = rng
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        let burst = (1 + (rng >> 33) % 7).min(PER_LANE - next);
                        let seqs: Vec<u64> = (next..next + burst).collect();
                        if push_all(&ch, &seqs).is_err() {
                            return Err(lane); // dead channel: fail fast
                        }
                        next += burst;
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
                assert_eq!(seen, PER_LANE, "lane {idx} lost rows");
            }
        }
        // The dead channel keeps refusing pushes after the fact.
        assert_eq!(push_all(&channels[KILLED], &[0]), Err(()));
    }
}
