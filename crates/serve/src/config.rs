//! Engine configuration: shard count, queue bounds, backpressure, and
//! durable-state policy.

use crate::error::ServeError;
use sketchad_durable::FsyncPolicy;
use std::path::PathBuf;

/// What `submit` does when a shard's bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the submitting thread until the worker drains a slot. No point
    /// is ever lost; producers run at the speed of the slowest shard.
    Block,
    /// Drop the newly arriving point and count it in the shard's `dropped`
    /// counter. Producers never block; scores for dropped points are never
    /// emitted.
    DropNewest,
    /// Admit the new point by evicting the *oldest* queued point, counting
    /// the eviction in the shard's `shed` counter. Producers never block,
    /// and under overload the detector keeps seeing the freshest data —
    /// the right trade for anomaly detection, where a stale backlog scores
    /// points against a model that has already moved on.
    ShedOldest,
}

/// Configuration for [`crate::ServeEngine`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of worker shards (each owns one detector). Must be ≥ 1.
    pub(crate) shards: usize,
    /// Bounded capacity of each shard's work queue. Must be ≥ 1.
    pub(crate) queue_capacity: usize,
    /// Full-queue behaviour.
    pub(crate) backpressure: BackpressurePolicy,
    /// A shard publishes a fresh model snapshot after every `snapshot_every`
    /// processed points (and once more on shutdown). `0` disables periodic
    /// publication (shutdown still publishes).
    pub(crate) snapshot_every: u64,
    /// Upper bound on the shard worker's micro-batch: after waiting for one
    /// row, the worker pops up to `max_batch` already-queued rows as one
    /// contiguous block and scores them through the detector's batched
    /// path (one block-kernel pass per chunk). Scores are bitwise
    /// identical to per-point processing; `1` is a micro-batch of one.
    /// Must be ≥ 1.
    pub(crate) max_batch: usize,
    /// How many times a shard's panicked worker is rebuilt (resuming from
    /// its last published snapshot) before the shard degrades to
    /// shed-with-count. `0` means a single panic degrades the shard.
    pub(crate) max_restarts: u32,
    /// Root directory for durable state. When set, each shard write-ahead
    /// logs every row before processing it and periodically checkpoints its
    /// full detector state under `<state_dir>/shard-<idx>/`, and
    /// [`crate::ServeEngine::open_or_recover`] warm-restarts from whatever
    /// is found there. `None` (the default) disables persistence entirely.
    pub(crate) state_dir: Option<PathBuf>,
    /// A shard writes a durable checkpoint (snapshot + WAL rotation) after
    /// every `checkpoint_every` processed points, plus once at clean
    /// shutdown. `0` checkpoints only at shutdown. Ignored without
    /// [`state_dir`](Self::state_dir).
    pub(crate) checkpoint_every: u64,
    /// How eagerly WAL appends reach stable storage (see
    /// [`FsyncPolicy`]). Ignored without [`state_dir`](Self::state_dir).
    pub(crate) fsync: FsyncPolicy,
}

impl ServeConfig {
    /// Config with `shards` workers and defaults: queue capacity 1024,
    /// blocking backpressure, snapshots every 256 points, micro-batches of
    /// up to 64 queued points, 2 worker restarts per shard.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            queue_capacity: 1024,
            backpressure: BackpressurePolicy::Block,
            snapshot_every: 256,
            max_batch: 64,
            max_restarts: 2,
            state_dir: None,
            checkpoint_every: 4096,
            fsync: FsyncPolicy::default(),
        }
    }

    /// Sets the per-shard queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the full-queue behaviour.
    #[must_use]
    pub fn with_backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.backpressure = policy;
        self
    }

    /// Sets the snapshot publication period (0 = only on shutdown).
    #[must_use]
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.snapshot_every = every;
        self
    }

    /// Sets the worker micro-batch ceiling (1 = score strictly per point).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the per-shard worker restart budget (0 = degrade on first
    /// panic).
    #[must_use]
    pub fn with_max_restarts(mut self, max_restarts: u32) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// Enables durable state under `dir` (WAL + periodic checkpoints per
    /// shard; warm restart via [`crate::ServeEngine::open_or_recover`]).
    #[must_use]
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Sets the durable checkpoint period in processed points per shard
    /// (0 = only at clean shutdown).
    #[must_use]
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Sets the WAL fsync policy.
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::InvalidConfig("shards must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity must be >= 1".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_rejected() {
        assert!(ServeConfig::new(0).validate().is_err());
        assert!(ServeConfig::new(1)
            .with_queue_capacity(0)
            .validate()
            .is_err());
        assert!(ServeConfig::new(1).with_max_batch(0).validate().is_err());
        assert!(ServeConfig::new(1).validate().is_ok());
        assert!(ServeConfig::new(1).with_max_batch(1).validate().is_ok());
    }
}
