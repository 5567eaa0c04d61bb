//! Structured pipeline events.

use serde::{DeError, Deserialize, Serialize, Value};

/// A discrete pipeline moment worth logging.
///
/// Events are only constructed when a recorder is
/// [`enabled`](crate::Recorder::enabled), so the `String` fields cost
/// nothing on the no-op path. Timestamps are logical (points processed /
/// sequence numbers), not wall-clock: logical time is what makes event logs
/// comparable across runs and shards.
///
/// The JSON form is a flat object tagged by `kind`
/// (e.g. `{"kind":"refresh_fired","processed":10,"reason":"warmup"}`);
/// `Serialize`/`Deserialize` are written by hand because the vendored serde
/// derive only produces externally-tagged enums.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A detector rebuilt its subspace model from the sketch.
    RefreshFired {
        /// Points the detector had processed when the refresh fired.
        processed: u64,
        /// Why: `"warmup"`, or the refresh policy's label
        /// (e.g. `"periodic(64)"`, `"adaptive(0.1,512)"`).
        reason: String,
    },
    /// A serve shard published a model snapshot for lock-free readers.
    SnapshotPublished {
        /// Publishing shard index.
        shard: usize,
        /// Snapshot generation counter after this publication.
        generation: u64,
        /// Points the shard had processed at publication.
        processed: u64,
    },
    /// A submission found a full shard queue and blocked (`Block` policy).
    QueueBlocked {
        /// The full shard.
        shard: usize,
        /// Global submission sequence number of the blocked point.
        seq: u64,
    },
    /// A submission was discarded at a full shard queue (`DropNewest`).
    QueueDropped {
        /// The full shard.
        shard: usize,
        /// Global submission sequence number of the dropped point.
        seq: u64,
    },
    /// A frequent-directions sketch ran an SVD shrink.
    SketchShrink {
        /// Stream rows folded into the sketch when the shrink ran.
        rows_seen: u64,
        /// The `Σδ` error certificate after this shrink.
        error_bound: f64,
    },
    /// A submitted row failed input validation and was quarantined.
    PointRejected {
        /// The shard the row was routed to.
        shard: usize,
        /// Global submission sequence number of the rejected row.
        seq: u64,
        /// The violation label from `sketchad-core`'s `InputViolation`:
        /// `"non_finite"` or `"wrong_dim"`.
        reason: String,
    },
    /// The oldest queued update was evicted to admit a newer one
    /// (`ShedOldest` policy), or an update was refused by a degraded
    /// shard.
    QueueShed {
        /// The shedding shard.
        shard: usize,
        /// Global submission sequence number of the shed point.
        seq: u64,
    },
    /// A shard worker panicked and was restarted from its last published
    /// snapshot.
    WorkerRestarted {
        /// The restarted shard.
        shard: usize,
        /// Total restarts of this shard so far, this one included.
        restarts: u64,
    },
    /// A shard exhausted its restart budget and degraded to
    /// shed-with-count: reads still serve the stale snapshot, updates are
    /// counted as shed.
    ShardDegraded {
        /// The degraded shard.
        shard: usize,
        /// Restarts consumed before degrading.
        restarts: u64,
    },
    /// A shard warm-restarted from durable state before accepting traffic:
    /// its detector was restored from an on-disk snapshot and the WAL tail
    /// was replayed.
    ShardRecovered {
        /// The recovered shard.
        shard: usize,
        /// Generation of the snapshot the detector was restored from
        /// (0 when no snapshot existed and only the WAL was replayed).
        generation: u64,
        /// WAL rows replayed on top of the snapshot.
        replayed: u64,
    },
}

impl Event {
    /// Stable identifier of the event kind (the JSON `kind` tag).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Event::RefreshFired { .. } => "refresh_fired",
            Event::SnapshotPublished { .. } => "snapshot_published",
            Event::QueueBlocked { .. } => "queue_blocked",
            Event::QueueDropped { .. } => "queue_dropped",
            Event::SketchShrink { .. } => "sketch_shrink",
            Event::PointRejected { .. } => "point_rejected",
            Event::QueueShed { .. } => "queue_shed",
            Event::WorkerRestarted { .. } => "worker_restarted",
            Event::ShardDegraded { .. } => "shard_degraded",
            Event::ShardRecovered { .. } => "shard_recovered",
        }
    }
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut entries = vec![("kind".to_string(), Value::String(self.kind().to_string()))];
        match self {
            Event::RefreshFired { processed, reason } => {
                entries.push(("processed".into(), processed.to_value()));
                entries.push(("reason".into(), reason.to_value()));
            }
            Event::SnapshotPublished {
                shard,
                generation,
                processed,
            } => {
                entries.push(("shard".into(), shard.to_value()));
                entries.push(("generation".into(), generation.to_value()));
                entries.push(("processed".into(), processed.to_value()));
            }
            Event::QueueBlocked { shard, seq } | Event::QueueDropped { shard, seq } => {
                entries.push(("shard".into(), shard.to_value()));
                entries.push(("seq".into(), seq.to_value()));
            }
            Event::SketchShrink {
                rows_seen,
                error_bound,
            } => {
                entries.push(("rows_seen".into(), rows_seen.to_value()));
                entries.push(("error_bound".into(), error_bound.to_value()));
            }
            Event::PointRejected { shard, seq, reason } => {
                entries.push(("shard".into(), shard.to_value()));
                entries.push(("seq".into(), seq.to_value()));
                entries.push(("reason".into(), reason.to_value()));
            }
            Event::QueueShed { shard, seq } => {
                entries.push(("shard".into(), shard.to_value()));
                entries.push(("seq".into(), seq.to_value()));
            }
            Event::WorkerRestarted { shard, restarts }
            | Event::ShardDegraded { shard, restarts } => {
                entries.push(("shard".into(), shard.to_value()));
                entries.push(("restarts".into(), restarts.to_value()));
            }
            Event::ShardRecovered {
                shard,
                generation,
                replayed,
            } => {
                entries.push(("shard".into(), shard.to_value()));
                entries.push(("generation".into(), generation.to_value()));
                entries.push(("replayed".into(), replayed.to_value()));
            }
        }
        Value::Object(entries)
    }
}

/// Looks up one required field of an `Event` object.
fn field<T: Deserialize>(entries: &[(String, Value)], name: &str) -> Result<T, DeError> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v).map_err(|e| DeError::custom(format!("Event.{name}: {e}"))),
        None => Err(DeError::custom(format!("missing field `{name}` in Event"))),
    }
}

impl Deserialize for Event {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let entries = value.as_object().ok_or_else(|| {
            DeError::custom(format!("expected Event object, found {}", value.kind()))
        })?;
        let kind: String = field(entries, "kind")?;
        match kind.as_str() {
            "refresh_fired" => Ok(Event::RefreshFired {
                processed: field(entries, "processed")?,
                reason: field(entries, "reason")?,
            }),
            "snapshot_published" => Ok(Event::SnapshotPublished {
                shard: field(entries, "shard")?,
                generation: field(entries, "generation")?,
                processed: field(entries, "processed")?,
            }),
            "queue_blocked" => Ok(Event::QueueBlocked {
                shard: field(entries, "shard")?,
                seq: field(entries, "seq")?,
            }),
            "queue_dropped" => Ok(Event::QueueDropped {
                shard: field(entries, "shard")?,
                seq: field(entries, "seq")?,
            }),
            "sketch_shrink" => Ok(Event::SketchShrink {
                rows_seen: field(entries, "rows_seen")?,
                error_bound: field(entries, "error_bound")?,
            }),
            "point_rejected" => Ok(Event::PointRejected {
                shard: field(entries, "shard")?,
                seq: field(entries, "seq")?,
                reason: field(entries, "reason")?,
            }),
            "queue_shed" => Ok(Event::QueueShed {
                shard: field(entries, "shard")?,
                seq: field(entries, "seq")?,
            }),
            "worker_restarted" => Ok(Event::WorkerRestarted {
                shard: field(entries, "shard")?,
                restarts: field(entries, "restarts")?,
            }),
            "shard_degraded" => Ok(Event::ShardDegraded {
                shard: field(entries, "shard")?,
                restarts: field(entries, "restarts")?,
            }),
            "shard_recovered" => Ok(Event::ShardRecovered {
                shard: field(entries, "shard")?,
                generation: field(entries, "generation")?,
                replayed: field(entries, "replayed")?,
            }),
            other => Err(DeError::custom(format!("unknown Event kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_tagging_uses_kind() {
        let e = Event::RefreshFired {
            processed: 10,
            reason: "warmup".into(),
        };
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.contains("\"kind\":\"refresh_fired\""), "{json}");
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn every_variant_round_trips() {
        let events = [
            Event::RefreshFired {
                processed: 0,
                reason: String::new(),
            },
            Event::SnapshotPublished {
                shard: 0,
                generation: 1,
                processed: 2,
            },
            Event::QueueBlocked { shard: 0, seq: 1 },
            Event::QueueDropped { shard: 3, seq: 9 },
            Event::SketchShrink {
                rows_seen: 3,
                error_bound: 0.5,
            },
            Event::PointRejected {
                shard: 1,
                seq: 42,
                reason: "non_finite".into(),
            },
            Event::QueueShed { shard: 2, seq: 7 },
            Event::WorkerRestarted {
                shard: 0,
                restarts: 1,
            },
            Event::ShardDegraded {
                shard: 3,
                restarts: 2,
            },
        ];
        for e in &events {
            let json = serde_json::to_string(e).unwrap();
            assert!(
                json.contains(&format!("\"kind\":\"{}\"", e.kind())),
                "{json} vs {}",
                e.kind()
            );
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, e);
        }
    }

    #[test]
    fn unknown_kind_is_an_error() {
        let err = serde_json::from_str::<Event>("{\"kind\":\"bogus\"}").unwrap_err();
        assert!(err.to_string().contains("bogus"), "{err}");
    }
}
