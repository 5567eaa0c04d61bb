//! Bounded quarantine for rows that failed input validation.
//!
//! A row with a `NaN`/`±∞` component or the wrong dimension must never reach
//! a detector: one non-finite value folded into the sketch poisons every
//! subsequent score, and a wrong-length row panics the worker. Instead of
//! erroring the whole pipeline (the pre-fault-tolerance behaviour), the
//! engine diverts such rows here — counted, capped, and inspectable after
//! the run — while the stream keeps flowing.

use sketchad_core::InputViolation;
use std::collections::VecDeque;

/// Rows the engine's quarantine retains; older ones are discarded beyond
/// it, while rejection counts stay exact.
pub(crate) const QUARANTINE_CAPACITY: usize = 64;

/// One quarantined row: what arrived, when, and why it was refused.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuarantinedRow {
    /// Global submission sequence number the row consumed.
    pub(crate) seq: u64,
    /// Why validation refused it.
    pub(crate) violation: InputViolation,
    /// The offending row, verbatim, for offline diagnosis.
    pub(crate) point: Vec<f64>,
}

/// A bounded drop-oldest buffer of rejected rows.
///
/// `total()` counts every rejection ever made; the retained rows are the
/// most recent `capacity` of them, so a poison flood cannot balloon memory
/// while accounting stays exact.
#[derive(Debug, Clone)]
pub struct Quarantine {
    rows: VecDeque<QuarantinedRow>,
    capacity: usize,
    total: u64,
}

impl Quarantine {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            rows: VecDeque::with_capacity(capacity.min(64)),
            capacity,
            total: 0,
        }
    }

    pub(crate) fn push(&mut self, seq: u64, violation: InputViolation, point: Vec<f64>) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.rows.len() >= self.capacity {
            self.rows.pop_front();
        }
        self.rows.push_back(QuarantinedRow {
            seq,
            violation,
            point,
        });
    }

    /// Every rejection ever recorded (retained or not).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of rows currently retained.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing was ever quarantined *and retained*.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The retained rows, oldest first.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> impl Iterator<Item = &QuarantinedRow> {
        self.rows.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nan_violation() -> InputViolation {
        InputViolation::NonFinite { index: 0 }
    }

    #[test]
    fn bounded_drop_oldest_with_exact_totals() {
        let mut q = Quarantine::new(2);
        for seq in 0..5u64 {
            q.push(seq, nan_violation(), vec![f64::NAN]);
        }
        assert_eq!(q.total(), 5);
        assert_eq!(q.total() - q.len() as u64, 3);
        assert_eq!(q.len(), 2);
        let seqs: Vec<u64> = q.rows().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4], "most recent rows are retained");
    }

    #[test]
    fn zero_capacity_counts_without_retaining() {
        let mut q = Quarantine::new(0);
        q.push(9, nan_violation(), vec![f64::INFINITY]);
        assert_eq!(q.total(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn rows_keep_their_payload() {
        let mut q = Quarantine::new(4);
        q.push(
            3,
            InputViolation::WrongDim {
                expected: 2,
                got: 1,
            },
            vec![1.5],
        );
        let row = q.rows().next().unwrap();
        assert_eq!(row.seq, 3);
        assert_eq!(row.point, vec![1.5]);
        assert_eq!(row.violation.label(), "wrong_dim");
    }
}
