//! Model-refresh policies.
//!
//! Recomputing the top-k SVD of the sketch on *every* point would waste the
//! speed the sketch buys; recomputing too rarely lets the model go stale.
//! The paper's implementation refreshes periodically; we additionally offer
//! an energy-triggered adaptive policy (ablated in experiment F8).

/// When a detector rebuilds its subspace model from the sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshPolicy {
    /// Rebuild every `period` processed points.
    Periodic {
        /// Points between rebuilds.
        period: usize,
    },
    /// Rebuild when the sketch's Frobenius energy has grown by the factor
    /// `growth` since the last rebuild, or after `max_period` points —
    /// whichever comes first. Adapts refresh frequency to stream volatility.
    EnergyTriggered {
        /// Relative energy growth (e.g. `0.2` = 20%) that forces a rebuild.
        growth: f64,
        /// Hard upper bound on the interval between rebuilds.
        max_period: usize,
    },
}

impl Default for RefreshPolicy {
    fn default() -> Self {
        RefreshPolicy::Periodic { period: 64 }
    }
}

impl RefreshPolicy {
    /// Decides whether to rebuild now.
    ///
    /// * `since_refresh` — points processed since the last rebuild;
    /// * `energy_now` / `energy_at_refresh` — sketch Frobenius mass now and
    ///   at the last rebuild (used by the adaptive policy).
    pub(crate) fn should_refresh(
        &self,
        since_refresh: usize,
        energy_now: f64,
        energy_at_refresh: f64,
    ) -> bool {
        if since_refresh == 0 {
            return false;
        }
        match *self {
            RefreshPolicy::Periodic { period } => since_refresh >= period.max(1),
            RefreshPolicy::EnergyTriggered { growth, max_period } => {
                if since_refresh >= max_period.max(1) {
                    return true;
                }
                if energy_at_refresh <= 0.0 {
                    return true;
                }
                energy_now >= energy_at_refresh * (1.0 + growth)
            }
        }
    }

    /// Short identifier for tables.
    pub fn label(&self) -> String {
        match self {
            RefreshPolicy::Periodic { period } => format!("periodic({period})"),
            RefreshPolicy::EnergyTriggered { growth, max_period } => {
                format!("adaptive({growth},{max_period})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_fires_on_schedule() {
        let p = RefreshPolicy::Periodic { period: 10 };
        assert!(!p.should_refresh(0, 1.0, 1.0));
        assert!(!p.should_refresh(9, 1.0, 1.0));
        assert!(p.should_refresh(10, 1.0, 1.0));
        assert!(p.should_refresh(11, 1.0, 1.0));
    }

    #[test]
    fn adaptive_fires_on_energy_growth() {
        let p = RefreshPolicy::EnergyTriggered {
            growth: 0.5,
            max_period: 1000,
        };
        assert!(!p.should_refresh(5, 1.4, 1.0));
        assert!(p.should_refresh(5, 1.5, 1.0));
    }

    #[test]
    fn adaptive_fires_on_max_period() {
        let p = RefreshPolicy::EnergyTriggered {
            growth: 10.0,
            max_period: 8,
        };
        assert!(!p.should_refresh(7, 1.0, 1.0));
        assert!(p.should_refresh(8, 1.0, 1.0));
    }

    #[test]
    fn adaptive_fires_when_baseline_energy_is_zero() {
        let p = RefreshPolicy::EnergyTriggered {
            growth: 0.1,
            max_period: 100,
        };
        assert!(p.should_refresh(1, 5.0, 0.0));
    }

    #[test]
    fn never_fires_immediately_after_refresh() {
        for p in [
            RefreshPolicy::Periodic { period: 1 },
            RefreshPolicy::EnergyTriggered {
                growth: 0.0,
                max_period: 1,
            },
        ] {
            assert!(!p.should_refresh(0, 100.0, 1.0), "{p:?}");
        }
    }

    #[test]
    fn labels_mention_parameters() {
        assert_eq!(RefreshPolicy::Periodic { period: 7 }.label(), "periodic(7)");
        assert!(RefreshPolicy::EnergyTriggered {
            growth: 0.2,
            max_period: 50
        }
        .label()
        .contains("0.2"));
    }
}
