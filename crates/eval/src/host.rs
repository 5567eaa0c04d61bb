//! Host metadata stamped into every matrix artifact header.
//!
//! Throughput numbers are meaningless without knowing what ran them: a
//! "2.1× with 4 shards" on a single-core container is coordination overhead,
//! not scaling. Every `MATRIX_*.json` artifact therefore embeds a
//! [`HostMeta`] block so readers (and the schema checker) can judge the
//! numbers against the hardware that produced them.

use serde::{Deserialize, Serialize};

/// The machine facts that gate interpretation of a benchmark run.
#[derive(Serialize, Deserialize, Clone, Debug, PartialEq, Eq)]
pub struct HostMeta {
    /// `std::thread::available_parallelism()` at capture time — the ceiling
    /// on any thread-scaling result in the artifact.
    pub available_parallelism: usize,
    /// Target architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Target OS (`std::env::consts::OS`).
    pub os: String,
    /// The SIMD dispatch tier the linalg kernels resolved to on this CPU
    /// (`sketchad_linalg::active_simd_tier()`), e.g. `"avx2"` or `"scalar"`.
    pub simd_dispatch: String,
}

impl HostMeta {
    /// Capture the current host's facts.
    pub fn capture() -> Self {
        Self {
            available_parallelism: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            arch: std::env::consts::ARCH.to_string(),
            os: std::env::consts::OS.to_string(),
            simd_dispatch: sketchad_linalg::active_simd_tier().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_sane_and_roundtrips() {
        let host = HostMeta::capture();
        assert!(host.available_parallelism >= 1);
        assert!(!host.arch.is_empty());
        assert!(!host.os.is_empty());
        assert!(!host.simd_dispatch.is_empty());
        let json = serde_json::to_string(&host).unwrap();
        assert!(json.contains("\"available_parallelism\""));
        assert!(json.contains("\"simd_dispatch\""));
        let back: HostMeta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, host);
    }
}
