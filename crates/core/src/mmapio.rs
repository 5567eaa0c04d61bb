//! Zero-copy file access for replay paths: [`MappedBytes`] (a read-only
//! memory mapping with a buffered-read fallback) and [`MmapRows`] (a
//! validated `sketchad-rows/v1` mapping exposing [`RowsView`]).
//!
//! The batched ingest path made parsing free ([`RowsView`] reads rows
//! straight out of a byte slice), which leaves the *allocation* as the
//! replay cost: reading the whole file into a `Vec<u8>` before a single row
//! is scored doubles memory on multi-gigabyte replays and serializes ingest
//! behind one big `read`. Mapping the file instead lets the kernel page
//! bytes in on demand and share them across processes, and the `RowsView`
//! contract ("the whole file is usable as-is") means no other layer has to
//! change. [`MmapRows::open`] is the one way to open a `.rows` file.
//!
//! Platform strategy: on Unix the file is `mmap(2)`-ed `PROT_READ` +
//! `MAP_PRIVATE` through the raw libc ABI declared below (the workspace has
//! no libc crate). Everywhere else — and whenever mapping fails, the file
//! is empty, or `SKETCHAD_NO_MMAP=1` forces it — the same API is served by
//! an ordinary buffered read, so callers never observe the difference
//! except in speed. Scores and recovery results are bitwise identical
//! either way; tests pin that.

use std::fs;
use std::io;
use std::path::Path;

use crate::rowfmt::RowsView;

/// Environment knob: set to `1` to force the buffered-read fallback even
/// where `mmap` is available (used by tests and for debugging platform
/// issues in production).
pub const NO_MMAP_ENV: &str = "SKETCHAD_NO_MMAP";

/// The raw `mmap(2)`/`munmap(2)` ABI, fenced exactly like linalg's SIMD
/// module: one `#[allow(unsafe_code)]` island under the crate-level
/// `deny(unsafe_code)`, with the invariants written down.
///
/// Invariants the safe wrapper relies on:
/// * the mapping is `PROT_READ` + `MAP_PRIVATE`: nothing in this process
///   can write through it, so handing out `&[u8]` never aliases a mutable
///   view, and `Send`/`Sync` on the owner are sound;
/// * `len` is the exact file length captured at map time and is nonzero
///   (zero-length maps are rejected before the call — `mmap` would fail
///   with `EINVAL`);
/// * the pointer is only dereferenced between a successful `mmap` and the
///   owner's `Drop`, which is the unique caller of `munmap` (the owner is
///   neither `Clone` nor `Copy`);
/// * the fd is only needed during the `mmap` call itself — POSIX keeps the
///   mapping alive after the `File` closes;
/// * the caller must not truncate the file while the mapping is live
///   (POSIX makes accesses past a shrunken end fault). Replay inputs and
///   sealed WAL segments are immutable once written, which is why the
///   replay paths may map them; actively appended files must use the
///   buffered path;
/// * `madvise(MADV_DONTNEED)` (Linux only) may drop the resident pages of
///   a page-aligned prefix of a live mapping, even while `&[u8]` borrows
///   of those bytes are outstanding: `PROT_READ` + `MAP_PRIVATE` pages are
///   never written, so never copied on write, and the next read of a
///   dropped page faults the same file bytes back in. The addresses stay
///   mapped and the bytes they read do not change; only residency does.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use std::os::unix::io::AsRawFd;

    // Raw libc ABI (x86_64/aarch64 Linux + macOS layouts): `off_t` is
    // 64-bit on every Tier-1 Unix target this workspace supports.
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
        #[cfg(target_os = "linux")]
        fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
        #[cfg(target_os = "linux")]
        fn sysconf(name: i32) -> core::ffi::c_long;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MAP_FAILED: *mut core::ffi::c_void = usize::MAX as *mut core::ffi::c_void;
    #[cfg(target_os = "linux")]
    const MADV_DONTNEED: i32 = 4;
    #[cfg(target_os = "linux")]
    const SC_PAGESIZE: i32 = 30;

    /// An owned read-only mapping; `munmap`ped on drop.
    pub(super) struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is immutable for its whole life (PROT_READ |
    // MAP_PRIVATE, see module invariants), so shared references to its
    // bytes are valid from any thread and there is no interior mutability.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps `file` read-only, or returns `None` when the kernel
        /// declines (exotic filesystems, resource limits) so the caller
        /// falls back to a buffered read. `len` must be nonzero.
        pub(super) fn map(file: &std::fs::File, len: usize) -> Option<Mapping> {
            debug_assert!(len > 0, "zero-length maps are rejected by the caller");
            // SAFETY: fd is a live descriptor for the whole call; addr=null
            // lets the kernel choose placement; offset 0 is page-aligned.
            // The result is checked against MAP_FAILED before use.
            let ptr = unsafe {
                mmap(
                    core::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == MAP_FAILED || ptr.is_null() {
                return None;
            }
            Some(Mapping {
                ptr: ptr as *const u8,
                len,
            })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // `self`; it stays valid until Drop, and no mutable view exists.
            unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
        }

        /// Drops the resident pages of the first `len` bytes, rounded down
        /// to the page size, on Linux; a no-op elsewhere. Advisory: a
        /// failed `madvise` leaves the pages resident, which is harmless.
        pub(super) fn release_prefix(&self, len: usize) {
            #[cfg(target_os = "linux")]
            {
                // SAFETY: sysconf has no memory preconditions.
                let page = unsafe { sysconf(SC_PAGESIZE) };
                let Some(page) = usize::try_from(page).ok().filter(|&p| p > 0) else {
                    return;
                };
                let len = len.min(self.len) / page * page;
                if len == 0 {
                    return;
                }
                // SAFETY: [ptr, ptr + len) lies inside the live mapping and
                // ptr is page-aligned (mmap returned it). MADV_DONTNEED on a
                // never-written PROT_READ | MAP_PRIVATE file mapping only
                // drops residency; later reads fault in the same file bytes
                // (module invariants), so outstanding borrows stay valid.
                unsafe { madvise(self.ptr as *mut core::ffi::c_void, len, MADV_DONTNEED) };
            }
            #[cfg(not(target_os = "linux"))]
            let _ = len;
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: ptr/len are exactly what mmap returned; this is the
            // unique unmap (Mapping is neither Clone nor Copy). Failure is
            // unactionable in Drop — the mapping leaks, which is safe.
            let rc = unsafe { munmap(self.ptr as *mut core::ffi::c_void, self.len) };
            debug_assert_eq!(rc, 0, "munmap failed");
        }
    }
}

enum Backing {
    /// Live read-only mapping (Unix, mapping succeeded).
    #[cfg(unix)]
    Mapped(sys::Mapping),
    /// Whole file buffered in memory (non-Unix, empty file, forced via
    /// [`NO_MMAP_ENV`], or the kernel declined to map).
    Buffered(Vec<u8>),
}

/// A file's bytes, memory-mapped where possible and buffered otherwise.
///
/// The two backings are indistinguishable through the API — same bytes,
/// same lifetimes — so replay code is written once against
/// [`MappedBytes::bytes`] and gets zero-copy behaviour wherever the
/// platform provides it.
pub struct MappedBytes {
    backing: Backing,
}

impl MappedBytes {
    /// Opens `path` and maps it read-only, falling back to a buffered read
    /// when mapping is unavailable (non-unix target, empty file, declined
    /// `mmap`, or [`NO_MMAP_ENV`] set to `1`).
    pub fn open(path: &Path) -> io::Result<MappedBytes> {
        let force_buffered = std::env::var_os(NO_MMAP_ENV).is_some_and(|v| v == "1");
        Self::open_impl(path, force_buffered)
    }

    /// Opens `path` through the buffered backing unconditionally — the
    /// deterministic twin of [`open`](Self::open) that the equivalence
    /// tests compare against, whatever [`NO_MMAP_ENV`] says.
    #[cfg(test)]
    fn open_buffered(path: &Path) -> io::Result<MappedBytes> {
        Self::open_impl(path, true)
    }

    fn open_impl(path: &Path, force_buffered: bool) -> io::Result<MappedBytes> {
        #[cfg(unix)]
        if !force_buffered {
            let file = fs::File::open(path)?;
            let len = file.metadata()?.len();
            // usize::try_from guards 32-bit hosts; 0-length maps are invalid.
            if let Some(len) = usize::try_from(len).ok().filter(|&l| l > 0) {
                if let Some(mapping) = sys::Mapping::map(&file, len) {
                    return Ok(MappedBytes {
                        backing: Backing::Mapped(mapping),
                    });
                }
            }
        }
        let _ = force_buffered;
        Ok(MappedBytes {
            backing: Backing::Buffered(fs::read(path)?),
        })
    }

    /// The file's bytes, valid for the life of `self`.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped(m) => m.bytes(),
            Backing::Buffered(v) => v,
        }
    }

    /// Lets the kernel reclaim the resident pages of the first `len` bytes
    /// (rounded down to the page size): a reader that walks the file front
    /// to back calls this behind itself so its resident memory stays a
    /// window, not the file. The bytes and every outstanding borrow of them
    /// stay valid — a later read pages them back in. Only a live mapping on
    /// Linux releases anything; the buffered backing and other targets
    /// ignore the call.
    pub fn release_prefix(&self, len: usize) {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped(m) => m.release_prefix(len),
            Backing::Buffered(_) => {}
        }
    }

    /// Whether the zero-copy mapping is live (`false` means the buffered
    /// fallback served this file). Observability only — behaviour is
    /// identical either way.
    pub(crate) fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped(_) => true,
            Backing::Buffered(_) => false,
        }
    }
}

impl std::fmt::Debug for MappedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedBytes")
            .field("len", &self.bytes().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// A `sketchad-rows/v1` file mapped (or buffered) and validated at open:
/// the zero-copy backing for [`RowsView`] used by CLI replay and durable
/// recovery.
///
/// Validation happens once in [`open`](Self::open); afterwards
/// [`view`](Self::view) is infallible and O(1), so scoring loops borrow a
/// fresh `RowsView` without re-checking the header.
#[derive(Debug)]
pub struct MmapRows {
    bytes: MappedBytes,
}

impl MmapRows {
    /// Opens and validates a rows file. Format violations surface as
    /// `InvalidData` errors carrying the `rowfmt` diagnostic.
    pub fn open(path: &Path) -> io::Result<MmapRows> {
        Self::from_bytes(MappedBytes::open(path)?)
    }

    fn from_bytes(bytes: MappedBytes) -> io::Result<MmapRows> {
        RowsView::new(bytes.bytes())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(MmapRows { bytes })
    }

    /// A validated view over the mapped rows. O(1): re-parses only the
    /// fixed `crate::rowfmt::HEADER_LEN`-byte header already proven
    /// valid at open.
    pub fn view(&self) -> RowsView<'_> {
        RowsView::new(self.bytes.bytes()).expect("validated at open")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowfmt::{encode_rows, HEADER_LEN};

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mmapio_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_rows() -> Vec<Vec<f64>> {
        (0..64)
            .map(|i| (0..6).map(|j| (i * 7 + j) as f64 * 0.25 - 3.0).collect())
            .collect()
    }

    #[test]
    fn mapped_and_buffered_bytes_are_identical() {
        let dir = tmp("eq");
        let path = dir.join("sample.rows");
        let encoded = encode_rows(&sample_rows(), None).unwrap();
        fs::write(&path, &encoded).unwrap();

        let mapped = MappedBytes::open(&path).unwrap();
        let buffered = MappedBytes::open_buffered(&path).unwrap();
        assert!(!buffered.is_mapped());
        assert_eq!(mapped.bytes(), buffered.bytes());
        assert_eq!(mapped.bytes(), &encoded[..]);
        // On Unix the real mapping must have engaged (this is the path the
        // ASan job exercises); elsewhere the fallback serves the bytes.
        #[cfg(unix)]
        assert!(mapped.is_mapped(), "expected a live mmap on unix");
    }

    #[test]
    fn rows_views_decode_identically_across_backings() {
        let dir = tmp("rows");
        let path = dir.join("keyed.rows");
        let rows = sample_rows();
        let keys: Vec<u64> = (0..rows.len() as u64).map(|i| i * 3 + 1).collect();
        fs::write(&path, encode_rows(&rows, Some(&keys)).unwrap()).unwrap();

        let mapped = MmapRows::open(&path).unwrap();
        let buffered = MmapRows::from_bytes(MappedBytes::open_buffered(&path).unwrap()).unwrap();
        let (mv, bv) = (mapped.view(), buffered.view());
        assert_eq!(mv.len(), rows.len());
        assert_eq!(mv.len(), bv.len());
        assert_eq!(mv.dim(), bv.dim());
        let mut a = vec![0.0; mv.dim()];
        let mut b = vec![0.0; bv.dim()];
        for (i, row) in rows.iter().enumerate() {
            let ka = mv.read_row_into(i, &mut a).unwrap();
            let kb = bv.read_row_into(i, &mut b).unwrap();
            assert_eq!(ka, kb);
            assert_eq!(ka, Some(keys[i]));
            // Bitwise, not approximate: replay must reproduce scores.
            let abits: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
            let bbits: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
            assert_eq!(abits, bbits);
            assert_eq!(abits, row.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_file_uses_fallback_and_invalid_rows_are_rejected() {
        let dir = tmp("edge");
        let empty = dir.join("empty.bin");
        fs::write(&empty, b"").unwrap();
        let m = MappedBytes::open(&empty).unwrap();
        assert!(!m.is_mapped(), "zero-length files cannot be mapped");
        assert!(m.bytes().is_empty());

        // MmapRows validates at open: an empty or corrupt file never
        // reaches the scoring loop.
        assert_eq!(
            MmapRows::open(&empty).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let garbage = dir.join("garbage.rows");
        fs::write(&garbage, vec![0xAB; HEADER_LEN + 3]).unwrap();
        assert_eq!(
            MmapRows::open(&garbage).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let missing = dir.join("missing.rows");
        assert_eq!(
            MmapRows::open(&missing).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }

    #[test]
    fn env_knob_forces_buffered_backing() {
        let dir = tmp("env");
        let path = dir.join("sample.rows");
        fs::write(&path, encode_rows(&sample_rows(), None).unwrap()).unwrap();
        // The knob is read per-open; set it only around this call. Tests
        // run in threads within one process, so scope the mutation tightly
        // and restore immediately (no other test reads this variable).
        std::env::set_var(NO_MMAP_ENV, "1");
        let forced = MappedBytes::open(&path);
        std::env::remove_var(NO_MMAP_ENV);
        assert!(!forced.unwrap().is_mapped());
    }

    #[test]
    fn released_pages_read_back_the_same_bytes() {
        // A file of several pages, read through a borrow taken before the
        // releases: every prefix length (page boundaries, mid-page, the
        // whole file, past it) leaves the same bytes behind, on either
        // backing. ASan watches the refaults.
        let dir = tmp("release");
        let path = dir.join("pages.bin");
        let encoded: Vec<u8> = (0..5 * 4096 + 123).map(|i| (i * 31 % 251) as u8).collect();
        fs::write(&path, &encoded).unwrap();
        for m in [
            MappedBytes::open(&path).unwrap(),
            MappedBytes::open_buffered(&path).unwrap(),
        ] {
            let bytes = m.bytes();
            assert_eq!(bytes, &encoded[..]);
            for len in [0, 1, 4095, 4096, 4097, 3 * 4096, encoded.len(), usize::MAX] {
                m.release_prefix(len);
                assert_eq!(bytes, &encoded[..], "after releasing {len} bytes");
            }
        }
    }

    #[test]
    fn mapping_outlives_many_drops() {
        // Map/unmap churn: the Drop path (munmap) runs once per mapping,
        // and bytes stay valid until the owner goes away. ASan watches.
        let dir = tmp("churn");
        let path = dir.join("sample.rows");
        let encoded = encode_rows(&sample_rows(), None).unwrap();
        fs::write(&path, &encoded).unwrap();
        for _ in 0..32 {
            let m = MappedBytes::open(&path).unwrap();
            assert_eq!(m.bytes().len(), encoded.len());
            assert_eq!(&m.bytes()[..4], b"SKRW");
        }
    }
}
