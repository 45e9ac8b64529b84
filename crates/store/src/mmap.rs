//! Read-only memory mapping for segment files.
//!
//! A segment file is never modified in place: a write renames a new
//! file over it (`write_atomic`), and a live mapping keeps the old
//! file's pages. So the scan path can map segments instead of
//! copying them through a read buffer: page-cache-hot scans skip the
//! copy entirely and cold scans fault pages in on demand. CRC framing
//! is still verified over the mapped bytes — bit rot is rejected on
//! the mmap path exactly as on the buffered path.
//!
//! No mmap crate is vendored; on unix we declare the two libc symbols
//! we need directly (libc is always linked by std). Anything that
//! can't map — zero-length files, exotic filesystems, non-unix targets
//! — falls back to an owned `std::fs::read` buffer with identical
//! semantics.

use crate::StoreError;
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
}

/// An immutable byte view over a segment file: either a private
/// read-only mapping or an owned fallback buffer.
pub(crate) enum SegmentBytes {
    #[cfg(unix)]
    Mapped(Mmap),
    Owned(Vec<u8>),
}

impl std::ops::Deref for SegmentBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            SegmentBytes::Mapped(m) => m.bytes(),
            SegmentBytes::Owned(v) => v,
        }
    }
}

#[cfg(unix)]
pub(crate) struct Mmap {
    ptr: *mut std::os::raw::c_void,
    len: usize,
}

#[cfg(unix)]
impl Mmap {
    fn bytes(&self) -> &[u8] {
        // Safety: `ptr` is a live PROT_READ/MAP_PRIVATE mapping of
        // exactly `len` bytes, held until Drop. Segment files are
        // write-once (tmp + rename), so the backing file is never
        // truncated or rewritten under the mapping.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        // Safety: exact (ptr, len) pair returned by mmap.
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

// Safety: the mapping is private and read-only for its whole lifetime.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

/// Map `path` read-only, falling back to a buffered read when mapping
/// is unavailable.
pub(crate) fn map_file(path: &Path) -> Result<SegmentBytes, StoreError> {
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;

        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            return Ok(SegmentBytes::Owned(Vec::new()));
        }
        if usize::try_from(len).is_ok() {
            let len = len as usize;
            // Safety: valid fd, len > 0; a MAP_FAILED return is handled
            // by falling through to the buffered read.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize != -1 && !ptr.is_null() {
                fw_obs::counter_add!("fw.store.mmap.mapped_bytes", len as u64);
                return Ok(SegmentBytes::Mapped(Mmap { ptr, len }));
            }
        }
    }
    Ok(SegmentBytes::Owned(std::fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fw-mmap-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn maps_file_contents_exactly() {
        let path = tmp_path("roundtrip");
        let payload: Vec<u8> = (0..10_000u32).flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(&path, &payload).unwrap();
        let bytes = map_file(&path).unwrap();
        assert_eq!(&*bytes, &payload[..]);
        drop(bytes);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = tmp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let bytes = map_file(&path).unwrap();
        assert!(bytes.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(map_file(Path::new("/nonexistent/fw-mmap-missing")).is_err());
    }
}
