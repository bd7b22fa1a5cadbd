//! Opening and validating snapshot files.
//!
//! [`SnapshotFile::open`] memory-maps the file on unix (falling back
//! to an 8-byte-aligned owned buffer) and validates the header, the
//! section table and every section checksum before it returns, so a
//! successfully opened file hands out only bounds-checked,
//! checksum-verified payload slices. What a section's payload means is
//! its owner's to check; an owner may check some sections in place at
//! open and decode them later: it keeps the open [`std::fs::File`]
//! (never the mapping), and [`SnapshotFile::reopen`] maps it again and
//! re-verifies just those sections' checksums, so bytes changed in
//! place since the open are refused instead of decoded.

use crate::error::SnapshotError;
use crate::format::{fnv1a, FORMAT_VERSION, HEADER_BYTES, MAGIC, SECTION_ALIGN, TABLE_ENTRY_BYTES};
use std::path::Path;

/// One validated section-table entry.
#[derive(Debug, Clone, Copy)]
pub struct SectionMeta {
    /// Section id (stable across versions; new ids bump the version).
    pub id: u32,
    /// Name from the known-section registry passed to `open`.
    pub name: &'static str,
    /// Absolute payload offset (8-byte aligned).
    pub offset: usize,
    /// Payload byte length (unpadded).
    pub len: usize,
    /// The payload's FNV-1a checksum, as stored and verified.
    pub checksum: u64,
}

enum Buffer {
    #[cfg(unix)]
    Mmap(mmap::Map),
    Owned(AlignedBuf),
}

impl Buffer {
    fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Buffer::Mmap(m) => m.as_slice(),
            Buffer::Owned(b) => b.as_slice(),
        }
    }
}

/// A `u64`-backed byte buffer, so payload slices keep the same 8-byte
/// alignment guarantee the mmap path gets from page alignment.
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn from_bytes(bytes: &[u8]) -> Self {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: `words` owns `words.len() * 8 >= bytes.len()` valid,
        // initialized bytes; viewing u64s as bytes is always sound.
        let dst = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 8)
        };
        dst[..bytes.len()].copy_from_slice(bytes);
        Self {
            words,
            len: bytes.len(),
        }
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: same layout argument as in `from_bytes`; `len` never
        // exceeds the owned allocation.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }
}

/// An opened, fully validated snapshot.
pub struct SnapshotFile {
    buf: Buffer,
    sections: Vec<SectionMeta>,
    known: &'static [(u32, &'static str)],
}

impl SnapshotFile {
    /// Opens and validates `path`. `known` maps every section id this
    /// build understands to its display name; a table entry outside
    /// the registry fails with [`SnapshotError::UnknownSection`]
    /// (new sections require a format-version bump).
    ///
    /// Validation covers: magic, version, table bounds, per-section
    /// offset/length bounds and 8-byte alignment, duplicate ids, and
    /// every section's FNV-1a checksum.
    pub fn open(path: &Path, known: &'static [(u32, &'static str)]) -> Result<Self, SnapshotError> {
        let file = std::fs::File::open(path).map_err(|e| SnapshotError::io("open", e))?;
        Self::open_file(&file, known)
    }

    /// [`open`](Self::open) on a file the caller already opened. A
    /// caller that keeps `file` can map validated sections again later
    /// with [`reopen`](Self::reopen), even after the path was replaced
    /// or deleted: the open file keeps its inode.
    pub fn open_file(
        file: &std::fs::File,
        known: &'static [(u32, &'static str)],
    ) -> Result<Self, SnapshotError> {
        Self::validate(Self::map_or_read(file)?, known)
    }

    /// Maps `file` again after an [`open_file`](Self::open_file) of it
    /// validated `sections` (entries of that open's
    /// [`sections`](Self::sections)), and re-verifies only those: each
    /// must still lie inside the file and match its recorded checksum.
    /// The header and the other sections are not read, so this costs one
    /// map plus the listed sections' checksums. The returned file hands
    /// out exactly the listed sections.
    ///
    /// A file rewritten in place since the open fails here with a
    /// structured error (a checksum mismatch, or a section past the new
    /// end of the file); a file replaced by `rename(2)` or unlinked does
    /// not, because `file` still holds the inode that was validated.
    pub fn reopen(
        file: &std::fs::File,
        sections: &[SectionMeta],
        known: &'static [(u32, &'static str)],
    ) -> Result<Self, SnapshotError> {
        let buf = Self::map_or_read(file)?;
        let bytes = buf.as_slice();
        for m in sections {
            let end = m.offset.checked_add(m.len).filter(|&e| e <= bytes.len());
            let Some(end) = end else {
                return Err(SnapshotError::Truncated {
                    section: m.name,
                    needed: (m.offset as u64).saturating_add(m.len as u64),
                    available: bytes.len() as u64,
                });
            };
            let computed = fnv1a(&bytes[m.offset..end]);
            if computed != m.checksum {
                return Err(SnapshotError::ChecksumMismatch {
                    section: m.name,
                    stored: m.checksum,
                    computed,
                });
            }
        }
        Ok(Self {
            buf,
            sections: sections.to_vec(),
            known,
        })
    }

    /// Validates an in-memory image — the corruption battery's entry
    /// point, and what `open` uses after mapping.
    pub fn from_bytes(
        bytes: &[u8],
        known: &'static [(u32, &'static str)],
    ) -> Result<Self, SnapshotError> {
        Self::validate(Buffer::Owned(AlignedBuf::from_bytes(bytes)), known)
    }

    fn map_or_read(file: &std::fs::File) -> Result<Buffer, SnapshotError> {
        let file_len = file
            .metadata()
            .map_err(|e| SnapshotError::io("stat", e))?
            .len();
        #[cfg(unix)]
        {
            if file_len > 0 {
                if let Some(map) = mmap::Map::new(file, file_len as usize) {
                    return Ok(Buffer::Mmap(map));
                }
            }
        }
        let _ = file_len;
        let mut bytes = Vec::new();
        use std::io::{Read, Seek};
        let mut f = file;
        f.seek(std::io::SeekFrom::Start(0))
            .and_then(|_| f.read_to_end(&mut bytes))
            .map_err(|e| SnapshotError::io("read", e))?;
        Ok(Buffer::Owned(AlignedBuf::from_bytes(&bytes)))
    }

    fn validate(buf: Buffer, known: &'static [(u32, &'static str)]) -> Result<Self, SnapshotError> {
        let bytes = buf.as_slice();
        let file_len = bytes.len() as u64;
        if bytes.len() < HEADER_BYTES {
            return Err(SnapshotError::Truncated {
                section: "header",
                needed: HEADER_BYTES as u64,
                available: file_len,
            });
        }
        if bytes[..4] != MAGIC {
            return Err(SnapshotError::BadMagic {
                found: [bytes[0], bytes[1], bytes[2], bytes[3]],
            });
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version > FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as u64;
        let table_end = HEADER_BYTES as u64 + count * TABLE_ENTRY_BYTES as u64;
        if table_end > file_len {
            return Err(SnapshotError::Truncated {
                section: "section-table",
                needed: table_end,
                available: file_len,
            });
        }
        // lint:allow(snapshot-unchecked-len): count is bounds-proven against the file length just above
        let mut sections = Vec::with_capacity(count as usize);
        for s in 0..count as usize {
            let at = HEADER_BYTES + s * TABLE_ENTRY_BYTES;
            let entry = &bytes[at..at + TABLE_ENTRY_BYTES];
            let id = u32::from_le_bytes(entry[0..4].try_into().expect("4 bytes"));
            let offset = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(entry[16..24].try_into().expect("8 bytes"));
            let stored = u64::from_le_bytes(entry[24..32].try_into().expect("8 bytes"));
            let Some(&(_, name)) = known.iter().find(|(kid, _)| *kid == id) else {
                return Err(SnapshotError::UnknownSection { id });
            };
            if sections.iter().any(|m: &SectionMeta| m.id == id) {
                return Err(SnapshotError::Malformed {
                    section: name,
                    detail: "duplicate section id in table".to_string(),
                });
            }
            if offset % SECTION_ALIGN as u64 != 0 {
                return Err(SnapshotError::Misaligned {
                    section: name,
                    offset,
                });
            }
            let end = offset
                .checked_add(len)
                .ok_or(SnapshotError::LengthOverflow {
                    section: name,
                    claimed: len,
                    limit: file_len,
                })?;
            if end > file_len {
                return Err(SnapshotError::LengthOverflow {
                    section: name,
                    claimed: len,
                    limit: file_len.saturating_sub(offset),
                });
            }
            let payload = &bytes[offset as usize..end as usize];
            let computed = fnv1a(payload);
            if computed != stored {
                return Err(SnapshotError::ChecksumMismatch {
                    section: name,
                    stored,
                    computed,
                });
            }
            sections.push(SectionMeta {
                id,
                name,
                offset: offset as usize,
                len: len as usize,
                checksum: stored,
            });
        }
        Ok(Self {
            buf,
            sections,
            known,
        })
    }

    /// The validated section directory, in table order.
    pub fn sections(&self) -> &[SectionMeta] {
        &self.sections
    }

    /// Whether section `id` is present.
    pub fn has_section(&self, id: u32) -> bool {
        self.sections.iter().any(|m| m.id == id)
    }

    /// The payload slice of section `id`, or `MissingSection`. The
    /// slice borrows straight from the map/buffer (zero-copy) and its
    /// base is 8-byte aligned.
    pub fn section(&self, id: u32) -> Result<&[u8], SnapshotError> {
        match self.sections.iter().find(|m| m.id == id) {
            Some(m) => Ok(&self.buf.as_slice()[m.offset..m.offset + m.len]),
            None => Err(SnapshotError::MissingSection {
                section: self
                    .known
                    .iter()
                    .find(|(kid, _)| *kid == id)
                    .map(|&(_, name)| name)
                    .unwrap_or("unknown"),
            }),
        }
    }
}

#[cfg(unix)]
mod mmap {
    //! A minimal private `mmap(2)` wrapper. `std` already links libc
    //! on unix, so declaring the two symbols we need keeps the crate
    //! dependency-free.

    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    pub struct Map {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is created read-only (PROT_READ,
    // MAP_PRIVATE), never handed out mutably, and unmapped exactly
    // once in `Drop` — moving it or sharing `&Map` across threads
    // cannot introduce aliased writes.
    unsafe impl Send for Map {}
    // SAFETY: as above — all access is through `&self` reads of an
    // immutable mapping.
    unsafe impl Sync for Map {}

    impl Map {
        /// Read-only private map of the whole file, or `None` if the
        /// kernel refuses (caller falls back to a buffered read).
        pub fn new(file: &std::fs::File, len: usize) -> Option<Self> {
            if len == 0 {
                return None;
            }
            // SAFETY: fd is a valid open file for the duration of the
            // call; we request a fresh read-only private mapping of
            // `len` bytes at a kernel-chosen address and check for
            // MAP_FAILED before using it.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 || ptr.is_null() {
                return None;
            }
            Some(Self { ptr, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly
            // `len` bytes, unmapped only in `Drop`; MAP_PRIVATE means
            // no other writer can shrink it under us.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe the mapping created in
            // `new`, unmapped exactly once here.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{put_bytes, put_u64, SnapshotBuilder};

    const KNOWN: &[(u32, &str)] = &[(1, "alpha"), (2, "beta")];

    fn image() -> Vec<u8> {
        let mut b = SnapshotBuilder::new();
        put_bytes(b.section(1), b"payload-one");
        put_u64(b.section(2), 99);
        b.to_bytes()
    }

    #[test]
    fn open_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("fsnp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.fsnp");
        let mut b = SnapshotBuilder::new();
        put_bytes(b.section(1), b"payload-one");
        put_u64(b.section(2), 99);
        b.write_atomic(&path).unwrap();
        let f = SnapshotFile::open(&path, KNOWN).unwrap();
        let mut c = crate::Cursor::new("alpha", f.section(1).unwrap());
        assert_eq!(c.bytes().unwrap(), b"payload-one");
        let mut c = crate::Cursor::new("beta", f.section(2).unwrap());
        assert_eq!(c.u64().unwrap(), 99);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_survives_a_rename_and_refuses_an_in_place_overwrite() {
        let dir = std::env::temp_dir().join(format!("fsnp-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.fsnp");
        std::fs::write(&path, image()).unwrap();
        let held = std::fs::File::open(&path).unwrap();
        let beta: Vec<SectionMeta> = SnapshotFile::open_file(&held, KNOWN)
            .unwrap()
            .sections()
            .iter()
            .filter(|m| m.id == 2)
            .copied()
            .collect();

        // Replaced by rename: the held inode still has the old bytes.
        let mut b = SnapshotBuilder::new();
        put_u64(b.section(2), 7);
        b.write_atomic(&path).unwrap();
        let again = SnapshotFile::reopen(&held, &beta, KNOWN).unwrap();
        assert_eq!(
            crate::Cursor::new("beta", again.section(2).unwrap())
                .u64()
                .unwrap(),
            99
        );
        assert!(matches!(
            again.section(1),
            Err(SnapshotError::MissingSection { section: "alpha" })
        ));

        // Overwritten in place: the same length with one payload byte
        // changed, then cut short.
        let held = std::fs::File::open(&path).unwrap();
        let beta: Vec<SectionMeta> = SnapshotFile::open_file(&held, KNOWN)
            .unwrap()
            .sections()
            .to_vec();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = beta[0].offset;
        bytes[at] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SnapshotFile::reopen(&held, &beta, KNOWN),
            Err(SnapshotError::ChecksumMismatch {
                section: "beta",
                ..
            })
        ));
        std::fs::write(&path, &bytes[..at]).unwrap();
        assert!(matches!(
            SnapshotFile::reopen(&held, &beta, KNOWN),
            Err(SnapshotError::Truncated {
                section: "beta",
                ..
            })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sections_are_aligned_in_memory() {
        let f = SnapshotFile::from_bytes(&image(), KNOWN).unwrap();
        for m in f.sections() {
            let slice = f.section(m.id).unwrap();
            assert_eq!(
                slice.as_ptr() as usize % 8,
                0,
                "section {} unaligned",
                m.name
            );
        }
    }

    #[test]
    fn bad_magic() {
        let mut img = image();
        img[0] = b'X';
        assert!(matches!(
            SnapshotFile::from_bytes(&img, KNOWN),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version() {
        let mut img = image();
        img[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            SnapshotFile::from_bytes(&img, KNOWN),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn payload_bit_flip_names_section() {
        let mut img = image();
        let at = img.len() - 3;
        img[at] ^= 0x40;
        match SnapshotFile::from_bytes(&img, KNOWN) {
            Err(SnapshotError::ChecksumMismatch { section, .. }) => {
                assert_eq!(section, "beta");
            }
            Err(other) => panic!("expected checksum mismatch, got {other:?}"),
            Ok(_) => panic!("expected checksum mismatch, got Ok"),
        }
    }

    #[test]
    fn unknown_section_id() {
        let mut b = SnapshotBuilder::new();
        put_u64(b.section(77), 1);
        let img = b.to_bytes();
        assert!(matches!(
            SnapshotFile::from_bytes(&img, KNOWN),
            Err(SnapshotError::UnknownSection { id: 77 })
        ));
    }

    #[test]
    fn missing_section_is_structured() {
        let f = SnapshotFile::from_bytes(&image(), KNOWN).unwrap();
        assert!(matches!(
            f.section(99),
            Err(SnapshotError::MissingSection { .. })
        ));
    }

    #[test]
    fn length_overflowing_file_is_rejected() {
        let mut img = image();
        // Section 1's table entry: len field at HEADER + 16.
        let at = crate::format::HEADER_BYTES + 16;
        img[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            SnapshotFile::from_bytes(&img, KNOWN),
            Err(SnapshotError::LengthOverflow {
                section: "alpha",
                ..
            })
        ));
    }

    #[test]
    fn snapshot_file_is_send_and_sync() {
        // Retained spill mappings (`fsim-core`) share validated files
        // across a parallel sweep; losing these bounds is a breakage.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SnapshotFile>();
    }

    #[test]
    fn empty_file_is_truncated_header() {
        assert!(matches!(
            SnapshotFile::from_bytes(&[], KNOWN),
            Err(SnapshotError::Truncated {
                section: "header",
                ..
            })
        ));
    }
}
