//! The versioned binary snapshot container.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! +--------------------+  8 bytes   magic  "LYRICSNP"
//! | magic              |
//! +--------------------+  4 bytes   format version (VERSION)
//! | version            |
//! +--------------------+  4 bytes   number of sections
//! | section count      |
//! +--------------------+
//! | section 0          |  tag[4] | len u64 | payload[len] | fnv64(payload)
//! | section 1          |  ...
//! +--------------------+
//! ```
//!
//! Readers verify, in order: magic, version, per-section header
//! completeness, non-empty payloads, the FNV-1a checksum of every
//! payload, and the absence of trailing bytes. Every failure mode is a
//! distinct [`SnapshotError`] variant so callers can report *what* is
//! corrupt, and no partially-decoded data ever escapes.

use std::fmt;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"LYRICSNP";

/// The current container format version. Version 1 carried the textual
/// dump in a `DBTX` section; version 2 carries binary sections.
pub const VERSION: u32 = 2;

/// A structured snapshot decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before `context` could be read.
    Truncated {
        /// What the reader was trying to decode.
        context: &'static str,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The version field is not [`VERSION`].
    BadVersion {
        /// The version tag found in the file.
        found: u32,
        /// The version this reader understands.
        expected: u32,
    },
    /// A section payload does not match its stored checksum.
    BadChecksum {
        /// The section's 4-byte tag, rendered as ASCII.
        tag: String,
    },
    /// A section declared a zero-length payload.
    EmptySection {
        /// The section's 4-byte tag, rendered as ASCII.
        tag: String,
    },
    /// Bytes remain after the declared sections.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A required section is missing or an unexpected one is present.
    BadLayout {
        /// What the decoder expected to find.
        detail: String,
    },
    /// A section's payload passed its checksum but does not decode or
    /// fails validation.
    Invalid {
        /// The section's 4-byte tag, rendered as ASCII.
        tag: String,
        /// What is wrong with it.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { context } => {
                write!(f, "truncated while reading {context}")
            }
            SnapshotError::BadMagic => write!(f, "bad magic (not a LyriC snapshot)"),
            SnapshotError::BadVersion { found: 1, expected } => write!(
                f,
                "unsupported snapshot version 1 (expected {expected}): version-1 snapshots \
                 wrap the textual dump, which this build no longer reads at start-up; \
                 convert the text dump (the old file's DBTX section, or the original \
                 `--db` text) with `lyric-serve --db DUMP.txt --save-db NEW.snap`"
            ),
            SnapshotError::BadVersion { found, expected } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {expected})"
                )
            }
            SnapshotError::BadChecksum { tag } => {
                write!(f, "checksum mismatch in section '{tag}'")
            }
            SnapshotError::EmptySection { tag } => {
                write!(f, "zero-length section '{tag}'")
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last section")
            }
            SnapshotError::BadLayout { detail } => write!(f, "bad section layout: {detail}"),
            SnapshotError::Invalid { tag, detail } => write!(f, "section '{tag}': {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// 64-bit FNV-1a over a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A section tag as printable ASCII.
pub(crate) fn tag_string(tag: &[u8; 4]) -> String {
    tag.iter()
        .map(|&b| if b.is_ascii_graphic() { b as char } else { '?' })
        .collect()
}

/// One decoded section: its 4-byte tag and its payload.
pub type Section = ([u8; 4], Vec<u8>);

/// Serialize sections into a container byte stream. Deterministic:
/// identical sections produce identical bytes.
pub fn write_container(sections: &[Section]) -> Vec<u8> {
    let body: usize = sections.iter().map(|(_, p)| 4 + 8 + p.len() + 8).sum();
    let mut out = Vec::with_capacity(8 + 4 + 4 + body);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in sections {
        out.extend_from_slice(tag);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&fnv64(payload).to_le_bytes());
    }
    out
}

/// Decode and fully verify a container byte stream.
pub fn read_container(bytes: &[u8]) -> Result<Vec<Section>, SnapshotError> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize, context: &'static str| -> Result<usize, SnapshotError> {
        let start = *at;
        let end = start
            .checked_add(n)
            .filter(|&e| e <= bytes.len())
            .ok_or(SnapshotError::Truncated { context })?;
        *at = end;
        Ok(start)
    };

    let magic_at = take(&mut at, 8, "magic")?;
    if bytes[magic_at..magic_at + 8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version_at = take(&mut at, 4, "version")?;
    let found = u32::from_le_bytes(bytes[version_at..version_at + 4].try_into().unwrap());
    if found != VERSION {
        return Err(SnapshotError::BadVersion {
            found,
            expected: VERSION,
        });
    }
    let count_at = take(&mut at, 4, "section count")?;
    let count = u32::from_le_bytes(bytes[count_at..count_at + 4].try_into().unwrap());

    let mut sections = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let tag_at = take(&mut at, 4, "section tag")?;
        let tag: [u8; 4] = bytes[tag_at..tag_at + 4].try_into().unwrap();
        let len_at = take(&mut at, 8, "section length")?;
        let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap());
        if len == 0 {
            return Err(SnapshotError::EmptySection {
                tag: tag_string(&tag),
            });
        }
        let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated {
            context: "section payload",
        })?;
        let payload_at = take(&mut at, len, "section payload")?;
        let payload = &bytes[payload_at..payload_at + len];
        let sum_at = take(&mut at, 8, "section checksum")?;
        let stored = u64::from_le_bytes(bytes[sum_at..sum_at + 8].try_into().unwrap());
        if fnv64(payload) != stored {
            return Err(SnapshotError::BadChecksum {
                tag: tag_string(&tag),
            });
        }
        sections.push((tag, payload.to_vec()));
    }
    if at != bytes.len() {
        return Err(SnapshotError::TrailingBytes {
            extra: bytes.len() - at,
        });
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Section> {
        vec![
            (*b"META", b"hello".to_vec()),
            (*b"DBTX", vec![0, 1, 2, 3, 255]),
        ]
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let bytes = write_container(&sample());
        let sections = read_container(&bytes).unwrap();
        assert_eq!(sections, sample());
        assert_eq!(write_container(&sections), bytes);
    }

    #[test]
    fn corruption_modes_are_distinguished() {
        let bytes = write_container(&sample());
        // Truncation, at every possible cut point, never panics.
        for cut in 0..bytes.len() {
            let err = read_container(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. })
                    || matches!(err, SnapshotError::BadChecksum { .. }),
                "cut at {cut}: {err}"
            );
        }
        // Flipped magic byte.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(read_container(&bad).unwrap_err(), SnapshotError::BadMagic);
        // Version skew.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert_eq!(
            read_container(&bad).unwrap_err(),
            SnapshotError::BadVersion {
                found: 99,
                expected: VERSION
            }
        );
        // Flipped payload byte: checksum catches it and names the section.
        let mut bad = bytes.clone();
        let payload_at = 8 + 4 + 4 + 4 + 8; // first payload byte
        bad[payload_at] ^= 0x01;
        assert_eq!(
            read_container(&bad).unwrap_err(),
            SnapshotError::BadChecksum { tag: "META".into() }
        );
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert_eq!(
            read_container(&bad).unwrap_err(),
            SnapshotError::TrailingBytes { extra: 1 }
        );
        // Zero-length section.
        let zero = write_container(&[(*b"META", vec![])]);
        assert_eq!(
            read_container(&zero).unwrap_err(),
            SnapshotError::EmptySection { tag: "META".into() }
        );
    }

    #[test]
    fn fnv_reference_values() {
        // FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
