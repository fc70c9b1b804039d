//! Typed snapshot errors.
//!
//! Every way a snapshot can be unreadable — wrong file, wrong version,
//! truncation, bit rot, internal inconsistency — maps to one
//! [`WireError`] variant with a precise `Display` rendering. The reader
//! **never panics** on malformed input; corrupt bytes always surface as a
//! value of this type.

use std::fmt;
use std::io;

/// Why a snapshot could not be written or read.
#[derive(Debug)]
pub enum WireError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// An atomic save renamed its synced temporary into place, but syncing
    /// the parent directory failed: the snapshot's bytes are intact, yet
    /// its new name may not survive a power loss.
    DirSync {
        /// The directory whose sync failed.
        dir: std::path::PathBuf,
        /// The failure.
        source: io::Error,
    },
    /// The first eight bytes are not the `co-wire` magic: this is not a
    /// snapshot file (or its header was destroyed).
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 8],
    },
    /// The header declares a format version this build does not read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A delta — a layer whose header links a non-empty base — was read
    /// without that base: it only carries the nodes its base lacks, so it
    /// can only be restored as a chain (see `read_chain` / `load_chain`).
    BaseRequired {
        /// Checksum of the newest layer of the base the delta was written on.
        checksum: u64,
        /// Node count of that base (cumulative over its own chain).
        nodes: u64,
    },
    /// A layer was applied to the wrong base: the base identity its
    /// header declares (layer checksum + cumulative node count) does not
    /// match the chain restored so far. A full snapshot in the middle of a
    /// chain is one, since it declares the empty base.
    BaseMismatch {
        /// The base checksum the delta declares.
        expected_checksum: u64,
        /// The base node count the delta declares.
        expected_nodes: u64,
        /// The checksum of the base actually supplied.
        found_checksum: u64,
        /// The node count of the base actually supplied.
        found_nodes: u64,
    },
    /// A snapshot chain exceeds [`MAX_CHAIN_DEPTH`](crate::MAX_CHAIN_DEPTH)
    /// layers. Compact it (`compact_chain`) instead of growing it further.
    ChainTooDeep {
        /// How many layers the chain has.
        depth: usize,
    },
    /// The input ended before the structure it promised was complete.
    Truncated {
        /// What was being read when the input ran out.
        context: &'static str,
    },
    /// The header fields and payload do not hash to the checksum the
    /// header declares: the snapshot was corrupted after it was written.
    ChecksumMismatch {
        /// The checksum recorded in the header.
        expected: u64,
        /// The checksum of the header fields and payload actually read.
        actual: u64,
    },
    /// A node record referenced a local id at or past its own position —
    /// the node table is not the topological order the format requires,
    /// or the reference itself is garbage.
    DanglingRef {
        /// The local id that was referenced.
        id: u64,
        /// How many nodes had been decoded when the reference appeared.
        defined: u64,
    },
    /// An unknown tag byte where a node or value tag was expected.
    BadTag {
        /// The tag byte found.
        tag: u8,
        /// What kind of tag was expected.
        context: &'static str,
    },
    /// The input decoded but violates a structural invariant of the
    /// format (out-of-range symbol, ⊥/⊤ inside a composite node,
    /// trailing bytes, …).
    Malformed {
        /// What invariant was violated.
        detail: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "snapshot io error: {e}"),
            WireError::DirSync { dir, source } => write!(
                f,
                "snapshot renamed into place, but syncing directory {} failed: {source} \
                 (the new name may not survive a power loss)",
                dir.display()
            ),
            WireError::BadMagic { found } => {
                write!(f, "corrupt snapshot header: bad magic [")?;
                for (i, b) in found.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{b:02x}")?;
                }
                write!(f, "]")
            }
            WireError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this reader reads version {} only)",
                crate::FORMAT_VERSION
            ),
            WireError::BaseRequired { checksum, nodes } => write!(
                f,
                "delta snapshot requires its base (checksum {checksum:#018x}, {nodes} nodes): \
                 restore the chain base-first"
            ),
            WireError::BaseMismatch {
                expected_checksum,
                expected_nodes,
                found_checksum,
                found_nodes,
            } => write!(
                f,
                "snapshot base mismatch: layer written against base {expected_checksum:#018x} \
                 with {expected_nodes} nodes, but the supplied base is {found_checksum:#018x} \
                 with {found_nodes} nodes"
            ),
            WireError::ChainTooDeep { depth } => write!(
                f,
                "snapshot chain of {depth} layers exceeds the maximum depth {} — compact it \
                 into a full snapshot first",
                crate::MAX_CHAIN_DEPTH
            ),
            WireError::Truncated { context } => write!(
                f,
                "truncated snapshot: unexpected end of input while reading {context}"
            ),
            WireError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: header declares {expected:#018x}, \
                 header fields and payload hash to {actual:#018x}"
            ),
            WireError::DanglingRef { id, defined } => write!(
                f,
                "dangling node reference: local id {id} referenced before definition \
                 (only {defined} nodes decoded)"
            ),
            WireError::BadTag { tag, context } => {
                write!(f, "malformed snapshot: invalid {context} tag {tag:#04x}")
            }
            WireError::Malformed { detail } => write!(f, "malformed snapshot: {detail}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) | WireError::DirSync { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        // An EOF from `read_exact` is a truncated snapshot, not an
        // environment failure; keep the distinction callers match on.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated { context: "input" }
        } else {
            WireError::Io(e)
        }
    }
}
