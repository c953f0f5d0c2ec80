//! The durable-state layer. Every artifact that outlives the process —
//! store, checkpoints, fleet manifest, daemon files, trace — shares two
//! decisions, owned here and nowhere else:
//!
//! * **The write.** [`write_atomic_durable`]: tmp sibling, fsync, rename,
//!   parent-directory fsync, with the seeded [`IoFaultModel`] hook.
//! * **The gate.** [`open_versioned`] parses a JSON document once and
//!   checks its version before the caller's `from_content`, so a newer
//!   writer's document is a [`DecodeError::Version`], never a field error.
//!
//! Each artifact keeps its own version constant and its own rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod iofault;

pub use iofault::{write_atomic_durable, IoFaultKind, IoFaultModel, IoFaults};

use serde::{content_get, Content};

/// Why [`open_versioned`] refused a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not JSON at all — including a document truncated mid-write.
    Malformed(String),
    /// Well-formed, but stamped with a version this build does not read.
    Version {
        /// The version the document carries.
        got: u64,
    },
    /// Well-formed JSON without an integer version field to check: not an
    /// object, the key missing, or a non-integer value.
    Invalid(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Malformed(msg) | DecodeError::Invalid(msg) => f.write_str(msg),
            DecodeError::Version { got } => write!(f, "unsupported version {got}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Parses `text` once and gates it on its version: the document must be a
/// JSON object whose `key` field is the integer `version`. Returns the
/// parsed tree, ready for `T::from_content`.
///
/// # Errors
/// [`DecodeError::Malformed`] when `text` is not JSON,
/// [`DecodeError::Invalid`] when there is no integer `key` field to read,
/// and [`DecodeError::Version`] when it holds any other version.
pub fn open_versioned(text: &str, key: &str, version: u64) -> Result<Content, DecodeError> {
    let content =
        serde_json::parse_content(text).map_err(|e| DecodeError::Malformed(e.to_string()))?;
    let map = content
        .as_map()
        .ok_or_else(|| DecodeError::Invalid("expected a JSON object".into()))?;
    let got = content_get(map, key)
        .and_then(Content::as_u64)
        .ok_or_else(|| DecodeError::Invalid(format!("missing integer version field `{key}`")))?;
    if got != version {
        return Err(DecodeError::Version { got });
    }
    Ok(content)
}
