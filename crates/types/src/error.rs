//! Error type shared across the workspace.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Result alias used across the SVQ-ACT crates.
pub type SvqResult<T> = Result<T, SvqError>;

/// Typed rejection categories of the `svq-serve` wire protocol.
///
/// Every frame a server refuses carries exactly one of these as its stable
/// wire code (`RejectReason::code`), so clients can branch on the category
/// without parsing prose. The human-readable detail travels separately in
/// the error frame's `message` field, and the derived codec writes each
/// category as that code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum RejectReason {
    /// Admission control: every connection slot is occupied.
    Busy,
    /// The server is draining towards shutdown and accepts no new work.
    Draining,
    /// A request line exceeded the frame-size limit.
    Oversize,
    /// A request line was not valid UTF-8.
    BadUtf8,
    /// A request line was not valid JSON (truncated, trailing bytes, …).
    BadJson,
    /// Well-formed JSON that is not a valid request (missing/ill-typed
    /// fields, an unparseable SQL statement, a mode mismatch, …).
    BadRequest,
    /// The `kind` field named no known request kind.
    UnknownKind,
    /// The request named a video the server does not hold.
    UnknownVideo,
    /// A per-connection read/write deadline expired.
    Timeout,
    /// The request was valid but execution failed server-side.
    Internal,
    /// A cluster router could not reach the shard that owns the request
    /// (connect refused, upstream connection died, or the shard timed out)
    /// even after its bounded reconnect budget.
    ShardUnavailable,
}

impl RejectReason {
    /// Every category, in wire-code order (stable for tests and docs).
    pub const ALL: [RejectReason; 11] = [
        RejectReason::Busy,
        RejectReason::Draining,
        RejectReason::Oversize,
        RejectReason::BadUtf8,
        RejectReason::BadJson,
        RejectReason::BadRequest,
        RejectReason::UnknownKind,
        RejectReason::UnknownVideo,
        RejectReason::Timeout,
        RejectReason::Internal,
        RejectReason::ShardUnavailable,
    ];

    /// The stable wire code carried in error frames.
    pub fn code(self) -> &'static str {
        match self {
            RejectReason::Busy => "busy",
            RejectReason::Draining => "draining",
            RejectReason::Oversize => "oversize",
            RejectReason::BadUtf8 => "bad_utf8",
            RejectReason::BadJson => "bad_json",
            RejectReason::BadRequest => "bad_request",
            RejectReason::UnknownKind => "unknown_kind",
            RejectReason::UnknownVideo => "unknown_video",
            RejectReason::Timeout => "timeout",
            RejectReason::Internal => "internal",
            RejectReason::ShardUnavailable => "shard_unavailable",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Errors surfaced by the engine.
///
/// The enum is deliberately small: most internal invariants are enforced by
/// construction (newtypes, validated geometry) rather than by fallible APIs;
/// errors remain for genuinely runtime-dependent failures — unknown labels
/// arriving from the SQL surface, malformed queries, missing ingestion
/// metadata, and I/O during persistence.
#[derive(Debug)]
pub enum SvqError {
    /// A label name did not resolve against the model vocabulary.
    UnknownLabel { kind: &'static str, name: String },
    /// The query is structurally invalid (e.g. no action predicate).
    InvalidQuery(String),
    /// A configuration value failed validation (builder `build()`).
    InvalidConfig(String),
    /// A parse error in the SQL-like surface language, with byte offset.
    Parse { message: String, offset: usize },
    /// Ingestion metadata required by the offline engine is missing.
    MissingMetadata(String),
    /// Persistence / deserialisation failure.
    Storage(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for SvqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvqError::UnknownLabel { kind, name } => {
                write!(f, "unknown {kind} label: {name:?}")
            }
            SvqError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            SvqError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            SvqError::Parse { message, offset } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            SvqError::MissingMetadata(what) => {
                write!(f, "missing ingestion metadata: {what}")
            }
            SvqError::Storage(msg) => write!(f, "storage error: {msg}"),
            SvqError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SvqError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SvqError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SvqError {
    fn from(e: std::io::Error) -> Self {
        SvqError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SvqError::UnknownLabel {
            kind: "action",
            name: "flying".into(),
        };
        assert_eq!(e.to_string(), "unknown action label: \"flying\"");
        let e = SvqError::Parse {
            message: "expected FROM".into(),
            offset: 12,
        };
        assert!(e.to_string().contains("byte 12"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: SvqError = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
