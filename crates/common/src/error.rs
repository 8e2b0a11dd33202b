//! Workspace-wide error type.

use std::fmt;

use crate::ids::ObjectKey;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the InfiniCache reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Invalid configuration (bad EC code, impossible deployment shape...).
    Config(String),
    /// The object is not cached and no backing store was configured.
    KeyNotFound(ObjectKey),
    /// Not enough chunks survive to reconstruct the object: `needed` data
    /// shards, only `available` shards retrievable.
    ChunkUnavailable {
        /// Data shards required for reconstruction.
        needed: usize,
        /// Shards actually retrievable.
        available: usize,
    },
    /// Erasure-coding failure (singular decode matrix, shard length
    /// mismatch, too many erasures).
    Coding(String),
    /// A protocol invariant was violated (unexpected message for the
    /// connection state, duplicate chunk, unknown node...).
    Protocol(String),
    /// A PUT was aborted by the proxy before completion (the object was
    /// evicted under capacity pressure or superseded by an overwrite).
    PutAborted(ObjectKey),
    /// The component has shut down and can no longer serve requests.
    Shutdown,
    /// Transport failure: a socket dropped or an operation timed out.
    Transport(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Error::KeyNotFound(key) => write!(f, "object not found: {key}"),
            Error::ChunkUnavailable { needed, available } => write!(
                f,
                "object unrecoverable: {available} of the {needed} required chunks available"
            ),
            Error::Coding(msg) => write!(f, "erasure coding error: {msg}"),
            Error::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            Error::PutAborted(key) => write!(f, "put of {key} aborted before completion"),
            Error::Shutdown => write!(f, "component has shut down"),
            Error::Transport(msg) => write!(f, "transport failure: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let msgs = [
            Error::Config("x".into()).to_string(),
            Error::KeyNotFound(ObjectKey::new("k")).to_string(),
            Error::ChunkUnavailable {
                needed: 10,
                available: 8,
            }
            .to_string(),
            Error::Coding("y".into()).to_string(),
            Error::Protocol("z".into()).to_string(),
            Error::PutAborted(ObjectKey::new("k")).to_string(),
            Error::Shutdown.to_string(),
            Error::Transport("w".into()).to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'), "trailing punctuation: {m}");
            assert!(m.chars().next().unwrap().is_lowercase(), "capitalized: {m}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Error>();
    }
}
