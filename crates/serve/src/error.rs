//! Typed errors for the asynchronous labelling runtime.
//!
//! The serve crate used to surface every internal failure as a bare
//! `Error::ServiceFailure(String)` (or, worse, as a panic on a slice
//! index). [`ServeError`] names the failure modes so callers and tests
//! can match on them; `From<ServeError> for crowdrl_types::Error` keeps
//! the public API on the workspace-wide error type.

use crowdrl_types::{AssignmentId, Error, ObjectId};
use std::fmt;

/// Everything that can go wrong inside the serve runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// An event referenced an assignment the ledger never issued.
    UnknownAssignment(AssignmentId),
    /// A delivery fired for an assignment with no recorded label outcome.
    MissingLabel(AssignmentId),
    /// An object index walked off the end of a per-object table.
    ObjectOutOfRange {
        /// The offending object.
        object: ObjectId,
        /// Length of the table it missed.
        len: usize,
    },
    /// A checkpoint failed to decode: truncated, mis-typed, or from a
    /// different build of the serializer.
    CorruptCheckpoint(String),
    /// A checkpoint was taken under a different configuration than the
    /// one attempting to restore it.
    ConfigMismatch {
        /// Fingerprint of the restoring configuration.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        actual: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownAssignment(id) => write!(f, "event for unknown assignment {id:?}"),
            Self::MissingLabel(id) => write!(f, "no label recorded for assignment {id:?}"),
            Self::ObjectOutOfRange { object, len } => {
                write!(
                    f,
                    "object {object:?} out of range for table of length {len}"
                )
            }
            Self::CorruptCheckpoint(why) => write!(f, "corrupt checkpoint: {why}"),
            Self::ConfigMismatch { expected, actual } => write!(
                f,
                "checkpoint config fingerprint {actual:#018x} does not match \
                 the restoring config {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ServeError> for Error {
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::CorruptCheckpoint(_) | ServeError::ConfigMismatch { .. } => {
                Error::InvalidParameter(e.to_string())
            }
            other => Error::ServiceFailure(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ServeError::UnknownAssignment(AssignmentId(7));
        assert!(e.to_string().contains("unknown assignment"));
        let e = ServeError::ObjectOutOfRange {
            object: ObjectId(3),
            len: 2,
        };
        assert!(e.to_string().contains("out of range"));
        let e = ServeError::ConfigMismatch {
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("fingerprint"));
    }

    #[test]
    fn conversion_routes_by_kind() {
        match Error::from(ServeError::MissingLabel(AssignmentId(1))) {
            Error::ServiceFailure(_) => {}
            other => panic!("expected ServiceFailure, got {other:?}"),
        }
        match Error::from(ServeError::CorruptCheckpoint("short".into())) {
            Error::InvalidParameter(_) => {}
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }
}
