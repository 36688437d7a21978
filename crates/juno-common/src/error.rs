//! Error types shared across the JUNO workspace.

use std::fmt;

/// Convenience alias for results produced by JUNO crates.
pub type Result<T> = std::result::Result<T, Error>;

/// Error type returned by fallible operations in the JUNO workspace.
///
/// The variants are deliberately coarse-grained: most errors are configuration
/// or shape mismatches detected while building or querying an index.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A dimension mismatch between vectors, codebooks or indexes.
    DimensionMismatch {
        /// The dimension expected by the callee.
        expected: usize,
        /// The dimension actually supplied.
        actual: usize,
    },
    /// An invalid configuration parameter (for example zero clusters).
    InvalidConfig(String),
    /// The operation requires training data or a trained model that is absent.
    NotTrained(String),
    /// An empty input where at least one element was required.
    EmptyInput(String),
    /// An index (cluster id, entry id, point id, ...) was out of bounds.
    IndexOutOfBounds {
        /// Human readable name of the indexed collection.
        what: String,
        /// The offending index.
        index: usize,
        /// The length of the collection.
        len: usize,
    },
    /// An I/O error (dataset loading / persistence), carried as a string so the
    /// error stays `Clone + PartialEq`.
    Io(String),
    /// A numeric failure such as a singular matrix during regression fitting.
    Numeric(String),
    /// The operation (mutation, persistence, ...) is not supported by this
    /// index implementation.
    Unsupported(String),
    /// A persisted artefact (snapshot, dataset file) is malformed: bad magic,
    /// unknown version, checksum mismatch or truncated section.
    Corrupted(String),
    /// A parallel worker panicked. The panic was caught at the pool boundary
    /// (the process survives and the pool stays usable); the payload message
    /// is carried for diagnostics.
    WorkerPanicked(String),
    /// A component (shard, replica, remote peer) is temporarily or
    /// persistently unable to serve the operation — it timed out, its circuit
    /// breaker is open, or a fault was injected by a chaos plan.
    Unavailable(String),
    /// The serving front-end refused admission: its ingress queue is at the
    /// configured depth. Unlike [`Error::Unavailable`] this is not retryable
    /// by the serving layer itself — blindly retrying an overloaded server
    /// only deepens the overload; callers should shed or back off.
    Overloaded(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::NotTrained(msg) => write!(f, "model not trained: {msg}"),
            Error::EmptyInput(msg) => write!(f, "empty input: {msg}"),
            Error::IndexOutOfBounds { what, index, len } => {
                write!(f, "{what} index {index} out of bounds (len {len})")
            }
            Error::Io(msg) => write!(f, "i/o error: {msg}"),
            Error::Numeric(msg) => write!(f, "numeric error: {msg}"),
            Error::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            Error::Corrupted(msg) => write!(f, "corrupted data: {msg}"),
            Error::WorkerPanicked(msg) => write!(f, "worker panicked: {msg}"),
            Error::Unavailable(msg) => write!(f, "unavailable: {msg}"),
            Error::Overloaded(msg) => write!(f, "overloaded: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(err: std::io::Error) -> Self {
        Error::Io(err.to_string())
    }
}

impl Error {
    /// Builds an [`Error::InvalidConfig`] from anything displayable.
    pub fn invalid_config(msg: impl fmt::Display) -> Self {
        Error::InvalidConfig(msg.to_string())
    }

    /// Builds an [`Error::EmptyInput`] from anything displayable.
    pub fn empty_input(msg: impl fmt::Display) -> Self {
        Error::EmptyInput(msg.to_string())
    }

    /// Builds an [`Error::Numeric`] from anything displayable.
    pub fn numeric(msg: impl fmt::Display) -> Self {
        Error::Numeric(msg.to_string())
    }

    /// Builds an [`Error::Unsupported`] from anything displayable.
    pub fn unsupported(msg: impl fmt::Display) -> Self {
        Error::Unsupported(msg.to_string())
    }

    /// Builds an [`Error::Corrupted`] from anything displayable.
    pub fn corrupted(msg: impl fmt::Display) -> Self {
        Error::Corrupted(msg.to_string())
    }

    /// The [`Error::Corrupted`] a loader answers a snapshot section with when
    /// its payload is in an encoding this build does not read: names the
    /// section, what was `found` there, the one `version` the loader reads,
    /// and the offline tool that converts files older builds wrote.
    pub(crate) fn outdated(section: &str, found: impl fmt::Display, version: u32) -> Self {
        Error::Corrupted(format!(
            "{section}: found {found}, this build reads only version {version} — \
             if an older build wrote the file, run `snapshot-upgrade <old> <new>` on it"
        ))
    }

    /// Builds an [`Error::WorkerPanicked`] from anything displayable.
    pub fn worker_panicked(msg: impl fmt::Display) -> Self {
        Error::WorkerPanicked(msg.to_string())
    }

    /// Builds an [`Error::Unavailable`] from anything displayable.
    pub fn unavailable(msg: impl fmt::Display) -> Self {
        Error::Unavailable(msg.to_string())
    }

    /// Builds an [`Error::Overloaded`] from anything displayable.
    pub fn overloaded(msg: impl fmt::Display) -> Self {
        Error::Overloaded(msg.to_string())
    }

    /// Returns `true` for failures that a bounded retry may clear: the
    /// component was unavailable (timeout, injected fault, open breaker
    /// probe) or a worker panicked while computing — as opposed to
    /// deterministic request errors (dimension mismatch, invalid config,
    /// unsupported operation, corrupted bytes), which fail identically on
    /// every attempt and must not burn retry budget.
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::Unavailable(_) | Error::Io(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let err = Error::DimensionMismatch {
            expected: 128,
            actual: 96,
        };
        assert_eq!(err.to_string(), "dimension mismatch: expected 128, got 96");
    }

    #[test]
    fn display_other_variants() {
        assert!(Error::invalid_config("nlist must be > 0")
            .to_string()
            .contains("nlist"));
        assert!(Error::empty_input("points").to_string().contains("points"));
        assert!(Error::numeric("singular").to_string().contains("singular"));
        assert!(Error::unsupported("no mutation")
            .to_string()
            .contains("no mutation"));
        assert!(Error::corrupted("bad checksum")
            .to_string()
            .contains("bad checksum"));
        assert!(Error::worker_panicked("index out of bounds")
            .to_string()
            .contains("worker panicked"));
        assert!(Error::unavailable("shard 2 timed out")
            .to_string()
            .contains("unavailable"));
        assert!(Error::overloaded("queue full at depth 256")
            .to_string()
            .contains("overloaded"));
        let oob = Error::IndexOutOfBounds {
            what: "cluster".into(),
            index: 7,
            len: 4,
        };
        assert_eq!(oob.to_string(), "cluster index 7 out of bounds (len 4)");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing file");
        let err: Error = io.into();
        assert!(matches!(err, Error::Io(_)));
        assert!(err.to_string().contains("missing file"));
    }

    #[test]
    fn retryability_classification() {
        assert!(Error::unavailable("shard stalled").is_retryable());
        assert!(Error::Io("disk hiccup".into()).is_retryable());
        assert!(!Error::worker_panicked("boom").is_retryable());
        assert!(!Error::invalid_config("k = 0").is_retryable());
        assert!(!Error::corrupted("bad magic").is_retryable());
        assert!(!Error::overloaded("queue full").is_retryable());
        assert!(!Error::DimensionMismatch {
            expected: 4,
            actual: 2
        }
        .is_retryable());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
