use std::error::Error;
use std::fmt;

/// Errors produced by the HADAS engines.
#[derive(Debug)]
#[non_exhaustive]
pub enum HadasError {
    /// The backbone space rejected a genome.
    Space(hadas_space::SpaceError),
    /// The hardware simulator rejected a query.
    Hw(hadas_hw::HwError),
    /// An exit placement was invalid.
    Exit(hadas_exits::ExitError),
    /// A configuration value was out of range.
    InvalidConfig(String),
    /// A search checkpoint could not be written, read, or applied
    /// (I/O failure, corrupt JSON, or a config/space mismatch between
    /// the checkpoint and the resuming run).
    Checkpoint(String),
    /// A candidate evaluation kept failing transiently until its retry
    /// and timeout budget ran out (fault-injection or flaky substrate).
    /// The search degrades the candidate rather than dying, but callers
    /// that evaluate single candidates surface it.
    EvalExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// Simulated milliseconds burned across attempts and backoff.
        spent_ms: f64,
    },
    /// An internal engine invariant was broken (e.g. a worker thread
    /// panicked). Indicates a bug rather than bad input.
    Internal(String),
}

impl fmt::Display for HadasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HadasError::Space(e) => write!(f, "search space error: {e}"),
            HadasError::Hw(e) => write!(f, "hardware model error: {e}"),
            HadasError::Exit(e) => write!(f, "exit placement error: {e}"),
            HadasError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            HadasError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            HadasError::EvalExhausted { attempts, spent_ms } => write!(
                f,
                "candidate evaluation exhausted its fault budget after {attempts} attempts \
                 ({spent_ms:.1} ms simulated)"
            ),
            HadasError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl Error for HadasError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HadasError::Space(e) => Some(e),
            HadasError::Hw(e) => Some(e),
            HadasError::Exit(e) => Some(e),
            HadasError::InvalidConfig(_)
            | HadasError::Checkpoint(_)
            | HadasError::EvalExhausted { .. }
            | HadasError::Internal(_) => None,
        }
    }
}

impl From<hadas_nn::seal::SealError> for HadasError {
    fn from(e: hadas_nn::seal::SealError) -> Self {
        HadasError::Checkpoint(e.to_string())
    }
}

impl From<hadas_space::SpaceError> for HadasError {
    fn from(e: hadas_space::SpaceError) -> Self {
        HadasError::Space(e)
    }
}

impl From<hadas_hw::HwError> for HadasError {
    fn from(e: hadas_hw::HwError) -> Self {
        HadasError::Hw(e)
    }
}

impl From<hadas_exits::ExitError> for HadasError {
    fn from(e: hadas_exits::ExitError) -> Self {
        HadasError::Exit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_chain_through() {
        let e =
            HadasError::from(hadas_hw::HwError::ExitPositionOutOfRange { position: 9, layers: 5 });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("hardware"));
    }
}
