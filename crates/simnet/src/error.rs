//! Error type for the simulated machine.

use std::fmt;

/// Errors surfaced by the simulated machine and its collectives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A rank index was outside `0..p`.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// The communicator size.
        size: usize,
    },
    /// A machine was created with zero processors.
    EmptyMachine,
    /// A collective was called with inconsistent arguments across ranks
    /// (detected locally, e.g. a buffer whose size is not divisible by the
    /// communicator size).
    BadCollectiveArgs {
        /// Which collective complained.
        op: &'static str,
        /// Human-readable description of the problem.
        reason: String,
    },
    /// One of the SPMD rank closures panicked; the machine run was aborted.
    RankPanicked {
        /// Rank whose closure panicked.
        rank: usize,
    },
    /// A communicator split produced an empty group for this rank.
    NotInGroup,
    /// A point-to-point transfer exhausted its retry budget: the message was
    /// dropped on every attempt and the sender gave up.
    Timeout {
        /// World rank of the sender that timed out.
        src: usize,
        /// World rank of the intended receiver.
        dest: usize,
        /// Number of transmission attempts made before giving up.
        attempts: u32,
    },
    /// A rank failed permanently (crashed under a fault plan, panicked, or
    /// stopped participating after its own permanent fault) and the
    /// operation could not complete.
    RankFailure {
        /// World rank of the failed processor (the root cause, propagated
        /// through failure notifications).
        rank: usize,
    },
    /// Every unfinished rank waited for a message that no rank could send
    /// any more: the program deadlocked.  Each waiting rank's wait returned
    /// this error, and so did the run.
    Deadlock {
        /// World ranks that were waiting, in ascending order.
        ranks: Vec<usize>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidRank { rank, size } => {
                write!(f, "invalid rank {rank} for communicator of size {size}")
            }
            SimError::EmptyMachine => write!(f, "machine must have at least one processor"),
            SimError::BadCollectiveArgs { op, reason } => {
                write!(f, "bad arguments to collective `{op}`: {reason}")
            }
            SimError::RankPanicked { rank } => write!(f, "rank {rank} panicked during execution"),
            SimError::NotInGroup => write!(f, "this rank is not a member of the requested group"),
            SimError::Timeout {
                src,
                dest,
                attempts,
            } => write!(
                f,
                "send from rank {src} to rank {dest} timed out after {attempts} attempts"
            ),
            SimError::RankFailure { rank } => {
                write!(f, "rank {rank} failed permanently during execution")
            }
            SimError::Deadlock { ranks } => write!(
                f,
                "deadlock: ranks {ranks:?} wait for messages no rank can send"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(SimError::InvalidRank { rank: 5, size: 4 }
            .to_string()
            .contains("5"));
        assert!(SimError::EmptyMachine.to_string().contains("at least one"));
        assert!(SimError::RankPanicked { rank: 2 }.to_string().contains("2"));
        assert!(SimError::NotInGroup.to_string().contains("member"));
        let e = SimError::BadCollectiveArgs {
            op: "allgather",
            reason: "x".into(),
        };
        assert!(e.to_string().contains("allgather"));
        let e = SimError::Timeout {
            src: 1,
            dest: 3,
            attempts: 7,
        };
        assert!(e.to_string().contains("timed out"));
        assert!(e.to_string().contains("7"));
        assert!(SimError::RankFailure { rank: 4 }
            .to_string()
            .contains("failed permanently"));
        let e = SimError::Deadlock { ranks: vec![0, 3] };
        assert!(e.to_string().contains("deadlock: ranks [0, 3]"));
    }
}
