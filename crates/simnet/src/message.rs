//! The message envelope exchanged between simulated ranks.

/// A point-to-point message in flight between two ranks.
///
/// Ranks exchange `f64` payloads; higher-level crates encode whatever
/// structure they need (matrix blocks, headers) into the payload.  The
/// `avail_time` stamp carries the sender's virtual clock after the send was
/// charged — the receiver's clock is advanced to at least this value when the
/// message is consumed, which is how the virtual critical path propagates
/// across ranks.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Global rank of the sender.
    pub src: usize,
    /// Communicator context the message belongs to.
    pub context: u64,
    /// User/collective tag within the context.
    pub tag: u64,
    /// Payload.
    pub data: Vec<f64>,
    /// Sender virtual time at which the message is fully transferred.
    pub avail_time: f64,
}

/// Key used to match incoming envelopes against `recv` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchKey {
    /// Global rank of the sender.
    pub src: usize,
    /// Communicator context.
    pub context: u64,
    /// Tag within the context.
    pub tag: u64,
}

impl Envelope {
    /// The matching key of this envelope.
    pub fn key(&self) -> MatchKey {
        MatchKey {
            src: self.src,
            context: self.context,
            tag: self.tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_reflects_fields() {
        let e = Envelope {
            src: 3,
            context: 7,
            tag: 11,
            data: vec![1.0, 2.0],
            avail_time: 0.5,
        };
        let k = e.key();
        assert_eq!(
            k,
            MatchKey {
                src: 3,
                context: 7,
                tag: 11
            }
        );
    }
}
