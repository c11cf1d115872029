//! Addresses and message envelopes.

use oaq_sim::SimTime;

/// A network address (one satellite's crosslink endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A message in flight (or delivered): source, destination, payload and the
/// timestamps a protocol needs for deadline bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<P> {
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// When the message was handed to the network.
    pub sent_at: SimTime,
    /// When the message arrives at `dst`.
    pub arrival: SimTime,
    /// Application payload.
    pub payload: P,
}

impl<P> Envelope<P> {
    /// One-way latency experienced by this message.
    #[must_use]
    pub fn latency(&self) -> oaq_sim::SimDuration {
        self.arrival.duration_since(self.sent_at)
    }

    /// Maps the payload, keeping the routing metadata.
    #[must_use]
    pub fn map<Q>(self, f: impl FnOnce(P) -> Q) -> Envelope<Q> {
        Envelope {
            src: self.src,
            dst: self.dst,
            sent_at: self.sent_at,
            arrival: self.arrival,
            payload: f(self.payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_latency() {
        let e = Envelope {
            src: NodeId(1),
            dst: NodeId(2),
            sent_at: SimTime::new(1.0),
            arrival: SimTime::new(1.25),
            payload: (),
        };
        assert_eq!(e.latency().as_minutes(), 0.25);
    }

    #[test]
    fn envelope_map_preserves_routing() {
        let e = Envelope {
            src: NodeId(1),
            dst: NodeId(2),
            sent_at: SimTime::ZERO,
            arrival: SimTime::new(0.1),
            payload: 5u32,
        };
        let f = e.map(|p| p * 2);
        assert_eq!(f.payload, 10);
        assert_eq!(f.src, NodeId(1));
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId(3).to_string(), "node3");
    }
}
