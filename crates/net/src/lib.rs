//! # oaq-net — simulated inter-satellite crosslink network
//!
//! OAQ coordination is pure peer-to-peer message passing over crosslinks
//! between neighboring satellites (coordination requests travel up the
//! chain, "coordination done" notifications travel back down). This crate
//! provides the network substrate the protocol simulator in `oaq-core` runs
//! on:
//!
//! * [`NodeId`] — network addresses;
//! * [`topology::Topology`] — who can talk to whom (ring planes,
//!   constellation grids, or arbitrary adjacency);
//! * [`link::LinkSpec`] — per-hop delay (bounded by the paper's δ, the
//!   maximum inter-satellite message-delivery delay) and loss, either
//!   i.i.d. or bursty ([`link::GilbertElliott`]);
//! * [`fault::FaultPlan`] — fail-silent nodes (the failure mode the
//!   backward-messaging variant of the protocol tolerates), crash-recovery
//!   failure windows, and transient per-edge link outages;
//! * [`network::Network`] — combines the above: attempts a send and
//!   reports the arrival time for the caller's event queue, or why the
//!   message will never arrive;
//! * [`reliable::ReliableLink`] — ACK/timeout/retransmit on top of
//!   `Network::send`, with a bounded budget and an effective worst-case
//!   delay δ_eff the protocol layer substitutes into the paper's
//!   termination-condition arithmetic.
//!
//! The crate deliberately does not own an event loop: the protocol model in
//! `oaq-core` owns its `oaq-sim` simulation and schedules deliveries from
//! [`network::SendOutcome`]s, which keeps all state in one place.
//!
//! ## Example
//!
//! ```
//! use oaq_net::{Network, NodeId};
//! use oaq_net::topology::Topology;
//! use oaq_net::link::LinkSpec;
//! use oaq_sim::{SimRng, SimTime};
//!
//! let mut net: Network<&str> = Network::new(
//!     Topology::ring(4),
//!     LinkSpec::new(0.05, 0.10).expect("valid spec"),
//! );
//! let mut rng = SimRng::seed_from(1);
//! let outcome = net.send(NodeId(0), NodeId(1), "coordination-request",
//!                        SimTime::ZERO, &mut rng);
//! let envelope = outcome.delivered().expect("adjacent nodes, no faults");
//! assert!(envelope.arrival.as_minutes() <= 0.10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod link;
pub mod message;
pub mod network;
pub mod reliable;
pub mod schedule;
pub mod topology;

pub use link::{validate_loss_probability, GilbertElliott, InvalidLossProbability, LossModel};
pub use message::{Envelope, NodeId};
pub use network::{EdgeLossStates, Network, NetworkStats, SendOutcome};
pub use reliable::{ReliableLink, ReliableOutcome, ReliableStats, RetryPolicy};
pub use schedule::{LinkEvent, TopologySchedule};
pub use topology::{BfsScratch, Topology};
