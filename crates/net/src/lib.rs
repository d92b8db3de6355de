#![warn(missing_docs)]
//! `spindle-net` — the real TCP transport fabric and multi-process node
//! runtime.
//!
//! The paper runs atomic multicast over one-sided RDMA writes on 100 Gb/s
//! InfiniBand. This crate is the deployable stand-in for environments with
//! ordinary sockets: it implements the
//! [`Fabric`](spindle_fabric::Fabric) contract over TCP, preserving the
//! two properties every Spindle protocol decision relies on —
//!
//! * **ordered one-sided placement**: each `(src, dst)` node pair is one
//!   ordered byte stream carrying length-prefixed [`WriteFrame`]s
//!   ([`wire`]); the receiver's reader thread places each frame's words
//!   into its local SST mirror in increasing word order, so RDMA's
//!   per-QP fencing guarantee (§2.2) holds by construction;
//! * **local reads**: every protocol read goes to the node's own mirror
//!   [`Region`](spindle_fabric::Region) — exactly as on real RDMA, where
//!   the SST replica is local memory the remote NIC writes into.
//!
//! Fault injection ([`FaultPlan`](spindle_fabric::FaultPlan)) is enforced
//! at the wire layer, *before* a frame is created, so isolate / drop /
//! throttle behave identically on [`TcpFabric`] and the in-process
//! `MemFabric`.
//!
//! Two deployment shapes:
//!
//! * [`TcpFabricGroup`] — N loopback endpoints in one process, for
//!   harness scenarios and benches over real sockets;
//! * [`TcpFabric`] + the **`spindle-node`** binary — one process per
//!   node, brought up from a shared TOML config ([`bootstrap`]) with a
//!   `HELLO` handshake that cross-checks protocol version, cluster size,
//!   SST layout and epoch before any write is applied (a peer at a
//!   *later* epoch is accepted — it installed the next view first and is
//!   re-dialing; an earlier-epoch laggard is rejected).
//!
//! View changes reconfigure the transport **in place**
//! (`Fabric::begin_epoch`): the mirror is replaced per view (§2.3),
//! every link is severed, and writers re-dial with a `HELLO` at the new
//! epoch — which is how a `spindle-node` cluster with `heartbeat_ms`
//! configured survives losing a process: the survivors' detectors drive
//! `spindle_core`'s SST view-change engine and the cluster continues in
//! the next epoch.
//!
//! ```sh
//! # one process per node, shared config
//! spindle-node --config cluster.toml --node 0 --sends 50 &
//! spindle-node --config cluster.toml --node 1 --sends 50 &
//! spindle-node --config cluster.toml --node 2 --sends 50
//! ```

pub mod bootstrap;
pub mod config;
pub mod edge;
pub mod group;
pub mod join;
pub mod metrics;
pub mod sock;
pub mod tcp;
pub mod wire;

pub use bootstrap::ClusterConfig;
pub use config::{ConfigError, NodeConfig, NodeRole, RunControl};
pub use edge::{EdgeAssembler, EdgeConfig, EdgeFrame, EdgeRequest, EdgeServer, OverflowPolicy};
pub use group::TcpFabricGroup;
pub use join::{join_cluster, serve_join, JoinConfig, JoinError, Joined, ServeOutcome};
pub use metrics::WireStats;
pub use tcp::{wire_thread_count, JoinRequest, TcpFabric, TcpFabricConfig};
pub use wire::{decode_frame, encode_frame, Frame, Hello, WireError, WriteFrame};
