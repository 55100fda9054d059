//! # ecofl-simnet
//!
//! Discrete-event simulation substrate for the Eco-FL reproduction.
//!
//! The paper evaluates on a physical Jetson Nano / TX2 testbed plus a
//! large-scale numerical simulation; neither GPUs nor a LAN are available
//! here, so every hardware-dependent result runs on this simulator instead:
//!
//! - [`event::EventQueue`] — a deterministic time-ordered queue (ties break
//!   by insertion sequence, so identical inputs yield identical traces),
//! - `device` — edge device models with compute rate, memory capacity and
//!   a runtime external-load factor (the "load spike" knob of Fig. 13),
//! - [`catalog`] — the Table 1 device catalog (Nano-L/H, TX2-Q/N at their
//!   two power modes, 100 Mbps networking),
//! - [`link::Link`] — bandwidth/latency links for activation and gradient
//!   transfers.

pub mod catalog;
pub(crate) mod device;
pub(crate) mod event;
pub(crate) mod link;

pub use catalog::{nano_h, nano_l, table1, tx2_n, tx2_q};
pub use device::{Device, DeviceSpec};
pub use event::EventQueue;
pub use link::Link;

/// Simulation time in seconds.
pub(crate) type SimTime = f64;
