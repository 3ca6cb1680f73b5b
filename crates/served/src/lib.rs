//! lego-served: a concurrent tuning-service daemon.
//!
//! Batch tuning (`lego-tune`, `tuner-bench`) answers "what is the best
//! configuration for this workload on this device?" one process at a
//! time, re-paying tuner startup and cache I/O per invocation. This
//! crate keeps one warm process resident and serves that question over
//! a TCP line-JSON protocol, resolving every request through three
//! tiers (see [`service`]):
//!
//! 1. an in-memory map of completed results, preloaded from and
//!    persisted to the schema-v4 [`lego_tune::TuningCache`];
//! 2. an in-flight table that coalesces identical concurrent searches
//!    (a thundering herd of N requests runs one search, and every
//!    requester receives byte-identical bytes);
//! 3. a fresh [`lego_tune::Tuner`] run on the worker's warm per-thread
//!    expression arena.
//!
//! A fleet (a whole [`lego_tune::FleetSpec`] grid) is that same
//! resolution mapped over the grid's keys on the calling thread
//! ([`TuneService::fleet`]): the daemon's `fleet` verb (on the worker
//! that read the line), the `lego-fleet` CLI and in-process callers all
//! tune a grid through it, so there is one tuning engine.
//!
//! Everything is `std`-only: `std::net::TcpListener` plus a fixed
//! worker-thread pool — no async runtime.
//!
//! The binary is `lego-served` (the daemon). Programs embed the daemon
//! through [`server::Server`], embed the service alone through
//! [`TuneService`], and talk to a daemon through [`client::Client`].
//! `tests/service.rs` drives a real daemon on an ephemeral port (herd
//! coalescing, the memory tier, sidecar rewarm, the fleet verb);
//! `tests/fleet.rs` drives in-process fleets; the repository's
//! `perfbench` package measures the daemon under load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::Client;
pub use protocol::{FleetWire, Request, TuneSpec};
pub use server::{Server, ServerConfig};
pub use service::{Served, Tier, TuneService};
