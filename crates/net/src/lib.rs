//! `imcf-net` — the IMCF network plane.
//!
//! In the paper's Fig. 3 an APP outside the smart space reaches the Local
//! Controller through the Cloud Controller (CC), a server on the public
//! Internet that relays its REST requests. `imcf-net` is that CC: it puts
//! the Local Controller's REST surface ([`imcf_controller::api::Router`])
//! on a real wire, where it can be load-tested and driven by an external
//! client:
//!
//! * [`server`] — a dependency-free threaded HTTP/1.1 server over
//!   `std::net::TcpListener`: an acceptor and a thread per connection
//!   under a hard connection cap (503 + `Retry-After` on saturation),
//!   keep-alive with
//!   per-connection request caps, strict parse limits, read/write
//!   timeouts, per-home token-bucket enforcement at the edge (429), and
//!   graceful shutdown that drains in-flight requests.
//! * [`http`] — the wire parser and its fail-closed [`http::Limits`].
//! * [`limiter`] — the per-home token bucket, wall-clock refilled, at the
//!   edge.
//! * [`client`] — a minimal blocking HTTP/1.1 client.
//! * [`loadgen`] — the closed-loop load generator behind `imcf loadgen`,
//!   reporting p50/p99/p999 from `imcf-telemetry` histograms.
//!
//! The whole plane is compat-shim-world native: no tokio, no hyper —
//! `std::net` + `std::thread::scope`, same as the deterministic pool
//! underneath the bench grids.

pub mod client;
pub mod http;
pub mod limiter;
pub mod loadgen;
pub mod server;

pub use http::Limits;
pub use server::{serve, NetConfig, ServerHandle};
