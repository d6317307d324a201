//! gve-net: zero-dependency nonblocking serving tier.
//!
//! Layers, bottom up:
//!
//! 1. [`sys`] — raw `extern "C"` declarations against the platform C
//!    library (epoll on Linux, portable `poll`/`pipe`/`fcntl`). No
//!    third-party crates: the workspace is offline by construction.
//! 2. [`poller`] — a level-triggered readiness [`poller::Poller`] with
//!    an epoll backend and a `poll(2)` fallback, both token-addressed.
//! 3. [`http`] — HTTP/1.1 wire types, the incremental
//!    [`http::RequestBuffer`] parser, and the blocking clients.
//! 4. [`server`] — the [`server::EventLoopServer`] reactor: one event
//!    loop thread driving accept/read/write state machines for
//!    keep-alive connections, a handler worker pool, per-connection
//!    deadlines (slowloris guard), and bounded-drain shutdown.
//! 5. [`loadgen`] — a closed-loop load generator used by the serve
//!    benchmark and the `gve loadgen` subcommand.
//!
//! The reactor pieces are `cfg(unix)`, so serving needs a unix target;
//! the HTTP wire layer, the clients and the load generator are
//! portable.

pub mod http;
pub mod loadgen;
#[cfg(unix)]
pub mod poller;
#[cfg(unix)]
pub mod server;
#[cfg(unix)]
pub mod sys;

pub use http::{
    client_request, parse_query, percent_decode, ClientConn, HttpError, HttpLimits, Request,
    RequestBuffer, Response, MAX_BODY_BYTES, MAX_HEADER_BYTES,
};
pub use loadgen::{run_load, LoadReport, LoadSpec, Target};
#[cfg(unix)]
pub use server::{EventLoopServer, Handler, InlinePredicate, NetOptions};
