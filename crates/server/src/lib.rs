//! # svq-serve
//!
//! The TCP service layer of the SVQ-ACT reproduction: a long-lived daemon
//! that answers `query` (offline top-K against an ingested catalog),
//! `stream` (online SVAQD over a served live stream), `stats`, and
//! `shutdown` requests over a hand-rolled JSON-lines protocol (see
//! [`protocol`]).
//!
//! Design anchors:
//!
//! * **Determinism.** A wire `query`/`stream` response embeds the exact
//!   [`svq_query::QueryOutcome`] envelope the in-process executors return;
//!   after [`svq_query::QueryOutcome::canonical`] zeroes the wall-clock
//!   fields, a served result is byte-identical to a local one — asserted
//!   by `tests/serve.rs` and `tests/pipeline.rs`, and by svqbench on every
//!   response.
//! * **Pipelining.** Protocol v2 frames carry a client-chosen `id`; a
//!   connection may keep many requests in flight (executed on the shared
//!   `svq-exec` worker pool) and responses echo the id, completing out of
//!   order. An id-less v1 frame is dispatched only after every earlier
//!   request on its connection completed, so v1 keeps strict
//!   request→response order.
//! * **Admission control.** Bounded connection slots; over-limit connects
//!   are answered with a typed `busy` frame and a clean close, never a
//!   silent drop — not even when the listener fails or a handler thread
//!   cannot be spawned.
//! * **Graceful drain.** [`ServerHandle::shutdown`] (or a wire `shutdown`
//!   request) lets in-flight requests finish, answers new connects with
//!   `draining`, and force-closes stragglers only at the drain deadline.
//! * **Hardened input path.** Oversize, non-UTF-8, truncated-JSON, and
//!   unknown-kind frames each get a typed error; the connection and the
//!   server survive all of them.
//! * **Clustering.** [`Router`] fronts N hash-partitioned `svq-serve`
//!   shards behind the identical wire protocol: per-video requests
//!   forward to the owning shard, `query` with `video: "all"` scatters
//!   and merges per-shard top-ks byte-identically to a single process,
//!   and a dead shard surfaces as a typed `shard_unavailable` frame after
//!   a bounded reconnect — never a hang (see [`router`]).
//! * **Standing queries.** `subscribe` registers a continuous query
//!   against a server-side paced live source. One driver thread steps
//!   each distinct statement's SVAQD engine once per source clip and
//!   *pushes* `event` frames as clip indicators fire, `drift` estimator
//!   snapshots on a configurable cadence, and typed `lagged` notices when
//!   a slow subscriber's bounded push queue overflows (see [`subscribe`]).
//!
//! This crate is a stderr-only daemon: nothing in it may write to stdout
//! (enforced by `svq-lint`), which belongs to whatever launched it.

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod router;
pub mod server;
pub mod subscribe;
pub mod transport;

pub use client::{Caller, Client, Pending, RetryPolicy, Subscription};
pub use protocol::{
    encode_line, encode_request_line, encode_response_line, parse_request, parse_request_frame,
    read_bounded_line, LineEvent, Request, RequestFrame, Response, ResponseFrame, StatsFrame,
    VideoScope, MAX_LINE_BYTES,
};
pub use router::{Connector, RouteConfig, RouteConfigBuilder, Router, TcpConnector};
pub use server::{ServeConfig, ServeConfigBuilder, ServeReport, Server, ServerHandle};
pub use subscribe::LiveSourceConfig;
pub use transport::{mem_pair, Conn, MemConn, MemTransport, TcpTransport, Transport};
