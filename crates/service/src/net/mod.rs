//! The `skysr-d` network layer: serve the query engine over TCP.
//!
//! Three pieces, all std-only (the runtime vendors no async stack):
//!
//! * [`wire`] — the length-prefixed binary protocol: frame layout,
//!   version handshake, incremental [`wire::FrameReader`], and typed
//!   [`ProtocolError`]s instead of panics on adversarial bytes;
//! * [`Server`] — the daemon's event loop: a single poll thread over
//!   nonblocking sockets that accepts connections, decodes frames, feeds
//!   the [`Service`](crate::Service) through its non-blocking
//!   `try_submit` (parking submissions when the bounded queue pushes
//!   back), and pumps each in-flight query's provisional
//!   [`Progress`](wire::Frame::Progress) points and
//!   [`Final`](wire::Frame::Final) answer back out;
//! * [`RemoteService`] — the client: implements the same
//!   [`QueryService`](crate::QueryService) trait as the in-process
//!   [`Service`](crate::Service), so every driver in this crate (replay,
//!   examples) runs against either transport unchanged.
//!
//! The anytime-streaming contract holds across the wire: every
//! `Progress` route the daemon emits is a genuine valid route that is
//! dominated-or-equal by the final exact skyline, so a client that stops
//! listening at its deadline (`StreamTicket::wait_deadline`) holds a
//! sound — merely possibly incomplete — partial answer, flagged
//! `approximate`.

pub mod client;
pub mod server;
pub mod wire;

pub use client::RemoteService;
pub use server::{ServeBackend, Server, ServerConfig};
pub use wire::{DatasetFingerprint, Frame, FrameReader, ProtocolError, PROTOCOL_VERSION};

use crate::context::ServiceContext;

impl DatasetFingerprint {
    /// Fingerprints the dataset (and current weight epoch) a context
    /// serves — what [`Server`] advertises in its handshake and a
    /// verifying client compares its shadow dataset against.
    pub fn of(ctx: &ServiceContext) -> DatasetFingerprint {
        DatasetFingerprint {
            vertices: ctx.graph().num_vertices() as u64,
            arcs: ctx.graph().num_arcs() as u64,
            pois: ctx.pois().num_pois() as u64,
            epoch: ctx.current_epoch(),
        }
    }
}
