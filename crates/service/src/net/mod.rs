//! The `skysr-d` network layer: serve the query engine over TCP.
//!
//! Three pieces, all std-only (the runtime vendors no async stack):
//!
//! * [`wire`] — the length-prefixed binary protocol: frame layout,
//!   version handshake, incremental [`wire::FrameReader`], and typed
//!   [`ProtocolError`]s instead of panics on adversarial bytes;
//! * [`Server`] — the daemon, on blocking sockets: an acceptor thread
//!   serves up to [`MAX_CONNECTIONS`] connections at once, each with a
//!   reader thread that decodes frames and submits through the backend's
//!   ordinary [`QueryService::submit_to`](crate::QueryService::submit_to)
//!   and a writer thread that writes every frame for that connection.
//!   Each request's reply posts its provisional
//!   [`Progress`](wire::Frame::Progress) points and its
//!   [`Final`](wire::Frame::Final) answer straight to the writer from the
//!   worker that produces them. A full submission queue stops that
//!   connection's reads, and a client that stops reading stops being read
//!   once [`ServerConfig::write_buf_cap`] bytes wait to be written;
//! * [`RemoteService`] — the client: implements the same
//!   [`QueryService`](crate::QueryService) trait as the in-process
//!   [`Service`](crate::Service), so every driver in this crate (replay,
//!   examples) runs against either transport unchanged.
//!
//! # Anytime streaming
//!
//! The anytime-streaming contract holds across the wire: every
//! `Progress` route the daemon emits is a genuine valid route that is
//! dominated-or-equal by the final exact skyline, so a client that stops
//! listening at its deadline (`StreamTicket::wait_deadline`) holds a
//! sound — merely possibly incomplete — partial answer, flagged
//! `approximate`. `StreamTicket::wait_deadline(d)` returns the exact
//! answer in time, or at `d` folds the provisional points into a mutually
//! non-dominated partial skyline: the client-side counterpart of the
//! server's `Approximate` rung. A request the server shed under its own
//! deadline (`Overloaded`) is cut off the same way. Cache hits, coalesced
//! followers and repairs answer in the `Final` frame alone.

pub mod client;
pub mod server;
pub mod wire;

pub use client::RemoteService;
pub use server::{Server, ServerConfig, MAX_CONNECTIONS};
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
