//! The `skysr-d` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is `[u32 len][u8 type][payload]`, little-endian, where
//! `len` counts the type byte plus the payload. Floating-point values
//! travel as raw IEEE-754 bits ([`f64::to_bits`]), so skylines round-trip
//! **bit-exactly** — the oracle verifier compares scores at `1e-9`
//! resolution and the transport must not perturb them.
//!
//! A connection opens with a version handshake: the client sends
//! [`Frame::Hello`] (its protocol version), the server answers
//! [`Frame::Welcome`] (its version, the [`DatasetFingerprint`] of region
//! 0, and the *dataset registry* — one `(region id, name, fingerprint)`
//! entry per resident shard). A `Submit`'s options may address a region
//! (option flag bit 3); a region-less request goes to region 0 (the rule
//! is [`crate::shard`]'s). One protocol version is spoken: a mismatched
//! `Hello` is answered with the server's `Welcome` and the connection
//! closes, so the client reports a typed
//! [`ProtocolError::VersionMismatch`], never a garbled stream. A `Hello`
//! of another version decodes to its version alone, whatever that
//! version's layout carries after it.
//!
//! Decoding is defensive end to end: adversarial bytes produce
//! [`ProtocolError`]s (`Oversized`, `Malformed`), never panics — every
//! length is bounds-checked, every enum tag matched exhaustively, every
//! float validated before it reaches a panicking constructor
//! ([`Cost::new`], [`WeightDelta::new`]), and recursive requirement
//! payloads are depth- and breadth-limited.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use skysr_category::{CategoryId, Requirement};
use skysr_core::error::QueryError;
use skysr_core::query::{PositionSpec, SkySrQuery};
use skysr_core::route::SkylineRoute;
use skysr_graph::{Cost, EpochId, VertexId, WeightDelta};

use crate::cache::CacheCounters;
use crate::metrics::{Counter, MetricsSnapshot, Served};
use crate::plan::ReuseStrategies;
use crate::service::{QueryRequest, QueryResponse, RequestOptions};
use crate::shard::{RegionId, RegionInfo};
use crate::telemetry::{HistogramSnapshot, Rung, RungSummary};
use skysr_graph::EpochGcStats;

/// Protocol version this build speaks. Bumped on any incompatible frame
/// change; the handshake rejects mismatches outright. Version 3 carries
/// only the recorded metrics in [`Frame::MetricsRep`]; version 4 drops
/// the handshake's feature flags, the warm-start bits of a `Submit`'s
/// reuse mask and the seed source of a served search; version 5 drops one
/// of the epoch-history counters a `MetricsRep` carries; version 6 carries
/// the history's bytes where version 5 carried its high-water mark of
/// retained epochs.
pub const PROTOCOL_VERSION: u16 = 6;

/// Largest frame either side accepts (length prefix included), generous
/// for city-scale metrics snapshots yet small enough that an adversarial
/// length prefix cannot balloon memory.
pub const MAX_FRAME: usize = 16 << 20;

/// Bounds on recursive/complex payloads, enforced during decode.
const MAX_POSITIONS: usize = 256;
const MAX_REQ_DEPTH: usize = 16;
const MAX_REQ_BRANCHES: usize = 256;
const MAX_ROUTE_POIS: usize = 4096;
const MAX_REGIONS: usize = 1024;
const MAX_REGION_NAME: usize = 256;

/// Everything that can go wrong on the wire — handshake mismatches,
/// adversarial or truncated bytes, oversized frames, and transport
/// failures. The decode paths return these; they never panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Our version.
        ours: u16,
        /// The peer's version.
        theirs: u16,
    },
    /// A frame announced a length beyond [`MAX_FRAME`].
    Oversized {
        /// Announced length.
        len: usize,
        /// The limit it exceeded.
        max: usize,
    },
    /// The payload bytes do not decode as the announced frame.
    Malformed(&'static str),
    /// A structurally valid frame arrived where the protocol state
    /// machine does not allow it (e.g. anything before `Hello`).
    UnexpectedFrame(&'static str),
    /// The server's dataset fingerprint does not match the client's
    /// shadow dataset — replay verification against it would be
    /// meaningless.
    DatasetMismatch(String),
    /// The transport failed (connect/read/write error, or EOF mid-frame).
    Disconnected(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: we speak v{ours}, peer speaks v{theirs}")
            }
            ProtocolError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes announced, limit {max}")
            }
            ProtocolError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtocolError::UnexpectedFrame(what) => write!(f, "unexpected frame: {what}"),
            ProtocolError::DatasetMismatch(what) => write!(f, "dataset mismatch: {what}"),
            ProtocolError::Disconnected(what) => write!(f, "connection lost: {what}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl ProtocolError {
    pub(crate) fn io(context: &str, e: std::io::Error) -> ProtocolError {
        ProtocolError::Disconnected(format!("{context}: {e}"))
    }
}

/// Identity of the dataset a daemon serves, exchanged in the handshake so
/// a client driving oracle verification against a local shadow dataset
/// can refuse to proceed when the two have drifted apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetFingerprint {
    /// Graph vertices.
    pub vertices: u64,
    /// Graph arcs.
    pub arcs: u64,
    /// PoI count.
    pub pois: u64,
    /// The daemon's current weight epoch at handshake time. A shadow
    /// context must start from the same epoch (and identical weights) for
    /// epoch-pinned verification to be sound.
    pub epoch: EpochId,
}

/// One protocol frame. `C→S` frames flow client-to-server, `S→C` the
/// other way; the `id` on query frames is the *client's* correlation id,
/// echoed verbatim so a client can demultiplex interleaved answers.
#[derive(Clone, Debug)]
pub enum Frame {
    /// C→S, first frame on a connection: the version handshake.
    Hello {
        /// Client protocol version.
        version: u16,
    },
    /// S→C, the handshake answer.
    Welcome {
        /// Server protocol version.
        version: u16,
        /// What a region-less request is served on: region 0's
        /// fingerprint — the whole story for a one-region daemon.
        fingerprint: DatasetFingerprint,
        /// The dataset registry, one entry per resident region in region
        /// order (entry 0's fingerprint repeats `fingerprint`).
        registry: Vec<RegionInfo>,
    },
    /// C→S: one query submission.
    Submit {
        /// Client correlation id.
        id: u64,
        /// Whether the client wants [`Frame::Progress`] streaming.
        streaming: bool,
        /// The query envelope.
        request: QueryRequest,
    },
    /// S→C: one provisional Pareto point for a streaming submission
    /// (dominated-or-equal by the eventual final skyline).
    Progress {
        /// Client correlation id.
        id: u64,
        /// The provisional route.
        route: SkylineRoute,
    },
    /// S→C: the final, exact answer for a submission.
    Final {
        /// Client correlation id.
        id: u64,
        /// The full response (routes, epoch, `Served`, timings).
        response: QueryResponse,
    },
    /// S→C: the submission was rejected by query validation.
    QueryFailed {
        /// Client correlation id.
        id: u64,
        /// Why.
        error: QueryError,
    },
    /// C→S: request a metrics snapshot.
    MetricsReq,
    /// S→C: the snapshot (also the acknowledged farewell to
    /// [`Frame::Shutdown`]). Only its recorded fields travel; the decoder
    /// derives the rest, as the sender did.
    MetricsRep(Box<MetricsSnapshot>),
    /// C→S: publish a weight-update batch as one new epoch.
    PublishWeights(Vec<WeightDelta>),
    /// S→C: the epoch the batch created.
    WeightsPublished {
        /// The new epoch.
        epoch: EpochId,
    },
    /// C→S: drain and stop the daemon. Answered with one final
    /// [`Frame::MetricsRep`], then the server closes.
    Shutdown,
    /// S→C: the server hit a protocol error on this connection and is
    /// about to close it.
    Fault {
        /// Human-readable cause.
        message: String,
    },
}

const T_HELLO: u8 = 1;
const T_WELCOME: u8 = 2;
const T_SUBMIT: u8 = 3;
const T_PROGRESS: u8 = 4;
const T_FINAL: u8 = 5;
const T_QUERY_FAILED: u8 = 6;
const T_METRICS_REQ: u8 = 7;
const T_METRICS_REP: u8 = 8;
const T_PUBLISH_WEIGHTS: u8 = 9;
const T_WEIGHTS_PUBLISHED: u8 = 10;
const T_SHUTDOWN: u8 = 11;
const T_FAULT: u8 = 12;

// ---------------------------------------------------------------------
// Encoding primitives: plain appends onto a byte vector.

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}
fn put_duration(out: &mut Vec<u8>, d: Duration) {
    put_u64(out, d.as_nanos().min(u64::MAX as u128) as u64);
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over a received payload. Every take is bounds-checked; running
/// off the end is [`ProtocolError::Malformed`], not a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.pos.checked_add(n).ok_or(ProtocolError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(ProtocolError::Malformed("truncated payload"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("sized take")))
    }
    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("sized take")))
    }
    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("sized take")))
    }
    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn duration(&mut self) -> Result<Duration, ProtocolError> {
        Ok(Duration::from_nanos(self.u64()?))
    }
    fn str(&mut self) -> Result<String, ProtocolError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::Malformed("invalid utf-8"))
    }

    fn done(&self) -> Result<(), ProtocolError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed("trailing bytes after payload"))
        }
    }
}

// ---------------------------------------------------------------------
// Domain codecs.

fn put_requirement(out: &mut Vec<u8>, req: &Requirement) {
    match req {
        Requirement::Category(c) => {
            put_u8(out, 0);
            put_u32(out, c.0);
        }
        Requirement::AnyOf(branches) => {
            put_u8(out, 1);
            put_u16(out, branches.len() as u16);
            for b in branches {
                put_requirement(out, b);
            }
        }
        Requirement::AllOf(branches) => {
            put_u8(out, 2);
            put_u16(out, branches.len() as u16);
            for b in branches {
                put_requirement(out, b);
            }
        }
        Requirement::Exclude { base, not } => {
            put_u8(out, 3);
            put_requirement(out, base);
            put_u32(out, not.0);
        }
    }
}

fn take_requirement(r: &mut Reader<'_>, depth: usize) -> Result<Requirement, ProtocolError> {
    if depth > MAX_REQ_DEPTH {
        return Err(ProtocolError::Malformed("requirement nesting too deep"));
    }
    match r.u8()? {
        0 => Ok(Requirement::Category(CategoryId(r.u32()?))),
        tag @ (1 | 2) => {
            let n = r.u16()? as usize;
            if n > MAX_REQ_BRANCHES {
                return Err(ProtocolError::Malformed("too many requirement branches"));
            }
            let mut branches = Vec::with_capacity(n);
            for _ in 0..n {
                branches.push(take_requirement(r, depth + 1)?);
            }
            Ok(if tag == 1 { Requirement::AnyOf(branches) } else { Requirement::AllOf(branches) })
        }
        3 => {
            let base = Box::new(take_requirement(r, depth + 1)?);
            let not = CategoryId(r.u32()?);
            Ok(Requirement::Exclude { base, not })
        }
        _ => Err(ProtocolError::Malformed("unknown requirement tag")),
    }
}

fn put_query(out: &mut Vec<u8>, q: &SkySrQuery) {
    put_u32(out, q.start.0);
    put_u16(out, q.sequence.len() as u16);
    for pos in &q.sequence {
        match pos {
            PositionSpec::Category(c) => {
                put_u8(out, 0);
                put_u32(out, c.0);
            }
            PositionSpec::Requirement(req) => {
                put_u8(out, 1);
                put_requirement(out, req);
            }
        }
    }
}

fn take_query(r: &mut Reader<'_>) -> Result<SkySrQuery, ProtocolError> {
    let start = VertexId(r.u32()?);
    let n = r.u16()? as usize;
    if n > MAX_POSITIONS {
        return Err(ProtocolError::Malformed("too many query positions"));
    }
    let mut sequence = Vec::with_capacity(n);
    for _ in 0..n {
        sequence.push(match r.u8()? {
            0 => PositionSpec::Category(CategoryId(r.u32()?)),
            1 => PositionSpec::Requirement(take_requirement(r, 0)?),
            _ => return Err(ProtocolError::Malformed("unknown position tag")),
        });
    }
    Ok(SkySrQuery { start, sequence })
}

fn strategy_bits(s: ReuseStrategies) -> u8 {
    (s.caching as u8) | (s.coalesce as u8) << 1 | (s.repair as u8) << 2
}

fn strategies_from_bits(bits: u8) -> Result<ReuseStrategies, ProtocolError> {
    if bits & !0b111 != 0 {
        return Err(ProtocolError::Malformed("unknown reuse bits"));
    }
    Ok(ReuseStrategies { caching: bits & 1 != 0, coalesce: bits & 2 != 0, repair: bits & 4 != 0 })
}

fn put_options(out: &mut Vec<u8>, o: &RequestOptions) {
    let flags = (o.deadline.is_some() as u8)
        | (o.trace as u8) << 1
        | (o.reuse.is_some() as u8) << 2
        | (o.region.is_some() as u8) << 3;
    put_u8(out, flags);
    if let Some(d) = o.deadline {
        put_duration(out, d);
    }
    if let Some(mask) = o.reuse {
        put_u8(out, strategy_bits(mask));
    }
    if let Some(region) = o.region {
        put_u16(out, region.0);
    }
}

fn take_options(r: &mut Reader<'_>) -> Result<RequestOptions, ProtocolError> {
    let flags = r.u8()?;
    if flags & !0b1111 != 0 {
        return Err(ProtocolError::Malformed("unknown option flags"));
    }
    let deadline = if flags & 1 != 0 { Some(r.duration()?) } else { None };
    let reuse = if flags & 4 != 0 { Some(strategies_from_bits(r.u8()?)?) } else { None };
    let region = if flags & 8 != 0 { Some(RegionId(r.u16()?)) } else { None };
    Ok(RequestOptions { deadline, trace: flags & 2 != 0, reuse, region })
}

fn put_route(out: &mut Vec<u8>, route: &SkylineRoute) {
    put_u16(out, route.pois.len() as u16);
    for p in &route.pois {
        put_u32(out, p.0);
    }
    put_f64(out, route.length.get());
    put_f64(out, route.semantic);
}

fn take_route(r: &mut Reader<'_>) -> Result<SkylineRoute, ProtocolError> {
    let n = r.u16()? as usize;
    if n > MAX_ROUTE_POIS {
        return Err(ProtocolError::Malformed("route too long"));
    }
    let mut pois = Vec::with_capacity(n);
    for _ in 0..n {
        pois.push(VertexId(r.u32()?));
    }
    let length = r.f64()?;
    let semantic = r.f64()?;
    // `Cost::new` panics on NaN and score comparisons assume ordered
    // floats, so reject them here — adversarial bytes must not panic.
    if length.is_nan() || semantic.is_nan() {
        return Err(ProtocolError::Malformed("NaN route score"));
    }
    Ok(SkylineRoute { pois, length: Cost::new(length), semantic })
}

fn put_served(out: &mut Vec<u8>, served: Served) {
    match served {
        Served::Search => put_u8(out, 0),
        Served::CacheHit => put_u8(out, 1),
        Served::Coalesced => put_u8(out, 2),
        Served::Repaired { fallback, routes_untouched, routes_rescored } => {
            put_u8(out, 3);
            put_u8(out, fallback as u8);
            put_u64(out, routes_untouched as u64);
            put_u64(out, routes_rescored as u64);
        }
        Served::Approximate => put_u8(out, 4),
    }
}

fn take_served(r: &mut Reader<'_>) -> Result<Served, ProtocolError> {
    match r.u8()? {
        0 => Ok(Served::Search),
        1 => Ok(Served::CacheHit),
        2 => Ok(Served::Coalesced),
        3 => Ok(Served::Repaired {
            fallback: r.u8()? != 0,
            routes_untouched: r.u64()? as usize,
            routes_rescored: r.u64()? as usize,
        }),
        4 => Ok(Served::Approximate),
        _ => Err(ProtocolError::Malformed("unknown served tag")),
    }
}

fn put_query_error(out: &mut Vec<u8>, e: &QueryError) {
    match e {
        QueryError::UnknownStart(v) => {
            put_u8(out, 0);
            put_u32(out, v.0);
        }
        QueryError::EmptySequence => put_u8(out, 1),
        QueryError::UnknownCategory(c) => {
            put_u8(out, 2);
            put_u32(out, c.0);
        }
        QueryError::UnmatchablePosition(i) => {
            put_u8(out, 3);
            put_u64(out, *i as u64);
        }
        QueryError::UnknownDestination(v) => {
            put_u8(out, 4);
            put_u32(out, v.0);
        }
        QueryError::Overloaded => put_u8(out, 5),
        QueryError::UnknownRegion(region) => {
            put_u8(out, 6);
            put_u16(out, *region);
        }
    }
}

fn take_query_error(r: &mut Reader<'_>) -> Result<QueryError, ProtocolError> {
    match r.u8()? {
        0 => Ok(QueryError::UnknownStart(VertexId(r.u32()?))),
        1 => Ok(QueryError::EmptySequence),
        2 => Ok(QueryError::UnknownCategory(CategoryId(r.u32()?))),
        3 => Ok(QueryError::UnmatchablePosition(r.u64()? as usize)),
        4 => Ok(QueryError::UnknownDestination(VertexId(r.u32()?))),
        5 => Ok(QueryError::Overloaded),
        6 => Ok(QueryError::UnknownRegion(r.u16()?)),
        _ => Err(ProtocolError::Malformed("unknown error tag")),
    }
}

fn put_histogram(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    let (buckets, count, sum_ns, max_ns) = h.parts();
    put_u32(out, buckets.len() as u32);
    for &(idx, c) in buckets {
        put_u32(out, idx);
        put_u64(out, c);
    }
    put_u64(out, count);
    put_u64(out, sum_ns);
    put_u64(out, max_ns);
}

fn take_histogram(r: &mut Reader<'_>) -> Result<HistogramSnapshot, ProtocolError> {
    let n = r.u32()? as usize;
    if n > 4096 {
        return Err(ProtocolError::Malformed("too many histogram buckets"));
    }
    let mut buckets = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.u32()?;
        let c = r.u64()?;
        buckets.push((idx, c));
    }
    let count = r.u64()?;
    let sum_ns = r.u64()?;
    let max_ns = r.u64()?;
    Ok(HistogramSnapshot::from_parts(buckets, count, sum_ns, max_ns))
}

/// The recorded fields of a snapshot, in a fixed order: the eight rung
/// histograms in ladder order, queue wait, engine time, the counters, the
/// skyline sum and max, cache and epoch stats, the wall time.
fn put_metrics(out: &mut Vec<u8>, m: &MetricsSnapshot) {
    let empty = HistogramSnapshot::default();
    for rung in Rung::ALL {
        put_histogram(out, m.rungs.get(rung.index()).map_or(&empty, |s| &s.hist));
    }
    put_histogram(out, &m.queue_wait_hist);
    put_histogram(out, &m.engine_hist);
    for c in Counter::ALL {
        put_u64(out, m.counter(c));
    }
    put_u64(out, m.skyline_routes);
    put_u64(out, m.max_skyline_size as u64);
    for v in [m.cache.insertions, m.cache.evictions, m.cache.invalidations, m.cache.len] {
        put_u64(out, v);
    }
    put_u64(out, m.epochs.retained as u64);
    put_u64(out, m.epochs.history_bytes as u64);
    put_u64(out, m.epochs.retention as u64);
    put_u64(out, m.epochs.compacted);
    put_u64(out, m.epochs.overlay_len as u64);
    put_duration(out, m.wall);
}

fn take_metrics(r: &mut Reader<'_>) -> Result<MetricsSnapshot, ProtocolError> {
    let mut rungs = Vec::with_capacity(Rung::ALL.len());
    for rung in Rung::ALL {
        rungs.push(RungSummary { rung, hist: take_histogram(r)? });
    }
    let mut m = MetricsSnapshot {
        rungs,
        queue_wait_hist: take_histogram(r)?,
        engine_hist: take_histogram(r)?,
        ..MetricsSnapshot::default()
    };
    for c in Counter::ALL {
        *m.counter_mut(c) = r.u64()?;
    }
    m.skyline_routes = r.u64()?;
    m.max_skyline_size = r.u64()? as usize;
    m.cache = CacheCounters {
        insertions: r.u64()?,
        evictions: r.u64()?,
        invalidations: r.u64()?,
        len: r.u64()?,
    };
    m.epochs = EpochGcStats {
        retained: r.u64()? as usize,
        history_bytes: r.u64()? as usize,
        retention: r.u64()? as usize,
        compacted: r.u64()?,
        overlay_len: r.u64()? as usize,
    };
    m.wall = r.duration()?;
    Ok(m.derived())
}

// ---------------------------------------------------------------------
// Frame codec.

impl Frame {
    /// Serializes the frame — length prefix, type byte, payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64);
        match self {
            Frame::Hello { version } => {
                put_u8(&mut body, T_HELLO);
                put_u16(&mut body, *version);
            }
            Frame::Welcome { version, fingerprint, registry } => {
                put_u8(&mut body, T_WELCOME);
                put_u16(&mut body, *version);
                put_u64(&mut body, fingerprint.vertices);
                put_u64(&mut body, fingerprint.arcs);
                put_u64(&mut body, fingerprint.pois);
                put_u64(&mut body, fingerprint.epoch.get());
                put_u16(&mut body, registry.len() as u16);
                for info in registry {
                    put_u16(&mut body, info.id.0);
                    put_str(&mut body, &info.name);
                    put_u64(&mut body, info.fingerprint.vertices);
                    put_u64(&mut body, info.fingerprint.arcs);
                    put_u64(&mut body, info.fingerprint.pois);
                    put_u64(&mut body, info.fingerprint.epoch.get());
                }
            }
            Frame::Submit { id, streaming, request } => {
                put_u8(&mut body, T_SUBMIT);
                put_u64(&mut body, *id);
                put_u8(&mut body, *streaming as u8);
                put_query(&mut body, &request.query);
                put_options(&mut body, &request.options);
            }
            Frame::Progress { id, route } => {
                put_u8(&mut body, T_PROGRESS);
                put_u64(&mut body, *id);
                put_route(&mut body, route);
            }
            Frame::Final { id, response } => {
                put_u8(&mut body, T_FINAL);
                put_u64(&mut body, *id);
                put_u32(&mut body, response.routes.len() as u32);
                for route in response.routes.iter() {
                    put_route(&mut body, route);
                }
                put_u64(&mut body, response.epoch.get());
                put_served(&mut body, response.served);
                put_duration(&mut body, response.latency);
                put_u64(&mut body, response.request_id);
                put_duration(&mut body, response.queue_wait);
            }
            Frame::QueryFailed { id, error } => {
                put_u8(&mut body, T_QUERY_FAILED);
                put_u64(&mut body, *id);
                put_query_error(&mut body, error);
            }
            Frame::MetricsReq => put_u8(&mut body, T_METRICS_REQ),
            Frame::MetricsRep(m) => {
                put_u8(&mut body, T_METRICS_REP);
                put_metrics(&mut body, m);
            }
            Frame::PublishWeights(deltas) => {
                put_u8(&mut body, T_PUBLISH_WEIGHTS);
                put_u32(&mut body, deltas.len() as u32);
                for d in deltas {
                    put_u32(&mut body, d.from.0);
                    put_u32(&mut body, d.to.0);
                    put_f64(&mut body, d.weight);
                }
            }
            Frame::WeightsPublished { epoch } => {
                put_u8(&mut body, T_WEIGHTS_PUBLISHED);
                put_u64(&mut body, epoch.get());
            }
            Frame::Shutdown => put_u8(&mut body, T_SHUTDOWN),
            Frame::Fault { message } => {
                put_u8(&mut body, T_FAULT);
                put_str(&mut body, message);
            }
        }
        let mut out = Vec::with_capacity(4 + body.len());
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
        out
    }

    fn decode(body: &[u8]) -> Result<Frame, ProtocolError> {
        let mut r = Reader::new(body);
        let frame = match r.u8()? {
            // Another version's Hello decodes to its version alone: what
            // follows it is that version's layout (up to version 3, a u32
            // of feature flags), and the version alone decides the answer.
            T_HELLO => {
                let version = r.u16()?;
                if version != PROTOCOL_VERSION {
                    return Ok(Frame::Hello { version });
                }
                Frame::Hello { version }
            }
            T_WELCOME => {
                let version = r.u16()?;
                let fingerprint = DatasetFingerprint {
                    vertices: r.u64()?,
                    arcs: r.u64()?,
                    pois: r.u64()?,
                    epoch: EpochId(r.u64()?),
                };
                let n = r.u16()? as usize;
                if n > MAX_REGIONS {
                    return Err(ProtocolError::Malformed("too many registry entries"));
                }
                let mut registry = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = RegionId(r.u16()?);
                    let name = r.str()?;
                    if name.len() > MAX_REGION_NAME {
                        return Err(ProtocolError::Malformed("region name too long"));
                    }
                    let fingerprint = DatasetFingerprint {
                        vertices: r.u64()?,
                        arcs: r.u64()?,
                        pois: r.u64()?,
                        epoch: EpochId(r.u64()?),
                    };
                    registry.push(RegionInfo { id, name, fingerprint });
                }
                Frame::Welcome { version, fingerprint, registry }
            }
            T_SUBMIT => {
                let id = r.u64()?;
                let streaming = r.u8()? != 0;
                let query = take_query(&mut r)?;
                let options = take_options(&mut r)?;
                Frame::Submit { id, streaming, request: QueryRequest { query, options } }
            }
            T_PROGRESS => Frame::Progress { id: r.u64()?, route: take_route(&mut r)? },
            T_FINAL => {
                let id = r.u64()?;
                let n = r.u32()? as usize;
                if n > MAX_ROUTE_POIS {
                    return Err(ProtocolError::Malformed("skyline too large"));
                }
                let mut routes = Vec::with_capacity(n);
                for _ in 0..n {
                    routes.push(take_route(&mut r)?);
                }
                let routes: Arc<[SkylineRoute]> = routes.into();
                let epoch = EpochId(r.u64()?);
                let served = take_served(&mut r)?;
                let latency = r.duration()?;
                let request_id = r.u64()?;
                let queue_wait = r.duration()?;
                Frame::Final {
                    id,
                    response: QueryResponse {
                        routes,
                        epoch,
                        served,
                        latency,
                        request_id,
                        queue_wait,
                    },
                }
            }
            T_QUERY_FAILED => Frame::QueryFailed { id: r.u64()?, error: take_query_error(&mut r)? },
            T_METRICS_REQ => Frame::MetricsReq,
            T_METRICS_REP => Frame::MetricsRep(Box::new(take_metrics(&mut r)?)),
            T_PUBLISH_WEIGHTS => {
                let n = r.u32()? as usize;
                if n > 1 << 20 {
                    return Err(ProtocolError::Malformed("too many weight deltas"));
                }
                let mut deltas = Vec::with_capacity(n);
                for _ in 0..n {
                    let from = VertexId(r.u32()?);
                    let to = VertexId(r.u32()?);
                    let weight = r.f64()?;
                    // `WeightDelta::new` asserts a finite, non-negative
                    // weight — validate first.
                    if !weight.is_finite() || weight < 0.0 {
                        return Err(ProtocolError::Malformed("invalid delta weight"));
                    }
                    deltas.push(WeightDelta::new(from, to, weight));
                }
                Frame::PublishWeights(deltas)
            }
            T_WEIGHTS_PUBLISHED => Frame::WeightsPublished { epoch: EpochId(r.u64()?) },
            T_SHUTDOWN => Frame::Shutdown,
            T_FAULT => Frame::Fault { message: r.str()? },
            _ => return Err(ProtocolError::Malformed("unknown frame type")),
        };
        r.done()?;
        Ok(frame)
    }
}

/// Incremental frame decoder: feed it raw socket bytes in whatever chunks
/// the kernel hands out; it yields complete frames as they materialize.
/// Handles frames split across reads and multiple frames per read; an
/// announced length beyond `max_frame` is rejected *before* any buffering
/// ([`ProtocolError::Oversized`]).
pub struct FrameReader {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameReader {
    /// Decoder enforcing `max_frame` (see [`MAX_FRAME`]).
    pub fn new(max_frame: usize) -> FrameReader {
        FrameReader { buf: Vec::with_capacity(4096), max_frame }
    }

    /// Appends received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (true mid-frame when > 0 after
    /// draining [`FrameReader::next_frame`]).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// The next complete frame, `Ok(None)` if more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtocolError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("sized slice")) as usize;
        if len == 0 {
            return Err(ProtocolError::Malformed("empty frame"));
        }
        if len > self.max_frame {
            return Err(ProtocolError::Oversized { len, max: self.max_frame });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = Frame::decode(&self.buf[4..4 + len])?;
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }
}

/// Writes one frame to a blocking stream (the client; the server's writer
/// threads batch frames through a buffered writer instead).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), ProtocolError> {
    let bytes = frame.to_bytes();
    w.write_all(&bytes).map_err(|e| ProtocolError::io("write", e))?;
    w.flush().map_err(|e| ProtocolError::io("flush", e))
}

/// Reads one frame from a blocking stream.
pub fn read_frame<R: Read>(r: &mut R, max_frame: usize) -> Result<Frame, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes).map_err(|e| ProtocolError::io("read length", e))?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 {
        return Err(ProtocolError::Malformed("empty frame"));
    }
    if len > max_frame {
        return Err(ProtocolError::Oversized { len, max: max_frame });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| ProtocolError::io("read payload", e))?;
    Frame::decode(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::{outcomes, recorder};
    use proptest::prelude::*;

    fn sample_query() -> SkySrQuery {
        SkySrQuery {
            start: VertexId(7),
            sequence: vec![
                PositionSpec::Category(CategoryId(3)),
                PositionSpec::Requirement(Requirement::Exclude {
                    base: Box::new(Requirement::AnyOf(vec![
                        Requirement::Category(CategoryId(1)),
                        Requirement::AllOf(vec![Requirement::Category(CategoryId(2))]),
                    ])),
                    not: CategoryId(9),
                }),
            ],
        }
    }

    fn sample_route() -> SkylineRoute {
        SkylineRoute {
            pois: vec![VertexId(6), VertexId(9), VertexId(8)],
            length: Cost::new(11.25),
            semantic: 0.5,
        }
    }

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = frame.to_bytes();
        let mut fr = FrameReader::new(MAX_FRAME);
        fr.extend(&bytes);
        let decoded = fr.next_frame().expect("valid frame").expect("complete frame");
        assert_eq!(fr.pending(), 0, "no leftovers");
        decoded
    }

    #[test]
    fn submit_roundtrips_bit_exactly() {
        let request = QueryRequest {
            query: sample_query(),
            options: RequestOptions {
                deadline: Some(Duration::from_millis(5)),
                trace: true,
                reuse: Some(ReuseStrategies::none()),
                region: Some(RegionId(3)),
            },
        };
        let Frame::Submit { id, streaming, request: back } =
            roundtrip(&Frame::Submit { id: 42, streaming: true, request: request.clone() })
        else {
            panic!("wrong frame");
        };
        assert_eq!(id, 42);
        assert!(streaming);
        assert_eq!(back, request);
    }

    #[test]
    fn final_frame_roundtrips_scores_bit_exactly() {
        // An irrational-ish score exercises the f64-bits path: any decimal
        // detour would perturb the low mantissa bits.
        let route = SkylineRoute {
            pois: vec![VertexId(1)],
            length: Cost::new(1.0 / 3.0),
            semantic: 2.0_f64.sqrt() / 2.0,
        };
        let response = QueryResponse {
            routes: vec![route.clone(), sample_route()].into(),
            epoch: EpochId(3),
            served: Served::Repaired { fallback: false, routes_untouched: 2, routes_rescored: 1 },
            latency: Duration::from_micros(123),
            request_id: 9,
            queue_wait: Duration::from_nanos(77),
        };
        let Frame::Final { id, response: back } =
            roundtrip(&Frame::Final { id: 5, response: response.clone() })
        else {
            panic!("wrong frame");
        };
        assert_eq!(id, 5);
        assert_eq!(back.routes[0].length.get().to_bits(), route.length.get().to_bits());
        assert_eq!(back.routes[0].semantic.to_bits(), route.semantic.to_bits());
        assert_eq!(back.epoch, response.epoch);
        assert_eq!(back.served, response.served);
        assert_eq!(back.latency, response.latency);
        assert_eq!(back.request_id, 9);
        assert_eq!(back.queue_wait, response.queue_wait);
    }

    #[test]
    fn frames_split_across_reads_decode_once_complete() {
        let frame =
            Frame::Submit { id: 1, streaming: false, request: QueryRequest::new(sample_query()) };
        let bytes = frame.to_bytes();
        let mut fr = FrameReader::new(MAX_FRAME);
        // Feed one byte at a time: no partial prefix may decode.
        for (i, b) in bytes.iter().enumerate() {
            let is_last = i + 1 == bytes.len();
            fr.extend(std::slice::from_ref(b));
            let got = fr.next_frame().expect("never malformed");
            if is_last {
                assert!(matches!(got, Some(Frame::Submit { id: 1, .. })));
            } else {
                assert!(got.is_none(), "decoded early at byte {i}");
            }
        }
    }

    #[test]
    fn multiple_frames_per_read_all_decode() {
        let frames = [
            Frame::Hello { version: PROTOCOL_VERSION },
            Frame::Progress { id: 2, route: sample_route() },
            Frame::Shutdown,
            Frame::WeightsPublished { epoch: EpochId(4) },
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.to_bytes());
        }
        let mut fr = FrameReader::new(MAX_FRAME);
        fr.extend(&bytes);
        assert!(matches!(fr.next_frame().unwrap(), Some(Frame::Hello { .. })));
        assert!(matches!(fr.next_frame().unwrap(), Some(Frame::Progress { id: 2, .. })));
        assert!(matches!(fr.next_frame().unwrap(), Some(Frame::Shutdown)));
        assert!(matches!(
            fr.next_frame().unwrap(),
            Some(Frame::WeightsPublished { epoch: EpochId(4) })
        ));
        assert!(fr.next_frame().unwrap().is_none());
        assert_eq!(fr.pending(), 0);
    }

    #[test]
    fn oversized_frames_are_rejected_before_buffering() {
        let mut fr = FrameReader::new(1024);
        fr.extend(&(2048u32).to_le_bytes());
        assert!(matches!(fr.next_frame(), Err(ProtocolError::Oversized { len: 2048, max: 1024 })));
    }

    #[test]
    fn adversarial_bytes_error_instead_of_panicking() {
        // A battery of hostile payloads: truncations, bad tags, NaN
        // scores, bogus lengths, deep recursion. Every one must come back
        // as a typed error.
        let cases: Vec<Vec<u8>> = vec![
            // Unknown frame type.
            {
                let mut b = vec![0u8; 0];
                put_u32(&mut b, 1);
                put_u8(&mut b, 0xEE);
                b
            },
            // Empty frame.
            (0u32).to_le_bytes().to_vec(),
            // Submit truncated mid-query.
            {
                let full = Frame::Submit {
                    id: 1,
                    streaming: false,
                    request: QueryRequest::new(sample_query()),
                }
                .to_bytes();
                let cut = full.len() - 3;
                let mut b = Vec::new();
                put_u32(&mut b, (cut - 4) as u32);
                b.extend_from_slice(&full[4..cut]);
                b
            },
            // Progress with NaN semantic.
            {
                let mut body = vec![T_PROGRESS];
                put_u64(&mut body, 1);
                put_u16(&mut body, 1);
                put_u32(&mut body, 5);
                put_f64(&mut body, 1.0);
                put_f64(&mut body, f64::NAN);
                let mut b = Vec::new();
                put_u32(&mut b, body.len() as u32);
                b.extend(body);
                b
            },
            // PublishWeights with negative weight.
            {
                let mut body = vec![T_PUBLISH_WEIGHTS];
                put_u32(&mut body, 1);
                put_u32(&mut body, 0);
                put_u32(&mut body, 1);
                put_f64(&mut body, -2.0);
                let mut b = Vec::new();
                put_u32(&mut b, body.len() as u32);
                b.extend(body);
                b
            },
            // Requirement nested beyond the depth limit.
            {
                let mut body = vec![T_SUBMIT];
                put_u64(&mut body, 1);
                put_u8(&mut body, 0);
                put_u32(&mut body, 0); // start
                put_u16(&mut body, 1); // one position
                put_u8(&mut body, 1); // requirement position
                for _ in 0..(MAX_REQ_DEPTH + 2) {
                    put_u8(&mut body, 3); // Exclude{ base: ...
                }
                let mut b = Vec::new();
                put_u32(&mut b, body.len() as u32);
                b.extend(body);
                b
            },
            // Trailing garbage after a valid Shutdown payload.
            {
                let mut b = Vec::new();
                put_u32(&mut b, 3);
                put_u8(&mut b, T_SHUTDOWN);
                put_u16(&mut b, 0xBEEF);
                b
            },
            // Submit with an undefined option flag (bit 4 — beyond the
            // region bit).
            {
                let mut body = vec![T_SUBMIT];
                put_u64(&mut body, 1);
                put_u8(&mut body, 0);
                put_u32(&mut body, 0); // start
                put_u16(&mut body, 0); // no positions
                put_u8(&mut body, 0b1_0000); // unknown option flag
                let mut b = Vec::new();
                put_u32(&mut b, body.len() as u32);
                b.extend(body);
                b
            },
            // Submit announcing a region (flag bit 3) but truncated
            // before the region id.
            {
                let mut body = vec![T_SUBMIT];
                put_u64(&mut body, 1);
                put_u8(&mut body, 0);
                put_u32(&mut body, 0); // start
                put_u16(&mut body, 0); // no positions
                put_u8(&mut body, 0b1000); // region follows... except it doesn't
                let mut b = Vec::new();
                put_u32(&mut b, body.len() as u32);
                b.extend(body);
                b
            },
            // Submit whose reuse mask sets a bit no strategy owns.
            {
                let mut body = vec![T_SUBMIT];
                put_u64(&mut body, 1);
                put_u8(&mut body, 0);
                put_u32(&mut body, 0); // start
                put_u16(&mut body, 0); // no positions
                put_u8(&mut body, 0b100); // a reuse mask follows
                put_u8(&mut body, 0b1000);
                let mut b = Vec::new();
                put_u32(&mut b, body.len() as u32);
                b.extend(body);
                b
            },
            // Welcome announcing an absurd registry size.
            {
                let mut body = vec![T_WELCOME];
                put_u16(&mut body, PROTOCOL_VERSION);
                for _ in 0..4 {
                    put_u64(&mut body, 1); // fingerprint
                }
                put_u16(&mut body, u16::MAX); // registry entries
                let mut b = Vec::new();
                put_u32(&mut b, body.len() as u32);
                b.extend(body);
                b
            },
            // Welcome that ends before its registry count.
            {
                let mut body = vec![T_WELCOME];
                put_u16(&mut body, PROTOCOL_VERSION);
                for _ in 0..4 {
                    put_u64(&mut body, 1); // fingerprint
                }
                let mut b = Vec::new();
                put_u32(&mut b, body.len() as u32);
                b.extend(body);
                b
            },
        ];
        for (i, bytes) in cases.iter().enumerate() {
            let mut fr = FrameReader::new(MAX_FRAME);
            fr.extend(bytes);
            match fr.next_frame() {
                Err(_) => {}
                Ok(other) => panic!("case {i} decoded as {other:?} instead of erroring"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // A snapshot over random outcomes decodes to an equal snapshot:
        // the recorded fields travel, the decoder derives the rest.
        #[test]
        fn metrics_snapshot_roundtrips(
            outcomes in outcomes(),
            events in prop::collection::vec(0u64..4, 4),
            k in 0u64..1_000,
        ) {
            let m = recorder(&outcomes, &events).snapshot(
                Duration::from_micros(37 * k + 1),
                CacheCounters { insertions: k, evictions: k / 2, invalidations: k / 3, len: k / 4 },
                EpochGcStats {
                    retained: 2,
                    history_bytes: 3 * k as usize,
                    retention: 4,
                    compacted: k,
                    overlay_len: 6,
                },
            );
            let Frame::MetricsRep(back) = roundtrip(&Frame::MetricsRep(Box::new(m.clone()))) else {
                panic!("wrong frame");
            };
            prop_assert_eq!(*back, m);
        }
    }

    #[test]
    fn v2_welcome_roundtrips_the_registry() {
        let fp = |seed: u64| DatasetFingerprint {
            vertices: 100 + seed,
            arcs: 400 + seed,
            pois: 20 + seed,
            epoch: EpochId(seed),
        };
        let registry = vec![
            RegionInfo { id: RegionId(0), name: "bay-area".into(), fingerprint: fp(0) },
            RegionInfo { id: RegionId(1), name: "la-basin".into(), fingerprint: fp(1) },
        ];
        let Frame::Welcome { version, fingerprint, registry: back } = roundtrip(&Frame::Welcome {
            version: PROTOCOL_VERSION,
            fingerprint: fp(0),
            registry: registry.clone(),
        }) else {
            panic!("wrong frame");
        };
        assert_eq!(version, PROTOCOL_VERSION);
        assert_eq!(fingerprint, fp(0));
        assert_eq!(back, registry);
    }

    #[test]
    fn region_less_options_carry_no_region_bytes() {
        // A region-less Submit carries no region id: the same request
        // addressed to a region is exactly one u16 longer.
        let request = QueryRequest::new(sample_query());
        let submit = |request| Frame::Submit { id: 8, streaming: false, request };
        let Frame::Submit { request: back, .. } = roundtrip(&submit(request.clone())) else {
            panic!("wrong frame");
        };
        assert_eq!(back, request);
        assert_eq!(back.options.region, None);
        let addressed = submit(request.clone().region(RegionId(1))).to_bytes();
        assert_eq!(submit(request).to_bytes().len() + 2, addressed.len());
    }

    #[test]
    fn query_errors_roundtrip() {
        for e in [
            QueryError::UnknownStart(VertexId(3)),
            QueryError::EmptySequence,
            QueryError::UnknownCategory(CategoryId(7)),
            QueryError::UnmatchablePosition(2),
            QueryError::UnknownDestination(VertexId(11)),
            QueryError::Overloaded,
            QueryError::UnknownRegion(7),
        ] {
            let Frame::QueryFailed { id, error } =
                roundtrip(&Frame::QueryFailed { id: 1, error: e.clone() })
            else {
                panic!("wrong frame");
            };
            assert_eq!(id, 1);
            assert_eq!(error, e);
        }
    }
}
