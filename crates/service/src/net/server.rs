//! The `skysr-d` event loop: one poll thread, nonblocking sockets.
//!
//! The runtime has no async stack (std-only, by constraint), so the
//! daemon is a classic readiness loop: a nonblocking
//! [`TcpListener`] plus per-connection nonblocking [`TcpStream`]s, all
//! driven by a single thread that accepts, reads, decodes, dispatches,
//! pumps and flushes in rounds. The *engine* still runs on the
//! [`Service`]'s own worker pool — the loop never blocks on a search:
//! submissions go through the service's non-blocking `try_submit` (a full
//! queue parks the
//! frame and the loop keeps turning — backpressure reaches the client as
//! an unread socket), and answers come back by polling each in-flight
//! query's [`Ticket::try_wait`] and its streaming progress channel.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use skysr_core::error::QueryError;
use skysr_core::route::SkylineRoute;

use super::wire::{
    DatasetFingerprint, Frame, FrameReader, ProtocolError, MAX_FRAME, PROTOCOL_VERSION,
};
use crate::service::{QueryRequest, QueryService, Service, Ticket};
use crate::shard::{RegionInfo, Router};

/// What the event loop needs from the engine behind it, beyond
/// [`QueryService`]: the non-blocking submission path its readiness model
/// depends on. Implemented by the single-shard [`Service`] and the
/// multi-tenant [`Router`], so one daemon binary serves either.
pub trait ServeBackend: QueryService + 'static {
    /// Non-blocking submit: `Err` hands the request back when the
    /// submission queue is full right now (the loop parks it and keeps
    /// turning); an admission-gate shed or a mis-addressed region is an
    /// `Ok` ticket already resolved to the typed failure. `submitted` is
    /// the instant the request *first* arrived, so a parked-and-retried
    /// request keeps its original deadline clock.
    fn try_submit(
        &self,
        request: QueryRequest,
        progress: Option<Sender<SkylineRoute>>,
        submitted: Instant,
    ) -> Result<Ticket, QueryRequest>;

    /// Counts a request shed while parked (queue full past its deadline)
    /// against the owning shard's metrics.
    fn note_shed_parked(&self, request: &QueryRequest);
}

impl ServeBackend for Service {
    fn try_submit(
        &self,
        request: QueryRequest,
        progress: Option<Sender<SkylineRoute>>,
        submitted: Instant,
    ) -> Result<Ticket, QueryRequest> {
        Service::try_submit(self, request, progress, submitted)
    }

    fn note_shed_parked(&self, _request: &QueryRequest) {
        Service::note_shed_parked(self);
    }
}

impl ServeBackend for Router {
    fn try_submit(
        &self,
        request: QueryRequest,
        progress: Option<Sender<SkylineRoute>>,
        submitted: Instant,
    ) -> Result<Ticket, QueryRequest> {
        match self.dispatch_request(request) {
            Ok((service, request)) => Service::try_submit(&service, request, progress, submitted),
            Err(err) => Ok(self.resolved_error_ticket(err)),
        }
    }

    fn note_shed_parked(&self, request: &QueryRequest) {
        // The parked request was already routable (it parked on a shard's
        // full queue), so resolve charges the owning shard; an unroutable
        // one was never parked.
        if let Ok(region) = self.resolve(request) {
            if let Some(service) = self.shard(region) {
                Service::note_shed_parked(service);
            }
        }
    }
}

/// Tuning knobs for [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Largest accepted frame (see [`MAX_FRAME`]).
    pub max_frame: usize,
    /// Per-connection write-buffer size above which the loop stops
    /// *reading* from that connection — backpressure for a client that
    /// pipelines submissions faster than it drains answers.
    pub write_buf_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { max_frame: MAX_FRAME, write_buf_cap: 4 << 20 }
    }
}

/// A running daemon: the listener plus its poll thread.
///
/// The server holds an `Arc` of its backend — the single-shard
/// [`Service`] or the multi-tenant [`Router`] — and answers any number
/// of concurrent connections against it. It stops either cooperatively
/// ([`Server::stop`], backend left running) or protocol-driven (a client
/// sends [`Frame::Shutdown`]: the loop drains every in-flight query,
/// shuts the backend down, answers with the final
/// [`Frame::MetricsRep`] and exits).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// spawns the poll thread serving `backend` — an `Arc<Service>`
    /// (single shard) or `Arc<Router>` (multi-tenant).
    pub fn spawn<A: ToSocketAddrs, B: ServeBackend>(
        addr: A,
        backend: Arc<B>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // The registry (and the default shard's fingerprint inside it) is
        // captured once at spawn: the handshake advertises the epoch the
        // daemon *started* serving.
        let registry = backend.regions();
        let fingerprint = registry
            .first()
            .map(|info| info.fingerprint)
            .expect("a serve backend advertises at least one region");
        let mut loop_state = EventLoop {
            listener,
            service: backend as Arc<dyn ServeBackend>,
            registry,
            fingerprint,
            config,
            conns: Vec::new(),
            draining: false,
            stop: Arc::clone(&stop),
        };
        let handle = std::thread::Builder::new()
            .name("skysr-d".into())
            .spawn(move || loop_state.run())
            .expect("spawn server thread");
        Ok(Server { addr, stop, handle: Some(handle) })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the poll thread to exit after its current round (the service
    /// itself is left running) and waits for it.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.join();
    }

    /// Waits for the poll thread to exit — either via [`Server::stop`] or
    /// a client's [`Frame::Shutdown`].
    pub fn join(&mut self) {
        if let Some(handle) = self.handle.take() {
            if handle.join().is_err() {
                panic!("skysr-d poll thread panicked");
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One query in flight on behalf of a connection.
struct Inflight {
    /// The *client's* correlation id, echoed on every answer frame.
    id: u64,
    ticket: Ticket,
    progress: Option<Receiver<SkylineRoute>>,
}

/// Per-connection state.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Pending output; `out_pos` marks how much is already written.
    out: Vec<u8>,
    out_pos: usize,
    /// Handshake seen.
    greeted: bool,
    inflight: Vec<Inflight>,
    /// A submission the bounded queue rejected, retried every round
    /// (while parked, no further frames are read from this connection).
    /// Carries the instant the submission *first* arrived, so a parked
    /// request's deadline clock keeps running — the per-connection
    /// overload gate sheds it with a typed [`Frame::QueryFailed`] once
    /// the deadline lapses instead of retrying forever.
    parked: Option<(u64, bool, Instant, QueryRequest)>,
    /// Close once the write buffer drains (set after a `Fault`).
    close_after_flush: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_frame: usize) -> Conn {
        Conn {
            stream,
            reader: FrameReader::new(max_frame),
            out: Vec::new(),
            out_pos: 0,
            greeted: false,
            inflight: Vec::new(),
            parked: None,
            close_after_flush: false,
            dead: false,
        }
    }

    fn queue_frame(&mut self, frame: &Frame) {
        self.out.extend_from_slice(&frame.to_bytes());
    }

    fn buffered(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Queues a `Fault`, abandons all in-flight work and schedules the
    /// connection for close-after-flush.
    fn fault(&mut self, message: String) {
        self.queue_frame(&Frame::Fault { message });
        self.inflight.clear();
        self.parked = None;
        self.close_after_flush = true;
    }
}

struct EventLoop {
    listener: TcpListener,
    service: Arc<dyn ServeBackend>,
    /// The registry advertised in every `Welcome`, captured at spawn.
    registry: Vec<RegionInfo>,
    /// The default shard's fingerprint, advertised in every `Welcome`.
    fingerprint: DatasetFingerprint,
    config: ServerConfig,
    conns: Vec<Conn>,
    /// A client asked for shutdown: stop accepting, drain in-flight work,
    /// then stop the service. At most one drain at a time; later
    /// `Shutdown` frames get a `Fault`.
    draining: bool,
    stop: Arc<AtomicBool>,
}

impl EventLoop {
    fn run(&mut self) {
        let mut drain_conn: Option<usize> = None;
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let mut busy = false;

            // Accept — suspended once a shutdown drain started.
            if !self.draining {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nodelay(true);
                            if stream.set_nonblocking(true).is_ok() {
                                self.conns.push(Conn::new(stream, self.config.max_frame));
                                busy = true;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => break,
                    }
                }
            }

            // Read + dispatch, pump, flush each connection.
            for i in 0..self.conns.len() {
                let mut requested_drain = false;
                {
                    let draining = self.draining;
                    let conn = &mut self.conns[i];
                    busy |= read_into(conn, self.config.write_buf_cap);
                    busy |= dispatch(
                        conn,
                        &self.service,
                        self.fingerprint,
                        &self.registry,
                        draining,
                        &mut requested_drain,
                    );
                    busy |= pump(conn);
                    busy |= flush(conn);
                }
                if requested_drain && !self.draining {
                    self.draining = true;
                    drain_conn = Some(i);
                }
            }

            // Retry parked submissions (queue may have drained). A parked
            // request whose deadline lapsed while the queue stayed full is
            // shed right here with the typed overload failure — honest
            // per-connection admission, not an unbounded retry.
            for conn in &mut self.conns {
                if let Some((id, streaming, submitted, request)) = conn.parked.take() {
                    if request.options.deadline.is_some_and(|d| submitted.elapsed() >= d) {
                        self.service.note_shed_parked(&request);
                        conn.queue_frame(&Frame::QueryFailed { id, error: QueryError::Overloaded });
                        busy = true;
                        continue;
                    }
                    match try_submit(&self.service, id, streaming, submitted, request) {
                        Ok(inflight) => {
                            conn.inflight.push(inflight);
                            busy = true;
                        }
                        Err(parked) => conn.parked = Some(parked),
                    }
                }
            }

            // Drop finished/broken connections, tracking the drain conn
            // across removals.
            let mut j = 0usize;
            self.conns.retain(|conn| {
                let keep = !(conn.dead || conn.close_after_flush && conn.buffered() == 0);
                if !keep {
                    if drain_conn == Some(j) {
                        drain_conn = None;
                    } else if let Some(d) = drain_conn {
                        if j < d {
                            drain_conn = Some(d - 1);
                        }
                    }
                }
                j += 1;
                keep
            });

            // A requested shutdown completes once nothing is in flight
            // anywhere: stop the service, answer with the final metrics,
            // flush, exit.
            if self.draining
                && self.conns.iter().all(|c| c.inflight.is_empty() && c.parked.is_none())
            {
                let final_metrics = self.service.shutdown();
                if let Some(d) = drain_conn {
                    self.conns[d].queue_frame(&Frame::MetricsRep(Box::new(final_metrics)));
                }
                for _ in 0..10_000 {
                    let mut pending = false;
                    for conn in &mut self.conns {
                        flush(conn);
                        pending |= !conn.dead && conn.buffered() > 0;
                    }
                    if !pending {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                return;
            }

            if !busy {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
    }
}

/// Reads available bytes into the connection's frame decoder. Skipped
/// while a submission is parked or the write buffer is over the cap —
/// that is how engine backpressure propagates to the socket.
fn read_into(conn: &mut Conn, write_buf_cap: usize) -> bool {
    if conn.dead || conn.close_after_flush || conn.parked.is_some() {
        return false;
    }
    if conn.buffered() > write_buf_cap {
        return false;
    }
    let mut busy = false;
    let mut chunk = [0u8; 16 * 1024];
    // Bounded rounds per tick so one firehose connection cannot starve
    // the rest.
    for _ in 0..4 {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.dead = true;
                return busy;
            }
            Ok(n) => {
                conn.reader.extend(&chunk[..n]);
                busy = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return busy;
            }
        }
    }
    busy
}

/// Decodes and handles every complete frame buffered on the connection.
fn dispatch(
    conn: &mut Conn,
    service: &Arc<dyn ServeBackend>,
    fingerprint: DatasetFingerprint,
    registry: &[RegionInfo],
    draining: bool,
    requested_drain: &mut bool,
) -> bool {
    if conn.dead || conn.close_after_flush {
        return false;
    }
    let mut busy = false;
    loop {
        if conn.parked.is_some() {
            break;
        }
        let frame = match conn.reader.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(e) => {
                conn.fault(e.to_string());
                return true;
            }
        };
        busy = true;
        match frame {
            Frame::Hello { version } => {
                // Answer with our identity either way — a mismatched
                // client needs the Welcome to diagnose — and hang up on a
                // version we do not speak.
                conn.queue_frame(&Frame::Welcome {
                    version: PROTOCOL_VERSION,
                    fingerprint,
                    registry: registry.to_vec(),
                });
                if version == PROTOCOL_VERSION {
                    conn.greeted = true;
                } else {
                    conn.close_after_flush = true;
                }
            }
            Frame::Submit { id, streaming, request } => {
                if !conn.greeted {
                    conn.fault(ProtocolError::UnexpectedFrame("Submit before Hello").to_string());
                    return true;
                }
                if draining {
                    conn.fault("server is shutting down".to_string());
                    return true;
                }
                match try_submit(service, id, streaming, Instant::now(), request) {
                    Ok(inflight) => conn.inflight.push(inflight),
                    Err(parked) => conn.parked = Some(parked),
                }
            }
            Frame::MetricsReq => {
                conn.queue_frame(&Frame::MetricsRep(Box::new(service.metrics())));
            }
            Frame::PublishWeights(deltas) => {
                let epoch = service.publish_weights(&deltas);
                conn.queue_frame(&Frame::WeightsPublished { epoch });
            }
            Frame::Shutdown => {
                if !conn.greeted {
                    conn.fault(ProtocolError::UnexpectedFrame("Shutdown before Hello").to_string());
                    return true;
                }
                if draining || *requested_drain {
                    conn.fault("shutdown already in progress".to_string());
                    return true;
                }
                *requested_drain = true;
            }
            Frame::Welcome { .. }
            | Frame::Progress { .. }
            | Frame::Final { .. }
            | Frame::QueryFailed { .. }
            | Frame::MetricsRep(_)
            | Frame::WeightsPublished { .. }
            | Frame::Fault { .. } => {
                conn.fault(
                    ProtocolError::UnexpectedFrame("server-to-client frame from client")
                        .to_string(),
                );
                return true;
            }
        }
    }
    busy
}

fn try_submit(
    service: &Arc<dyn ServeBackend>,
    id: u64,
    streaming: bool,
    submitted: Instant,
    request: QueryRequest,
) -> Result<Inflight, (u64, bool, Instant, QueryRequest)> {
    let (progress_tx, progress_rx) = if streaming {
        let (tx, rx) = std::sync::mpsc::channel();
        (Some(tx), Some(rx))
    } else {
        (None, None)
    };
    match service.try_submit(request, progress_tx, submitted) {
        Ok(ticket) => Ok(Inflight { id, ticket, progress: progress_rx }),
        Err(request) => Err((id, streaming, submitted, request)),
    }
}

/// Moves completed work onto the wire: provisional points from streaming
/// searches as they are proven, final answers as tickets resolve.
fn pump(conn: &mut Conn) -> bool {
    if conn.dead || conn.close_after_flush {
        return false;
    }
    let mut busy = false;
    let mut frames: Vec<Frame> = Vec::new();
    conn.inflight.retain_mut(|inflight| {
        if let Some(progress) = &inflight.progress {
            while let Ok(route) = progress.try_recv() {
                frames.push(Frame::Progress { id: inflight.id, route });
            }
        }
        match inflight.ticket.try_wait() {
            None => true,
            Some(outcome) => {
                // The worker sends every progress point before it replies,
                // so at this point the channel already holds them all —
                // drain once more to keep Progress-before-Final ordering.
                if let Some(progress) = &inflight.progress {
                    while let Ok(route) = progress.try_recv() {
                        frames.push(Frame::Progress { id: inflight.id, route });
                    }
                }
                frames.push(match outcome {
                    Ok(response) => Frame::Final { id: inflight.id, response },
                    Err(error) => Frame::QueryFailed { id: inflight.id, error },
                });
                false
            }
        }
    });
    for frame in &frames {
        conn.queue_frame(frame);
        busy = true;
    }
    busy
}

/// Writes as much buffered output as the socket accepts.
fn flush(conn: &mut Conn) -> bool {
    if conn.dead {
        return false;
    }
    let mut busy = false;
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return busy;
            }
            Ok(n) => {
                conn.out_pos += n;
                busy = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return busy;
            }
        }
    }
    if conn.out_pos == conn.out.len() && conn.out_pos > 0 {
        conn.out.clear();
        conn.out_pos = 0;
    }
    busy
}
