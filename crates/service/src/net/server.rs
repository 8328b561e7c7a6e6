//! The `skysr-d` server: blocking sockets, two threads per connection.
//!
//! # Connections
//!
//! The runtime has no async stack (std-only, by constraint), so the daemon
//! serves each connection on blocking threads. An acceptor thread takes
//! connections, up to [`MAX_CONNECTIONS`] at once, and gives each one a
//! reader thread and a writer thread:
//!
//! * the reader decodes frames in order and submits each `Submit` through
//!   the backend's ordinary [`QueryService::submit_to`], which blocks
//!   while the submission queue is full — so a full queue stops that
//!   connection's reads, and backpressure reaches the client as an unread
//!   socket. A frame the reader cannot serve (malformed bytes, a frame
//!   out of order, a weight batch the backend refuses) is answered with a
//!   [`Frame::Fault`], and the connection closes;
//! * every frame for the connection goes through one outbox to the
//!   writer, which writes them in the order they were posted. The reader
//!   posts its own replies there (so unnumbered replies stay in request
//!   order), and each request's [`Reply`] posts its `Progress` and `Final`
//!   frames there from the thread that answers it — a worker, or the
//!   reader itself for a cache hit, which is answered at submission.
//!   Answers leave as requests complete, not in submission order;
//! * a client that stops reading stops being read: while more than
//!   [`ServerConfig::write_buf_cap`] bytes wait to be written, the reader
//!   waits for the writer before it reads another frame.
//!
//! The engine runs on the backend's own worker pool. Nothing polls and
//! nothing sleeps on a timer: every thread blocks on a socket, the
//! submission queue or a condition variable. A request keeps the arrival
//! clock it got before a full queue made it wait, so one whose deadline
//! lapses there is shed `Overloaded` at dequeue.
//!
//! # Stopping
//!
//! [`Server::stop`] (and dropping the `Server`) cuts every socket and
//! joins every thread, leaving the backend running. A client's
//! [`Frame::Shutdown`] drains instead: the acceptor stops accepting, each
//! `Submit` counts itself as an owed answer before it checks for the
//! drain (so later ones get a `Fault`), and once nothing is owed the
//! server shuts the backend down, posts the final [`Frame::MetricsRep`]
//! to the requester and closes each connection after its writer has
//! flushed.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use super::wire::{read_frame, Frame, ProtocolError, MAX_FRAME, PROTOCOL_VERSION};
use crate::service::{Answer, QueryService, Reply};

/// Connections served at once. The next one is answered with a
/// [`Frame::Fault`] and closed, and no thread is spawned for it.
pub const MAX_CONNECTIONS: usize = 64;

/// Tuning knobs for [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Largest accepted frame (see [`MAX_FRAME`]).
    pub max_frame: usize,
    /// Unwritten bytes per connection above which the server stops
    /// *reading* that connection — backpressure for a client that
    /// pipelines submissions faster than it drains answers.
    pub write_buf_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { max_frame: MAX_FRAME, write_buf_cap: 4 << 20 }
    }
}

/// A running daemon: the listener's acceptor thread and every
/// connection's threads.
///
/// The server holds an `Arc` of its backend — the single-shard
/// [`Service`](crate::Service), the multi-tenant
/// [`Router`](crate::Router) or any other [`QueryService`] — and answers
/// any number of connections against it. It stops either cooperatively
/// ([`Server::stop`], backend left running) or protocol-driven (a client
/// sends [`Frame::Shutdown`]: the server stops accepting, waits until
/// every submitted request is answered, shuts the backend down, answers
/// with the final [`Frame::MetricsRep`] and closes each connection once
/// its writer has flushed).
pub struct Server {
    addr: SocketAddr,
    hub: Arc<Hub>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), then
    /// [serves](Server::serve) `backend` on it.
    pub fn spawn<A: ToSocketAddrs, B: QueryService + 'static>(
        addr: A,
        backend: Arc<B>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Server::serve(TcpListener::bind(addr)?, backend, config)
    }

    /// Spawns the acceptor serving `backend` — an `Arc<Service>` (single
    /// shard), an `Arc<Router>` (multi-tenant) or any other
    /// [`QueryService`] — on a listener bound beforehand, so a daemon can
    /// claim its socket before it builds what it serves.
    pub fn serve<B: QueryService + 'static>(
        listener: TcpListener,
        backend: Arc<B>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let addr = listener.local_addr()?;
        // The registry (and region 0's fingerprint inside it) is
        // captured once at spawn: the handshake advertises the epoch the
        // daemon *started* serving.
        let registry = backend.regions();
        let fingerprint = registry
            .first()
            .map(|info| info.fingerprint)
            .expect("a served backend advertises at least one region");
        let welcome = Frame::Welcome { version: PROTOCOL_VERSION, fingerprint, registry };
        // A wildcard bind is reachable on loopback, where the acceptor's
        // wake-up connects.
        let wake = match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => (Ipv4Addr::LOCALHOST, addr.port()).into(),
            IpAddr::V6(ip) if ip.is_unspecified() => (Ipv6Addr::LOCALHOST, addr.port()).into(),
            _ => addr,
        };
        let hub = Arc::new(Hub { state: Mutex::default(), settled: Condvar::new(), wake });
        let front = Front {
            backend: backend as Arc<dyn QueryService>,
            welcome: welcome.to_bytes(),
            config,
            hub: Arc::clone(&hub),
        };
        let acceptor = std::thread::Builder::new()
            .name("skysr-d".into())
            .spawn(move || accept_loop(listener, Arc::new(front)))?;
        Ok(Server { addr, hub, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Closes the listener and every connection (the backend is left
    /// running) and waits for every server thread to exit.
    pub fn stop(&mut self) {
        self.hub.stop();
        self.join();
    }

    /// Waits for every server thread to exit — either via
    /// [`Server::stop`] or a client's [`Frame::Shutdown`].
    pub fn join(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            if handle.join().is_err() {
                panic!("skysr-d acceptor thread panicked");
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            self.hub.stop();
            let _ = handle.join();
        }
    }
}

/// What every connection's reader needs: the backend, the handshake
/// answer, the limits and the hub.
struct Front {
    backend: Arc<dyn QueryService>,
    /// The encoded `Welcome`, the same for every connection.
    welcome: Vec<u8>,
    config: ServerConfig,
    hub: Arc<Hub>,
}

/// The state the acceptor, the connections and the reply sinks share. It
/// holds no backend, so a reply dropped on a worker thread never drops
/// the last handle to the service that worker belongs to.
struct Hub {
    state: Mutex<HubState>,
    /// Signalled when the last owed answer is released.
    settled: Condvar,
    /// Where a loopback connect wakes the acceptor out of `accept`.
    wake: SocketAddr,
}

#[derive(Default)]
struct HubState {
    /// [`Server::stop`] (or the drop) closes everything.
    stopping: bool,
    /// Set by the first `Shutdown`: the outbox its farewell goes to.
    drain: Option<Arc<Outbox>>,
    /// Answers that submitted requests still owe.
    owed: usize,
    /// Every open connection, counted against [`MAX_CONNECTIONS`]: its
    /// socket (cut by `stop`) and its outbox (closed by the drain).
    conns: HashMap<u64, Conn>,
    next_conn: u64,
}

struct Conn {
    socket: TcpStream,
    out: Arc<Outbox>,
}

impl Hub {
    fn lock(&self) -> MutexGuard<'_, HubState> {
        self.state.lock().expect("server state poisoned")
    }

    /// Counts one answer a `Submit` owes — before looking at the drain,
    /// under the same lock, so a drain that begins afterwards waits for
    /// it. `None` once a drain has begun.
    fn owe(self: &Arc<Hub>) -> Option<Owed> {
        let mut state = self.lock();
        if state.drain.is_some() {
            return None;
        }
        state.owed += 1;
        Some(Owed(Arc::clone(self)))
    }

    /// Begins the drain, with `out` to receive the farewell. `false` if a
    /// drain already began.
    fn begin_drain(&self, out: &Arc<Outbox>) -> bool {
        let mut state = self.lock();
        if state.drain.is_some() {
            return false;
        }
        state.drain = Some(Arc::clone(out));
        drop(state);
        self.wake_acceptor();
        true
    }

    fn stop(&self) {
        let mut state = self.lock();
        state.stopping = true;
        for conn in state.conns.values() {
            let _ = conn.socket.shutdown(Shutdown::Both);
        }
        drop(state);
        self.wake_acceptor();
    }

    fn wake_acceptor(&self) {
        // Refused once the acceptor has left `accept`, which is fine.
        let _ = TcpStream::connect(self.wake);
    }
}

/// One answer a submitted request owes the drain, released when the
/// request's reply is dropped — after its final frame is posted, or
/// unanswered.
struct Owed(Arc<Hub>);

impl Drop for Owed {
    fn drop(&mut self) {
        // A drop must not panic; the count stays valid under a poisoned
        // lock, since every update to it is one step.
        let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.owed -= 1;
        if state.owed == 0 {
            self.0.settled.notify_all();
        }
    }
}

/// The encoded frames waiting for one connection's writer, in the order
/// they were posted.
#[derive(Default)]
struct Outbox {
    queue: Mutex<Queue>,
    /// Signalled when a frame is posted or the outbox closes.
    posted: Condvar,
    /// Signalled when the writer has written bytes or given up.
    drained: Condvar,
}

#[derive(Default)]
struct Queue {
    frames: Vec<Vec<u8>>,
    /// Posted bytes the writer has not written yet.
    bytes: usize,
    /// Nothing more is accepted; the writer ends once the queue is
    /// written.
    closed: bool,
}

impl Outbox {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("outbox poisoned")
    }

    fn post(&self, frame: &Frame) {
        self.post_bytes(frame.to_bytes());
    }

    fn post_bytes(&self, bytes: Vec<u8>) {
        let mut queue = self.lock();
        if !queue.closed {
            queue.bytes += bytes.len();
            queue.frames.push(bytes);
            self.posted.notify_one();
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.posted.notify_one();
        self.drained.notify_all();
    }

    /// Blocks while more than `cap` bytes wait to be written. `false`
    /// once the outbox is closed.
    fn wait_for_room(&self, cap: usize) -> bool {
        let mut queue = self.lock();
        while queue.bytes > cap && !queue.closed {
            queue = self.drained.wait(queue).expect("outbox poisoned");
        }
        !queue.closed
    }
}

/// Takes connections until a drain or [`Server::stop`] wakes it, then
/// closes every connection and joins its threads.
fn accept_loop(listener: TcpListener, front: Arc<Front>) {
    let hub = &front.hub;
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut panicked = false;
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let (done, running): (Vec<_>, Vec<_>) =
            readers.into_iter().partition(JoinHandle::is_finished);
        readers = running;
        for reader in done {
            panicked |= reader.join().is_err();
        }
        let mut state = hub.lock();
        if state.stopping || state.drain.is_some() {
            break;
        }
        if state.conns.len() >= MAX_CONNECTIONS {
            drop(state);
            let message =
                format!("the server is serving its limit of {MAX_CONNECTIONS} connections");
            let _ = (&stream).write_all(&Frame::Fault { message }.to_bytes());
            let _ = stream.shutdown(Shutdown::Write);
            continue;
        }
        let _ = stream.set_nodelay(true);
        let (Ok(socket), Ok(write_half)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        let out = Arc::new(Outbox::default());
        let id = state.next_conn;
        state.next_conn += 1;
        state.conns.insert(id, Conn { socket, out: Arc::clone(&out) });
        drop(state);
        let front = Arc::clone(&front);
        let reader = std::thread::Builder::new()
            .name("skysr-d-read".into())
            .spawn(move || serve(&front, id, stream, write_half, out))
            .expect("spawn a connection reader");
        readers.push(reader);
    }
    drop(listener);
    // A drain that raced `stop` is dropped: `stop` leaves the backend up.
    let draining = matches!(*hub.lock(), HubState { drain: Some(_), stopping: false, .. });
    if draining {
        drain(&front);
    }
    for reader in readers {
        panicked |= reader.join().is_err();
    }
    assert!(!panicked, "a skysr-d connection thread panicked");
}

/// Waits until no answer is owed, shuts the backend down, posts the
/// farewell and closes every connection once its writer has flushed.
fn drain(front: &Front) {
    let hub = &front.hub;
    let mut state = hub.lock();
    while state.owed > 0 {
        state = hub.settled.wait(state).expect("server state poisoned");
    }
    let farewell_to = state.drain.clone();
    drop(state);
    let farewell = front.backend.shutdown();
    if let Some(out) = farewell_to {
        out.post(&Frame::MetricsRep(Box::new(farewell)));
    }
    for conn in hub.lock().conns.values() {
        conn.out.close();
    }
}

/// One connection's reader thread: spawns the writer on `write_half`,
/// reads frames until the connection ends, then closes the outbox and
/// waits for the writer to flush.
fn serve(front: &Front, id: u64, stream: TcpStream, write_half: TcpStream, out: Arc<Outbox>) {
    let writer = {
        let out = Arc::clone(&out);
        std::thread::Builder::new()
            .name("skysr-d-write".into())
            .spawn(move || write_loop(&out, write_half))
            .expect("spawn a connection writer")
    };
    if let Err(message) = read_loop(front, &stream, &out) {
        out.post(&Frame::Fault { message });
    }
    // The socket stays registered, for `stop` to cut, until the writer
    // has flushed; the slot frees before the client can see the close.
    out.close();
    let writer = writer.join();
    front.hub.lock().conns.remove(&id);
    let _ = stream.shutdown(Shutdown::Both);
    assert!(writer.is_ok(), "a skysr-d connection writer panicked");
}

/// Reads and handles frames in order until the connection should close.
/// `Err` carries the message of the `Fault` to send first.
fn read_loop(front: &Front, stream: &TcpStream, out: &Arc<Outbox>) -> Result<(), String> {
    let ServerConfig { max_frame, write_buf_cap } = front.config;
    let mut reader = BufReader::new(stream);
    let mut greeted = false;
    while out.wait_for_room(write_buf_cap) {
        let frame = match read_frame(&mut reader, max_frame) {
            Ok(frame) => frame,
            // The client hung up, perhaps mid-frame: nobody to tell.
            Err(ProtocolError::Disconnected(_)) => return Ok(()),
            Err(e) => return Err(e.to_string()),
        };
        match frame {
            Frame::Hello { version } => {
                // Answer with our identity either way — a mismatched
                // client needs the Welcome to diagnose — and hang up on a
                // version we do not speak.
                out.post_bytes(front.welcome.clone());
                if version != PROTOCOL_VERSION {
                    return Ok(());
                }
                greeted = true;
            }
            Frame::Submit { id, streaming, request } => {
                if !greeted {
                    return Err(ProtocolError::UnexpectedFrame("Submit before Hello").to_string());
                }
                let Some(owed) = front.hub.owe() else {
                    return Err("server is shutting down".into());
                };
                front.backend.submit_to(request, reply_to(out, id, streaming, owed));
            }
            Frame::MetricsReq => out.post(&Frame::MetricsRep(Box::new(front.backend.metrics()))),
            Frame::PublishWeights(deltas) => match front.backend.publish_weights(&deltas) {
                Ok(epoch) => out.post(&Frame::WeightsPublished { epoch }),
                Err(e) => return Err(format!("weight batch refused: {e}")),
            },
            Frame::Shutdown => {
                if !greeted {
                    return Err(ProtocolError::UnexpectedFrame("Shutdown before Hello").to_string());
                }
                if !front.hub.begin_drain(out) {
                    return Err("shutdown already in progress".into());
                }
            }
            Frame::Welcome { .. }
            | Frame::Progress { .. }
            | Frame::Final { .. }
            | Frame::QueryFailed { .. }
            | Frame::MetricsRep(_)
            | Frame::WeightsPublished { .. }
            | Frame::Fault { .. } => {
                return Err(ProtocolError::UnexpectedFrame("server-to-client frame from client")
                    .to_string());
            }
        }
    }
    Ok(())
}

/// The reply of the client's request `id`: each answer becomes a frame
/// posted to the connection's outbox by the thread that produced it, and
/// the owed answer is released when the reply is dropped.
fn reply_to(out: &Arc<Outbox>, id: u64, streaming: bool, owed: Owed) -> Reply {
    let out = Arc::clone(out);
    Reply::new(streaming, move |answer| {
        let _owed = &owed;
        out.post(&match answer {
            Answer::Progress(route) => Frame::Progress { id, route },
            Answer::Final(Ok(response)) => Frame::Final { id, response },
            Answer::Final(Err(error)) => Frame::QueryFailed { id, error },
        });
    })
}

/// One connection's writer thread: writes every posted frame in order
/// until the outbox is closed and written, or a write fails.
fn write_loop(out: &Outbox, socket: TcpStream) {
    let mut writer = BufWriter::new(&socket);
    let mut batch = Vec::new();
    loop {
        {
            let mut queue = out.lock();
            while queue.frames.is_empty() && !queue.closed {
                queue = out.posted.wait(queue).expect("outbox poisoned");
            }
            if queue.frames.is_empty() {
                break;
            }
            std::mem::swap(&mut queue.frames, &mut batch);
        }
        let bytes: usize = batch.iter().map(Vec::len).sum();
        let written =
            batch.iter().all(|frame| writer.write_all(frame).is_ok()) && writer.flush().is_ok();
        batch.clear();
        let mut queue = out.lock();
        queue.bytes -= bytes;
        out.drained.notify_all();
        if !written {
            // The client is gone: drop what is queued and refuse more.
            queue.closed = true;
            queue.frames.clear();
            queue.bytes = 0;
            break;
        }
    }
    // Wakes a reader blocked on the socket; it closes the connection.
    let _ = socket.shutdown(Shutdown::Read);
}
