//! The `skysr-d` client: a [`RemoteService`] that implements the same
//! [`QueryService`] trait as the in-process [`Service`](crate::Service).
//!
//! One TCP connection carries any number of interleaved requests: each
//! submission gets a client-side correlation id, and a background reader
//! thread demultiplexes answer frames back into each request's [`Reply`].
//! The tickets handed out are the *same* [`Ticket`](crate::Ticket) and
//! [`StreamTicket`](crate::StreamTicket) types the in-process service
//! returns — so replay and the examples drive either transport through
//! one code path.
//!
//! Request/response pairs without ids (`MetricsReq` → `MetricsRep`,
//! `PublishWeights` → `WeightsPublished`) are matched FIFO, which is
//! sound because the server answers each connection's frames in order.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use skysr_graph::{DeltaError, EpochId, WeightDelta};

use super::wire::{
    read_frame, DatasetFingerprint, Frame, ProtocolError, MAX_FRAME, PROTOCOL_VERSION,
};
use crate::metrics::MetricsSnapshot;
use crate::service::{QueryRequest, QueryService, Reply};
use crate::shard::RegionInfo;

/// State shared between callers and the reader thread.
#[derive(Default)]
struct Demux {
    queries: HashMap<u64, Reply>,
    /// FIFO waiters for `MetricsRep` frames (metrics *and* shutdown).
    metrics: VecDeque<Sender<MetricsSnapshot>>,
    /// FIFO waiters for `WeightsPublished` frames.
    epochs: VecDeque<Sender<EpochId>>,
    /// Set when the connection died; the message explains why.
    fault: Option<String>,
}

struct Shared {
    demux: Mutex<Demux>,
    dead: AtomicBool,
}

impl Shared {
    /// Marks the connection dead and drops every waiter (their receivers
    /// observe the disconnect).
    fn poison(&self, why: String) {
        let mut demux = self.demux.lock().expect("client demux poisoned");
        demux.fault.get_or_insert(why);
        demux.queries.clear();
        demux.metrics.clear();
        demux.epochs.clear();
        self.dead.store(true, Ordering::Release);
    }

    fn fault_message(&self) -> String {
        let demux = self.demux.lock().expect("client demux poisoned");
        demux.fault.clone().unwrap_or_else(|| "connection closed".into())
    }
}

/// A connection to a running `skysr-d`, speaking [`QueryService`].
///
/// # Panics
///
/// Like the in-process service (whose `submit` panics after shutdown),
/// the remote client treats a lost daemon as fatal to the work driven
/// over it: submitting or waiting on a dead connection panics with the
/// transport fault. Connection *establishment* and handshake problems are
/// ordinary [`ProtocolError`] values from [`RemoteService::connect`].
pub struct RemoteService {
    writer: Mutex<TcpStream>,
    shared: Arc<Shared>,
    next_id: AtomicU64,
    fingerprint: DatasetFingerprint,
    registry: Vec<RegionInfo>,
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl RemoteService {
    /// Connects and performs the version handshake.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<RemoteService, ProtocolError> {
        let stream = TcpStream::connect(addr).map_err(|e| ProtocolError::io("connect", e))?;
        let _ = stream.set_nodelay(true);
        let mut writer = stream;
        super::wire::write_frame(&mut writer, &Frame::Hello { version: PROTOCOL_VERSION })?;
        let mut read_half = writer.try_clone().map_err(|e| ProtocolError::io("clone stream", e))?;
        let (version, fingerprint, registry) = match read_frame(&mut read_half, MAX_FRAME)? {
            Frame::Welcome { version, fingerprint, registry } => (version, fingerprint, registry),
            Frame::Fault { message } => return Err(ProtocolError::Disconnected(message)),
            _ => return Err(ProtocolError::UnexpectedFrame("expected Welcome")),
        };
        if version != PROTOCOL_VERSION {
            return Err(ProtocolError::VersionMismatch { ours: PROTOCOL_VERSION, theirs: version });
        }
        let shared =
            Arc::new(Shared { demux: Mutex::new(Demux::default()), dead: AtomicBool::new(false) });
        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name("skysr-client-reader".into())
            .spawn(move || reader_loop(read_half, reader_shared))
            .expect("spawn client reader thread");
        Ok(RemoteService {
            writer: Mutex::new(writer),
            shared,
            next_id: AtomicU64::new(1),
            fingerprint,
            registry,
            reader: Mutex::new(Some(reader)),
        })
    }

    /// [`RemoteService::connect`] with retries until `timeout` — for
    /// racing a daemon that is still binding its socket (CI startup).
    pub fn connect_retry<A: ToSocketAddrs + Clone>(
        addr: A,
        timeout: Duration,
    ) -> Result<RemoteService, ProtocolError> {
        let deadline = Instant::now() + timeout;
        loop {
            match RemoteService::connect(addr.clone()) {
                Ok(remote) => return Ok(remote),
                Err(e @ ProtocolError::VersionMismatch { .. }) => return Err(e),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }

    /// The dataset identity the daemon advertised in its handshake.
    pub fn fingerprint(&self) -> DatasetFingerprint {
        self.fingerprint
    }

    /// The dataset registry the daemon's `Welcome` carried — one entry
    /// per resident region. (Also available as
    /// [`QueryService::regions`].)
    pub fn registry(&self) -> &[RegionInfo] {
        &self.registry
    }

    fn send(&self, frame: &Frame) {
        if self.shared.dead.load(Ordering::Acquire) {
            panic!("skysr-d connection lost: {}", self.shared.fault_message());
        }
        let mut writer = self.writer.lock().expect("client writer poisoned");
        if writer.write_all(&frame.to_bytes()).is_err() {
            self.shared.poison("write failed".into());
            panic!("skysr-d connection lost: write failed");
        }
    }
}

impl QueryService for RemoteService {
    fn submit_to(&self, request: QueryRequest, reply: Reply) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let streaming = reply.streaming();
        // Register before writing: the answer may race back before the
        // write call even returns.
        self.shared.demux.lock().expect("client demux poisoned").queries.insert(id, reply);
        self.send(&Frame::Submit { id, streaming, request });
    }

    fn metrics(&self) -> MetricsSnapshot {
        let (tx, rx) = std::sync::mpsc::channel();
        self.shared.demux.lock().expect("client demux poisoned").metrics.push_back(tx);
        self.send(&Frame::MetricsReq);
        match rx.recv() {
            Ok(snapshot) => snapshot,
            Err(_) => panic!("skysr-d connection lost: {}", self.shared.fault_message()),
        }
    }

    /// Never `Err`: the daemon answers a batch it refuses with a `Fault`
    /// and closes the connection, so this panics like any call on a lost
    /// connection, with the daemon's reason.
    fn publish_weights(&self, deltas: &[WeightDelta]) -> Result<EpochId, DeltaError> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.shared.demux.lock().expect("client demux poisoned").epochs.push_back(tx);
        self.send(&Frame::PublishWeights(deltas.to_vec()));
        match rx.recv() {
            Ok(epoch) => Ok(epoch),
            Err(_) => panic!("skysr-d connection lost: {}", self.shared.fault_message()),
        }
    }

    fn shutdown(&self) -> MetricsSnapshot {
        // The server answers Shutdown with one final MetricsRep after
        // draining, so the reply rides the same FIFO as plain metrics.
        let (tx, rx) = std::sync::mpsc::channel();
        self.shared.demux.lock().expect("client demux poisoned").metrics.push_back(tx);
        self.send(&Frame::Shutdown);
        let snapshot = match rx.recv() {
            Ok(snapshot) => snapshot,
            Err(_) => panic!("skysr-d connection lost: {}", self.shared.fault_message()),
        };
        // The daemon closes the connection after the farewell; reap the
        // reader thread so nothing lingers.
        self.shared.dead.store(true, Ordering::Release);
        if let Some(handle) = self.reader.lock().expect("client reader poisoned").take() {
            let _ = handle.join();
        }
        snapshot
    }

    fn regions(&self) -> Vec<RegionInfo> {
        self.registry.clone()
    }
}

impl Drop for RemoteService {
    fn drop(&mut self) {
        self.shared.dead.store(true, Ordering::Release);
        // Closing the write half makes the blocking reader observe EOF.
        if let Ok(writer) = self.writer.lock() {
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.reader.lock().expect("client reader poisoned").take() {
            let _ = handle.join();
        }
    }
}

/// The background demultiplexer: blocking-reads frames and routes them to
/// the request that owns them.
fn reader_loop(mut stream: TcpStream, shared: Arc<Shared>) {
    loop {
        let frame = match read_frame(&mut stream, MAX_FRAME) {
            Ok(frame) => frame,
            Err(e) => {
                // A close after shutdown is the expected end of life; any
                // other cause is recorded for the panic message of
                // whoever calls next.
                shared.poison(e.to_string());
                return;
            }
        };
        let mut demux = shared.demux.lock().expect("client demux poisoned");
        match frame {
            Frame::Progress { id, route } => {
                if let Some(reply) = demux.queries.get_mut(&id) {
                    reply.progress(route);
                }
            }
            Frame::Final { id, response } => {
                if let Some(reply) = demux.queries.remove(&id) {
                    reply.answer(Ok(response));
                }
            }
            Frame::QueryFailed { id, error } => {
                if let Some(reply) = demux.queries.remove(&id) {
                    reply.answer(Err(error));
                }
            }
            Frame::MetricsRep(snapshot) => {
                if let Some(waiter) = demux.metrics.pop_front() {
                    let _ = waiter.send(*snapshot);
                }
            }
            Frame::WeightsPublished { epoch } => {
                if let Some(waiter) = demux.epochs.pop_front() {
                    let _ = waiter.send(epoch);
                }
            }
            Frame::Fault { message } => {
                drop(demux);
                shared.poison(format!("server fault: {message}"));
                return;
            }
            Frame::Hello { .. }
            | Frame::Welcome { .. }
            | Frame::Submit { .. }
            | Frame::MetricsReq
            | Frame::PublishWeights(_)
            | Frame::Shutdown => {
                drop(demux);
                shared.poison("server sent a client-to-server frame".into());
                return;
            }
        }
    }
}
