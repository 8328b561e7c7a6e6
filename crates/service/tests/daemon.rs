//! Loopback integration tests of the `skysr-d` daemon: remote replay
//! parity with the oracle under mid-stream weight updates, anytime
//! streaming semantics over the wire, deadline cutoffs, framing
//! robustness against clients that disconnect mid-frame or speak garbage,
//! weight batches naming what the network lacks, the connection cap,
//! `Server::stop` under live traffic, a full submission queue behind one
//! connection, region addressing behind a two-region router and a bare
//! service, and answers matched to their callers when several threads
//! share one client.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use skysr_core::bssr::Bssr;
use skysr_core::error::QueryError;
use skysr_core::route::equivalent_skylines;
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_graph::{EpochId, VertexId, WeightDelta};
use skysr_service::net::wire::{read_frame, Frame, MAX_FRAME, PROTOCOL_VERSION};
use skysr_service::net::{DatasetFingerprint, MAX_CONNECTIONS};
use skysr_service::replay::{build_pool, replay_remote, ReplaySpec};
use skysr_service::{
    QueryRequest, QueryService, RegionId, RemoteService, Router, Served, Server, ServerConfig,
    Service, ServiceConfig, ServiceContext,
};

/// The deterministic city every fixture here is built from — daemon and
/// shadow contexts generated from the same recipe are bit-identical.
fn city() -> Dataset {
    DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(21).generate()
}

fn spawn_daemon(workers: usize) -> (Arc<Service>, Server) {
    let ctx = Arc::new(ServiceContext::from_dataset(city()));
    let service = Arc::new(Service::new(
        Arc::clone(&ctx),
        ServiceConfig { workers, ..ServiceConfig::default() },
    ));
    let server = Server::spawn("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind a loopback listener");
    (service, server)
}

/// `f` is dominated-or-equal by `p` in the (length, semantic) plane.
fn covers(f: &skysr_core::SkylineRoute, p: &skysr_core::SkylineRoute) -> bool {
    f.length.get() <= p.length.get() && f.semantic <= p.semantic
}

#[test]
fn remote_replay_is_oracle_exact_with_midstream_updates() {
    // The acceptance bar: `replay --connect`-style traffic over a real
    // socket, weight updates published through the wire mid-stream, and
    // every answer score-equivalent to a sequential cold run at its
    // pinned epoch — with zero stale serves.
    let (_service, mut server) = spawn_daemon(4);
    let spec = ReplaySpec {
        total: 240,
        distinct: 24,
        seq_len: 2,
        update_every: 40,
        update_burst: 8,
        verify: true,
        ..ReplaySpec::default()
    };
    let dataset = city();
    let pool = build_pool(&dataset, &spec);
    let shadow = Arc::new(ServiceContext::from_dataset(dataset));
    let remote =
        RemoteService::connect(server.local_addr()).expect("connect to the loopback daemon");
    let report = replay_remote(&remote, shadow, &pool, &spec).expect("fingerprints match");
    assert_eq!(report.metrics.completed, 240);
    assert_eq!(report.verify_mismatches, Some(0), "remote answers must be oracle-exact");
    assert_eq!(report.metrics.stale_served, 0, "no answer served cross-epoch");
    assert!(report.epochs_published >= 5, "update waves must publish through the wire");
    let farewell = remote.shutdown();
    server.join();
    assert_eq!(farewell.completed, 240);
}

#[test]
fn loopback_streaming_provisionals_are_dominated_by_final() {
    let (_service, mut server) = spawn_daemon(2);
    let remote =
        RemoteService::connect(server.local_addr()).expect("connect to the loopback daemon");
    let dataset = city();
    let spec = ReplaySpec { distinct: 12, seq_len: 2, ..ReplaySpec::default() };
    let pool = build_pool(&dataset, &spec);
    let mut streamed_any = false;
    for q in &pool {
        let (response, provisional) = remote
            .submit_streaming(QueryRequest::new(q.clone()))
            .wait_with_progress()
            .expect("pool queries succeed");
        // Anytime soundness over the wire: every provisional point is a
        // genuine route dominated-or-equal by the final exact skyline.
        for p in &provisional {
            assert!(
                response.routes.iter().any(|f| covers(f, p)),
                "provisional point not dominated-or-equal by the final skyline: {p:?}"
            );
        }
        // A search streams every final member on the way (cache hits and
        // coalesced answers legitimately stream nothing).
        if matches!(response.served, Served::Search) {
            for f in response.routes.iter() {
                assert!(provisional.contains(f), "final member never streamed: {f:?}");
            }
            if !response.routes.is_empty() {
                streamed_any = true;
            }
        }
    }
    assert!(streamed_any, "a fresh daemon must cold-search and stream at least one query");
    let _ = remote.shutdown();
    server.join();
}

#[test]
fn deadline_cutoff_yields_valid_approximate_partials() {
    let (_service, mut server) = spawn_daemon(2);
    let remote =
        RemoteService::connect(server.local_addr()).expect("connect to the loopback daemon");
    let dataset = city();
    let spec = ReplaySpec { distinct: 16, seq_len: 2, ..ReplaySpec::default() };
    let pool = build_pool(&dataset, &spec);
    let mut cut = 0;
    for q in &pool {
        let anytime = remote
            .submit_streaming(QueryRequest::new(q.clone()).deadline(Duration::from_nanos(1)))
            .wait_deadline(Duration::from_nanos(1))
            .expect("pool queries succeed");
        if anytime.approximate {
            cut += 1;
            assert!(anytime.response.is_none(), "a cutoff carries no final metadata");
            // The partial must be mutually non-dominated ...
            for (i, a) in anytime.routes.iter().enumerate() {
                for b in &anytime.routes[i + 1..] {
                    assert!(
                        !(covers(a, b) && (a.length != b.length || a.semantic != b.semantic)),
                        "partial skyline contains a dominated member"
                    );
                }
            }
            // ... and every member dominated-or-equal by the exact answer
            // (re-asked after the fact; the daemon kept computing it).
            let exact = remote.submit_query(q.clone()).wait().expect("exact re-ask succeeds");
            for p in &anytime.routes {
                assert!(
                    exact.routes.iter().any(|f| covers(f, p)),
                    "approximate member not covered by the exact skyline: {p:?}"
                );
            }
        } else {
            assert!(anytime.response.is_some(), "an uncut stream carries the full response");
        }
    }
    assert!(cut > 0, "a 1ns deadline must cut at least one of {} streams", pool.len());
    let _ = remote.shutdown();
    server.join();
}

#[test]
fn region_less_remote_requests_are_routed_by_a_multi_shard_daemon() {
    // A daemon serving two regions behind a router: a client that sets no
    // region on its requests is served by region 0, the region whose
    // fingerprint the handshake carries, with the answers a fresh search
    // on region 0's city gives. The same connection sees the full
    // registry, reaches the second region by address, and an address no
    // shard holds is refused at the front door.
    let regions = [21u64, 22].into_iter().enumerate().map(|(i, seed)| {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(seed).generate();
        (format!("region-{i}"), Arc::new(ServiceContext::from_dataset(d)))
    });
    let router =
        Arc::new(Router::new(regions, &ServiceConfig { workers: 2, ..ServiceConfig::default() }));
    let mut server = Server::spawn("127.0.0.1:0", Arc::clone(&router), ServerConfig::default())
        .expect("bind a loopback listener");
    let remote = RemoteService::connect(server.local_addr()).expect("connect");
    let north = city();
    assert_eq!(
        remote.fingerprint(),
        DatasetFingerprint::of(router.context(RegionId(0)).expect("region 0")),
        "the handshake carries region 0's fingerprint"
    );
    let pool = build_pool(&north, &ReplaySpec { distinct: 6, seq_len: 2, ..ReplaySpec::default() });
    for q in &pool {
        let request = QueryRequest::new(q.clone());
        assert_eq!(request.options.region, None);
        let response = remote.submit(request).wait().expect("region-less submit is served");
        let fresh = Bssr::new(&north.context()).run(q).expect("a pool query is valid").routes;
        assert!(
            equivalent_skylines(&response.routes, &fresh),
            "a region-less answer must be region 0's: {q:?}"
        );
    }
    let completed = |region| router.shard_metrics(region).expect("a region").completed;
    assert_eq!(completed(RegionId(0)), pool.len() as u64, "every region-less submit on region 0");
    assert_eq!(completed(RegionId(1)), 0);
    assert_eq!(router.misrouted(), 0);

    // The connection sees both regions and reaches the second by address.
    let regions = remote.regions();
    assert_eq!(regions.len(), 2);
    assert_eq!((regions[0].id, regions[1].id), (RegionId(0), RegionId(1)));
    assert_eq!(regions[0].name, "region-0");
    let pool_south = {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(22).generate();
        build_pool(&d, &ReplaySpec { distinct: 2, seq_len: 2, ..ReplaySpec::default() })
    };
    remote
        .submit(QueryRequest::new(pool_south[0].clone()).region(RegionId(1)))
        .wait()
        .expect("addressed submit is served");
    assert_eq!(completed(RegionId(1)), 1);

    // An address no shard holds is answered UnknownRegion and counted as
    // misrouted; no shard's counters move.
    let err = remote
        .submit(QueryRequest::new(pool[0].clone()).region(RegionId(7)))
        .wait()
        .expect_err("region 7 is not served");
    assert_eq!(err, QueryError::UnknownRegion(7));
    assert_eq!(router.misrouted(), 1);
    let farewell = remote.shutdown();
    server.join();
    assert_eq!(farewell.completed, pool.len() as u64 + 1, "the farewell merges every shard");
    assert_eq!(farewell.failed, 0, "a misroute is no shard's failure");
}

#[test]
fn a_bare_service_daemon_answers_any_region_but_0_unknown() {
    // A bare service is region 0 alone: over the wire it serves requests
    // addressed to region 0 or to none, and answers any other address
    // UnknownRegion, counted as failed.
    let (service, mut server) = spawn_daemon(2);
    let remote = RemoteService::connect(server.local_addr()).expect("connect");
    let regions = remote.regions();
    assert_eq!(regions.len(), 1);
    assert_eq!((regions[0].id, regions[0].name.as_str()), (RegionId(0), "region-0"));
    let pool =
        build_pool(&city(), &ReplaySpec { distinct: 2, seq_len: 2, ..ReplaySpec::default() });
    let err = remote
        .submit(QueryRequest::new(pool[0].clone()).region(RegionId(1)))
        .wait()
        .expect_err("a bare service serves region 0 alone");
    assert_eq!(err, QueryError::UnknownRegion(1));
    for request in [QueryRequest::new(pool[0].clone()).region(RegionId(0)), pool[1].clone().into()]
    {
        remote.submit(request).wait().expect("region 0 and region-less submits are served");
    }
    let m = service.metrics();
    assert_eq!((m.completed, m.failed), (2, 1));
    let _ = remote.shutdown();
    server.join();
}

/// A reader that counts the bytes it hands out.
struct Counted<R> {
    inner: R,
    bytes: usize,
}

impl<R: Read> Read for Counted<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n;
        Ok(n)
    }
}

#[test]
fn a_request_costs_one_submit_and_one_final_on_the_wire() {
    // The transport's work per request, counted: a non-streaming
    // submission is answered by exactly one Final frame and no Progress,
    // and the bytes on the wire are exactly the two frames' encodings —
    // for cold searches, cache hits and coalesced duplicates alike. A
    // client that offers streaming but asks for none streams nothing.
    let (_service, mut server) = spawn_daemon(4);
    let dataset = city();
    let pool =
        build_pool(&dataset, &ReplaySpec { distinct: 8, seq_len: 2, ..ReplaySpec::default() });
    let mut writer = TcpStream::connect(server.local_addr()).expect("connect");
    writer.set_read_timeout(Some(Duration::from_secs(60))).expect("set timeout");
    let mut reader = Counted { inner: writer.try_clone().expect("clone the socket"), bytes: 0 };
    let hello = Frame::Hello { version: PROTOCOL_VERSION }.to_bytes();
    writer.write_all(&hello).expect("write hello");
    assert!(matches!(read_frame(&mut reader, MAX_FRAME), Ok(Frame::Welcome { .. })));

    // Every query six times over, pipelined on one connection.
    let requests = 6 * pool.len();
    for id in 0..requests as u64 {
        let request = QueryRequest::new(pool[id as usize % pool.len()].clone());
        let submit = Frame::Submit { id, streaming: false, request };
        writer.write_all(&submit.to_bytes()).expect("write submit");
    }
    writer.write_all(&Frame::Shutdown.to_bytes()).expect("write shutdown");

    // The answers, then the farewell snapshot, then the connection
    // closes: nothing else crosses the wire.
    let welcomed = reader.bytes;
    let mut finals = vec![0usize; requests];
    let mut encoded = 0;
    loop {
        match read_frame(&mut reader, MAX_FRAME).expect("a frame") {
            Frame::Final { id, response } => {
                finals[id as usize] += 1;
                encoded += Frame::Final { id, response }.to_bytes().len();
            }
            Frame::MetricsRep(metrics) => {
                encoded += Frame::MetricsRep(metrics).to_bytes().len();
                break;
            }
            other => panic!("a non-streaming client got {other:?}"),
        }
    }
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "{} bytes after the farewell", rest.len());
    server.join();
    assert!(finals.iter().all(|&n| n == 1), "one Final per request: {finals:?}");
    assert_eq!(reader.bytes - welcomed, encoded, "answer bytes are the frames' encodings");
}

#[test]
fn hostile_clients_do_not_kill_the_daemon() {
    let (_service, mut server) = spawn_daemon(2);
    let addr = server.local_addr();

    // A client that dies mid-frame: the length prefix promises 100 bytes,
    // three arrive, then the connection drops.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&100u32.to_le_bytes()).expect("write length");
        s.write_all(&[1, 2, 3]).expect("write partial payload");
    }

    // A client that speaks garbage: a well-formed length prefix around a
    // hostile payload. The daemon must answer with a Fault frame and
    // close — never panic.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
        s.write_all(&2u32.to_le_bytes()).expect("write length");
        s.write_all(&[0xFF, 0xEE]).expect("write garbage");
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
        assert!(!rest.is_empty(), "the daemon answers garbage with a Fault before closing");
    }

    // An oversized length prefix is rejected before any buffering.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
        s.write_all(&u32::MAX.to_le_bytes()).expect("write length");
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
    }

    // A version-mismatched handshake — an older protocol's or an unknown
    // one — is answered with the server's Welcome (so the client can
    // report both versions) and then closed.
    for version in [1, 2, 3, 4, 5, 9999] {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
        // Versions 1 to 3 sent a u32 of feature flags after the version.
        let mut hello = Frame::Hello { version }.to_bytes();
        if version <= 3 {
            hello.extend_from_slice(&3u32.to_le_bytes());
            let len = hello.len() as u32 - 4;
            hello[..4].copy_from_slice(&len.to_le_bytes());
        }
        s.write_all(&hello).expect("write hello");
        let frame = read_frame(&mut s, MAX_FRAME).expect("read welcome");
        assert!(matches!(frame, Frame::Welcome { version: PROTOCOL_VERSION, .. }), "v{version}");
        let mut rest = Vec::new();
        let _ = s.read_to_end(&mut rest);
        assert!(rest.is_empty(), "nothing follows the farewell Welcome to v{version}");
    }

    // After all of that, the daemon still serves real clients.
    let remote = RemoteService::connect(addr).expect("daemon still alive");
    let dataset = city();
    let pool =
        build_pool(&dataset, &ReplaySpec { distinct: 4, seq_len: 2, ..ReplaySpec::default() });
    remote.submit_query(pool[0].clone()).wait().expect("daemon still answers queries");
    let _ = remote.shutdown();
    server.join();
}

#[test]
fn a_bad_weight_batch_is_refused_with_a_fault_and_the_daemon_serves_on() {
    let (_service, mut server) = spawn_daemon(1);
    let addr = server.local_addr();
    let graph = city().graph;
    let n = graph.num_vertices() as u32;
    let origin = VertexId(0);
    let stranger = graph
        .vertices()
        .find(|&v| v != origin && graph.neighbors(origin).all(|(t, _)| t != v))
        .expect("some vertex is not a neighbour of vertex 0");
    // A vertex past the network, then two vertices no edge joins, each on
    // its own connection: the batch is answered with a Fault, and the
    // connection closes.
    for delta in
        [WeightDelta::new(origin, VertexId(n + 5), 1.0), WeightDelta::new(origin, stranger, 1.0)]
    {
        let mut s = greeted(addr);
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
        s.write_all(&Frame::PublishWeights(vec![delta]).to_bytes()).expect("write the batch");
        let frame = read_frame(&mut s, MAX_FRAME).expect("an answer within the timeout");
        assert!(matches!(frame, Frame::Fault { .. }), "{delta:?} was answered with {frame:?}");
        assert!(matches!(s.read(&mut [0u8; 1]), Ok(0)), "the Fault closes the connection");
    }
    // Nothing was published, and the daemon still publishes and reports.
    let mut s = greeted(addr);
    s.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    s.write_all(&Frame::PublishWeights(Vec::new()).to_bytes()).expect("write an empty batch");
    let frame = read_frame(&mut s, MAX_FRAME).expect("an answer within the timeout");
    assert!(matches!(frame, Frame::WeightsPublished { epoch: EpochId(1) }), "{frame:?}");
    s.write_all(&Frame::MetricsReq.to_bytes()).expect("write metrics request");
    assert!(matches!(read_frame(&mut s, MAX_FRAME), Ok(Frame::MetricsRep(_))));
    server.stop();
}

#[test]
fn each_caller_sharing_a_client_gets_the_epoch_its_own_batch_published() {
    // Weight batches and metrics requests carry no id: the client matches
    // their answers to callers in the order the frames were written.
    let (service, mut server) = spawn_daemon(1);
    let remote = RemoteService::connect(server.local_addr()).expect("connect");
    let graph = service.context().graph().clone();
    // One edge per thread, each a distinct pair of vertices.
    let slots: Vec<usize> = (0..graph.num_arcs())
        .filter(|&s| {
            let (from, to, _) = graph.arc(s);
            from < to
        })
        .take(4)
        .collect();
    const BATCHES: usize = 300;
    let published: Vec<(usize, f64, EpochId)> = std::thread::scope(|scope| {
        let threads: Vec<_> = slots
            .iter()
            .map(|&slot| {
                let (remote, graph) = (&remote, &graph);
                scope.spawn(move || {
                    let (from, to, base) = graph.arc(slot);
                    (0..BATCHES)
                        .map(|i| {
                            // A weight no other batch of this edge carries.
                            let weight = base.get() * (1.0 + (i + 1) as f64 / 1024.0);
                            let delta = WeightDelta::new(from, to, weight);
                            let epoch = remote.publish_weights(&[delta]).expect("an edge");
                            if i % 50 == 0 {
                                remote.metrics();
                            }
                            (slot, weight, epoch)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().expect("a publishing thread")).collect()
    });
    assert_eq!(published.len(), slots.len() * BATCHES);
    // The epoch each caller got is the one its batch made: its weight is
    // in place at that epoch and not at the one before.
    let ctx = service.context();
    let weight_at = |slot, epoch: u64| {
        ctx.pin_at(EpochId(epoch)).expect("every epoch stays pinnable").graph().arc(slot).2.get()
    };
    let foreign: Vec<_> = published
        .iter()
        .filter(|&&(slot, weight, epoch)| {
            weight_at(slot, epoch.get()) != weight || weight_at(slot, epoch.get() - 1) == weight
        })
        .collect();
    assert!(
        foreign.is_empty(),
        "{} of {} batches got another caller's epoch",
        foreign.len(),
        published.len()
    );
    let _ = remote.shutdown();
    server.join();
}

/// Opens a raw connection and completes the handshake.
fn greeted(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(60))).expect("set timeout");
    s.write_all(&Frame::Hello { version: PROTOCOL_VERSION }.to_bytes()).expect("write hello");
    assert!(matches!(read_frame(&mut s, MAX_FRAME), Ok(Frame::Welcome { .. })));
    s
}

#[test]
fn a_connection_past_the_cap_is_refused_until_one_closes() {
    let (_service, mut server) = spawn_daemon(1);
    let addr = server.local_addr();
    let mut conns: Vec<TcpStream> = (0..MAX_CONNECTIONS).map(|_| greeted(addr)).collect();

    // One more gets a Fault, then EOF.
    let mut refused = TcpStream::connect(addr).expect("connect");
    refused.set_read_timeout(Some(Duration::from_secs(60))).expect("set timeout");
    let _ = refused.write_all(&Frame::Hello { version: PROTOCOL_VERSION }.to_bytes());
    let frame = read_frame(&mut refused, MAX_FRAME).expect("a refusal");
    assert!(matches!(frame, Frame::Fault { .. }), "the connection past the cap got {frame:?}");
    assert!(matches!(refused.read(&mut [0u8; 1]), Ok(0)), "the refusal closes the connection");

    // Every connection under the cap is served.
    for s in &mut conns {
        s.write_all(&Frame::MetricsReq.to_bytes()).expect("write metrics request");
        assert!(matches!(read_frame(s, MAX_FRAME), Ok(Frame::MetricsRep(_))));
    }

    // Once the server has closed one, a new connection is served.
    let mut closing = conns.pop().expect("a connection");
    closing.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut rest = Vec::new();
    closing.read_to_end(&mut rest).expect("the server closes its side");
    let mut again = greeted(addr);
    again.write_all(&Frame::MetricsReq.to_bytes()).expect("write metrics request");
    assert!(matches!(read_frame(&mut again, MAX_FRAME), Ok(Frame::MetricsRep(_))));
    server.stop();
}

#[test]
fn stop_returns_with_a_client_connected_and_leaves_the_service_running() {
    // perfbench's tear-down: a server stopped under live traffic must
    // return, and the service it fronted goes on answering in process.
    let (service, mut server) = spawn_daemon(1);
    let remote = RemoteService::connect(server.local_addr()).expect("connect");
    let pool =
        build_pool(&city(), &ReplaySpec { distinct: 8, seq_len: 3, ..ReplaySpec::default() });
    let tickets: Vec<_> = pool.iter().map(|q| remote.submit_query(q.clone())).collect();
    server.stop();
    drop(tickets);
    drop(remote);
    service.submit_query(pool[0].clone()).wait().expect("the service still answers");

    // Dropping a server with live clients returns too.
    let server = Server::spawn("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind a loopback listener");
    let remotes: Vec<_> =
        (0..2).map(|_| RemoteService::connect(server.local_addr()).expect("connect")).collect();
    let in_flight = remotes[0].submit_query(pool[1].clone());
    drop(server);
    drop(in_flight);
    drop(remotes);
    service.submit_query(pool[1].clone()).wait().expect("the service still answers");
    service.shutdown();
}

#[test]
fn a_full_queue_holds_one_connection_and_answers_every_request_once() {
    // One worker and a one-slot queue: a burst pipelined behind cold
    // searches blocks the connection's reader on the queue. Requests with
    // a 1 ns deadline lapse while they wait and are shed at dequeue; the
    // rest are served. Every id is answered exactly once.
    let ctx = Arc::new(ServiceContext::from_dataset(city()));
    let config = ServiceConfig { workers: 1, queue_capacity: 1, ..ServiceConfig::default() };
    let service = Arc::new(Service::new(ctx, config));
    let mut server = Server::spawn("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind a loopback listener");
    let pool =
        build_pool(&city(), &ReplaySpec { distinct: 24, seq_len: 3, ..ReplaySpec::default() });
    let mut s = greeted(server.local_addr());
    let requests = pool.len() as u64;
    for id in 0..requests {
        let mut request = QueryRequest::new(pool[id as usize].clone());
        if id % 2 == 1 {
            request = request.deadline(Duration::from_nanos(1));
        }
        let submit = Frame::Submit { id, streaming: false, request };
        s.write_all(&submit.to_bytes()).expect("write submit");
    }
    let mut answers = vec![0usize; requests as usize];
    for _ in 0..requests {
        match read_frame(&mut s, MAX_FRAME).expect("an answer") {
            Frame::Final { id, .. } => {
                assert_eq!(id % 2, 0, "request {id} outlived its 1 ns deadline");
                answers[id as usize] += 1;
            }
            Frame::QueryFailed { id, error: skysr_core::error::QueryError::Overloaded } => {
                assert_eq!(id % 2, 1, "request {id} without a deadline was shed");
                answers[id as usize] += 1;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    assert!(answers.iter().all(|&n| n == 1), "one answer per request: {answers:?}");

    // The connection still serves, and the counters account for every
    // Submit sent.
    let request = QueryRequest::new(pool[0].clone());
    s.write_all(&Frame::Submit { id: requests, streaming: false, request }.to_bytes())
        .expect("write submit");
    assert!(matches!(read_frame(&mut s, MAX_FRAME), Ok(Frame::Final { .. })));
    server.stop();
    let m = service.shutdown();
    assert_eq!(m.completed + m.shed_deadline + m.rejected, requests + 1);
    assert_eq!(m.shed_deadline, requests / 2);
}
