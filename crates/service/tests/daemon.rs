//! Loopback integration tests of the `skysr-d` daemon: remote replay
//! parity with the oracle under mid-stream weight updates, anytime
//! streaming semantics over the wire, deadline cutoffs, and framing
//! robustness against clients that disconnect mid-frame or speak garbage.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_service::net::wire::{read_frame, Frame, MAX_FRAME, PROTOCOL_VERSION};
use skysr_service::replay::{build_pool, replay_remote, ReplaySpec};
use skysr_service::{
    QueryRequest, QueryService, RegionId, RemoteService, Served, Server, ServerConfig, Service,
    ServiceConfig, ServiceContext, ShardRegistry,
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
        workers: 4,
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
    assert_eq!(report.verify_skipped, Some(0), "unbounded shadow history skips nothing");
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
        if matches!(response.served, Served::Search { .. }) {
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
    // region on its requests is served by the shard vertex-space routing
    // picks for each start, while the same connection sees the full
    // registry and can address either region.
    let mut registry = ShardRegistry::new();
    for (i, seed) in [21u64, 22].into_iter().enumerate() {
        let d = DatasetSpec::preset(Preset::CalSmall).scale(0.08).seed(seed).generate();
        let ctx = Arc::new(ServiceContext::from_dataset(d));
        registry.add(
            format!("region-{i}"),
            ctx,
            ServiceConfig { workers: 2, ..ServiceConfig::default() },
        );
    }
    let router = Arc::new(registry.into_router());
    let mut server = Server::spawn("127.0.0.1:0", Arc::clone(&router), ServerConfig::default())
        .expect("bind a loopback listener");
    let remote = RemoteService::connect(server.local_addr()).expect("connect");
    let pool =
        build_pool(&city(), &ReplaySpec { distinct: 6, seq_len: 2, ..ReplaySpec::default() });
    for q in &pool {
        let request = QueryRequest::new(q.clone());
        assert_eq!(request.options.region, None);
        let response = remote.submit(request).wait().expect("region-less submit is served");
        assert!(!response.routes.is_empty(), "a routed request is answered in full");
    }

    // Every region-less submit was served, each by the shard vertex-space
    // routing deterministically assigns its start — never misrouted.
    let expected_on = |region: RegionId| {
        pool.iter().filter(|q| router.route_start(q.start) == region).count() as u64
    };
    assert_eq!(router.shard_metrics(RegionId(0)).unwrap().completed, expected_on(RegionId(0)));
    let south = expected_on(RegionId(1));
    assert_eq!(router.shard_metrics(RegionId(1)).unwrap().completed, south);
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
    assert_eq!(router.shard_metrics(RegionId(1)).unwrap().completed, south + 1);
    let farewell = remote.shutdown();
    server.join();
    assert_eq!(farewell.completed, pool.len() as u64 + 1, "the farewell merges every shard");
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
    for version in [1, 2, 9999] {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
        s.write_all(&Frame::Hello { version, features: 0 }.to_bytes()).expect("write hello");
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
