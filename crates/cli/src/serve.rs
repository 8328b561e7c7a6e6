//! The `skysr-d` serve loop, shared by the standalone daemon binary and
//! `skysr-cli serve`.
//!
//! Builds (or loads) a dataset, stands up a [`Service`] over it (or, with
//! `--shards N`, N per-region services behind a
//! [`Router`](skysr_service::Router)), binds the
//! non-blocking TCP server and blocks until a client sends the `Shutdown`
//! frame — at which point the daemon stops accepting, drains every
//! in-flight query, answers the requester with a final metrics snapshot
//! and exits. Its `Welcome` advertises the region registry, and `Submit`
//! frames may carry a region id; region-less requests are routed by start
//! vertex.

use std::sync::Arc;

use skysr_service::{
    City, MetricsSnapshot, QueryService, ReplaySpec, Server, ServerConfig, Service, ServiceContext,
    ShardRegistry,
};

use crate::args::Args;
use crate::city::{dataset_args, parse_flag, region_datasets, service_flags};

/// Usage text of the standalone `skysr-d` binary (the `serve` flags).
pub fn usage() -> &'static str {
    "usage:\n  \
     skysr-d [FILE] [--preset <tokyo|nyc|cal|tokyo-small|nyc-small|cal-small>]\n  \
     \t[--scale F] [--seed N] [--addr HOST:PORT] [--workers N] [--cache N]\n  \
     \t[--queue N] [--coalesce true|false] [--repair true|false]\n  \
     \t[--admission true|false] [--shards N]\n\n\
     Serves SkySR queries over the skysr-d wire protocol until a client\n\
     sends Shutdown (e.g. `skysr-cli shutdown --connect HOST:PORT`).\n\
     --shards N serves N regions (datasets seeded --seed, --seed+1, ...)\n\
     behind one multi-tenant router on a single socket.\n\
     `skysr-cli serve` accepts the same flags."
}

/// A daemon's lifetime counters, as its "drained and stopped" lines print
/// them.
pub fn lifetime(m: &MetricsSnapshot) -> String {
    format!(
        "{} completed, {} executed, {} cache hits, {} coalesced",
        m.completed, m.executed, m.cache_hits, m.coalesced
    )
}

/// Runs the daemon: bind, announce, serve until drained.
pub fn run_serve(args: &mut Args) -> Result<(), String> {
    // The daemon defaults to the stack and city a replay defaults to.
    let defaults = ReplaySpec::default();
    let city = dataset_args(args, City::default(), defaults.seed)?;
    let addr = args.optional("addr").unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let config = service_flags(args, defaults.service)?;
    let shards: usize = parse_flag(args, "shards", 1)?;
    args.finish()?;
    let mut regions = region_datasets(&city, shards)?;
    if shards > 1 {
        let mut registry = ShardRegistry::new();
        let mut stats = Vec::with_capacity(shards);
        for (name, dataset) in regions {
            let (v, p, e) = dataset.stats();
            stats.push(format!("{name}: |V|={v} |P|={p} |E|={e}"));
            let ctx = Arc::new(ServiceContext::from_dataset(dataset));
            registry.add(name, ctx, config.clone());
        }
        let router = Arc::new(registry.into_router());
        let mut server = Server::spawn(addr.as_str(), Arc::clone(&router), ServerConfig::default())
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
        // The listening line goes to stdout so scripts (CI) can wait on it.
        println!(
            "skysr-d listening on {} ({shards} shards; {})",
            server.local_addr(),
            stats.join("; ")
        );
        server.join();
        eprintln!(
            "skysr-d drained and stopped: {} across {shards} shards ({} misrouted)",
            lifetime(&router.metrics()),
            router.misrouted()
        );
        return Ok(());
    }
    // One region is served by a bare service, whose handshake advertises
    // the configured region name rather than a registry-assigned one.
    let (_, dataset) = regions.pop().expect("one shard, one dataset");
    let (v, p, e) = dataset.stats();
    let name = dataset.name.clone();
    let ctx = Arc::new(ServiceContext::from_dataset(dataset));
    let service = Arc::new(Service::new(ctx, config));
    let mut server = Server::spawn(addr.as_str(), Arc::clone(&service), ServerConfig::default())
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // The listening line goes to stdout so scripts (CI) can wait on it.
    println!("skysr-d listening on {} ({name}: |V|={v} |P|={p} |E|={e})", server.local_addr());
    server.join();
    eprintln!("skysr-d drained and stopped: {}", lifetime(&service.metrics()));
    Ok(())
}
