//! The `skysr-d` serve loop, shared by the standalone daemon binary and
//! `skysr-cli serve`.
//!
//! Builds (or loads) the datasets of `--shards N` regions (one by
//! default), stands up a [`Router`] over them, binds the TCP server and
//! blocks until a client sends the `Shutdown` frame — at which point the
//! daemon stops accepting, drains every in-flight query, answers the
//! requester with a final metrics snapshot and exits. The server serves up
//! to 64 connections at once, each on a reader thread and a writer
//! thread; a full submission queue stops a connection's reads, and a
//! client that stops reading stops being read once 4 MiB of answers wait
//! for it. Its `Welcome` advertises the region registry, and `Submit`
//! frames may carry a region id; a region-less request goes to region 0
//! (the rule is [`skysr_service::shard`]'s).

use std::sync::Arc;
use std::time::Instant;

use skysr_service::{
    City, MetricsSnapshot, QueryService, ReplaySpec, Router, Server, ServerConfig, ServiceContext,
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
     --shards N (default 1) serves N regions (datasets seeded --seed,\n\
     --seed+1, ...) behind one router on a single socket; a request that\n\
     names no region is served by region 0.\n\
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
    let mut stats = Vec::with_capacity(shards);
    let mut regions = Vec::with_capacity(shards);
    for (name, dataset) in region_datasets(&city, shards)? {
        let (v, p, e) = dataset.stats();
        stats.push(format!("{name}: |V|={v} |P|={p} |E|={e}"));
        regions.push((name, Arc::new(ServiceContext::from_dataset(dataset))));
    }
    if config.repair {
        // Each region's landmark table is built before the daemon listens:
        // left to the first repaired request, the build would run on its
        // worker while every other repair waits for it.
        let started = Instant::now();
        for (_, ctx) in &regions {
            ctx.landmarks();
        }
        eprintln!("skysr-d: repair landmarks built in {:.2} s", started.elapsed().as_secs_f64());
    }
    let router = Arc::new(Router::new(regions, &config));
    let mut server = Server::spawn(addr.as_str(), Arc::clone(&router), ServerConfig::default())
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let plural = if shards == 1 { "" } else { "s" };
    // The listening line goes to stdout so scripts (CI) can wait on it.
    println!(
        "skysr-d listening on {} ({shards} shard{plural}; {})",
        server.local_addr(),
        stats.join("; ")
    );
    server.join();
    eprintln!(
        "skysr-d drained and stopped: {} across {shards} shard{plural} ({} misrouted)",
        lifetime(&router.metrics()),
        router.misrouted()
    );
    Ok(())
}
