//! The `skysr-d` serve loop, shared by the standalone daemon binary and
//! `skysr-cli serve`.
//!
//! Binds its TCP socket, builds (or loads) the datasets of `--shards N`
//! regions (one by default), stands up a [`Router`] over them, serves the
//! socket with [`Server`] and blocks until a client's `Shutdown` has
//! drained it, then prints the lifetime counters.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Instant;

use skysr_service::{
    City, MetricsSnapshot, QueryService, ReplaySpec, Router, Server, ServerConfig, ServiceContext,
};

use crate::args::Args;
use crate::city::{dataset_args, parse_flag, region_datasets, service_flags};
use crate::Failure;

/// The flags `skysr-d` and `skysr-cli serve` take, as their usage lines
/// print them after the command.
pub const SERVE_FLAGS: &str = "[FILE] [--preset P] [--scale F] [--seed N]\n  \
     \t[--addr HOST:PORT] [--workers N] [--cache N] [--queue N]\n  \
     \t[--coalesce true|false] [--repair true|false]\n  \
     \t[--admission true|false] [--shards N]";

/// Usage text of the standalone `skysr-d` binary.
pub fn usage() -> String {
    format!(
        "usage:\n  \
         skysr-d {SERVE_FLAGS}\n\n\
         Serves SkySR queries over the skysr-d wire protocol until a client\n\
         sends Shutdown (e.g. `skysr-cli shutdown --connect HOST:PORT`).\n\
         P is tokyo, nyc, cal, tokyo-small, nyc-small or cal-small.\n\
         --shards N (default 1) serves N regions (datasets seeded --seed,\n\
         --seed+1, ...) behind one router on a single socket; a request that\n\
         names no region is served by region 0.\n\
         `skysr-cli serve` accepts the same flags."
    )
}

/// A daemon's lifetime counters, as its "drained and stopped" lines print
/// them.
pub fn lifetime(m: &MetricsSnapshot) -> String {
    format!(
        "{} completed, {} executed, {} cache hits, {} coalesced",
        m.completed, m.executed, m.cache_hits, m.coalesced
    )
}

/// Runs the daemon: bind, build, announce, serve until drained. A bad flag
/// is a usage error; a socket that cannot be bound is a run failure.
pub fn run_serve(args: &mut Args) -> Result<(), Failure> {
    // The daemon defaults to the stack and city a replay defaults to.
    let defaults = ReplaySpec::default();
    let city = dataset_args(args, City::default(), defaults.seed)?;
    let addr = args.optional("addr").unwrap_or_else(|| "127.0.0.1:7878".to_owned());
    let config = service_flags(args, defaults.service)?;
    let shards: usize = parse_flag(args, "shards", 1)?;
    args.finish()?;
    // The socket is claimed before any city is built, so a port clash
    // fails at once rather than after the build.
    let listener = TcpListener::bind(addr.as_str())
        .map_err(|e| Failure::Run(format!("cannot bind {addr}: {e}")))?;
    let mut stats = Vec::with_capacity(shards);
    let mut regions = Vec::with_capacity(shards);
    for (name, dataset) in region_datasets(&city, shards)? {
        let (v, p, e) = dataset.stats();
        stats.push(format!("{name}: |V|={v} |P|={p} |E|={e}"));
        regions.push((name, Arc::new(ServiceContext::from_dataset(dataset))));
    }
    if config.repair {
        // Each region's landmark table is built before the daemon serves:
        // left to the first repaired request, the build would run on its
        // worker while every other repair waits for it.
        let started = Instant::now();
        for (_, ctx) in &regions {
            ctx.landmarks();
        }
        eprintln!("skysr-d: repair landmarks built in {:.2} s", started.elapsed().as_secs_f64());
    }
    let router = Arc::new(Router::new(regions, &config));
    let mut server = Server::serve(listener, Arc::clone(&router), ServerConfig::default())
        .map_err(|e| Failure::Run(format!("cannot serve {addr}: {e}")))?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::SERVICE_FLAGS;

    #[test]
    fn the_operations_guide_lists_the_daemons_own_flags() {
        // A flag nothing asks for stops the daemon at its parse, after
        // every flag it takes was asked for and before any city is built.
        let argv = ["serve", "--no-such-flag", "1"].map(String::from).to_vec();
        let mut args = Args::parse(argv).expect("valid arguments");
        match run_serve(&mut args) {
            Err(Failure::Usage(e)) => assert_eq!(e, "unknown flag --no-such-flag"),
            other => panic!("the parse must fail first: {other:?}"),
        }
        let guide = include_str!("../../../docs/OPERATIONS.md");
        let section = guide.split("## Running `skysr-d`").nth(1).expect("a daemon flag table");
        let section = section.split("\n## ").next().unwrap_or(section);
        // A row names its flags first: "| `--addr HOST:PORT` | ...".
        let mut documented: Vec<&str> = section
            .lines()
            .filter_map(|l| l.strip_prefix("| ")?.split(" | ").next())
            .flat_map(|cell| cell.split("`--").skip(1))
            .filter_map(|flag| flag.split([' ', '`']).next())
            .collect();
        let mut own: Vec<&str> = args.asked().filter(|f| !SERVICE_FLAGS.contains(f)).collect();
        documented.sort_unstable();
        own.sort_unstable();
        assert_eq!(documented, own, "docs/OPERATIONS.md's skysr-d flag table");
    }
}
