//! The serving stack one run measures: set-up from the serialized city to
//! ready-to-serve, and tear-down.

use std::sync::Arc;
use std::time::Instant;

use skysr_data::codec;
use skysr_service::net::DatasetFingerprint;
use skysr_service::{
    QueryRequest, QueryService, RemoteService, ReuseStrategies, Server, ServerConfig, Service,
    ServiceConfig, ServiceContext,
};

use crate::inputs::Inputs;
use crate::trace::Tracer;
use crate::Workload;

/// A ready-to-serve stack.
pub struct Stack {
    /// The shared context (epoch history, landmarks, delta indexes).
    pub ctx: Arc<ServiceContext>,
    /// The in-process service; `wire` serves it through `skysr-d`.
    pub service: Arc<Service>,
    wire: Option<(Server, Vec<RemoteService>)>,
}

/// Seconds each set-up step took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `codec::read_dataset` of the city bytes.
    pub load: f64,
    /// `ServiceContext::from_dataset` + `Service::new`.
    pub spawn: f64,
    /// Paging in each worker's workspace with one cold search.
    pub warmup: f64,
    /// `wire`: the server and its client connections.
    pub wire: f64,
    /// `churn`: the first `ServiceContext::landmarks()`.
    pub landmarks: f64,
    /// Making the resident set resident (hit workloads).
    pub prefill: f64,
    /// From the city bytes to ready to serve.
    pub total: f64,
}

impl Stack {
    /// Builds `workload`'s stack from `inputs` with `workers` workers and,
    /// on `wire`, `clients` connections.
    pub fn set_up(
        workload: Workload,
        inputs: &Inputs,
        workers: usize,
        clients: usize,
        tracer: &Tracer,
    ) -> Result<(Stack, SetupTimes), String> {
        let mut t = SetupTimes::default();
        let setup = tracer.open();
        let parent = Some(setup.0);
        let t0 = Instant::now();
        let (dataset, secs) =
            tracer.time("data.read_dataset", "", parent, || codec::read_dataset(&inputs.city[..]));
        t.load = secs;
        let dataset = dataset.map_err(|e| format!("reading the city back: {e}"))?;

        let config =
            ServiceConfig { workers, repair: workload == Workload::Churn, ..Default::default() };
        let ((ctx, service), secs) = tracer.time("service.spawn", "", parent, || {
            let ctx = Arc::new(ServiceContext::from_dataset(dataset));
            let service = Arc::new(Service::new(Arc::clone(&ctx), config));
            (ctx, service)
        });
        t.spawn = secs;
        let served = DatasetFingerprint::of(&ctx);
        let f = inputs.fingerprint;
        if (served.vertices, served.arcs, served.pois) != (f.vertices, f.arcs, f.pois) {
            return Err(format!("the loaded city {served:?} differs from the generated {f:?}"));
        }

        // Uncached requests, one per worker at once: each worker pages in
        // its workspace without touching the cache the window uses.
        let (warm, secs) = tracer.time("service.warmup", "", parent, || {
            let tickets: Vec<_> = inputs
                .warmup
                .iter()
                .map(|q| {
                    service.submit(QueryRequest::new(q.clone()).restrict(ReuseStrategies::none()))
                })
                .collect();
            tickets.into_iter().map(|t| t.wait()).collect::<Result<Vec<_>, _>>()
        });
        t.warmup = secs;
        warm.map_err(|e| format!("warm-up query failed: {e}"))?;

        let mut wire = None;
        if workload == Workload::Wire {
            let (stack, secs) = tracer.time("net.serve", "", parent, || {
                let server =
                    Server::spawn("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
                        .map_err(|e| format!("binding the loopback server: {e}"))?;
                let remotes = (0..clients)
                    .map(|_| RemoteService::connect(server.local_addr()))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("connecting to the loopback server: {e}"))?;
                Ok::<_, String>((server, remotes))
            });
            t.wire = secs;
            wire = Some(stack?);
        }
        if workload == Workload::Churn {
            t.landmarks =
                tracer.time("graph.landmarks", "", parent, || ctx.landmarks().is_some()).1;
        }
        if workload != Workload::Cold {
            let (answers, secs) =
                tracer.time("service.prefill", "", parent, || service.run_queries(&inputs.pool));
            t.prefill = secs;
            if let Some(e) = answers.into_iter().find_map(Result::err) {
                return Err(format!("prefill query failed: {e}"));
            }
        }
        t.total = t0.elapsed().as_secs_f64();
        tracer.close(setup, "setup", None);
        Ok((Stack { ctx, service, wire }, t))
    }

    /// The client handles: one per client, all the in-process service
    /// except on `wire`, where each client has its own connection.
    pub fn clients(&self, clients: usize) -> Vec<&dyn QueryService> {
        match &self.wire {
            Some((_, remotes)) => remotes.iter().map(|r| r as &dyn QueryService).collect(),
            None => (0..clients).map(|_| &*self.service as &dyn QueryService).collect(),
        }
    }

    /// Closes the connections, stops the server and drains the service.
    pub fn tear_down(self) {
        if let Some((mut server, remotes)) = self.wire {
            drop(remotes);
            server.stop();
        }
        self.service.shutdown();
    }
}
