//! Per-request trace spans and the sampled, bounded buffer that retains
//! them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use skysr_core::stats::EngineProfile;
use skysr_graph::EpochId;

use crate::telemetry::{Rung, TelemetryConfig};

/// One rung-ladder probe and what came of it, from a fixed vocabulary:
/// `exact:hit`, `exact:stale-refused`, `exact:miss`, `coalesce:join`,
/// `coalesce:lead`, `repair:attempt` and `cold`. A hit at submission
/// records `["exact:hit"]`; a duplicate parked there
/// `["exact:miss", "coalesce:join"]`; a repair answered there, or by a
/// worker, `["exact:miss", "coalesce:lead", "repair:attempt"]`; a leader
/// that finds the answer of a flight completed while it waited or checked
/// `["exact:miss", "coalesce:lead", "exact:hit"]`.
pub type Attempt = &'static str;

/// The complete story of one served request: where its time went
/// (queue → plan → engine), which rungs were probed and which one
/// answered, and — when an engine ran — how much raw graph work it did.
///
/// Exactly one span exists per successful response (the trace-completeness
/// invariant; failures produce no span), and the span's `rung` always
/// equals the response's `Served` classification — `replay --trace-out`
/// re-checks both on every run.
#[derive(Clone, Debug)]
pub struct TraceSpan {
    /// Service-assigned id, shared with the matching `QueryResponse`.
    pub request_id: u64,
    /// The weight epoch the request was pinned to.
    pub epoch: EpochId,
    /// The rung that produced the answer (matches `Served`).
    pub rung: Rung,
    /// The rung-ladder probes in execution order with their outcomes.
    pub attempts: Vec<Attempt>,
    /// Submission → dequeue (time spent waiting in the bounded queue).
    pub queue_wait: Duration,
    /// Plan construction: cache probes.
    pub plan: Duration,
    /// Engine execution (search or repair); zero when no engine ran
    /// (cache hits, coalesced followers).
    pub engine: Duration,
    /// Submission → completion (equals `queue_wait` + service time).
    pub total: Duration,
    /// Submission-queue depth observed when this request was dequeued.
    pub queue_depth: usize,
    /// The `(from, to)` epoch pair of the repair's delta, for repair rungs.
    pub delta_index: Option<(EpochId, EpochId)>,
    /// The repair tier reached (`"untouched"` / `"rescored"` /
    /// `"researched"`), for repair rungs.
    pub repair_tier: Option<&'static str>,
    /// Engine-work counters for this request (all zero when no engine
    /// ran).
    pub profile: EngineProfile,
    /// Skyline routes in the answer.
    pub skyline: usize,
}

impl TraceSpan {
    /// One JSON object, no trailing newline — the `--trace-out` JSON-lines
    /// format. Keys are the field names, durations in microseconds under
    /// `<field>_us`, and the profile's counters inline: its two prune
    /// counts summed as `pruned_labels`, its memo hits left out.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        push_kv(&mut s, "request_id", &self.request_id.to_string());
        push_kv(&mut s, "epoch", &self.epoch.get().to_string());
        s.push_str("\"rung\":\"");
        s.push_str(self.rung.label());
        s.push_str("\",");
        s.push_str("\"attempts\":[");
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(a);
            s.push('"');
        }
        s.push_str("],");
        push_kv(&mut s, "queue_wait_us", &format_us(self.queue_wait));
        push_kv(&mut s, "plan_us", &format_us(self.plan));
        push_kv(&mut s, "engine_us", &format_us(self.engine));
        push_kv(&mut s, "total_us", &format_us(self.total));
        push_kv(&mut s, "queue_depth", &self.queue_depth.to_string());
        match self.delta_index {
            Some((from, to)) => {
                s.push_str(&format!("\"delta_index\":[{},{}],", from.get(), to.get()));
            }
            None => s.push_str("\"delta_index\":null,"),
        }
        match self.repair_tier {
            Some(t) => s.push_str(&format!("\"repair_tier\":\"{t}\",")),
            None => s.push_str("\"repair_tier\":null,"),
        }
        let p = &self.profile;
        push_kv(&mut s, "settled", &p.settled.to_string());
        push_kv(&mut s, "relaxed", &p.relaxed.to_string());
        push_kv(&mut s, "heap_pushes", &p.heap_pushes.to_string());
        push_kv(&mut s, "routes_enqueued", &p.routes_enqueued.to_string());
        push_kv(&mut s, "pruned_labels", &p.pruned_labels().to_string());
        push_kv(&mut s, "seeds_survived", &p.seeds_survived.to_string());
        push_kv(&mut s, "mdijkstra_runs", &p.mdijkstra_runs.to_string());
        push_kv(&mut s, "grouped_routes", &p.grouped_routes.to_string());
        push_kv(&mut s, "routes_reused", &p.routes_reused.to_string());
        push_kv(&mut s, "restricted_researches", &p.restricted_researches.to_string());
        s.push_str(&format!("\"skyline\":{}", self.skyline));
        s.push('}');
        s
    }
}

fn push_kv(s: &mut String, key: &str, raw_value: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":");
    s.push_str(raw_value);
    s.push(',');
}

/// Microseconds with sub-µs precision, as a bare JSON number.
fn format_us(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e6)
}

/// One shard of the trace buffer (see [`TraceBuffer`]).
#[derive(Debug, Default)]
struct Shard {
    /// Ring of sampled spans, oldest first; bounded by the shard's share
    /// of [`TelemetryConfig::capacity`].
    ring: Vec<TraceSpan>,
    /// Next ring slot to overwrite once full.
    head: usize,
    /// Spans offered to this shard so far (drives 1/N sampling).
    offered: u64,
    /// The shard's slowest spans by `total`, ascending; bounded by its
    /// share of [`SLOWEST_SPANS`].
    slow: Vec<TraceSpan>,
}

/// Spans a sampling [`TraceBuffer`] keeps for being the slowest, across
/// all its shards: the tail uniform sampling would miss.
pub const SLOWEST_SPANS: usize = 32;

/// Bounded, sampled retention of [`TraceSpan`]s.
///
/// Sharded by request id so concurrent workers almost never touch the
/// same mutex; each shard keeps (a) a bounded ring of every `1/N`-th span
/// offered and (b) its slowest few spans regardless of sampling — the
/// tail is the part worth keeping, and uniform sampling would usually
/// drop it. [`TraceBuffer::drain`] merges the shards, de-duplicating
/// spans retained by both rules.
///
/// When tracing is disabled ([`TelemetryConfig::tracing`] = false) every
/// offer returns immediately without taking any lock.
#[derive(Debug)]
pub struct TraceBuffer {
    shards: Vec<Mutex<Shard>>,
    ring_per_shard: usize,
    slow_per_shard: usize,
    sample_every: u64,
    enabled: bool,
    dropped: AtomicU64,
}

impl TraceBuffer {
    /// Buffer for `config`, sharded for `workers` concurrent recorders.
    pub fn new(config: &TelemetryConfig, workers: usize) -> TraceBuffer {
        let shards = workers.clamp(1, 64);
        TraceBuffer {
            ring_per_shard: config.capacity.div_ceil(shards).max(1),
            slow_per_shard: SLOWEST_SPANS.div_ceil(shards),
            sample_every: config.sample_every.max(1),
            enabled: config.tracing,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether spans are being retained at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Offers one completed span for retention.
    pub fn offer(&self, span: TraceSpan) {
        if !self.enabled {
            return;
        }
        let shard_idx = (span.request_id % self.shards.len() as u64) as usize;
        let mut shard = self.shards[shard_idx].lock().expect("trace shard poisoned");
        shard.offered += 1;
        let sampled = shard.offered % self.sample_every == 1 % self.sample_every;
        // Keep-slowest: admit if the slow list has room or the span beats
        // its current fastest member. Skipped entirely under full
        // retention (`sample_every == 1`) — the ring already keeps every
        // span, so the side list would only clone each one to retain a
        // duplicate that `drain` de-duplicates away.
        let mut keep_slow = false;
        if self.sample_every > 1 {
            let slow_pos = shard.slow.partition_point(|s| s.total <= span.total);
            keep_slow = shard.slow.len() < self.slow_per_shard || slow_pos > 0;
            if keep_slow {
                shard.slow.insert(slow_pos, span.clone());
                if shard.slow.len() > self.slow_per_shard {
                    shard.slow.remove(0);
                }
            }
        }
        if sampled {
            if shard.ring.len() < self.ring_per_shard {
                shard.ring.push(span);
            } else {
                let head = shard.head;
                shard.ring[head] = span;
                shard.head = (head + 1) % self.ring_per_shard;
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        } else if !keep_slow {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Unconditionally retains `span` — the per-request trace opt-in
    /// ([`crate::RequestOptions::trace`]). Bypasses both the enable flag
    /// and sampling; the ring still bounds memory, so a flood of forced
    /// spans overwrites the oldest rather than growing.
    pub fn force(&self, span: TraceSpan) {
        let shard_idx = (span.request_id % self.shards.len() as u64) as usize;
        let mut shard = self.shards[shard_idx].lock().expect("trace shard poisoned");
        shard.offered += 1;
        if shard.ring.len() < self.ring_per_shard {
            shard.ring.push(span);
        } else {
            let head = shard.head;
            shard.ring[head] = span;
            shard.head = (head + 1) % self.ring_per_shard;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes every retained span (ring ∪ slowest, de-duplicated by request
    /// id), sorted by request id. The buffer is left empty but keeps
    /// counting offers for sampling continuity.
    pub fn drain(&self) -> Vec<TraceSpan> {
        let mut spans: Vec<TraceSpan> = Vec::new();
        for shard in &self.shards {
            let mut s = shard.lock().expect("trace shard poisoned");
            spans.append(&mut s.ring);
            s.head = 0;
            spans.append(&mut s.slow);
        }
        spans.sort_by_key(|s| s.request_id);
        spans.dedup_by_key(|s| s.request_id);
        spans
    }

    /// Spans offered across all shards (retained or not).
    pub fn offered(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().expect("trace shard poisoned").offered).sum()
    }

    /// Sampled spans that were overwritten or never retained.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, total_us: u64) -> TraceSpan {
        TraceSpan {
            request_id: id,
            epoch: EpochId::BASE,
            rung: Rung::Cold,
            attempts: vec!["exact:miss", "cold"],
            queue_wait: Duration::from_micros(1),
            plan: Duration::from_micros(2),
            engine: Duration::from_micros(total_us.saturating_sub(3)),
            total: Duration::from_micros(total_us),
            queue_depth: 0,
            delta_index: None,
            repair_tier: None,
            profile: EngineProfile::default(),
            skyline: 2,
        }
    }

    #[test]
    fn trace_all_retains_every_span() {
        let buf = TraceBuffer::new(&TelemetryConfig::trace_all(1_000), 4);
        for i in 0..500 {
            buf.offer(span(i, 10 + i));
        }
        let spans = buf.drain();
        assert_eq!(spans.len(), 500);
        assert!(spans.windows(2).all(|w| w[0].request_id < w[1].request_id));
        assert_eq!(buf.offered(), 500);
        assert_eq!(buf.dropped(), 0);
        // Drained: a second drain is empty.
        assert!(buf.drain().is_empty());
    }

    #[test]
    fn sampling_keeps_one_in_n_plus_the_slowest() {
        let cfg = TelemetryConfig { tracing: true, sample_every: 100, capacity: 1_000 };
        let buf = TraceBuffer::new(&cfg, 1);
        // 1 000 fast spans and one catastrophic outlier that the 1/100
        // sampler would miss at the wrong phase.
        for i in 0..1_000 {
            buf.offer(span(i, 10));
        }
        buf.offer(span(5_000, 1_000_000));
        let spans = buf.drain();
        let sampled = spans.iter().filter(|s| s.total == Duration::from_micros(10)).count();
        assert!(sampled >= 10, "1/100 of 1000 fast spans, got {sampled}");
        assert!(
            spans.iter().any(|s| s.request_id == 5_000),
            "the slowest span must always be retained"
        );
    }

    #[test]
    fn capacity_bounds_retention() {
        let cfg = TelemetryConfig { tracing: true, sample_every: 1, capacity: 64 };
        let buf = TraceBuffer::new(&cfg, 4);
        for i in 0..10_000 {
            buf.offer(span(i, 10 + (i % 17)));
        }
        let spans = buf.drain();
        // Full retention keeps no slow list: the ring alone bounds it.
        assert!(spans.len() <= 64, "bounded retention, got {}", spans.len());
        assert!(buf.dropped() > 0);
        assert_eq!(buf.offered(), 10_000);
    }

    #[test]
    fn disabled_buffer_retains_nothing() {
        let buf = TraceBuffer::new(&TelemetryConfig::disabled(), 4);
        assert!(!buf.enabled());
        buf.offer(span(1, 10));
        assert!(buf.drain().is_empty());
        assert_eq!(buf.offered(), 0);
    }

    #[test]
    fn json_lines_are_balanced_and_carry_the_fields() {
        let mut s = span(42, 1_234);
        s.delta_index = Some((EpochId(3), EpochId(5)));
        s.repair_tier = Some("rescored");
        s.profile.routes_reused = 3;
        s.profile.restricted_researches = 1;
        let line = s.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert_eq!(line.matches('{').count(), 1);
        for needle in [
            "\"request_id\":42",
            "\"rung\":\"cold\"",
            "\"attempts\":[\"exact:miss\",\"cold\"]",
            "\"delta_index\":[3,5]",
            "\"repair_tier\":\"rescored\"",
            "\"routes_reused\":3",
            "\"restricted_researches\":1",
            "\"total_us\":1234.000",
            "\"skyline\":2",
        ] {
            assert!(line.contains(needle), "{needle} missing from {line}");
        }
    }
}
