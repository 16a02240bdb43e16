//! The traced run's per-layer numbers.
//!
//! Three sources, each from the benchmark's own code: the client spans of
//! a traced pass over the wire (one per request or apply, send → reply),
//! the registry deltas of that pass (the program's own counters and span
//! histograms — means only, since `Histogram::quantile` is accurate to 2×),
//! and an in-process replay of the pass's read stream through
//! `Engine::run_batch` / `Engine::apply` and the `protocol` codec, one span
//! per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use uncertain_bench::measure::{heap_counters, percentile};
use uncertain_engine::server::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, ErrorCode, Reply,
    Request, REPLY_FRAME_MAX, REQUEST_FRAME_MAX,
};
use uncertain_engine::{Engine, EngineConfig, QueryRequest, QueryResult};

use crate::run::{Inputs, PassOut, RegSnap};

/// Most reads one replay feeds through the engine.
const REPLAY_MAX_READS: usize = 50_000;

/// One timed call of the replay, ns since the run's clock origin.
pub struct ReplaySpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// What the in-process replay measured.
#[derive(Default)]
pub struct Replay {
    pub reads: u64,
    pub batches: u64,
    /// Reads per chosen plan, e.g. `"nonzero.index"`.
    pub plan_reads: BTreeMap<String, u64>,
    /// Encode + decode of request and reply frames, all reads.
    pub codec_ns: u64,
    /// The codec work outside the server's `server.request.wall` window:
    /// request encode/decode and reply decode (reply encode is inside it).
    pub codec_outside_ns: u64,
    pub frame_bytes: u64,
    pub bucket_touches: u64,
    pub bucket_warm: u64,
    pub updates: u64,
    /// Heap bytes allocated inside `Engine::apply`.
    pub apply_heap_bytes: u64,
    pub spans: Vec<ReplaySpan>,
}

fn to_reply(r: QueryResult) -> Reply {
    match r {
        QueryResult::Nonzero(ids) => Reply::Nonzero(ids.into_iter().map(|i| i as u64).collect()),
        QueryResult::Ranked { items, guarantee } => Reply::Ranked {
            items: items.into_iter().map(|(i, p)| (i as u64, p)).collect(),
            guarantee,
        },
        QueryResult::Failed { reason } => Reply::Error {
            code: ErrorCode::Failed,
            detail: reason,
        },
    }
}

struct Clock {
    origin: Instant,
    spans: Vec<ReplaySpan>,
}

impl Clock {
    /// Times `f` as one span named `name`; returns its result and ns.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = Instant::now();
        let out = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.spans.push(ReplaySpan {
            name,
            start_ns: t0.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns,
        });
        (out, dur_ns)
    }
}

/// Replays the traced pass's qps-phase reads in batches of `batch`, with one
/// logged apply per `reads_per_apply` reads, then the remaining logged
/// applies, stopping the reads after `budget`.
pub fn replay(
    inp: &Inputs,
    traced: &PassOut,
    batch: usize,
    reads_per_apply: Option<f64>,
    budget: Duration,
    origin: Instant,
) -> Replay {
    let engine = Engine::new(inp.set.clone(), EngineConfig::default());
    // churn_mixed reads after the bulk load; the fresh workloads read at
    // epoch 0 and bulk-load before their applies.
    let mut bulk = traced.bulk.iter();
    if reads_per_apply.is_some() {
        bulk.next().map(|b| engine.apply(b));
    }
    // Interleave the connections' streams the way they reached the server.
    let longest = traced.qps_stream.iter().map(Vec::len).max().unwrap_or(0);
    let reads: Vec<QueryRequest> = (0..longest)
        .flat_map(|i| {
            traced
                .qps_stream
                .iter()
                .filter_map(move |s| s.get(i).copied())
        })
        .take(REPLAY_MAX_READS)
        .collect();
    let mut applies = bulk.chain(traced.applies.log.iter());
    let mut out = Replay::default();
    let mut clock = Clock {
        origin,
        spans: Vec::with_capacity(5 * reads.len().min(REPLAY_MAX_READS)),
    };
    let mut apply_next = |out: &mut Replay, clock: &mut Clock| -> bool {
        let Some(updates) = applies.next() else {
            return false;
        };
        let heap0 = heap_counters().0;
        clock.span("replay.engine.apply", || engine.apply(updates));
        out.apply_heap_bytes += heap_counters().0 - heap0;
        out.updates += updates.len() as u64;
        true
    };

    let t0 = Instant::now();
    let mut next_apply_at = reads_per_apply.unwrap_or(f64::INFINITY);
    let mut id = 0u64;
    for chunk in reads.chunks(batch.max(1)) {
        if t0.elapsed() > budget {
            break;
        }
        for req in chunk {
            id += 1;
            let (frame, enc) = clock.span("replay.protocol.encode_request", || {
                encode_request(id, &Request::Query(*req))
            });
            let (_, dec) = clock.span("replay.protocol.decode_request", || {
                let f = read_frame(&mut &frame[..], REQUEST_FRAME_MAX).expect("own frame");
                decode_request(f.opcode, &f.body).expect("own request")
            });
            out.codec_ns += enc + dec;
            out.codec_outside_ns += enc + dec;
            out.frame_bytes += frame.len() as u64;
        }
        let (resp, _) = clock.span("replay.engine.run_batch", || engine.run_batch(chunk));
        let st = &resp.stats;
        out.batches += 1;
        out.bucket_touches += st.quant_bucket_touches as u64;
        out.bucket_warm += st.quant_bucket_warm as u64;
        let nonzero = chunk
            .iter()
            .filter(|r| matches!(r, QueryRequest::Nonzero { .. }))
            .count() as u64;
        let quant = chunk.len() as u64 - nonzero;
        for (plan, reads) in [
            (st.plan.nonzero.map(|p| p.to_string()), nonzero),
            (st.plan.quant.map(|p| p.to_string()), quant),
        ] {
            if let (Some(plan), true) = (plan, reads > 0) {
                *out.plan_reads.entry(plan.replace(':', ".")).or_default() += reads;
            }
        }
        for res in resp.results {
            let rid = out.reads + 1;
            let (frame, enc) = clock.span("replay.protocol.encode_reply", || {
                encode_reply(rid, &to_reply(res))
            });
            let (_, dec) = clock.span("replay.protocol.decode_reply", || {
                let f = read_frame(&mut &frame[..], REPLY_FRAME_MAX).expect("own frame");
                decode_reply(f.opcode, &f.body).expect("own reply")
            });
            out.codec_ns += enc + dec;
            out.codec_outside_ns += dec;
            out.frame_bytes += frame.len() as u64;
            out.reads += 1;
        }
        while out.reads as f64 >= next_apply_at {
            if !apply_next(&mut out, &mut clock) {
                next_apply_at = f64::INFINITY;
                break;
            }
            next_apply_at += reads_per_apply.unwrap_or(f64::INFINITY);
        }
    }
    // The fresh workloads apply after their reads.
    if reads_per_apply.is_none() {
        while apply_next(&mut out, &mut clock) {}
    }
    out.spans = clock.spans;
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Plans whose share and per-read cost are reported.
const PLANS: [&str; 5] = [
    "nonzero.brute",
    "nonzero.index",
    "nonzero.dynamic",
    "quant.fresh",
    "quant.merged",
];

/// The per-layer metrics `(name, value, unit)` plus a human-readable
/// breakdown of where a request's client-observed time went.
pub fn metrics(
    untraced: &PassOut,
    traced: &PassOut,
    rp: &Replay,
) -> (Vec<(String, f64, &'static str)>, String) {
    let all = &traced.reg_all;
    let lat = &traced.reg_lat;
    let mut m: Vec<(String, f64, &'static str)> = vec![];
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));

    let reads = rp.reads as f64;
    put(
        "protocol.codec_ns_per_query",
        ratio(rp.codec_ns as f64, reads),
        "ns",
    );
    put(
        "protocol.bytes_per_query",
        ratio(rp.frame_bytes as f64, reads),
        "B",
    );

    put(
        "server.batch_size_mean",
        all.mean("server.batch.size"),
        "count",
    );
    let wait_ns = all.mean("server.request.wall") - all.mean("server.batch.wall");
    put("server.wait_us_mean", wait_ns / 1e3, "us");
    put(
        "server.apply_us_mean",
        all.mean("server.apply.wall") / 1e3,
        "us",
    );
    put("server.shed", all.counter("server.shed"), "count");

    put(
        "planner.plan_us_per_batch",
        all.mean("engine.batch.plan") / 1e3,
        "us",
    );
    for plan in PLANS {
        let share = ratio(rp.plan_reads.get(plan).copied().unwrap_or(0) as f64, reads);
        put(&format!("planner.share.{plan}"), share, "frac");
    }
    put(
        "planner.mispredictions",
        all.counter("engine.planner.mispredictions"),
        "count",
    );

    for plan in PLANS {
        let us = all.mean(&format!("engine.exec.{plan}")) / 1e3;
        put(&format!("engine.exec_us_per_query.{plan}"), us, "us");
    }
    put(
        "engine.prepare_us_per_batch",
        all.mean("engine.batch.prepare") / 1e3,
        "us",
    );
    let busy = all.counter("engine.pool.busy_ns");
    put(
        "pool.utilization",
        ratio(busy, busy + all.counter("engine.pool.idle_ns")),
        "frac",
    );
    let hits = all.counter("engine.cache.hits");
    put(
        "cache.hit_rate",
        ratio(hits, hits + all.counter("engine.cache.misses")),
        "frac",
    );

    let dyn_apply = all.mean("dynamic.apply");
    put("dynamic.apply_us_mean", dyn_apply / 1e3, "us");
    put(
        "dynamic.carry_us_mean",
        all.mean("dynamic.carry") / 1e3,
        "us",
    );
    let publish = if all.count("engine.apply") > 0.0 {
        all.mean("engine.apply") - dyn_apply
    } else {
        0.0
    };
    put("engine.apply_publish_us_mean", publish / 1e3, "us");
    let updates = all.counter("engine.apply.updates");
    put(
        "dynamic.sites_rebuilt_per_update",
        ratio(all.counter("dynamic.sites_rebuilt"), updates),
        "count",
    );
    put(
        "apply.heap_bytes_per_update",
        ratio(rp.apply_heap_bytes as f64, rp.updates as f64),
        "B",
    );
    put(
        "quant.bucket_reuse_rate",
        ratio(rp.bucket_warm as f64, rp.bucket_touches as f64),
        "frac",
    );

    let lanes = all.counter("spatial.kernel.lane_dists");
    let dists = lanes + all.counter("spatial.kernel.scalar_dists");
    put(
        "kernel.dists_per_query",
        ratio(dists, all.counter("engine.batch.requests")),
        "count",
    );
    put("kernel.lane_fraction", ratio(lanes, dists), "frac");
    let fh = all.counter("geom.predicate.filter_hits");
    put(
        "predicate.filter_hit_rate",
        ratio(fh, fh + all.counter("geom.predicate.exact_fallbacks")),
        "frac",
    );

    // The read p50 is an end-to-end metric; everything else here is not.
    for q in [90, 99] {
        let p = f64::from(q) / 100.0;
        put(&format!("client.lat_p{q}_ms"), untraced.lat(p), "ms");
    }
    for q in [50, 90, 99] {
        let p = f64::from(q) / 100.0;
        put(&format!("client.apply_p{q}_ms"), untraced.apply(p), "ms");
    }
    let late = gen_lateness(untraced);
    put("client.gen_late_p99_ms", late.0, "ms");
    put("client.gen_late_max_ms", late.1, "ms");

    // Layer sum over the traced open-loop phase: the client-observed time
    // of a read against the self times of the layers it crossed.
    let client: Vec<f64> = traced
        .open
        .spans
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    let client_ns = ratio(client.iter().sum(), client.len() as f64);
    let parts = layer_parts(lat, ratio(rp.codec_outside_ns as f64, reads));
    let explained: f64 = parts.iter().map(|p| p.1).sum();
    put("client.request_us_mean", client_ns / 1e3, "us");
    put("layers.unexplained_us", (client_ns - explained) / 1e3, "us");
    put(
        "trace.overhead_frac",
        ratio(untraced.qps(), traced.qps()) - 1.0,
        "frac",
    );

    let mut text = format!(
        "layer sum, open-loop reads (n={}): client {:.1} us =",
        client.len(),
        client_ns / 1e3
    );
    for (name, ns) in &parts {
        let _ = write!(text, " {name} {:.1} +", ns / 1e3);
    }
    let _ = write!(
        text,
        " unexplained {:.1} us (loopback, socket and thread hand-offs)",
        (client_ns - explained) / 1e3
    );
    (m, text)
}

/// Self time per read of each layer on the read path, ns, from registry
/// means over one window: the wire codec outside the server's timing, the
/// wait for a batch (admission queue + batching window), and the batch's
/// planner, prepare, execution and server-side remainder.
fn layer_parts(w: &RegSnap, codec_outside_ns: f64) -> Vec<(&'static str, f64)> {
    let request = w.mean("server.request.wall");
    let server_batch = w.mean("server.batch.wall");
    let engine_batch = w.mean("engine.batch.wall");
    let plan = w.mean("engine.batch.plan");
    let prepare = w.mean("engine.batch.prepare");
    vec![
        ("codec", codec_outside_ns),
        ("wait", request - server_batch),
        ("plan", plan),
        ("prepare", prepare),
        ("exec", engine_batch - plan - prepare),
        ("batch-self", server_batch - engine_batch),
    ]
}

/// `(p99, max)` of how late the open-loop and apply generators sent, ms.
pub fn gen_lateness(p: &PassOut) -> (f64, f64) {
    let late: Vec<f64> = p
        .open
        .late_ms
        .iter()
        .chain(&p.applies.late_ms)
        .copied()
        .collect();
    if late.is_empty() {
        return (0.0, 0.0);
    }
    (
        percentile(&late, 0.99),
        late.iter().copied().fold(0.0, f64::max),
    )
}

/// Writes the traced pass's client spans and the replay's spans, one per
/// line: `name,conn,id,start_ns,dur_ns`.
pub fn write_spans(path: &std::path::Path, traced: &PassOut, rp: &Replay) -> std::io::Result<()> {
    let mut s = String::with_capacity(48 * (traced.spans.len() + rp.spans.len()));
    s.push_str("name,conn,id,start_ns,dur_ns\n");
    for c in &traced.spans {
        let _ = writeln!(
            s,
            "{},{},{},{},{}",
            c.kind,
            c.conn,
            c.id,
            c.start_ns,
            c.end_ns - c.start_ns
        );
    }
    for r in &rp.spans {
        let _ = writeln!(s, "{},,,{},{}", r.name, r.start_ns, r.dur_ns);
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}
