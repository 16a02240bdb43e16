//! One pass of a workload: repeated set-up, then the measured phases over
//! the wire, then the correctness gate.
//!
//! Phases (durations are shares of `--seconds`):
//! * **qps** — closed loop, [`CLOSED_DEPTH`] requests outstanding per
//!   connection (two read connections on the fresh workloads; one on
//!   `churn_mixed`, whose other connection carries the applies).
//! * **lat** — open loop at the workload's fixed read rate, timed from
//!   each request's actual send (the sender's lateness is reported
//!   separately).
//! * **apply** — `APPLY` batches of 16 churn updates on a fixed schedule:
//!   alongside both read phases on `churn_mixed`, after them on the fresh
//!   workloads (whose reads stay at epoch 0).

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uncertain_bench::churn::{ChurnConfig, ChurnStream};
use uncertain_engine::server::protocol::{Client, Reply, Request};
use uncertain_engine::server::{Server, ServerConfig, ServerHandle};
use uncertain_engine::{Engine, EngineConfig, QueryRequest, Update};
use uncertain_nn::model::DiscreteSet;
use uncertain_nn::workload::random_discrete_set;

use crate::drive::{
    apply_stream, churn_batch, closed_loop, observe, open_loop, wire, ApplyOut, ClientSpan,
    ClosedOut, Mix, OpenOut, QueryGen, Tally, Tracer, Window,
};
use crate::oracle::{Mirror, Oracle};
use crate::stats::rate;
use uncertain_bench::measure::percentile;

/// Requests outstanding per closed-loop connection.
const CLOSED_DEPTH: usize = 256;
/// Queries in the set-up burst (one full server batch).
const SETUP_BURST: usize = 256;
/// Set-up burst replies checked against the oracle in every repetition.
const SETUP_CHECKS: usize = 16;
/// Queries checked against the oracle after the run has quiesced.
const FINAL_CHECKS: usize = 48;
/// Rounds per lat and apply window. A figure is computed per round and the
/// fastest round is reported (see [`fastest`]).
const ROUNDS: usize = 15;
/// Closed-loop warm-up before the qps window opens.
const QPS_WARMUP: Duration = Duration::from_millis(300);
/// Open-loop warm-up before the latency window opens.
const LAT_WARMUP: Duration = Duration::from_millis(200);
/// Lead time before the open loop's first scheduled send (connect).
const OPEN_LEAD: Duration = Duration::from_millis(10);
/// Apply-stream warm-up on the fresh workloads, before the window opens.
const APPLY_WARMUP: Duration = Duration::from_millis(250);
/// The `churn_mixed` apply stream runs until told to stop.
const FOREVER: Duration = Duration::from_secs(1_000_000);

/// `APPLY`s per second, every workload.
pub const APPLY_RATE: f64 = 100.0;

/// Locations per site and cluster diameter of the generated sets.
const SITE_K: usize = 3;
const SITE_DIAMETER: f64 = 5.0;

/// A workload: input size, query mix and rates.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub n: usize,
    pub mix: Mix,
    /// Open-loop read rate, 1/s.
    pub read_rate: f64,
    /// Applies run alongside the reads (and one bulk-loading apply is part
    /// of set-up); otherwise they run after the reads.
    pub churn: bool,
    /// Shares of `--seconds` for the qps, lat and apply phases.
    pub shares: [f64; 3],
    /// Every n-th reply of the closed / open loop is checked.
    pub sample_closed: u64,
    pub sample_open: u64,
}

/// The fresh workloads' qps / lat / apply split of `--seconds`.
const FRESH_SHARES: [f64; 3] = [0.3, 0.4, 0.3];

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "nonzero_fresh",
        n: 20_000,
        mix: Mix::Nonzero,
        read_rate: 10_000.0,
        churn: false,
        shares: FRESH_SHARES,
        sample_closed: 2_003,
        sample_open: 503,
    },
    Spec {
        name: "topk_fresh",
        n: 5_000,
        mix: Mix::TopK,
        read_rate: 250.0,
        churn: false,
        shares: FRESH_SHARES,
        sample_closed: 101,
        sample_open: 31,
    },
    Spec {
        name: "churn_mixed",
        n: 50_000,
        mix: Mix::Mixed,
        read_rate: 500.0,
        churn: true,
        // The applies run alongside both read phases.
        shares: [0.5, 0.5, 0.0],
        // Reads race the applies, so their epoch is unknown: churn_mixed
        // is checked after quiescing instead.
        sample_closed: u64::MAX,
        sample_open: u64::MAX,
    },
];

/// Why a pass failed: an I/O problem, or a wrong answer.
#[derive(Debug)]
pub enum Fail {
    Io(io::Error),
    Wrong(String),
}

impl From<io::Error> for Fail {
    fn from(e: io::Error) -> Self {
        Fail::Io(e)
    }
}

impl From<String> for Fail {
    fn from(e: String) -> Self {
        Fail::Wrong(e)
    }
}

/// Independent sub-seeds from the run seed (SplitMix64 finalizer).
fn subseed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded inputs of one run.
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    pub set: DiscreteSet,
}

impl Inputs {
    pub fn new(spec: Spec, seed: u64) -> Self {
        Inputs {
            spec,
            seed,
            set: random_discrete_set(spec.n, SITE_K, SITE_DIAMETER, subseed(seed, 1)),
        }
    }

    fn churn(&self) -> ChurnStream {
        ChurnStream::new(
            subseed(self.seed, 2),
            ChurnConfig::default(),
            (0..self.spec.n).collect(),
        )
    }

    pub fn gen(&self, tag: u64) -> QueryGen {
        QueryGen::new(subseed(self.seed, tag), self.spec.mix)
    }
}

/// A running server over a freshly built engine.
struct Served {
    engine: Arc<Engine>,
    server: ServerHandle,
    addr: String,
    churn: ChurnStream,
    mirror: Mirror,
    /// The bulk-loading apply of set-up (`churn_mixed` only).
    bulk: Option<Vec<Update>>,
}

/// Builds the engine and server, sends the bulk-loading first apply on
/// `churn_mixed`, and waits for the set-up burst's replies. Returns the
/// served state and the set-up time: engine construction to the last reply
/// of the burst (lazy builds and the bulk load included). The burst is
/// checked after the clock stops.
fn setup(inp: &Inputs) -> Result<(Served, Duration), Fail> {
    let set = inp.set.clone();
    let mut churn = inp.churn();
    let mut mirror = Mirror::new(&inp.set);
    let burst = inp.gen(3).take(SETUP_BURST);

    let t0 = Instant::now();
    let engine = Arc::new(Engine::new(set, EngineConfig::default()));
    let server = Server::start(Arc::clone(&engine), ServerConfig::default())?;
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr)?;
    let bulk = if inp.spec.churn {
        let updates = churn_batch(&mut churn);
        let rep = c.call(&Request::Apply(updates.clone())).map_err(wire)?;
        Some((updates, rep))
    } else {
        None
    };
    let first = c.send(&Request::Query(burst[0]))?;
    for req in &burst[1..] {
        c.send(&Request::Query(*req))?;
    }
    let mut replies = Vec::with_capacity(burst.len());
    for _ in 0..burst.len() {
        replies.push(c.recv().map_err(wire)?);
    }
    let took = t0.elapsed();
    drop(c);

    let bulk = match bulk {
        Some((
            updates,
            Reply::Apply {
                inserted,
                live,
                missed,
                ..
            },
        )) => {
            if missed != 0 {
                return Err(Fail::Wrong(format!(
                    "bulk-load APPLY missed {missed} updates"
                )));
            }
            mirror.apply(&updates, &inserted)?;
            observe(&mut churn, &inserted, live);
            Some(updates)
        }
        Some((_, rep)) => return Err(Fail::Wrong(format!("bulk-load APPLY answered {rep:?}"))),
        None => None,
    };
    let oracle = mirror.oracle();
    let stride = (replies.len() / SETUP_CHECKS).max(1);
    for (id, rep) in replies.iter().step_by(stride) {
        let req = burst
            .get((id - first) as usize)
            .ok_or_else(|| Fail::Wrong(format!("set-up reply to unknown id {id}")))?;
        oracle.check(req, rep)?;
    }
    Ok((
        Served {
            engine,
            server,
            addr,
            churn,
            mirror,
            bulk,
        },
        took,
    ))
}

/// Registry totals at one instant: counters, and `(count, sum)` of every
/// histogram (spans included).
#[derive(Clone, Default)]
pub struct RegSnap {
    pub counters: std::collections::HashMap<&'static str, u64>,
    pub hists: std::collections::HashMap<&'static str, (u64, u64)>,
}

impl RegSnap {
    pub fn capture() -> Self {
        let reg = uncertain_obs::registry();
        RegSnap {
            counters: reg.counters().into_iter().collect(),
            hists: reg
                .span_totals()
                .into_iter()
                .map(|s| (s.name, (s.count, s.total_ns)))
                .collect(),
        }
    }

    /// `self − earlier`, per name.
    pub fn since(&self, earlier: &RegSnap) -> RegSnap {
        RegSnap {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (*k, v - earlier.counters.get(k).copied().unwrap_or(0)))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(k, (c, s))| {
                    let (c0, s0) = earlier.hists.get(k).copied().unwrap_or((0, 0));
                    (*k, (c - c0, s - s0))
                })
                .collect(),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn count(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.0 as f64)
    }

    /// Mean recorded value of a histogram (0 when it did not fire).
    pub fn mean(&self, name: &str) -> f64 {
        match self.hists.get(name) {
            Some(&(c, s)) if c > 0 => s as f64 / c as f64,
            _ => 0.0,
        }
    }
}

/// Everything one pass measured.
pub struct PassOut {
    /// Set-up time of each repetition, s.
    pub setups: Vec<f64>,
    pub qps_tally: Tally,
    /// Successful closed-loop replies, s into the qps window.
    pub qps_done_s: Vec<f64>,
    /// Length of the lat window, s.
    pub lat_secs: f64,
    /// Wall time of the qps phase, warm-up and drain included, s.
    pub qps_phase_secs: f64,
    pub open: OpenOut,
    pub applies: ApplyOut,
    pub peak_heap_bytes: u64,
    /// Registry deltas over the whole pass (kept set-up included), over
    /// the qps phase, and over the lat phase.
    pub reg_all: RegSnap,
    pub reg_qps: RegSnap,
    pub reg_lat: RegSnap,
    /// Read and apply spans (traced passes only).
    pub spans: Vec<ClientSpan>,
    /// The qps phase's read stream per connection, in send order (traced
    /// passes only).
    pub qps_stream: Vec<Vec<QueryRequest>>,
    /// The bulk-loading apply of set-up (`churn_mixed` only).
    pub bulk: Option<Vec<Update>>,
}

impl PassOut {
    /// Closed-loop throughput over the whole qps window, 1/s. Not split
    /// into rounds: replies arrive in batches of up to 256, and a round
    /// must span many batches for its rate to mean anything.
    pub fn qps(&self) -> f64 {
        rate(&self.qps_done_s)
    }

    /// Open-loop read latency quantile, ms: the fastest round.
    pub fn lat(&self, q: f64) -> f64 {
        fastest(&self.lat_rounds(q))
    }

    /// Open-loop read latency quantile of each round, ms.
    pub fn lat_rounds(&self, q: f64) -> Vec<f64> {
        rounds(&self.open.lat, self.lat_secs)
            .iter()
            .map(|r| percentile(r, q))
            .collect()
    }

    /// Apply latency quantile, ms: the fastest round of the apply stream.
    pub fn apply(&self, q: f64) -> f64 {
        let span = self.applies.lat.iter().map(|l| l.0).fold(0.0, f64::max);
        let per: Vec<f64> = rounds(&self.applies.lat, span * (1.0 + 1e-9))
            .iter()
            .map(|r| percentile(r, q))
            .collect();
        fastest(&per)
    }

    /// Reads attempted and failed plus applies, over all measured phases.
    pub fn totals(&self) -> Tally {
        let mut t = self.qps_tally;
        t.merge(&self.open.tally);
        t.merge(&self.applies.tally);
        t
    }
}

/// Splits `(t, value)` samples (`t` in s into a window of `secs`) into
/// [`ROUNDS`] equal consecutive rounds of values, dropping empty rounds.
fn rounds(samples: &[(f64, f64)], secs: f64) -> Vec<Vec<f64>> {
    let mut per = vec![vec![]; ROUNDS];
    for &(t, v) in samples {
        let r = (t / secs * ROUNDS as f64) as usize;
        per[r.min(ROUNDS - 1)].push(v);
    }
    per.retain(|r| !r.is_empty());
    per
}

/// Runs one pass: `setups` set-up repetitions (the last one is kept and
/// served), the qps, lat and (fresh workloads) apply phases over
/// `seconds`, and the correctness gate.
pub fn pass(inp: &Inputs, seconds: f64, setups: usize, tracer: Tracer) -> Result<PassOut, Fail> {
    let spec = inp.spec;
    let mut setup_secs = Vec::with_capacity(setups);
    let mut kept = None;
    let mut reg0 = RegSnap::default();
    for i in 0..setups {
        if let Some(old) = kept.take() {
            shut(old);
        }
        if i + 1 == setups {
            reg0 = RegSnap::capture();
        }
        let (served, took) = setup(inp)?;
        setup_secs.push(took.as_secs_f64());
        kept = Some(served);
    }
    let mut sv = kept.expect("at least one set-up");

    let [d_qps, d_lat, d_apply] = spec.shares.map(|s| Duration::from_secs_f64(s * seconds));
    let stop = AtomicBool::new(false);
    let conns = if spec.churn { 1 } else { 2 };

    std::thread::scope(|s| {
        // churn_mixed: one apply stream alongside both read phases.
        let applier = spec.churn.then(|| {
            let (addr, churn, mirror) = (sv.addr.as_str(), &mut sv.churn, &mut sv.mirror);
            let stop = &stop;
            let t = Instant::now();
            let win = Window {
                from: t + QPS_WARMUP,
                to: t + FOREVER,
            };
            s.spawn(move || apply_stream(addr, churn, mirror, APPLY_RATE, t, win, tracer, stop))
        });
        let reads = read_phases(inp, &sv.addr, conns, d_qps, d_lat, tracer);
        stop.store(true, Ordering::Relaxed);
        let applies = applier.map(|h| h.join().expect("apply thread panicked"));
        Ok::<_, Fail>((reads?, applies.transpose()?))
    })
    .and_then(|(reads, applies)| {
        let (mut out, samples) = reads;
        out.setups = setup_secs;
        out.applies = match applies {
            Some(a) => a,
            None => {
                // The fresh workloads' first apply bulk-loads the whole
                // set; the warm-up keeps it and the backlog behind it out
                // of the window.
                let t = Instant::now();
                let win = Window {
                    from: t + APPLY_WARMUP,
                    to: t + APPLY_WARMUP + d_apply,
                };
                let never = AtomicBool::new(false);
                apply_stream(
                    &sv.addr,
                    &mut sv.churn,
                    &mut sv.mirror,
                    APPLY_RATE,
                    t,
                    win,
                    tracer,
                    &never,
                )?
            }
        };
        out.reg_all = RegSnap::capture().since(&reg0);
        out.peak_heap_bytes = uncertain_bench::measure::peak_heap_bytes();

        // Quiesced: every reply is in. Gate the answers.
        if !spec.churn {
            // The fresh workloads' reads all ran at epoch 0.
            Mirror::new(&inp.set).oracle().check_all(&samples)?;
        }
        out.spans.extend(out.applies.spans.iter().copied());
        gate_applies(&sv.mirror, &out.applies)?;
        final_check(&sv.addr, &sv.mirror.oracle(), inp)?;
        out.bulk = sv.bulk.take();
        shut(sv);
        Ok(out)
    })
}

/// The qps phase, then the lat phase, on one server. Returns the pass
/// record so far and the sampled replies for the oracle.
fn read_phases(
    inp: &Inputs,
    addr: &str,
    conns: usize,
    d_qps: Duration,
    d_lat: Duration,
    tracer: Tracer,
) -> Result<(PassOut, Vec<(QueryRequest, Reply)>), Fail> {
    let spec = inp.spec;
    let r0 = RegSnap::capture();
    let t = Instant::now();
    let qps_win = Window {
        from: t + QPS_WARMUP,
        to: t + QPS_WARMUP + d_qps,
    };
    let closed: Vec<ClosedOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let gen = inp.gen(10 + c as u64);
                s.spawn(move || {
                    closed_loop(
                        addr,
                        gen,
                        CLOSED_DEPTH,
                        qps_win,
                        spec.sample_closed,
                        tracer,
                        c as u8 + 1,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect::<io::Result<_>>()
    })?;
    let qps_phase_secs = t.elapsed().as_secs_f64();
    let r1 = RegSnap::capture();

    let t = Instant::now() + OPEN_LEAD;
    let lat_win = Window {
        from: t + LAT_WARMUP,
        to: t + LAT_WARMUP + d_lat,
    };
    let n = (spec.read_rate * (LAT_WARMUP + d_lat).as_secs_f64()).ceil() as usize;
    let reqs = Arc::new(inp.gen(5).take(n));
    let open = open_loop(
        addr,
        reqs,
        spec.read_rate,
        t,
        lat_win,
        spec.sample_open,
        tracer,
        conns as u8 + 1,
    )?;
    let r2 = RegSnap::capture();

    let mut out = PassOut {
        setups: vec![],
        qps_tally: Tally::default(),
        qps_done_s: vec![],
        lat_secs: d_lat.as_secs_f64(),
        qps_phase_secs,
        open: OpenOut::default(),
        applies: ApplyOut::default(),
        peak_heap_bytes: 0,
        reg_all: RegSnap::default(),
        reg_qps: r1.since(&r0),
        reg_lat: r2.since(&r1),
        spans: vec![],
        qps_stream: vec![],
        bulk: None,
    };
    let mut samples = vec![];
    for c in closed {
        out.qps_tally.merge(&c.tally);
        out.qps_done_s.extend(c.done_s);
        samples.extend(c.samples);
        out.spans.extend(c.spans);
        out.qps_stream.push(c.sent);
    }
    samples.extend(open.samples.iter().cloned());
    out.spans.extend(open.spans.iter().copied());
    out.open = open;
    Ok((out, samples))
}

/// The fastest of per-round (or per-repetition) times, 0 when empty.
///
/// Host interference only ever makes a round slower, and on a small shared
/// host it comes in bursts (on a 2-vCPU host, steal reached 15% of wall
/// time for minutes at a stretch): the median round moves when more than
/// half the rounds are hit, the fastest only when all are. A slower
/// program slows every round, so it still shows; a stall that hits only
/// some rounds shows in the printed per-round figures and tails instead.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Checks the counts the apply replies reported against the mirror they
/// were folded into.
fn gate_applies(mirror: &Mirror, applies: &ApplyOut) -> Result<(), Fail> {
    if let Some(e) = &applies.wrong {
        return Err(Fail::Wrong(e.clone()));
    }
    if applies.missed != 0 {
        return Err(Fail::Wrong(format!(
            "{} churn updates missed live ids",
            applies.missed
        )));
    }
    if let Some(live) = applies.last_live {
        if live as usize != mirror.len() {
            return Err(Fail::Wrong(format!(
                "server reports {live} live sites, the mirror holds {}",
                mirror.len()
            )));
        }
    }
    Ok(())
}

/// Queries a fixed sample over the wire and checks every reply.
fn final_check(addr: &str, oracle: &Oracle, inp: &Inputs) -> Result<(), Fail> {
    let mut c = Client::connect(addr)?;
    let mut gen = QueryGen::new(subseed(inp.seed, 7), Mix::Mixed);
    for _ in 0..FINAL_CHECKS {
        let req = gen.next_request();
        let rep = c.call(&Request::Query(req)).map_err(wire)?;
        oracle.check(&req, &rep)?;
    }
    Ok(())
}

fn shut(sv: Served) {
    sv.server.shutdown();
    drop(sv.engine);
}
