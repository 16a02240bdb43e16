//! Load generators that talk `unc/1` to the server through
//! `server::protocol::Client`: a closed loop (one thread per connection,
//! a fixed number of requests outstanding), an open loop (a sender thread
//! on a fixed schedule plus a receiver thread), and a synchronous `APPLY`
//! stream on a fixed schedule. The client shares the host's CPUs with the
//! server, so a sender can run late when the host is busy; latency is timed
//! from the actual send, and the sender's lateness against its schedule is
//! reported on its own. An apply that waited for the previous apply's reply
//! is still timed from its scheduled send, since the system held it back.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_bench::churn::ChurnStream;
use uncertain_engine::server::protocol::{Client, ErrorCode, Reply, Request, WireError};
use uncertain_engine::{ApplyReport, QueryRequest, Update};
use uncertain_geom::Point;

use crate::oracle::Mirror;

/// Updates per `APPLY` batch.
const APPLY_BATCH: usize = 16;
/// Query points are uniform over `[-QUERY_HALF, QUERY_HALF]²`.
const QUERY_HALF: f64 = 30.0;
/// `k` of every `TOPK` request.
const TOPK_K: usize = 8;

/// A wire-level failure as an I/O error.
pub fn wire(e: WireError) -> io::Error {
    match e {
        WireError::Io(e) => e,
        other => io::Error::other(other.to_string()),
    }
}

/// Which query families a stream carries.
#[derive(Clone, Copy, Debug)]
pub enum Mix {
    Nonzero,
    TopK,
    /// Three `NONZERO` to one `TOPK`.
    Mixed,
}

/// A deterministic stream of unique uniform query points.
pub struct QueryGen {
    rng: StdRng,
    mix: Mix,
    i: u64,
}

impl QueryGen {
    pub fn new(seed: u64, mix: Mix) -> Self {
        QueryGen {
            rng: StdRng::seed_from_u64(seed),
            mix,
            i: 0,
        }
    }

    pub fn next_request(&mut self) -> QueryRequest {
        let q = Point::new(
            self.rng.gen_range(-QUERY_HALF..QUERY_HALF),
            self.rng.gen_range(-QUERY_HALF..QUERY_HALF),
        );
        self.i += 1;
        let topk = match self.mix {
            Mix::Nonzero => false,
            Mix::TopK => true,
            Mix::Mixed => self.i.is_multiple_of(4),
        };
        if topk {
            QueryRequest::TopK { q, k: TOPK_K }
        } else {
            QueryRequest::Nonzero { q }
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<QueryRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// How one reply counted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    Ok,
    Shed,
    Error,
}

fn classify(req: &QueryRequest, rep: &Reply) -> Outcome {
    match (req, rep) {
        (QueryRequest::Nonzero { .. }, Reply::Nonzero(_))
        | (QueryRequest::TopK { .. } | QueryRequest::Threshold { .. }, Reply::Ranked { .. }) => {
            Outcome::Ok
        }
        (
            _,
            Reply::Error {
                code: ErrorCode::Shed,
                ..
            },
        ) => Outcome::Shed,
        _ => Outcome::Error,
    }
}

/// Failure accounting for one phase. A request that never got a reply is
/// attempted but neither succeeded, shed nor errored; [`Tally::failed`]
/// counts it with the shed and errored ones.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub succeeded: u64,
    pub shed: u64,
    pub errors: u64,
}

impl Tally {
    fn count(&mut self, o: Outcome) {
        match o {
            Outcome::Ok => self.succeeded += 1,
            Outcome::Shed => self.shed += 1,
            Outcome::Error => self.errors += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.succeeded
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.succeeded += o.succeeded;
        self.shed += o.shed;
        self.errors += o.errors;
    }
}

/// One client request or apply, send → reply, in ns since the run's clock
/// origin. Recorded only by traced runs.
#[derive(Clone, Copy, Debug)]
pub struct ClientSpan {
    pub kind: &'static str,
    pub conn: u8,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recording switch plus the clock origin spans are measured from.
#[derive(Clone, Copy)]
pub struct Tracer {
    pub origin: Instant,
    pub on: bool,
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn span(
        &self,
        kind: &'static str,
        conn: u8,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> ClientSpan {
        ClientSpan {
            kind,
            conn,
            id,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        }
    }
}

fn kind_of(req: &QueryRequest) -> &'static str {
    match req {
        QueryRequest::Nonzero { .. } => "client.nonzero",
        QueryRequest::TopK { .. } => "client.topk",
        QueryRequest::Threshold { .. } => "client.threshold",
    }
}

/// The measured window of a phase: requests sent in `[from, to)` count.
#[derive(Clone, Copy)]
pub struct Window {
    pub from: Instant,
    pub to: Instant,
}

impl Window {
    fn holds(&self, t: Instant) -> bool {
        t >= self.from && t < self.to
    }

    /// Offset of `t` into the window, s.
    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.from).as_secs_f64()
    }
}

/// What one closed-loop connection saw.
#[derive(Default)]
pub struct ClosedOut {
    /// Requests sent inside the window, by outcome.
    pub tally: Tally,
    /// When each successful reply inside the window arrived, s into the
    /// window (the throughput samples).
    pub done_s: Vec<f64>,
    /// Every `sample_every`-th reply, for the oracle.
    pub samples: Vec<(QueryRequest, Reply)>,
    pub spans: Vec<ClientSpan>,
    /// Every request sent, in order (traced runs only, for the replay).
    pub sent: Vec<QueryRequest>,
}

/// Keeps `depth` requests outstanding on one connection from `win.from`
/// (minus the caller's warm-up) until `win.to`, then drains. One thread.
pub fn closed_loop(
    addr: &str,
    mut gen: QueryGen,
    depth: usize,
    win: Window,
    sample_every: u64,
    tracer: Tracer,
    conn: u8,
) -> io::Result<ClosedOut> {
    let mut c = Client::connect(addr)?;
    let mut out = ClosedOut::default();
    let mut inflight: HashMap<u64, (QueryRequest, Instant)> = HashMap::with_capacity(2 * depth);
    let mut send = |c: &mut Client, out: &mut ClosedOut, inflight: &mut HashMap<_, _>| {
        let req = gen.next_request();
        let t = Instant::now();
        let id = c.send(&Request::Query(req))?;
        if win.holds(t) {
            out.tally.attempted += 1;
        }
        if tracer.on {
            out.sent.push(req);
        }
        inflight.insert(id, (req, t));
        io::Result::Ok(())
    };
    for _ in 0..depth {
        send(&mut c, &mut out, &mut inflight)?;
    }
    while !inflight.is_empty() {
        let (id, rep) = c.recv().map_err(wire)?;
        let now = Instant::now();
        let (req, sent_at) = inflight
            .remove(&id)
            .ok_or_else(|| io::Error::other(format!("reply to unknown request id {id}")))?;
        let o = classify(&req, &rep);
        if win.holds(sent_at) {
            out.tally.count(o);
        }
        if o == Outcome::Ok && win.holds(now) {
            out.done_s.push(win.at(now));
        }
        if tracer.on {
            out.spans
                .push(tracer.span(kind_of(&req), conn, id, sent_at, now));
        }
        if id % sample_every == 0 && o == Outcome::Ok {
            out.samples.push((req, rep));
        }
        if now < win.to {
            send(&mut c, &mut out, &mut inflight)?;
        }
    }
    Ok(out)
}

/// What one open-loop connection saw.
#[derive(Default)]
pub struct OpenOut {
    /// Requests scheduled inside the window, by outcome.
    pub tally: Tally,
    /// `(scheduled send, s into the window; latency from the actual send
    /// to the reply, ms)` for requests scheduled in the window; shed,
    /// failed and unanswered requests have latency `+∞`.
    pub lat: Vec<(f64, f64)>,
    /// How late the generator sent each request, ms.
    pub late_ms: Vec<f64>,
    pub samples: Vec<(QueryRequest, Reply)>,
    pub spans: Vec<ClientSpan>,
}

/// Sends `reqs[i]` at `start + i / rate` from a sender thread while this
/// thread receives. Requests scheduled before `win.from` are warm-up.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: &str,
    reqs: Arc<Vec<QueryRequest>>,
    rate: f64,
    start: Instant,
    win: Window,
    sample_every: u64,
    tracer: Tracer,
    conn: u8,
) -> io::Result<OpenOut> {
    let (mut tx, mut rx) = Client::connect(addr)?.split()?;
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let sender = {
        let reqs = Arc::clone(&reqs);
        std::thread::spawn(move || -> io::Result<Vec<Duration>> {
            let mut late = Vec::with_capacity(reqs.len());
            for (i, req) in reqs.iter().enumerate() {
                let d = due(i);
                let now = Instant::now();
                if now < d {
                    std::thread::sleep(d - now);
                }
                let sent = Instant::now();
                tx.send(&Request::Query(*req))?;
                late.push(sent - d);
            }
            tx.finish();
            Ok(late)
        })
    };
    // Request i carries id i + 1 (a fresh connection numbers from 1).
    let mut replied_at: Vec<Option<(Instant, Outcome)>> = vec![None; reqs.len()];
    let mut out = OpenOut::default();
    let recv_result = loop {
        match rx.recv() {
            Ok((id, rep)) => {
                let now = Instant::now();
                let i = (id as usize).wrapping_sub(1);
                let Some(req) = reqs.get(i) else {
                    break Err(io::Error::other(format!(
                        "reply to unknown request id {id}"
                    )));
                };
                let o = classify(req, &rep);
                replied_at[i] = Some((now, o));
                if id % sample_every == 0 && o == Outcome::Ok {
                    out.samples.push((*req, rep));
                }
            }
            Err(WireError::Eof) => break Ok(()),
            Err(e) => break Err(wire(e)),
        }
    };
    let late = sender
        .join()
        .map_err(|_| io::Error::other("open-loop sender panicked"))??;
    recv_result?;
    for (i, (req, got)) in reqs.iter().zip(&replied_at).enumerate() {
        let d = due(i);
        if !win.holds(d) {
            continue;
        }
        out.tally.attempted += 1;
        let sent = d + late.get(i).copied().unwrap_or_default();
        match got {
            Some((t, o)) => {
                out.tally.count(*o);
                let ms = (*t - sent).as_secs_f64() * 1e3;
                let ms = if *o == Outcome::Ok { ms } else { f64::INFINITY };
                out.lat.push((win.at(d), ms));
            }
            None => out.lat.push((win.at(d), f64::INFINITY)),
        }
        if let Some(l) = late.get(i) {
            out.late_ms.push(l.as_secs_f64() * 1e3);
        }
        if let (true, Some((t, _))) = (tracer.on, got) {
            out.spans
                .push(tracer.span(kind_of(req), conn, i as u64 + 1, sent, *t));
        }
    }
    Ok(out)
}

/// What the apply stream saw.
#[derive(Default)]
pub struct ApplyOut {
    /// Applies scheduled inside the window, by outcome.
    pub tally: Tally,
    /// `(scheduled send, s into the window; latency, ms)` per counted
    /// apply (failed applies are `+∞`). Latency runs from the scheduled send
    /// when the previous reply came after it (the system held the apply
    /// back), else from the actual send (the gap is the generator's own
    /// sleep overshoot, reported in `late_ms`).
    pub lat: Vec<(f64, f64)>,
    /// The generator's own lateness per counted apply, ms: how long after
    /// both its schedule and the previous reply it was sent.
    pub late_ms: Vec<f64>,
    /// Every acknowledged batch in order (traced passes only, for the
    /// replay).
    pub log: Vec<Vec<Update>>,
    /// The first acknowledged apply the mirror could not follow.
    pub wrong: Option<String>,
    /// `live` of the last reply.
    pub last_live: Option<u64>,
    /// Σ `missed` over the replies (the stream never names a dead id, so
    /// anything but 0 is a wrong answer).
    pub missed: u64,
    pub spans: Vec<ClientSpan>,
}

/// Sends one `APPLY` of [`APPLY_BATCH`] churn updates at
/// `start + i / rate` until `win.to` or `stop`, waiting for each reply (the
/// server runs a connection's applies one after another anyway). Every
/// reply is folded into `mirror`.
#[allow(clippy::too_many_arguments)]
pub fn apply_stream(
    addr: &str,
    churn: &mut ChurnStream,
    mirror: &mut Mirror,
    rate: f64,
    start: Instant,
    win: Window,
    tracer: Tracer,
    stop: &AtomicBool,
) -> io::Result<ApplyOut> {
    let mut c = Client::connect(addr)?;
    let mut out = ApplyOut::default();
    let mut prev_done = start;
    for i in 0u64.. {
        let d = start + Duration::from_secs_f64(i as f64 / rate);
        if d >= win.to || stop.load(Ordering::Relaxed) {
            break;
        }
        let now = Instant::now();
        if now < d {
            std::thread::sleep(d - now);
        }
        let updates = churn_batch(churn);
        let sent = Instant::now();
        let rep = c.call(&Request::Apply(updates.clone())).map_err(wire)?;
        let done = Instant::now();
        let counted = win.holds(d);
        let from = if prev_done > d { d } else { sent };
        if counted {
            out.tally.attempted += 1;
            out.late_ms.push(
                sent.saturating_duration_since(prev_done.max(d))
                    .as_secs_f64()
                    * 1e3,
            );
        }
        prev_done = done;
        if tracer.on {
            out.spans
                .push(tracer.span("client.apply", 0, i + 1, sent, done));
        }
        match rep {
            Reply::Apply {
                inserted,
                live,
                missed,
                ..
            } => {
                observe(churn, &inserted, live);
                out.missed += u64::from(missed);
                out.last_live = Some(live);
                if let Err(e) = mirror.apply(&updates, &inserted) {
                    out.wrong.get_or_insert(e);
                }
                if tracer.on {
                    out.log.push(updates);
                }
                if counted {
                    out.tally.succeeded += 1;
                    out.lat.push((win.at(d), (done - from).as_secs_f64() * 1e3));
                }
            }
            _ => {
                if counted {
                    out.tally.errors += 1;
                    out.lat.push((win.at(d), f64::INFINITY));
                }
            }
        }
    }
    Ok(out)
}

/// The next [`APPLY_BATCH`]-update churn batch.
pub fn churn_batch(churn: &mut ChurnStream) -> Vec<Update> {
    // `tick` emits ⌈rate · live⌉ updates; aim half an update below the
    // batch size so float rounding cannot push it over.
    let live = churn.live().len().max(1) as f64;
    churn.tick((APPLY_BATCH as f64 - 0.5) / live)
}

/// Feeds the ids an `APPLY` reply assigned back into the churn stream.
pub fn observe(churn: &mut ChurnStream, inserted: &[u64], live: u64) {
    churn.observe(&ApplyReport {
        epoch: 0,
        inserted: inserted.iter().map(|&id| id as usize).collect(),
        removed: 0,
        moved: 0,
        missed: 0,
        live: live as usize,
        tombstones: 0,
        merges: 0,
        global_rebuilds: 0,
        sites_rebuilt: 0,
    });
}
