//! The repository benchmark: one workload per process, served in-process by
//! `Engine` + `server::Server` and driven over loopback through
//! `server::protocol::Client`.
//!
//! ```text
//! perfbench --workload <nonzero_fresh|topk_fresh|churn_mixed> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
//! untraced, again with client spans on, then replays the traced stream
//! in-process, and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! A wrong answer exits with status 1, any other failure with status 2.

mod drive;
mod layers;
mod oracle;
mod run;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use uncertain_bench::measure::percentile;

use drive::Tracer;
use run::{fastest, pass, Fail, Inputs, PassOut, WORKLOADS};

// Peak live heap is process-global, so each workload runs in its own process.
#[global_allocator]
static ALLOC: uncertain_bench::measure::CountingAlloc = uncertain_bench::measure::CountingAlloc;

/// Latency tails, and all apply latencies, are printed, and reported per
/// layer by traced runs, but only the read p50 is an end-to-end metric. On
/// a small shared host the vCPUs stall for milliseconds about 1% of the
/// time, so tails of millisecond latencies track the host: a
/// single-threaded in-process loop of `TOPK` queries saw its p99 range
/// 1.9–5.5 ms over six back-to-back runs while its p50 stayed within 4%.
/// Sub-millisecond applies track it even at p50 (36% spread over ten
/// seeds on `topk_fresh`).
const PRINTED_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];
/// Set-up repetitions of an untraced run; `setup_s` is the fastest.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` each pass of a traced run measures; the replay gets
/// what is left.
const TRACED_PASS_SHARE: f64 = 0.4;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = a.next() {
        let val = a.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(parse::<u64>(&flag, &val)?),
            "--seconds" => seconds = Some(parse::<f64>(&flag, &val)?),
            "--trace" => trace = Some(parse::<u8>(&flag, &val)? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn parse<T: std::str::FromStr>(flag: &str, val: &str) -> Result<T, String> {
    val.parse()
        .map_err(|_| format!("bad value {val:?} for {flag}"))
}

/// A metric line of the result: name, value, unit, sample count.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// JSON has no infinity: a percentile that lands on a failed request
/// (counted as `+∞`) prints as the largest finite double.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (have {names:?})",
            args.workload
        );
        return 2;
    };
    let inp = Inputs::new(*spec, args.seed);
    let result = if args.trace {
        traced(&inp, args.seconds)
    } else {
        untraced(&inp, args.seconds)
    };
    match result {
        Ok((metrics, passes)) => {
            report(&inp, &metrics, &passes);
            0
        }
        Err(Fail::Wrong(msg)) => {
            eprintln!("perfbench: {}: WRONG ANSWER: {msg}", spec.name);
            1
        }
        Err(Fail::Io(e)) => {
            eprintln!("perfbench: {}: {e}", spec.name);
            2
        }
    }
}

fn off(origin: Instant) -> Tracer {
    Tracer { origin, on: false }
}

fn untraced(inp: &Inputs, seconds: f64) -> Result<(Vec<Metric>, Vec<PassOut>), Fail> {
    let p = pass(inp, seconds, SETUP_REPS, off(Instant::now()))?;
    let lat = p.open.lat.len();
    let m = vec![
        metric("setup_s", fastest(&p.setups), "s", p.setups.len()),
        metric("qps", p.qps(), "1/s", p.qps_done_s.len()),
        metric("lat_p50_ms", p.lat(0.5), "ms", lat),
        metric(
            "peak_heap_mb",
            p.peak_heap_bytes as f64 / (1u64 << 20) as f64,
            "MB",
            1,
        ),
    ];
    Ok((m, vec![p]))
}

fn traced(inp: &Inputs, seconds: f64) -> Result<(Vec<Metric>, Vec<PassOut>), Fail> {
    let origin = Instant::now();
    let each = seconds * TRACED_PASS_SHARE;
    let plain = pass(inp, each, 1, off(origin))?;
    let spanned = pass(inp, each, 1, Tracer { origin, on: true })?;
    let batch = spanned.reg_qps.mean("server.batch.size").round().max(1.0) as usize;
    // churn_mixed: the epochs the qps phases saw, at the fixed apply rate.
    let reads_per_apply = inp.spec.churn.then(|| {
        let epochs = (run::APPLY_RATE * spanned.qps_phase_secs).max(1.0);
        spanned.qps_stream.iter().map(Vec::len).sum::<usize>() as f64 / epochs
    });
    let budget = Duration::from_secs_f64(seconds * (1.0 - 2.0 * TRACED_PASS_SHARE));
    let rp = layers::replay(inp, &spanned, batch, reads_per_apply, budget, origin);
    let (per_layer, breakdown) = layers::metrics(&plain, &spanned, &rp);
    println!("{breakdown}");
    println!(
        "replay: {} reads in {} batches of {batch}, {} updates{}",
        rp.reads,
        rp.batches,
        rp.updates,
        reads_per_apply.map_or(String::new(), |r| format!(", one apply per {r:.0} reads"))
    );
    let path = trace_dir().join(format!("trace-{}.csv", inp.spec.name));
    match layers::write_spans(&path, &spanned, &rp) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    let reads = rp.reads as usize;
    let m = per_layer
        .into_iter()
        .map(|(name, value, unit)| Metric {
            name,
            value,
            unit,
            samples: reads,
        })
        .collect();
    Ok((m, vec![plain, spanned]))
}

/// Where a traced run writes its spans: the build directory, which the
/// repository ignores.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
        .join("perfbench")
}

fn report(inp: &Inputs, metrics: &[Metric], passes: &[PassOut]) {
    let name = inp.spec.name;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("{name} seed {}: available parallelism {cores}", inp.seed);
    let mut attempted = 0;
    let mut failed = 0;
    for (i, p) in passes.iter().enumerate() {
        let t = p.totals();
        attempted += t.attempted;
        failed += t.failed();
        for (phase, t) in [
            ("qps", p.qps_tally),
            ("lat", p.open.tally),
            ("apply", p.applies.tally),
        ] {
            println!(
                "{name} pass {i} {phase}: attempted {} succeeded {} shed {} errors {}",
                t.attempted, t.succeeded, t.shed, t.errors
            );
        }
        let (late_p99, late_max) = layers::gen_lateness(p);
        println!("{name} pass {i} generator lateness: p99 {late_p99:.3} ms, max {late_max:.3} ms");
        let list = |v: &mut dyn Iterator<Item = f64>| {
            v.map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ")
        };
        println!(
            "{name} pass {i} set-up times (s): {}",
            list(&mut p.setups.iter().copied())
        );
        for q in PRINTED_QUANTILES {
            println!(
                "{name} pass {i} lat p{:.0} per round (ms): {}",
                q * 100.0,
                list(&mut p.lat_rounds(q).into_iter())
            );
        }
        for q in PRINTED_QUANTILES {
            println!(
                "{name} pass {i} p{:.0}: lat {:.3} ms, apply {:.3} ms",
                q * 100.0,
                p.lat(q),
                p.apply(q)
            );
        }
        for (what, late, lat) in [
            (
                "read",
                &p.open.late_ms,
                PassOut::lat as fn(&PassOut, f64) -> f64,
            ),
            ("apply", &p.applies.late_ms, PassOut::apply),
        ] {
            if late.is_empty() {
                continue;
            }
            // Latency excludes the generator's own lateness, but a late
            // generator bunches its sends: once it runs later than a typical
            // request takes, the offered load no longer follows the schedule.
            let (l, t) = (percentile(late, 0.9), lat(p, 0.5));
            if l > t {
                println!(
                    "{name} pass {i} FLAG: {what} generator lateness p90 {l:.3} ms exceeds the \
                     median {what} latency {t:.3} ms, so its load left the schedule"
                );
            }
        }
    }
    for m in metrics {
        println!(
            "{name} seed {}: {} = {} {} (n={})",
            inp.seed,
            m.name,
            json_num(m.value),
            m.unit,
            m.samples
        );
    }
    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}
