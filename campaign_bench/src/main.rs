//! Campaign-point benchmark for the DeepStrike reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload fig5b --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Runs one seeded workload (see README.md) on one thread, prints a host
//! record and, as its last line, one JSON object: whether every output
//! checked out, points attempted and failed, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).

mod fig5b;
mod gen;
mod host;
mod metrics;
mod remote;
mod spans;

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use spans::Tracer;

/// Times the set-up is repeated in one run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// FNV-1a fingerprint and test accuracy of the trained LeNet every
/// workload attacks. A different model (say, a stale cache) changes the
/// workload, so it fails the run instead of being measured.
const MODEL_FINGERPRINT: u64 = 0xa12f_6703_e405_399d;
const MODEL_ACCURACY: f64 = 0.98;

/// One workload: a set-up, then blocks of campaign points.
trait Workload {
    /// Builds everything before the first point, replacing any earlier
    /// set-up.
    fn set_up(&mut self, tracer: &Tracer);

    /// Number of distinct blocks; the sweep runs them in order and cycles.
    fn blocks(&self) -> usize;

    /// Fills, untimed, the caches the timed sweep would otherwise fill.
    fn warm_up(&mut self) {}

    /// Runs block `block` through the crash-safe supervisor (see
    /// [`timed_sweep`]), numbering its points from `first_id`; returns
    /// the seconds of each point it attempted.
    fn run_block(&mut self, block: usize, first_id: u64, tracer: &Tracer) -> Vec<f64>;

    /// Checks every timed point's output, outside the timed window;
    /// returns how many failed.
    fn check(&mut self) -> u64;
}

/// Runs `items` through `bench::supervisor::supervised_sweep` and times
/// each item from the end of the one before (the first from the start),
/// so the supervisor's per-item work counts. Returns the results and each
/// item's seconds; an item that panicked reads NaN and adds its time to
/// the next one.
fn timed_sweep<I, T>(
    name: &str,
    items: &[I],
    f: impl Fn(&I) -> T + Sync,
) -> (Vec<Option<T>>, Vec<f64>)
where
    I: Sync,
    T: bench::supervisor::SliceCodec + Clone + Send,
{
    let indexed: Vec<(usize, &I)> = items.iter().enumerate().collect();
    let clock = Mutex::new((Instant::now(), vec![f64::NAN; items.len()]));
    let results = bench::supervisor::supervised_sweep(name, &indexed, |&(i, item)| {
        let result = f(item);
        let mut clock = clock.lock().unwrap_or_else(PoisonError::into_inner);
        let now = Instant::now();
        clock.1[i] = (now - clock.0).as_secs_f64();
        clock.0 = now;
        result
    });
    (results, clock.into_inner().unwrap_or_else(PoisonError::into_inner).1)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

/// Timing of the sweep: all blocks, and in a traced run the recorded and
/// unrecorded blocks apart.
#[derive(Default)]
struct Sweep {
    points: u64,
    /// Seconds of each untraced run of each point, by block and point.
    point_s: Vec<Vec<Vec<f64>>>,
    /// Seconds of the untimed warm-up before the sweep.
    warmup_s: f64,
    /// `(points, seconds)` of blocks run with recording on and off.
    traced: (u64, f64),
    untraced: (u64, f64),
}

impl Sweep {
    /// Points per second of one pass over every distinct point that ran,
    /// each at its fastest run (NaN runs, of panicked points, skipped). Every run of a point does the same work
    /// (the same inputs, caches warmed before the sweep), and contention
    /// from other tenants of the host only ever adds time, so the fastest
    /// run is the closest reading of the program's own cost.
    fn points_per_s(&self) -> f64 {
        let runs = self.point_s.iter().flatten().filter(|t| !t.is_empty());
        let fastest = |t: &Vec<f64>| t.iter().copied().fold(f64::INFINITY, f64::min);
        let (points, seconds) = runs.fold((0u32, 0.0), |(n, s), t| (n + 1, s + fastest(t)));
        f64::from(points) / seconds
    }
}

/// Runs whole blocks, in order, while the next one is expected to end
/// within `seconds` (and at least one), so every run measures the same
/// blocks whatever the seed. A traced run runs each block twice, once
/// recorded and once not, alternating which goes first, so the tracing
/// overhead is measured on identical work.
fn sweep(workload: &mut dyn Workload, seconds: f64, trace: bool, tracer: &Tracer) -> Sweep {
    let start = Instant::now();
    let mut s = Sweep { point_s: vec![Vec::new(); workload.blocks()], ..Sweep::default() };
    let runs_per_block = if trace { 2 } else { 1 };
    let mut last_block_s = 0.0;
    for block in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        if block > 0 && elapsed + last_block_s > seconds {
            break;
        }
        let key = block % workload.blocks();
        let t = Instant::now();
        for run in 0..runs_per_block {
            let recording = trace && (run + block) % 2 == 0;
            tracer.set_enabled(recording);
            let t = Instant::now();
            let times = workload.run_block(key, s.points, tracer);
            let dt = t.elapsed().as_secs_f64();
            let n = times.len() as u64;
            let side = if recording { &mut s.traced } else { &mut s.untraced };
            side.0 += n;
            side.1 += dt;
            s.points += n;
            if !recording {
                let runs = &mut s.point_s[key];
                runs.resize(times.len(), Vec::new());
                for (runs, t) in runs.iter_mut().zip(times) {
                    runs.push(t);
                }
            }
        }
        last_block_s = t.elapsed().as_secs_f64();
    }
    tracer.set_enabled(false);
    s
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            std::process::exit(2);
        }
    };
    // One worker, no durable checkpoints (their fsyncs would time the
    // disk), before anything reads the environment.
    std::env::set_var(par::THREADS_ENV, "1");
    for var in [
        bench::supervisor::CHECKPOINT_DIR_ENV,
        bench::supervisor::SLICE_LEN_ENV,
        bench::supervisor::ABORT_AFTER_ENV,
    ] {
        std::env::remove_var(var);
    }
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "fig5b" => Box::new(fig5b::Fig5b::new(args.seed)),
        "remote_lenet" => Box::new(remote::Remote::new(args.seed)),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };

    // Warm-up: train the model if the cache is cold, so set-up times a
    // cache load. Then pin the model.
    let (q, accuracy) = bench::trained_lenet();
    let fingerprint = fnv1a(&q.to_bytes());
    let model_ok = fingerprint == MODEL_FINGERPRINT && accuracy == MODEL_ACCURACY;
    if !model_ok {
        eprintln!(
            "model fingerprint {fingerprint:#018x}, accuracy {accuracy}: not the pinned model"
        );
    }
    drop(q);

    let tracer = Tracer::default();
    let mut setup_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            tracer.set_enabled(args.trace);
            let t = Instant::now();
            tracer.span("setup", || workload.set_up(&tracer));
            t.elapsed().as_secs_f64()
        })
        .collect();
    tracer.set_enabled(false);
    let warm = Instant::now();
    workload.warm_up();
    let warmup_s = warm.elapsed().as_secs_f64();
    let window = host::Window::start();
    let mut sweep = sweep(workload.as_mut(), args.seconds, args.trace, &tracer);
    sweep.warmup_s = warmup_s;
    println!("host {}", window.record());
    println!("point_seconds {:?}", sweep.point_s);

    let failed = workload.check();
    let (spans, counts) = tracer.take();

    let metrics = if args.trace {
        let path =
            std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../target/campaign-bench"))
                .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = spans::write_jsonl(&spans, &path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        metrics::per_layer(&spans, &counts, SETUP_REPS, &sweep)
    } else {
        vec![
            ("points_per_s", sweep.points_per_s()),
            ("setup_s", median(&mut setup_s)),
            ("peak_rss_mb", host::peak_rss_mb()),
        ]
    };
    let correct = model_ok && failed == 0 && metrics.iter().all(|(_, v)| v.is_finite());
    println!("{}", metrics::report(correct, sweep.points, failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_per_s_passes_over_each_point_at_its_fastest_run() {
        let sweep = Sweep {
            // Block 0: two points, fastest runs 1.5 s and 0.25 s; block 1:
            // one point that ran once, in 0.25 s; block 2 never ran.
            point_s: vec![
                vec![vec![2.0, 9.0, 1.5], vec![0.5, 0.25, 0.3]],
                vec![vec![0.25]],
                vec![],
            ],
            ..Sweep::default()
        };
        assert!((sweep.points_per_s() - 1.5).abs() < 1e-12);
    }
}
