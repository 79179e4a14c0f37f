//! Performance sweep: measures the campaign hot paths serial vs parallel
//! and writes the machine-readable `BENCH_sweep.json` at the repo root.
//!
//! Six measurements:
//!
//! 1. **fig5b snapshot sweep** — the fig5b candidate sweep across all five
//!    layers, evaluated once by naive full replay and once through the
//!    fork-point snapshot engine (`deepstrike::snapshot`). The two passes
//!    must produce bit-identical `InferenceRun`s *and* outcomes — the
//!    process aborts otherwise, which is the CI gate — and the speedup is
//!    recorded as a dated entry in the `BENCH_sweep.json` trajectory.
//! 2. **fig5b slice** — a guided-attack campaign slice run with
//!    `DEEPSTRIKE_THREADS=1` and again on the full worker pool. The two
//!    passes must produce byte-identical outcomes (the `par` determinism
//!    contract); the speedup column is the wall-clock ratio. On a
//!    single-core box both passes cost the same and `speedup ≈ 1`.
//! 3. **conv forward** — the im2col fast path vs the original loop nest
//!    (`forward_naive`, kept as the exactness oracle).
//! 4. **grid step** — the spatial PDN step in the settled state (where the
//!    early-exit fires after one sweep) vs mid-transient (all sweeps run).
//! 5. **cosim cycle** — host nanoseconds per victim cycle of an unarmed
//!    LeNet `run_inference` (the campaign benchmark's
//!    `cosim.host_ns_per_cycle`), fastest of a few rounds.
//! 6. **score image** — µs per scored image for the runs of the campaign
//!    benchmark's fig5b block (conv1, conv2, fc1 and a blind spray),
//!    through the per-MAC oracle (`evaluate_attack_naive`) and the
//!    fault-sparse path (`evaluate_attack`). The outcomes must be
//!    identical — the process aborts otherwise — before the speedup is
//!    recorded.
//!
//! Grid sizes honour `DEEPSTRIKE_PERF_SNAP_POINTS`,
//! `DEEPSTRIKE_PERF_SLICE_POINTS` and `DEEPSTRIKE_PERF_IMAGES` so CI can
//! run a small grid.

use std::time::Instant;

use accel::fault::FaultModel;
use accel::schedule::AccelConfig;
use bench::report::{SweepEntry, SweepReport};
use bench::{test_set, trained_lenet, HARNESS_SEED};
use deepstrike::attack::{
    clean_predictions, evaluate_attack, evaluate_attack_cached, evaluate_attack_naive, plan_attack,
    plan_blind, profile_victim, AttackOutcome,
};
use deepstrike::cosim::{CloudFpga, CosimConfig, InferenceRun};
use deepstrike::snapshot::SnapshotEngine;
use dnn::layers::{Conv2d, Layer};
use dnn::lenet::STAGE_NAMES;
use dnn::tensor::Tensor;
use pdn::grid::SpatialPdn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Campaign points in the snapshot-vs-replay sweep (one per layer ×
/// strike-count rung, like fig5b's guided grid).
const SNAP_POINTS: usize = 30;

/// Campaign points in the fig5b thread-scaling slice.
const SLICE_POINTS: usize = 64;

/// Images scored per campaign point (reduced from fig5b's 300 to keep the
/// sweep fast while leaving enough work per point to parallelise).
const SLICE_IMAGES: usize = 30;

/// Timing rounds of the scoring comparison (fastest kept).
const SCORE_ROUNDS: usize = 3;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or(default)
}

fn seconds(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The fig5b inner loop at slice scale: one campaign point per
/// `(target, strike fraction)` pair, all starting from the same profiled
/// platform snapshot.
/// The guided campaign grid: one `(target, strikes)` point per layer ×
/// strike-count rung, mirroring fig5b's guided sweep.
fn campaign_points(
    profile: &deepstrike::attack::VictimProfile,
    targets: &[&str],
    n: usize,
) -> Vec<(usize, u32)> {
    (0..n)
        .map(|i| {
            let target = i % targets.len();
            let (_, len) = profile.window(targets[target]).expect("profiled layer");
            let max_strikes = (len / 2).max(4) as u32;
            let frac = (i / targets.len() + 1) as f64 / (n / targets.len()).max(1) as f64;
            (target, ((f64::from(max_strikes) * frac.min(1.0)) as u32).max(1))
        })
        .collect()
}

fn fig5b_slice(
    fpga: &CloudFpga,
    profile: &deepstrike::attack::VictimProfile,
    q: &dnn::quant::QuantizedNetwork,
    test: &dnn::digits::Dataset,
    slice_points: usize,
    images: usize,
) -> Vec<AttackOutcome> {
    let targets = ["conv1", "conv2"];
    let points = campaign_points(profile, &targets, slice_points);
    par::map_items(&points, |&(target, strikes)| {
        let mut fpga = fpga.clone();
        let scheme =
            plan_attack(profile, targets[target], strikes).expect("slice points fit their windows");
        fpga.scheduler_mut().load_scheme(&scheme).expect("scheme fits");
        fpga.scheduler_mut().arm(true).expect("scheme loaded");
        let run = fpga.run_inference();
        evaluate_attack(
            q,
            fpga.schedule(),
            &run,
            test.iter().take(images),
            FaultModel::paper(),
            HARNESS_SEED,
        )
    })
}

fn main() {
    let mut report = SweepReport::new();
    let snap_points = env_usize("DEEPSTRIKE_PERF_SNAP_POINTS", SNAP_POINTS);
    let slice_points = env_usize("DEEPSTRIKE_PERF_SLICE_POINTS", SLICE_POINTS);
    let images = env_usize("DEEPSTRIKE_PERF_IMAGES", SLICE_IMAGES);

    let (q, _) = trained_lenet();
    let test = test_set();
    let mut fpga = CloudFpga::new(&q, &AccelConfig::default(), 8_000, CosimConfig::default())
        .expect("platform assembles");
    fpga.settle(200);
    let profile = profile_victim(&mut fpga, &STAGE_NAMES, 1).expect("profiling");

    // --- fig5b candidate sweep: snapshot engine vs naive replay ----------
    // Same platform, same candidate grid, two evaluation modes. The runs
    // and outcomes must match bit-for-bit; the wall-clock ratio is the
    // engine's algorithmic speedup (thread-count independent).
    let points = campaign_points(&profile, &STAGE_NAMES, snap_points);
    let schemes: Vec<_> = points
        .iter()
        .map(|&(target, strikes)| {
            plan_attack(&profile, STAGE_NAMES[target], strikes).expect("points fit their windows")
        })
        .collect();

    let mut replay_results = Vec::with_capacity(schemes.len());
    let replay_s = seconds(|| {
        for scheme in &schemes {
            let mut fpga = fpga.clone();
            fpga.scheduler_mut().load_scheme(scheme).expect("scheme fits");
            fpga.scheduler_mut().arm(true).expect("scheme loaded");
            let run = fpga.run_inference();
            let outcome = evaluate_attack(
                &q,
                fpga.schedule(),
                &run,
                test.iter().take(images),
                FaultModel::paper(),
                HARNESS_SEED,
            );
            replay_results.push((run, outcome));
        }
    });

    let start = Instant::now();
    let engine = SnapshotEngine::capture(&fpga).expect("snapshot capture");
    let clean = clean_predictions(&q, test.iter().take(images));
    let snapshot_results: Vec<_> = schemes
        .iter()
        .map(|scheme| {
            let run = engine.run_guided(scheme).expect("guided run");
            let outcome = evaluate_attack_cached(
                &q,
                fpga.schedule(),
                &run,
                test.iter().take(images),
                FaultModel::paper(),
                HARNESS_SEED,
                &clean,
            );
            (run, outcome)
        })
        .collect();
    let snapshot_s = start.elapsed().as_secs_f64();
    assert_eq!(
        replay_results, snapshot_results,
        "snapshot-mode output must be bit-identical to naive replay"
    );
    let stats = engine.stats();
    let snap_speedup = replay_s / snapshot_s;
    let suffix_fraction = if stats.forked_runs > 0 {
        stats.suffix_cycles as f64 / (stats.forked_runs * engine.total_cycles()) as f64
    } else {
        f64::NAN
    };
    println!(
        "fig5b_snapshot/{snap_points}pt: replay {replay_s:.2}s, snapshot {snapshot_s:.2}s \
         ({snap_speedup:.2}x), bit-identical; {} of {} forked runs rejoined, \
         mean suffix fraction {suffix_fraction:.3}",
        stats.rejoined, stats.forked_runs
    );
    let snapshot_entry = SweepEntry::new(format!("fig5b_snapshot/{snap_points}pt"))
        .metric("points", snap_points as f64)
        .metric("images_per_point", images as f64)
        .metric("replay_s", replay_s)
        .metric("snapshot_s", snapshot_s)
        .metric("speedup", snap_speedup)
        .metric("forked_runs", stats.forked_runs as f64)
        .metric("rejoined", stats.rejoined as f64)
        .metric("suffix_fraction", suffix_fraction);
    report.push_history(&snapshot_entry);
    report.push(snapshot_entry);

    // --- fig5b slice: serial vs worker pool ------------------------------
    std::env::set_var(par::THREADS_ENV, "1");
    let mut serial_out = Vec::new();
    let serial_s =
        seconds(|| serial_out = fig5b_slice(&fpga, &profile, &q, &test, slice_points, images));
    std::env::remove_var(par::THREADS_ENV);
    let threads = par::thread_count();
    let mut parallel_out = Vec::new();
    let parallel_s =
        seconds(|| parallel_out = fig5b_slice(&fpga, &profile, &q, &test, slice_points, images));
    assert_eq!(
        serial_out, parallel_out,
        "1-thread and {threads}-thread campaigns must be bit-identical"
    );
    let speedup = serial_s / parallel_s;
    println!(
        "fig5b_slice/{slice_points}pt: serial {serial_s:.2}s, {threads}-thread {parallel_s:.2}s \
         ({speedup:.2}x), outcomes identical"
    );
    report.push(
        SweepEntry::new(format!("fig5b_slice/{slice_points}pt"))
            .metric("points", slice_points as f64)
            .metric("images_per_point", images as f64)
            .metric("serial_s", serial_s)
            .metric("parallel_s", parallel_s)
            .metric("parallel_threads", threads as f64)
            .metric("speedup", speedup),
    );

    // --- conv forward: naive loop nest vs im2col fast path ---------------
    let mut rng = StdRng::seed_from_u64(HARNESS_SEED);
    let mut conv = Conv2d::new("conv2", 6, 16, 5, &mut rng);
    let input = Tensor::from_vec(
        (0..6 * 14 * 14).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        &[6, 14, 14],
    );
    const CONV_ITERS: usize = 400;
    let naive_s = seconds(|| {
        for _ in 0..CONV_ITERS {
            std::hint::black_box(conv.forward_naive(std::hint::black_box(&input)));
        }
    });
    let fast_s = seconds(|| {
        for _ in 0..CONV_ITERS {
            std::hint::black_box(conv.forward(std::hint::black_box(&input)));
        }
    });
    let conv_speedup = naive_s / fast_s;
    println!(
        "conv_forward/6x14x14_k5x16: naive {:.1}us, im2col {:.1}us ({conv_speedup:.2}x)",
        naive_s / CONV_ITERS as f64 * 1e6,
        fast_s / CONV_ITERS as f64 * 1e6
    );
    report.push(
        SweepEntry::new("conv_forward/6x14x14_k5x16")
            .metric("naive_us", naive_s / CONV_ITERS as f64 * 1e6)
            .metric("fast_us", fast_s / CONV_ITERS as f64 * 1e6)
            .metric("speedup", conv_speedup),
    );

    // --- grid step: settled (early-exit) vs transient ---------------------
    const GRID_ITERS: usize = 20_000;
    let mut grid = SpatialPdn::zynq_like();
    let node = grid.node_at_fraction(0.2, 0.5);
    grid.inject(node, 1.0).expect("node on mesh");
    for _ in 0..5_000 {
        grid.step(1e-9);
    }
    let settled_s = seconds(|| {
        for _ in 0..GRID_ITERS {
            std::hint::black_box(grid.step(1e-9));
        }
    });
    // Re-excite the field every step so every sweep runs.
    let mut amps = 1.0;
    let transient_s = seconds(|| {
        for _ in 0..GRID_ITERS {
            amps = if amps > 1.5 { 1.0 } else { amps + 0.01 };
            grid.inject(node, amps).expect("node on mesh");
            std::hint::black_box(grid.step(1e-9));
        }
    });
    let grid_speedup = transient_s / settled_s;
    println!(
        "grid_step/160_nodes: transient {:.0}ns, settled {:.0}ns ({grid_speedup:.2}x early-exit)",
        transient_s / GRID_ITERS as f64 * 1e9,
        settled_s / GRID_ITERS as f64 * 1e9
    );
    report.push(
        SweepEntry::new("grid_step/160_nodes")
            .metric("transient_ns", transient_s / GRID_ITERS as f64 * 1e9)
            .metric("settled_ns", settled_s / GRID_ITERS as f64 * 1e9)
            .metric("early_exit_speedup", grid_speedup),
    );

    // --- cosim cycle: host time per victim cycle of an unarmed run --------
    const COSIM_ROUNDS: usize = 3;
    let cycles = fpga.schedule().total_cycles();
    let run_s = (0..COSIM_ROUNDS)
        .map(|_| {
            let mut unarmed = fpga.clone();
            seconds(|| {
                std::hint::black_box(unarmed.run_inference());
            })
        })
        .fold(f64::INFINITY, f64::min);
    let ns_per_cycle = run_s / cycles as f64 * 1e9;
    println!(
        "cosim_cycle/lenet: {ns_per_cycle:.0}ns per victim cycle \
         ({cycles} cycles, fastest of {COSIM_ROUNDS})"
    );
    report.push(
        SweepEntry::new("cosim_cycle/lenet")
            .metric("cycles", cycles as f64)
            .metric("ns_per_cycle", ns_per_cycle),
    );

    // --- score image: per-MAC oracle vs fault-sparse scoring --------------
    // The runs of the campaign benchmark's fig5b block: guided conv1,
    // conv2 and fc1 at its strike fractions, plus a 2000-strike blind spray.
    let mut score_runs: Vec<InferenceRun> = [("conv1", 0.125), ("conv2", 0.5), ("fc1", 0.75)]
        .iter()
        .map(|&(layer, fraction)| {
            let (_, len) = profile.window(layer).expect("profiled layer");
            let strikes = ((f64::from((len / 2).max(4) as u32) * fraction) as u32).max(1);
            let scheme = plan_attack(&profile, layer, strikes).expect("strikes fit the window");
            engine.run_guided(&scheme).expect("guided run")
        })
        .collect();
    score_runs.push(engine.run_blind(&plan_blind(fpga.schedule(), 2000)).expect("blind run"));
    let score_all = |evaluate: &dyn Fn(&InferenceRun) -> AttackOutcome| {
        let mut outcomes = Vec::new();
        let s = (0..SCORE_ROUNDS)
            .map(|_| seconds(|| outcomes = score_runs.iter().map(evaluate).collect()))
            .fold(f64::INFINITY, f64::min);
        (s, outcomes)
    };
    let (naive_s, naive_out) = score_all(&|run| {
        evaluate_attack_naive(
            &q,
            fpga.schedule(),
            run,
            test.iter().take(images),
            FaultModel::paper(),
            HARNESS_SEED,
        )
    });
    let (fast_s, fast_out) = score_all(&|run| {
        evaluate_attack(
            &q,
            fpga.schedule(),
            run,
            test.iter().take(images),
            FaultModel::paper(),
            HARNESS_SEED,
        )
    });
    assert_eq!(naive_out, fast_out, "fault-sparse scoring must equal the per-MAC oracle");
    let scored = (score_runs.len() * images) as f64;
    let (naive_us, fast_us) = (naive_s / scored * 1e6, fast_s / scored * 1e6);
    let score_speedup = naive_s / fast_s;
    println!(
        "score_image/lenet: per-MAC {naive_us:.0}us, fault-sparse {fast_us:.0}us per image \
         ({score_speedup:.2}x, {} runs x {images} images, fastest of {SCORE_ROUNDS}), identical",
        score_runs.len()
    );
    report.push(
        SweepEntry::new("score_image/lenet")
            .metric("runs", score_runs.len() as f64)
            .metric("images_per_run", images as f64)
            .metric("naive_us", naive_us)
            .metric("fast_us", fast_us)
            .metric("speedup", score_speedup),
    );

    let path = {
        let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.pop();
        p.pop();
        p.push("BENCH_sweep.json");
        p
    };
    report.load_history(&path);
    report.write_to(&path).expect("report is writable");
    println!("wrote {}", path.display());
}
