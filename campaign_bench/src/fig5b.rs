//! `fig5b`: fig5b's campaign points, guided ones forked off the snapshot
//! engine and blind ones replayed in full, each scored under the recorded
//! voltage trace. Points are scored on few enough images that
//! co-simulation and scoring each take a large share of a point.

use accel::fault::FaultModel;
use accel::schedule::AccelConfig;
use bench::HARNESS_SEED;
use deepstrike::attack::{
    clean_predictions, evaluate_attack, evaluate_attack_cached, plan_attack, plan_blind,
    profile_from_traces, AttackOutcome, VictimProfile,
};
use deepstrike::cosim::{CloudFpga, CosimConfig, InferenceRun};
use deepstrike::signal_ram::AttackScheme;
use deepstrike::snapshot::SnapshotEngine;
use dnn::digits::Dataset;
use dnn::lenet::STAGE_NAMES;
use dnn::quant::QuantizedNetwork;
use dnn::tensor::Tensor;

use crate::gen::{self, Strike, STRIKE_FRACTIONS};
use crate::spans::Tracer;
use crate::{host, timed_sweep, Workload};

/// fig5b's striker bank (≈ 15% of the device's slices).
const STRIKER_CELLS: usize = 8_000;

/// Cycles the platform idles before profiling, as in fig5b.
const SETTLE_CYCLES: u64 = 200;

/// Images per point (fig5b scores on 300): co-simulation and scoring
/// then each take a large share of a block.
const IMAGES: usize = 32;

/// The victim platform after settling, as fig5b builds it.
pub fn platform(q: &QuantizedNetwork) -> CloudFpga {
    let mut fpga =
        CloudFpga::new(q, &AccelConfig::default(), STRIKER_CELLS, CosimConfig::default())
            .expect("the LeNet platform assembles");
    fpga.settle(SETTLE_CYCLES);
    fpga
}

/// Everything a point needs, built before the first point.
struct Setup {
    q: QuantizedNetwork,
    test: Dataset,
    fpga: CloudFpga,
    engine: SnapshotEngine,
    profile: VictimProfile,
    images: Vec<usize>,
    clean: Vec<bool>,
}

impl Setup {
    /// fig5b's set-up: load the model, profile over two unarmed runs plus
    /// the engine's reference pass, capture the fork ladder, and compute
    /// the clean verdicts of the scoring images.
    fn new(tracer: &Tracer, images: Vec<usize>) -> Self {
        let (q, test) =
            tracer.span("bench.model_load", || (bench::trained_lenet().0, bench::test_set()));
        let mut fpga = platform(&q);
        let mut traces = tracer.span("cosim.profile", || {
            vec![fpga.run_inference().tdc_trace, fpga.run_inference().tdc_trace]
        });
        let engine = tracer
            .span("snapshot.capture", || SnapshotEngine::capture(&fpga))
            .expect("the reference pass captures");
        traces.push(engine.reference().tdc_trace.clone());
        let profile =
            profile_from_traces(&traces, &STAGE_NAMES).expect("profiling finds all five layers");
        let clean = tracer
            .span("attack.clean", || clean_predictions(&q, images.iter().map(|&i| test.sample(i))));
        Setup { q, test, fpga, engine, profile, images, clean }
    }

    fn samples(&self) -> impl Iterator<Item = (&Tensor, usize)> {
        self.images.iter().map(|&i| self.test.sample(i))
    }

    /// fig5b's strike count for `layer` at `STRIKE_FRACTIONS[fraction]`.
    fn strikes(&self, layer: usize, fraction: usize) -> u32 {
        let (_, window_len) = self.profile.window(STAGE_NAMES[layer]).expect("profiled layer");
        let max_strikes = (window_len / 2).max(4) as u32;
        ((f64::from(max_strikes) * STRIKE_FRACTIONS[fraction]) as u32).max(1)
    }

    fn plan(&self, strike: Strike) -> Option<AttackScheme> {
        match strike {
            Strike::Guided { layer, fraction } => {
                plan_attack(&self.profile, STAGE_NAMES[layer], self.strikes(layer, fraction)).ok()
            }
            Strike::Blind { strikes } => Some(plan_blind(self.fpga.schedule(), strikes)),
        }
    }

    /// One campaign point as fig5b runs it; `None` if planning or the run
    /// fails.
    fn point(&self, strike: Strike, tracer: &Tracer) -> Option<AttackOutcome> {
        let scheme = tracer.span("attack.plan", || self.plan(strike))?;
        let run = match strike {
            Strike::Guided { .. } => {
                tracer.span("snapshot.guided", || self.engine.run_guided(&scheme))
            }
            Strike::Blind { .. } => {
                tracer.span("snapshot.blind", || self.engine.run_blind(&scheme))
            }
        }
        .ok()?;
        let score = || {
            evaluate_attack_cached(
                &self.q,
                self.fpga.schedule(),
                &run,
                self.samples(),
                FaultModel::paper(),
                HARNESS_SEED,
                &self.clean,
            )
        };
        if !tracer.is_enabled() {
            return Some(score());
        }
        let faults_before = host::minor_faults();
        let outcome = tracer.span(score_span(strike), score);
        tracer.count("attack.score_minflt", (host::minor_faults() - faults_before) as f64);
        Some(outcome)
    }

    /// The naive path for the oracle: clone the profiled platform, load,
    /// arm (and force-start a blind scheme), replay in full.
    fn naive_run(&self, strike: Strike) -> Option<InferenceRun> {
        let scheme = self.plan(strike)?;
        let mut fpga = self.fpga.clone();
        fpga.scheduler_mut().load_scheme(&scheme).ok()?;
        fpga.scheduler_mut().arm(true).ok()?;
        if matches!(strike, Strike::Blind { .. }) {
            fpga.scheduler_mut().force_start();
        }
        Some(fpga.run_inference())
    }

    /// Re-runs `strike` the naive way and scores it uncached; both must
    /// match the timed point bit for bit. A guided point's fork must also
    /// reproduce the naive recording.
    fn oracle(&self, strike: Strike, timed: &AttackOutcome) -> bool {
        let Some(naive) = self.naive_run(strike) else { return false };
        if matches!(strike, Strike::Guided { .. }) {
            let scheme = self.plan(strike).expect("planned above");
            if self.engine.run_guided(&scheme).ok().as_ref() != Some(&naive) {
                return false;
            }
        }
        let uncached = evaluate_attack(
            &self.q,
            self.fpga.schedule(),
            &naive,
            self.samples(),
            FaultModel::paper(),
            HARNESS_SEED,
        );
        uncached == *timed
    }
}

/// Conv targets draw thousands of faults per image, the others a handful;
/// the blind spray covers every layer and counts as dense.
fn score_span(strike: Strike) -> &'static str {
    match strike {
        Strike::Guided { layer, .. } if !STAGE_NAMES[layer].starts_with("conv") => {
            "attack.score_sparse"
        }
        _ => "attack.score_dense",
    }
}

/// The `fig5b` workload.
pub struct Fig5b {
    block: Vec<Strike>,
    images: Vec<usize>,
    oracle_seed: u64,
    setup: Option<Setup>,
    /// Every timed point with its outcome (`None`: failed).
    timed: Vec<(Strike, Option<AttackOutcome>)>,
}

impl Fig5b {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        Fig5b {
            block: gen::fig5b_block(seed),
            images: gen::image_subset(seed, bench::TEST_SAMPLES, IMAGES),
            oracle_seed: seed,
            setup: None,
            timed: Vec::new(),
        }
    }

    fn setup_ref(&self) -> &Setup {
        self.setup.as_ref().expect("set up before the sweep")
    }
}

impl Workload for Fig5b {
    fn set_up(&mut self, tracer: &Tracer) {
        // Drop the previous set-up first: two alive at once would count
        // in the peak RSS.
        self.setup = None;
        self.setup = Some(Setup::new(tracer, self.images.clone()));
    }

    fn blocks(&self) -> usize {
        1
    }

    fn run_block(&mut self, _block: usize, first_id: u64, tracer: &Tracer) -> Vec<f64> {
        let strikes = &self.block;
        let setup = self.setup_ref();
        let before = setup.engine.stats();
        let indexed: Vec<(u64, Strike)> = (first_id..).zip(strikes.iter().copied()).collect();
        let (results, seconds) = tracer.span("supervisor.block", || {
            timed_sweep("campaign_bench_fig5b", &indexed, |&(id, strike)| {
                tracer.point(id, || setup.point(strike, tracer))
            })
        });
        if tracer.is_enabled() {
            let after = setup.engine.stats();
            let blind_runs = strikes.iter().filter(|s| matches!(s, Strike::Blind { .. })).count();
            let full_runs = after.full_replays - before.full_replays + blind_runs as u64;
            tracer.count("snapshot.forked_runs", (after.forked_runs - before.forked_runs) as f64);
            tracer.count("snapshot.rejoined", (after.rejoined - before.rejoined) as f64);
            tracer
                .count("snapshot.full_replays", (after.full_replays - before.full_replays) as f64);
            let suffix = after.suffix_cycles - before.suffix_cycles;
            tracer.count("snapshot.suffix_cycles", suffix as f64);
            let total = setup.engine.total_cycles();
            tracer.count("cosim.sim_cycles", (suffix + full_runs * total) as f64);
            for r in results.iter().flatten().flatten() {
                tracer.count("attack.faults_per_image", r.mean_faults_per_image);
                tracer.count("attack.images", setup.images.len() as f64);
            }
        }
        for (strike, result) in strikes.iter().zip(results) {
            self.timed.push((*strike, result.flatten()));
        }
        seconds
    }

    fn check(&mut self) -> u64 {
        let setup = self.setup_ref();
        let clean_acc =
            setup.clean.iter().filter(|&&ok| ok).count() as f64 / setup.clean.len() as f64;
        let mut bad: Vec<bool> = self
            .timed
            .iter()
            .map(|(_, outcome)| match outcome {
                Some(o) => o.clean_accuracy != clean_acc || o.strikes_fired == 0,
                None => true,
            })
            .collect();
        for (i, _) in bad.iter().enumerate().filter(|(_, &b)| b) {
            eprintln!("point {i} ({:?}) failed or fails its checks", self.timed[i].0);
        }
        // The oracle re-runs one sampled guided point and one sampled
        // blind point.
        let mut rng = gen::SplitMix::new(self.oracle_seed, 4);
        for want_blind in [false, true] {
            let candidates: Vec<usize> = (0..self.timed.len())
                .filter(|&i| matches!(self.timed[i].0, Strike::Blind { .. }) == want_blind)
                .filter(|&i| !bad[i])
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let i = candidates[rng.below(candidates.len())];
            let (strike, outcome) = &self.timed[i];
            let outcome = outcome.as_ref().expect("filtered to completed points");
            if !setup.oracle(*strike, outcome) {
                eprintln!("oracle mismatch on point {i} ({strike:?})");
                bad[i] = true;
            }
        }
        bad.iter().filter(|&&b| b).count() as u64
    }
}
