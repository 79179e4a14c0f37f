//! `remote_lenet`: the UART-guided campaign (`RemoteCampaign`) against the
//! LeNet victim over seeded lossy links.
//!
//! Every point builds a fresh platform and link and runs profile → plan →
//! upload → arm → strike → evaluate through the reliable transport,
//! resuming after each outage. The link settings are `remote_campaign`'s;
//! the victim inferences are shared through one `RunMemo`, so once warm a
//! point's cost is mostly the shell pump and the client transport
//! streaming up to ~200k TDC samples, then scoring two images.

use std::sync::Arc;
use std::time::Instant;

use accel::fault::FaultModel;
use bench::supervisor::SliceCodec;
use bench::HARNESS_SEED;
use ckpt::wire;
use deepstrike::attack::{
    evaluate_attack, plan_attack, plan_blind_cycles, profile_from_traces, AttackOutcome,
};
use deepstrike::remote::{CampaignHost, GuidanceLevel, RemoteCampaign, RemoteConfig, SimHost};
use deepstrike::signal_ram::AttackScheme;
use deepstrike::snapshot::RunMemo;
use deepstrike::DeepStrikeError;
use dnn::lenet::STAGE_NAMES;
use dnn::quant::QuantizedNetwork;
use dnn::tensor::Tensor;
use uart::link::{Endpoint, FaultConfig};
use uart::transport::{TransportClient, TransportConfig, TransportShell};

use crate::fig5b::platform;
use crate::gen::{self, LinkPoint};
use crate::spans::Tracer;
use crate::{timed_sweep, Workload};

/// Layer the remote attacker targets, and its strike budget.
const TARGET: &str = "conv2";
const STRIKES: u32 = 500;

/// Images each campaign is scored on: few, so the link dominates.
const EVAL_IMAGES: usize = 2;

/// Interrupt budget before a campaign counts as not converged
/// (`remote_campaign`'s).
const MAX_RESUMES: u32 = 200;

/// `remote_campaign`'s channel: the combined rate split evenly between
/// bursty loss and corruption, jitter, and one disconnect window.
fn channel(point: LinkPoint) -> (Endpoint, Endpoint) {
    let fault = FaultConfig {
        loss: point.rate / 2.0,
        corrupt: point.rate / 2.0,
        burst_len: 16.0,
        max_jitter: 2,
        disconnects: vec![(40, 30)],
    };
    Endpoint::faulty_pair(fault, point.link_seed)
}

/// `remote_campaign`'s transport tunables.
fn transport() -> TransportConfig {
    TransportConfig { pump_budget: 30, max_retries: 12, backoff_cap: 480, chunk_len: 12 }
}

/// Guidance levels in the order of their codes in [`Row`]'s encoding.
const GUIDANCE: [GuidanceLevel; 3] =
    [GuidanceLevel::Fresh, GuidanceLevel::Checkpoint, GuidanceLevel::Blind];

/// Times the host-side calls of a campaign and counts its inferences.
struct TimedHost<'a> {
    inner: SimHost,
    tracer: &'a Tracer,
    inferences: u32,
    /// Shell pumps: first call, calls and summed ns. A campaign pumps
    /// ~10^5 times at ~100 ns each, too often for a span per call.
    pumps: Option<(Instant, u64, u64)>,
}

impl CampaignHost for TimedHost<'_> {
    fn pump(&mut self) {
        if !self.tracer.is_enabled() {
            return self.inner.pump();
        }
        let start = Instant::now();
        self.inner.pump();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let (_, calls, busy) = self.pumps.get_or_insert((start, 0, 0));
        *calls += 1;
        *busy += ns;
    }

    fn victim_inference(&mut self) {
        self.inferences += 1;
        self.tracer.span("remote.inference", || self.inner.victim_inference());
    }

    fn evaluate(&mut self, seed: u64) -> deepstrike::Result<AttackOutcome> {
        self.tracer.span("remote.evaluate", || self.inner.evaluate(seed))
    }
}

/// What one campaign did; `result` is `None` if it did not converge.
#[derive(Clone, Debug, PartialEq)]
struct Row {
    resumes: u32,
    link_errors: u32,
    /// Victim inferences the host ran, the strike run included.
    inferences: u32,
    completed_traces: u64,
    exchanges: u64,
    retransmissions: u64,
    gave_up: u64,
    replayed: u64,
    corrupt_frames: u64,
    link_ticks: u64,
    result: Option<(GuidanceLevel, AttackScheme, AttackOutcome)>,
}

/// The supervisor's checkpoint codec. The benchmark runs with checkpoints
/// off, but `supervised_sweep` takes only results it could checkpoint.
impl SliceCodec for Row {
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u32(out, self.resumes);
        wire::put_u32(out, self.link_errors);
        wire::put_u32(out, self.inferences);
        for v in [
            self.completed_traces,
            self.exchanges,
            self.retransmissions,
            self.gave_up,
            self.replayed,
            self.corrupt_frames,
            self.link_ticks,
        ] {
            wire::put_u64(out, v);
        }
        wire::put_bool(out, self.result.is_some());
        if let Some((guidance, s, o)) = &self.result {
            let code = GUIDANCE.iter().position(|g| g == guidance).expect("a known level");
            wire::put_u8(out, code as u8);
            for v in [s.delay_cycles, s.strikes, s.strike_cycles, s.gap_cycles] {
                wire::put_u32(out, v);
            }
            o.encode(out);
        }
    }

    fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
        let resumes = r.take_u32()?;
        let link_errors = r.take_u32()?;
        let inferences = r.take_u32()?;
        let mut counts = [0u64; 7];
        for c in &mut counts {
            *c = r.take_u64()?;
        }
        let result = if r.take_bool()? {
            let guidance = *GUIDANCE.get(usize::from(r.take_u8()?))?;
            let scheme = AttackScheme {
                delay_cycles: r.take_u32()?,
                strikes: r.take_u32()?,
                strike_cycles: r.take_u32()?,
                gap_cycles: r.take_u32()?,
            };
            Some((guidance, scheme, AttackOutcome::decode(r)?))
        } else {
            None
        };
        let [completed_traces, exchanges, retransmissions, gave_up, replayed, corrupt_frames, link_ticks] =
            counts;
        Some(Row {
            resumes,
            link_errors,
            inferences,
            completed_traces,
            exchanges,
            retransmissions,
            gave_up,
            replayed,
            corrupt_frames,
            link_ticks,
            result,
        })
    }
}

/// The model, scoring images and shared run memo of the sweep.
struct Setup {
    q: QuantizedNetwork,
    images: Vec<(Tensor, usize)>,
    memo: Arc<RunMemo>,
    config: RemoteConfig,
}

impl Setup {
    /// Loads the model and runs the local reference campaign through a
    /// fresh memo, which primes it with the profiling and strike runs.
    fn new(tracer: &Tracer, image_indices: &[usize]) -> Self {
        let (q, test) =
            tracer.span("bench.model_load", || (bench::trained_lenet().0, bench::test_set()));
        let images = image_indices
            .iter()
            .map(|&i| {
                let (x, y) = test.sample(i);
                (x.clone(), y)
            })
            .collect();
        let mut config = RemoteConfig::new(&STAGE_NAMES, TARGET, STRIKES);
        config.eval_seed = HARNESS_SEED;
        let mut setup = Setup { q, images, memo: Arc::new(RunMemo::new()), config };
        setup.config.blind_spray_cycles = platform(&setup.q).schedule().total_cycles();
        let fresh = tracer.span("cosim.profile", || {
            setup.local_driver(GuidanceLevel::Fresh, 0, setup.config.profile_runs as u32)
        });
        assert!(fresh.is_some(), "the local reference campaign plans and scores");
        setup
    }

    /// The direct-drive campaign at `guidance`: a fresh platform runs the
    /// same `prior` unarmed inferences the remote host ran before its
    /// strike, plans from their traces (or blind), then strikes and
    /// scores.
    fn local_driver(
        &self,
        guidance: GuidanceLevel,
        completed_traces: usize,
        prior: u32,
    ) -> Option<(AttackScheme, AttackOutcome)> {
        let mut fpga = platform(&self.q);
        let traces: Vec<Vec<u8>> =
            (0..prior).map(|_| self.memo.run_inference(&mut fpga).tdc_trace).collect();
        let names: Vec<&str> = self.config.layer_names.iter().map(String::as_str).collect();
        let scheme = match guidance {
            GuidanceLevel::Blind => {
                plan_blind_cycles(self.config.blind_spray_cycles, self.config.strikes)
            }
            level => {
                let used = match level {
                    GuidanceLevel::Fresh => self.config.profile_runs,
                    _ => completed_traces,
                };
                let profile = profile_from_traces(traces.get(..used)?, &names).ok()?;
                plan_attack(&profile, &self.config.target, self.config.strikes).ok()?
            }
        };
        fpga.scheduler_mut().load_scheme(&scheme).ok()?;
        fpga.scheduler_mut().arm(true).ok()?;
        let run = self.memo.run_inference(&mut fpga);
        let outcome = evaluate_attack(
            &self.q,
            fpga.schedule(),
            &run,
            self.images.iter().map(|(x, y)| (x, *y)),
            FaultModel::paper(),
            self.config.eval_seed,
        );
        Some((scheme, outcome))
    }

    /// One remote campaign, resumed after every interrupt.
    fn point(&self, point: LinkPoint, tracer: &Tracer) -> Row {
        let fpga = tracer.span("remote.platform", || platform(&self.q));
        let (a, b) = channel(point);
        let mut link = TransportClient::with_config(a, transport());
        let inner = SimHost::new(
            fpga,
            TransportShell::new(b),
            self.q.clone(),
            self.images.clone(),
            FaultModel::paper(),
        )
        .with_run_memo(Arc::clone(&self.memo));
        let mut host = TimedHost { inner, tracer, inferences: 0, pumps: None };
        let mut campaign = RemoteCampaign::new(self.config.clone());
        let (mut resumes, mut link_errors) = (0u32, 0u32);
        let outcome = tracer.span("remote.run", || {
            let outcome = loop {
                match campaign.run(&mut link, &mut host) {
                    Ok(o) => break Some(o),
                    Err(_) if resumes + link_errors >= MAX_RESUMES => break None,
                    Err(DeepStrikeError::Interrupted { .. }) => resumes += 1,
                    // A corrupted frame that still passes the frame CRC
                    // makes the shell answer a protocol error. The error
                    // is typed and the checkpoint intact, so the client
                    // retries it like an outage; the oracle still checks
                    // the result.
                    Err(DeepStrikeError::Link(_)) => link_errors += 1,
                    Err(_) => break None,
                }
            };
            if let Some((first, calls, busy_ns)) = host.pumps.take() {
                tracer.leaf("remote.pump", first, calls, busy_ns);
            }
            outcome
        });
        let stats = link.stats();
        Row {
            resumes,
            link_errors,
            inferences: host.inferences,
            completed_traces: campaign.checkpoint().completed_traces as u64,
            exchanges: stats.exchanges,
            retransmissions: stats.retransmissions,
            gave_up: stats.gave_up,
            replayed: host.inner.shell().replayed(),
            corrupt_frames: host.inner.shell().corrupt_frames(),
            link_ticks: link.endpoint_mut().now(),
            result: outcome.map(|o| (o.guidance, o.scheme, o.outcome)),
        }
    }
}

/// The `remote_lenet` workload.
pub struct Remote {
    blocks: Vec<Vec<LinkPoint>>,
    images: Vec<usize>,
    setup: Option<Setup>,
    timed: Vec<Option<Row>>,
}

impl Remote {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        Remote {
            blocks: gen::remote_blocks(seed),
            images: gen::image_subset(seed, bench::TEST_SAMPLES, EVAL_IMAGES),
            setup: None,
            timed: Vec::new(),
        }
    }

    fn setup_ref(&self) -> &Setup {
        self.setup.as_ref().expect("set up before the sweep")
    }
}

impl Workload for Remote {
    fn set_up(&mut self, tracer: &Tracer) {
        // Drop the previous set-up first: two alive at once would count
        // in the peak RSS.
        self.setup = None;
        self.setup = Some(Setup::new(tracer, &self.images));
    }

    fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Runs every campaign once, untimed: this fills the shared memo with
    /// each victim inference the campaigns reach (a few co-simulated LeNet
    /// runs, ~1.6 s each), so the timed sweep measures the link and not the
    /// first-touch simulations, which `fig5b` measures.
    fn warm_up(&mut self) {
        let setup = self.setup_ref();
        let quiet = Tracer::default();
        for point in self.blocks.iter().flatten() {
            setup.point(*point, &quiet);
        }
    }

    fn run_block(&mut self, block: usize, first_id: u64, tracer: &Tracer) -> Vec<f64> {
        let points = &self.blocks[block];
        let setup = self.setup_ref();
        let (hits, misses) = (setup.memo.hits(), setup.memo.misses());
        let indexed: Vec<(u64, LinkPoint)> = (first_id..).zip(points.iter().copied()).collect();
        let (rows, seconds) = tracer.span("supervisor.block", || {
            timed_sweep("campaign_bench_remote", &indexed, |&(id, point)| {
                tracer.point(id, || setup.point(point, tracer))
            })
        });
        if tracer.is_enabled() {
            tracer.count("snapshot.memo_hits", (setup.memo.hits() - hits) as f64);
            let new_misses = setup.memo.misses() - misses;
            tracer.count("snapshot.memo_misses", new_misses as f64);
            // A miss simulates one whole inference.
            let cycles = new_misses * setup.config.blind_spray_cycles;
            tracer.count("cosim.sim_cycles", cycles as f64);
            for row in rows.iter().flatten() {
                tracer.count("uart.exchanges", row.exchanges as f64);
                tracer.count("uart.retransmissions", row.retransmissions as f64);
                tracer.count("uart.gave_up", row.gave_up as f64);
                tracer.count("uart.replayed", row.replayed as f64);
                tracer.count("uart.corrupt_frames", row.corrupt_frames as f64);
                tracer.count("uart.link_ticks", row.link_ticks as f64);
                tracer.count("remote.resumes", f64::from(row.resumes));
                tracer.count("remote.link_errors", f64::from(row.link_errors));
                let level = row.result.as_ref().map(|r| r.0);
                for (name, guidance) in
                    ["remote.fresh", "remote.checkpoint", "remote.blind"].into_iter().zip(GUIDANCE)
                {
                    tracer.count(name, f64::from(u8::from(level == Some(guidance))));
                }
            }
        }
        self.timed.extend(rows);
        seconds
    }

    fn check(&mut self) -> u64 {
        let setup = self.setup_ref();
        // The local result depends only on the guidance level, the traces
        // it planned from and the inferences before the strike.
        let mut local = std::collections::BTreeMap::new();
        let mut failed = 0;
        for (i, row) in self.timed.iter().enumerate() {
            let ok = row.as_ref().is_some_and(|row| {
                let Some((level, scheme, outcome)) = &row.result else { return false };
                let key = (*level, row.completed_traces, row.inferences);
                let expected = local.entry(key).or_insert_with(|| {
                    let prior = row.inferences.saturating_sub(1);
                    setup.local_driver(*level, row.completed_traces as usize, prior)
                });
                *expected == Some((*scheme, *outcome))
            });
            if !ok {
                eprintln!("remote point {i} failed or differs from the local driver: {row:?}");
                failed += 1;
            }
        }
        failed
    }
}
