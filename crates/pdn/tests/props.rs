//! Property-based tests for the PDN models.

use pdn::analysis::{droop_stats, glitch_windows};
use pdn::delay::DelayModel;
use pdn::grid::{GridParams, NodeId, Probe, SpatialPdn};
use pdn::rlc::{LumpedPdn, RlcParams};
use pdn::thermal::{ThermalModel, ThermalParams};
use pdn::trace::Trace;
use proptest::prelude::*;

/// Textbook sequential Gauss–Seidel mesh: the lumped backbone plus
/// `sweeps` full row-major sweeps of `δ` per step, stencil denominators
/// recomputed per node — the oracle for [`SpatialPdn::step_cycle`].
struct SequentialMesh {
    lumped: LumpedPdn,
    params: GridParams,
    delta: Vec<f64>,
    loads: Vec<f64>,
}

impl SequentialMesh {
    fn new(params: GridParams) -> Self {
        let n = params.nx * params.ny;
        SequentialMesh {
            lumped: LumpedPdn::zynq_like(),
            params,
            delta: vec![0.0; n],
            loads: vec![0.0; n],
        }
    }

    fn step(&mut self, dt: f64) {
        let GridParams { nx, ny, g_supply, g_mesh: gm, sweeps } = self.params;
        self.lumped.step(self.loads.iter().sum(), dt);
        for _ in 0..sweeps {
            for y in 0..ny {
                for x in 0..nx {
                    let i = y * nx + x;
                    let (mut g_sum, mut flow) = (g_supply, 0.0);
                    for (present, j) in [
                        (x > 0, i.wrapping_sub(1)),
                        (x + 1 < nx, i + 1),
                        (y > 0, i.wrapping_sub(nx)),
                        (y + 1 < ny, i + nx),
                    ] {
                        if present {
                            g_sum += gm;
                            flow += gm * self.delta[j];
                        }
                    }
                    self.delta[i] = (flow - self.loads[i]) / g_sum;
                }
            }
        }
    }
}

/// Maps a selector in `0..3` to the first, middle or last index of `len`.
fn edge_or_middle(sel: usize, len: usize) -> usize {
    [0, len / 2, len - 1][sel]
}

proptest! {
    /// The cycle kernel is bit-identical to `substeps` sequential steps,
    /// per substep at its probes and in the whole state after each cycle,
    /// on 1-wide, 1-tall, 2×2, default and random meshes, through load
    /// changes and a long constant-load stretch that reaches the
    /// early-exit fixed point (small `g_mesh` converges in a few hundred
    /// sweeps).
    #[test]
    fn cycle_kernel_matches_sequential_gauss_seidel(
        shape in (0usize..5, 1usize..=9, 1usize..=9),
        sweeps in 1usize..=8,
        substeps in 1usize..=12,
        g_mesh in 1.0f64..150.0,
        probe_sel in (0usize..3, 0usize..3, 0usize..3, 0usize..3),
        segments in prop::collection::vec((0usize..3, 0usize..3, 0.0f64..4.0, 1usize..20), 1..5),
        idle_cycles in 0usize..300,
    ) {
        let (nx, ny) = match shape.0 {
            0 => (1, shape.2),
            1 => (shape.1, 1),
            2 => (2, 2),
            3 => (16, 10),
            _ => (shape.1, shape.2),
        };
        let params = GridParams { nx, ny, g_mesh, sweeps, ..GridParams::default() };
        let mut kernel = SpatialPdn::new(LumpedPdn::zynq_like(), params).unwrap();
        let mut oracle = SequentialMesh::new(params);
        let node = |(sx, sy): (usize, usize)| {
            NodeId { x: edge_or_middle(sx, nx), y: edge_or_middle(sy, ny) }
        };
        let probe_nodes = [(probe_sel.0, probe_sel.1), (probe_sel.2, probe_sel.3)].map(node);
        let probes = probe_nodes.map(|p| kernel.probe(p).unwrap());
        let every_node: Vec<Probe> =
            (0..nx * ny).map(|i| kernel.probe(NodeId { x: i % nx, y: i / nx }).unwrap()).collect();
        let mut volts = Vec::new();
        let load_changes = segments
            .iter()
            .map(|&(sx, sy, amps, cycles)| (Some((node((sx, sy)), amps)), cycles))
            .chain([(None, idle_cycles)]);
        for (segment, (load, cycles)) in load_changes.enumerate() {
            if let Some((at, amps)) = load {
                kernel.inject(at, amps).unwrap();
                oracle.loads[at.y * nx + at.x] = amps;
            }
            for _ in 0..cycles {
                volts.clear();
                kernel.step_cycle(1e-9, substeps, probes, |s, v| {
                    assert_eq!(s, volts.len(), "substeps arrive in order");
                    volts.push(v);
                });
                for (s, got) in volts.iter().enumerate() {
                    oracle.step(1e-9);
                    for (j, p) in probe_nodes.iter().enumerate() {
                        let want = oracle.lumped.voltage() + oracle.delta[p.y * nx + p.x];
                        prop_assert_eq!(
                            got[j].to_bits(),
                            want.to_bits(),
                            "segment {} substep {} probe {}",
                            segment,
                            s,
                            j
                        );
                    }
                }
                prop_assert_eq!(
                    kernel.lumped().voltage().to_bits(),
                    oracle.lumped.voltage().to_bits()
                );
                prop_assert_eq!(
                    kernel.lumped().inductor_current().to_bits(),
                    oracle.lumped.inductor_current().to_bits()
                );
                for (i, &p) in every_node.iter().enumerate() {
                    let (got, want) = (kernel.deviation(p), oracle.delta[i]);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "node {}", i);
                }
            }
        }
    }

    /// The settled operating point is exactly Vdd − I·R for any load.
    #[test]
    fn settle_is_ir_drop(i_load in 0.0f64..5.0, r in 0.005f64..0.2) {
        let mut pdn = LumpedPdn::new(RlcParams { vdd: 1.0, r, l: 100e-12, c: 200e-9 }).unwrap();
        let v = pdn.settle(i_load);
        prop_assert!((v - (1.0 - i_load * r)).abs() < 1e-6);
    }

    /// Deeper current steps always droop at least as deep (transient
    /// monotonicity).
    #[test]
    fn droop_monotone_in_step(base in 0.0f64..1.0, d1 in 0.5f64..4.0, extra in 0.5f64..4.0) {
        let run = |delta: f64| {
            let mut pdn = LumpedPdn::zynq_like();
            pdn.settle(base);
            let mut worst = pdn.voltage();
            for _ in 0..20 {
                worst = worst.min(pdn.step(base + delta, 1e-9));
            }
            worst
        };
        prop_assert!(run(d1 + extra) <= run(d1) + 1e-9);
    }

    /// Mesh voltages always sit at or below the die rail when loads draw,
    /// and the loaded node is the (weakly) deepest of any pair.
    #[test]
    fn mesh_local_droop_is_deepest_at_the_load(amps in 0.1f64..6.0, fx in 0.0f64..1.0, fy in 0.0f64..1.0) {
        let mut g = SpatialPdn::new(LumpedPdn::zynq_like(), GridParams::default()).unwrap();
        let node = g.node_at_fraction(fx, fy);
        g.inject(node, amps).unwrap();
        for _ in 0..200 {
            g.step(1e-9);
        }
        let v_load = g.voltage_at(node).unwrap();
        for x in 0..g.params().nx {
            for y in 0..g.params().ny {
                let v = g.voltage_at(NodeId { x, y }).unwrap();
                prop_assert!(v_load <= v + 1e-9, "loaded node must be deepest");
                prop_assert!(v <= g.lumped().voltage() + 1e-9);
            }
        }
    }

    /// The delay factor inverse (fault_threshold_voltage) is consistent
    /// with the forward law for any feasible path/budget pair.
    #[test]
    fn delay_threshold_inverse(nominal in 500.0f64..9_000.0, slack_frac in 1.05f64..3.0) {
        let m = DelayModel::default();
        let budget = nominal * slack_frac;
        let v = m.fault_threshold_voltage(nominal, budget);
        if v > m.v_th + 1e-6 && v < m.v_nom - 1e-6 {
            prop_assert!((m.delay_ps(nominal, v) - budget).abs() < budget * 1e-6);
        }
    }

    /// Thermal equilibrium equals ambient + P·R exactly for any dt split.
    #[test]
    fn thermal_equilibrium_exact(power in 0.0f64..10.0, steps in 1usize..50) {
        let mut t = ThermalModel::new(ThermalParams::default()).unwrap();
        for _ in 0..steps {
            t.step(power, 1e4 / steps as f64);
        }
        let expect = 25.0 + power * 5.0;
        prop_assert!((t.junction_temp() - expect).abs() < 1e-3);
    }

    /// Glitch windows partition exactly the below-threshold samples.
    #[test]
    fn glitch_windows_cover_exactly(samples in prop::collection::vec(0.5f64..1.1, 1..300), thr in 0.7f64..1.0) {
        let trace = Trace::from_samples(1e-9, samples.clone()).unwrap();
        let windows = glitch_windows(&trace, thr);
        let mut covered = vec![false; samples.len()];
        for w in &windows {
            prop_assert!(w.start < w.end);
            for c in covered.iter_mut().take(w.end).skip(w.start) {
                prop_assert!(!*c, "windows must not overlap");
                *c = true;
            }
        }
        for (i, &s) in samples.iter().enumerate() {
            prop_assert_eq!(covered[i], s < thr, "sample {} miscovered", i);
        }
    }

    /// Droop stats: worst index really is the minimum sample.
    #[test]
    fn droop_stats_worst_is_min(samples in prop::collection::vec(0.5f64..1.1, 1..200)) {
        let trace = Trace::from_samples(1e-9, samples.clone()).unwrap();
        let stats = droop_stats(&trace, 1.0, 0.05).unwrap();
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!((stats.v_nom - stats.worst_droop - min).abs() < 1e-9
            || stats.worst_droop == 0.0);
        prop_assert!((samples[stats.worst_index] - min).abs() < 1e-12);
    }

    /// Decimation never changes the value set it samples from.
    #[test]
    fn decimation_subsets(samples in prop::collection::vec(-5.0f64..5.0, 1..100), factor in 1usize..10) {
        let trace = Trace::from_samples(1e-9, samples.clone()).unwrap();
        let d = trace.decimate(factor).unwrap();
        for (k, &v) in d.samples().iter().enumerate() {
            prop_assert_eq!(v, samples[k * factor]);
        }
    }
}
