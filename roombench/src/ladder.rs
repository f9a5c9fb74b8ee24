//! The layer ladder of the traced pass: each layer's public entry
//! points timed from outside, on inputs taken from the workload's own
//! jobs, with a span around every timed call.

use std::hint::black_box;
use std::time::Instant;

use control::sweep::WarmConfig;
use llama_core::fleet::{Fleet, FleetEvaluator, Scheduler};
use llama_core::panels::{Assignment, CoupledEvaluator, JointConfig, PanelArray, PanelScheduler};
use llama_core::sim::{DynamicFleet, MobilitySim, SimConfig, SimReport};
use llama_core::telemetry::RecorderHandle;
use metasurface::{BiasState, PlanCache, SharedPlanCache, StackEvaluator};
use propagation::{CouplingConfig, PreparedLink};
use rfmath::units::Meters;

use crate::stats::{median, quartiles};
use crate::trace::Spans;
use crate::workload::Inputs;
use crate::Metrics;

/// Axis points of the probe grid (24 × 24 = 576 biases over 0–30 V, the
/// grid of the repository's committed SoA measurement).
const GRID: usize = 24;

/// One ladder input: a job's fleet and array, and the same job as a
/// mobility run.
pub struct LadderInput {
    /// The job's devices (a room's t = 0 snapshot).
    pub fleet: Fleet,
    /// The job's panel array.
    pub array: PanelArray,
    /// The job as a moving world (static for `fleet-cold`).
    pub world: DynamicFleet,
    /// Simulator configuration.
    pub config: SimConfig,
    /// Ticks of one run.
    pub ticks: usize,
}

impl LadderInput {
    /// A mobility run of this input, with `recorder` attached.
    pub fn simulate(&self, recorder: &RecorderHandle, ticks: usize) -> SimReport {
        MobilitySim::new(PanelScheduler::max_min(), self.config)
            .with_recorder(recorder.clone())
            .run(&mut self.world.clone(), &self.array, ticks)
    }
}

/// The first `n` jobs of a batch as ladder inputs.
pub fn inputs(batch: &Inputs, n: usize) -> Vec<LadderInput> {
    match batch {
        Inputs::Rooms(rooms) => rooms
            .iter()
            .take(n)
            .map(|r| LadderInput {
                fleet: r.fleet.fleet().clone(),
                array: r.array.clone(),
                world: r.fleet.clone(),
                config: r.config,
                ticks: r.ticks,
            })
            .collect(),
        Inputs::Fleets { jobs, .. } => jobs
            .iter()
            .take(n)
            .map(|(fleet, array)| LadderInput {
                fleet: fleet.clone(),
                array: array.clone(),
                world: DynamicFleet::new(fleet.clone()),
                config: SimConfig::default(),
                ticks: 12,
            })
            .collect(),
    }
}

/// Times `f` inside a span; returns its result and nanoseconds.
fn timed<R>(spans: &Spans, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> (R, f64) {
    let id = spans.open(name, Some(parent), None);
    let t = Instant::now();
    let out = black_box(f());
    let ns = t.elapsed().as_nanos() as f64;
    spans.close(id);
    (out, ns)
}

fn grid() -> Vec<BiasState> {
    (0..GRID * GRID)
        .map(|i| {
            BiasState::new(
                30.0 * (i % GRID) as f64 / (GRID - 1) as f64,
                30.0 * (i / GRID) as f64 / (GRID - 1) as f64,
            )
        })
        .collect()
}

/// A shared plan store for `input`'s design with every carrier compiled,
/// and a cache set over it as the panel scheduler takes it.
fn warm_caches(fleet: &Fleet) -> [(&'static str, PlanCache); 1] {
    let store = std::sync::Arc::new(SharedPlanCache::new(&fleet.design.stack));
    let handle = store.handle();
    for device in fleet.devices() {
        handle.plan(device.scenario.frequency);
    }
    [(fleet.design.name, store.handle())]
}

/// Runs every rung on `inputs` and stores the per-layer metrics.
pub fn run(inputs: &[LadderInput], spans: &Spans, parent: usize, m: &mut Metrics) {
    let biases = grid();
    let carrier = inputs[0].fleet.devices()[0].scenario.frequency;
    let stack = &inputs[0].fleet.design.stack;

    // metasurface: plan compile, first call per carrier on a fresh cache.
    let mut compile = Vec::new();
    for _ in 0..8 {
        for input in inputs {
            let cache = PlanCache::new(&input.fleet.design.stack);
            let f = input.fleet.devices()[0].scenario.frequency;
            compile.push(timed(spans, "metasurface.plan", parent, || cache.plan(f)).1);
        }
    }
    m.insert("metasurface.plan_compile_ms", median(&compile) * 1e-6);

    // metasurface: SoA batch kernel against the per-cell reference,
    // interleaved pairs on one warm plan, alternating which runs first.
    let plan = StackEvaluator::new(stack, carrier);
    plan.eval_batch(&biases);
    plan.eval_batch_reference(&biases);
    let (mut soa, mut ratio) = (Vec::new(), Vec::new());
    for i in 0..101 {
        let run_soa = || {
            timed(spans, "metasurface.eval_batch", parent, || {
                plan.eval_batch(&biases)
            })
            .1
        };
        let run_ref = || {
            timed(spans, "metasurface.eval_batch_reference", parent, || {
                plan.eval_batch_reference(&biases)
            })
            .1
        };
        let (s, r) = if i % 2 == 0 {
            let s = run_soa();
            (s, run_ref())
        } else {
            let r = run_ref();
            (run_soa(), r)
        };
        soa.push(s);
        ratio.push(r / s);
    }
    let (q1, med, q3) = quartiles(&ratio);
    m.insert(
        "metasurface.eval_batch_ns_per_bias",
        median(&soa) / biases.len() as f64,
    );
    m.insert("metasurface.soa_speedup", med);
    m.insert("metasurface.soa_speedup_q1", q1);
    m.insert("metasurface.soa_speedup_q3", q3);

    // propagation: link preparation, genuine-move rebinds, and probes.
    let (mut prepare, mut rebind, mut probe) = (Vec::new(), Vec::new(), Vec::new());
    let probe_biases = &biases[..16];
    let mut scratch = Vec::new();
    for input in inputs {
        let cache = PlanCache::new(&input.fleet.design.stack);
        let mut links = Vec::new();
        for device in input.fleet.devices() {
            let link = device.scenario.link();
            let mut moved = link.clone();
            let d = moved.deployment.tx_rx_distance().0;
            moved.deployment = moved.deployment.with_endpoint_separation(Meters(d * 1.05));
            let (mut prepared, ns) = timed(spans, "propagation.prepare", parent, || {
                PreparedLink::new(link.clone())
            });
            prepare.push(ns);
            let swaps: Vec<_> = (0..16)
                .map(|i| {
                    if i % 2 == 0 {
                        moved.clone()
                    } else {
                        link.clone()
                    }
                })
                .collect();
            let (_, ns) = timed(spans, "propagation.rebind", parent, || {
                for l in swaps {
                    prepared.rebind_in_place(l);
                }
            });
            rebind.push(ns / 16.0);
            let plan = cache.plan(device.scenario.frequency);
            links.push((prepared, plan));
        }
        let responses: Vec<Vec<_>> = links
            .iter()
            .map(|(_, plan)| {
                probe_biases
                    .iter()
                    .map(|&b| plan.surface_response(b))
                    .collect()
            })
            .collect();
        let (_, ns) = timed(spans, "propagation.probe", parent, || {
            let mut acc = 0.0;
            for (k, _) in probe_biases.iter().enumerate() {
                for ((link, _), resp) in links.iter().zip(&responses) {
                    acc += link.received_dbm_scratch(Some(&resp[k]), &mut scratch).0;
                }
            }
            acc
        });
        probe.push(ns / (probe_biases.len() * links.len()) as f64);
    }
    m.insert("propagation.link_prepare_us", median(&prepare) * 1e-3);
    m.insert("propagation.rebind_ns", median(&rebind));
    m.insert("propagation.probe_ns", median(&probe));

    // propagation::coupling through the panel layer's coupled evaluator.
    let mut coupled = Vec::new();
    for input in inputs {
        let assignment = input.array.assign(&input.fleet, &Assignment::ByOrientation);
        let mut eval = CoupledEvaluator::new(
            &input.fleet,
            &input.array,
            &assignment,
            CouplingConfig::indoor_default(),
        );
        for k in 0..16 {
            let per_panel: Vec<BiasState> = (0..input.array.len())
                .map(|p| biases[(k * 37 + p * 101) % biases.len()])
                .collect();
            coupled.push(
                timed(spans, "propagation.coupled_eval", parent, || {
                    eval.powers_dbm(&per_panel)
                })
                .1,
            );
        }
    }
    m.insert("propagation.coupled_eval_ns", median(&coupled));

    // core::fleet: the probe matrix over the 576-point grid.
    let mut cells = Vec::new();
    for input in inputs {
        let eval = FleetEvaluator::new(&input.fleet);
        eval.powers_matrix(&biases);
        for _ in 0..3 {
            let ns = timed(spans, "fleet.powers_matrix", parent, || {
                eval.powers_matrix(&biases)
            })
            .1;
            cells.push(ns / (biases.len() * input.fleet.len()) as f64);
        }
    }
    m.insert("fleet.powers_matrix_ns_per_cell", median(&cells));

    // control::sweep: Algorithm 1 cold, then warm from the cold winner,
    // each on a fresh evaluator (memo-cold, as a job sees it).
    let scheduler = Scheduler::max_min();
    let warm_cfg = WarmConfig::paper_default();
    let (mut cold_ms, mut cold_probes, mut warm_ms, mut warm_probes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for input in inputs {
        for _ in 0..3 {
            let eval = FleetEvaluator::new(&input.fleet);
            let (cold, ns) = timed(spans, "sweep.cold", parent, || {
                scheduler.run_with_evaluator(&input.fleet, &eval)
            });
            cold_ms.push(ns * 1e-6);
            cold_probes.push(cold.probes as f64);
            let eval = FleetEvaluator::new(&input.fleet);
            let (warm, ns) = timed(spans, "sweep.warm", parent, || {
                scheduler.run_warm(&input.fleet, &eval, &cold, &warm_cfg)
            });
            warm_ms.push(ns * 1e-6);
            warm_probes.push(warm.probes as f64);
        }
    }
    m.insert("sweep.cold_ms", median(&cold_ms));
    m.insert("sweep.cold_probes", mean(&cold_probes));
    m.insert("sweep.warm_ms", median(&warm_ms));
    m.insert("sweep.warm_probes", mean(&warm_probes));

    // core::panels: independent and joint schedules over warm shared plans.
    let (mut ind_ms, mut joint_ms) = (Vec::new(), Vec::new());
    let (mut rounds, mut probes, mut lift) = (Vec::new(), Vec::new(), Vec::new());
    let joint_scheduler = PanelScheduler::max_min().with_joint(JointConfig::default());
    for input in inputs {
        let caches = warm_caches(&input.fleet);
        for _ in 0..2 {
            let ns = timed(spans, "panels.independent", parent, || {
                PanelScheduler::max_min().run_with_caches(&input.fleet, &input.array, &caches)
            })
            .1;
            ind_ms.push(ns * 1e-6);
            let (out, ns) = timed(spans, "panels.joint", parent, || {
                joint_scheduler.run_with_caches(&input.fleet, &input.array, &caches)
            });
            joint_ms.push(ns * 1e-6);
            let stats = out.joint.expect("a joint run reports its descent");
            rounds.push(stats.rounds as f64);
            probes.push(stats.coupled_probes as f64);
            lift.push(stats.lift_db);
        }
    }
    m.insert("panels.independent_ms", median(&ind_ms));
    m.insert("panels.joint_ms", median(&joint_ms));
    m.insert("panels.joint_rounds", mean(&rounds));
    m.insert("panels.coupled_probes", mean(&probes));
    m.insert("panels.joint_lift_db", mean(&lift));
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}
