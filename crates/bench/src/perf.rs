//! Self-contained timing suites behind `expts --bench-json`, `--fleet`,
//! `--panels`, `--mobility` and `--sharded` (`BENCH_PR{2,3,4,5,8}.json`):
//! each times a fast path against its naive or churn baseline on
//! identical inputs and returns a [`Report`] gated on the floors below.
//!
//! The harness is deliberately dependency-free (wall-clock samples over a
//! fixed warm-up + sample budget, like the Criterion shim) and doubles as
//! a CI smoke. Every speedup gate reads a best-of-N ratio — the minimum
//! sample on both sides — so one preempted sample cannot fail it; the
//! raw samples ride along in each timing metric.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use control::server::FleetServer;
use llama_core::fleet::{Fleet, FleetEvaluator, Scheduler};
use llama_core::panels::{serve_fleets, PanelArray, PanelScheduler};
use llama_core::scenario::Scenario;
use llama_core::sim::{DynamicFleet, HandoffPolicy, MobilitySim, SimConfig, SimReport};
use llama_core::system::LlamaSystem;
use metasurface::designs::fr4_optimized;
use metasurface::evaluator::StackEvaluator;
use metasurface::response::SurfaceResponse;
use metasurface::stack::BiasState;
use propagation::link::PreparedLink;
use rfmath::telemetry::{RecorderHandle, RingRecorder};
use rfmath::units::Hertz;
use rfmath::units::Seconds;

use crate::alloc_counter;
use crate::report::{Bound, Metric, Report};

/// Band-center frequency every workload runs at.
const F: Hertz = Hertz(2.44e9);

/// Minimum naive-vs-batched speedup on the 31×31 heatmap before the
/// smoke fails (the PR acceptance bar is 5×; the floor leaves headroom
/// for noisy shared CI machines).
const SPEEDUP_FLOOR: f64 = 3.0;

/// Warm-up ticks before the probe-kernel allocation count starts, and
/// measured ticks it averages over.
const ALLOC_WARMUP_TICKS: usize = 2;
const ALLOC_MEASURED_TICKS: usize = 8;
/// Devices the allocation kernel probes per simulated tick.
const ALLOC_KERNEL_DEVICES: usize = 8;

/// Steady-state heap allocations per tick of a synthetic probe kernel:
/// for each of `ALLOC_KERNEL_DEVICES` (8) devices, one `t = 0` power
/// probe ([`PreparedLink::received_dbm_with`]) plus a sweep of nine
/// biases through a compiled plan ([`StackEvaluator::response`]). This is
/// *not* a [`MobilitySim`] tick: the real warm tick allocates (roombench
/// reports it as `sim.allocs_per_tick`, ≈100–110 per tick). Measured on
/// the calling thread after `ALLOC_WARMUP_TICKS` (2) warm-up ticks
/// (buffers grown, memos populated), averaged over
/// `ALLOC_MEASURED_TICKS` (8) ticks, and cached for the process. `None`
/// when the counting allocator is compiled out (release builds —
/// artifacts then stamp `null` instead of a number measured without
/// counting).
pub fn allocs_per_tick() -> Option<f64> {
    static CACHE: OnceLock<Option<f64>> = OnceLock::new();
    *CACHE.get_or_init(measure_allocs_per_tick)
}

fn measure_allocs_per_tick() -> Option<f64> {
    if !alloc_counter::enabled() {
        return None;
    }
    let design = fr4_optimized();
    let plan = StackEvaluator::new(&design.stack, F);
    let response = SurfaceResponse::new(F, plan.response(BiasState::new(6.0, 6.0)));
    let link = PreparedLink::new(Scenario::transmissive_default().link());
    let biases: Vec<BiasState> = (0..9)
        .map(|i| BiasState::new(3.0 * (i % 3) as f64, 3.0 * (i / 3) as f64))
        .collect();
    let tick = || {
        for _ in 0..ALLOC_KERNEL_DEVICES {
            std::hint::black_box(link.received_dbm_with(Some(&response)));
            for &bias in &biases {
                std::hint::black_box(plan.response(bias));
            }
        }
    };
    for _ in 0..ALLOC_WARMUP_TICKS {
        tick();
    }
    let (_, allocs) = alloc_counter::allocs_during(|| {
        for _ in 0..ALLOC_MEASURED_TICKS {
            tick();
        }
    });
    Some(allocs as f64 / ALLOC_MEASURED_TICKS as f64)
}

/// Times `routine` over `iters` iterations after one warm-up call and
/// returns the per-iteration wall-clock samples, ms.
pub(crate) fn time_ms<O>(iters: u64, mut routine: impl FnMut() -> O) -> Vec<f64> {
    std::hint::black_box(routine());
    (0..iters)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(routine());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// The best (smallest) sample: what the regression gates compare, since
/// on shared CI runners one scheduler preemption can inflate a single
/// sample several-fold and the minimum is immune to that.
pub(crate) fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Best-of-N ratio `slow / fast`.
pub(crate) fn speedup(slow: &[f64], fast: &[f64]) -> f64 {
    best(slow) / best(fast).max(1e-12)
}

/// Runs the batched-engine workloads (`BENCH_PR2.json`): naive vs
/// batched single-point and 31×31 heatmap evaluation, plus the Figure
/// 15 system heatmap. `quick` trims the sample budget for CI smoke use.
pub fn run(quick: bool) -> Report {
    let design = fr4_optimized();
    let volts: Vec<f64> = (0..31).map(|i| i as f64).collect();
    let (single_iters, grid_iters, heatmap_iters) =
        if quick { (1000, 6, 2) } else { (5000, 12, 4) };

    let naive_single = time_ms(single_iters, || {
        design.stack.response(F, BiasState::new(7.0, 13.0))
    });
    let evaluator = StackEvaluator::new(&design.stack, F);
    let batched_single = time_ms(single_iters, || {
        evaluator.response(BiasState::new(7.0, 13.0))
    });
    let naive_grid = time_ms(grid_iters, || {
        let mut out = Vec::with_capacity(volts.len() * volts.len());
        for &vy in &volts {
            for &vx in &volts {
                out.push(design.stack.response(F, BiasState::new(vx, vy)));
            }
        }
        out
    });
    let batched_grid = time_ms(grid_iters, || {
        StackEvaluator::new(&design.stack, F).eval_grid(&volts, &volts)
    });
    // End-to-end: the Figure 15 per-panel workload on the migrated
    // system path (surface grid + prebuilt link).
    let system_heatmap = time_ms(heatmap_iters, || {
        let mut sys = LlamaSystem::new(Scenario::transmissive_default().with_distance_cm(36.0));
        sys.power_heatmap(13)
    });

    let single_point_speedup = speedup(&naive_single, &batched_single);
    let heatmap_speedup = speedup(&naive_grid, &batched_grid);
    let mut report = Report::new("engine").param("quick", quick);
    for (name, samples) in [
        ("stack_response_single_naive", naive_single),
        ("stack_response_single_batched", batched_single),
        ("heatmap_31x31_naive", naive_grid),
        ("heatmap_31x31_batched", batched_grid),
        ("system_power_heatmap_13x13", system_heatmap),
    ] {
        report.push(Metric::timing(name, samples));
    }
    report.push(Metric::new(
        "single_point_speedup",
        "x",
        single_point_speedup,
    ));
    report.push(Metric::new("heatmap_31x31_speedup", "x", heatmap_speedup));
    gate_engine(&mut report);
    report
}

/// The engine gate: the batched 31×31 heatmap beats the naive path by
/// [`SPEEDUP_FLOOR`].
pub(crate) fn gate_engine(report: &mut Report) {
    report.gate("heatmap_31x31_speedup", &[], Bound::Floor(SPEEDUP_FLOOR));
}

/// Minimum shared-plan-vs-naive speedup on the 32-device fleet grid
/// (the fleet engine's acceptance bar).
const FLEET_SPEEDUP_FLOOR: f64 = 3.0;

/// Size of the reference fleet workload (the acceptance gate's mixed
/// Wi-Fi/BLE population).
const FLEET_SIZE: usize = 32;

/// The probe load of one Algorithm-1 scheduler run: a coarse 5×5 grid
/// over the full 0–30 V range, then a fine 5×5 grid over 9–21 V.
fn alg1_probe_biases() -> Vec<BiasState> {
    let mut biases = Vec::new();
    for (base, span) in [(0.0, 30.0), (9.0, 12.0)] {
        for ix in 0..5 {
            for iy in 0..5 {
                biases.push(BiasState::new(
                    base + span * ix as f64 / 4.0,
                    base + span * iy as f64 / 4.0,
                ));
            }
        }
    }
    biases
}

/// Times the 32-device mixed Wi-Fi/BLE fleet workloads
/// (`BENCH_PR3.json`): the shared-plan batch path (one compiled plan per
/// carrier, one cascade per probe, precomputed scatter, threaded rows)
/// against the naive per-device loop (per-device surface, per-probe link
/// rebuild), plus end-to-end scheduler runs for all three policies.
pub fn run_fleet(quick: bool) -> Report {
    let fleet = Fleet::mixed_wifi_ble(FLEET_SIZE, 2021);
    let biases = alg1_probe_biases();
    let (grid_iters, sched_iters) = if quick { (4, 2) } else { (10, 4) };

    let naive = time_ms(grid_iters, || fleet.naive_powers_matrix(&biases));
    // Cold cost included: the scheduler compiles the plans once per run,
    // so the timed region does too.
    let shared = time_ms(grid_iters, || {
        FleetEvaluator::new(&fleet).powers_matrix(&biases)
    });
    let fleet_speedup = speedup(&naive, &shared);

    let mut report = Report::new("fleet")
        .param("quick", quick)
        .param("fleet_devices", FLEET_SIZE);
    report.push(Metric::timing("fleet_32_probe_grid_naive", naive));
    report.push(Metric::timing("fleet_32_probe_grid_shared_plan", shared));
    for (name, scheduler) in [
        ("fleet_32_scheduler_max_min", Scheduler::max_min()),
        ("fleet_32_scheduler_favor", Scheduler::favor(0)),
        (
            "fleet_32_scheduler_time_division",
            Scheduler::time_division(),
        ),
    ] {
        report.push(Metric::timing(
            name,
            time_ms(sched_iters, || scheduler.run(&fleet)),
        ));
    }
    report.push(Metric::new("fleet_32_speedup", "x", fleet_speedup));
    gate_fleet(&mut report);
    report
}

/// The fleet gate: the shared-plan engine beats the naive loop by
/// [`FLEET_SPEEDUP_FLOOR`].
pub(crate) fn gate_fleet(report: &mut Report) {
    report.gate("fleet_32_speedup", &[], Bound::Floor(FLEET_SPEEDUP_FLOOR));
}

/// Minimum batched-vs-naive speedup on the 4-panel probe grids (the
/// panel engine's CI bar).
const PANEL_SPEEDUP_FLOOR: f64 = 2.0;

/// Panels in the reference array.
const PANEL_COUNT: usize = 4;

/// Concurrent fleets the server workload multiplexes.
const SERVER_FLEETS: usize = 8;

/// Times the 4-panel, 32-device workloads (`BENCH_PR4.json`): per-panel
/// probe grids on the shared-plan batch path (one
/// [`metasurface::PlanCache`] across the array) against the naive
/// per-device loops, the end-to-end panel scheduler against
/// single-panel `MaxMin` (recording the min-power gain the panels buy),
/// and the [`FleetServer`] multiplexing `SERVER_FLEETS` (8) fleets against
/// serial execution (informational — one core cannot beat 1×).
pub fn run_panels(quick: bool) -> Report {
    let fleet = Fleet::mixed_wifi_ble(FLEET_SIZE, 2021);
    let array = PanelArray::uniform(fleet.design.clone(), PANEL_COUNT);
    let assignment = array.assign(&fleet, &llama_core::panels::Assignment::ByOrientation);
    let biases = alg1_probe_biases();
    let (grid_iters, sched_iters, serve_iters) = if quick { (4, 2, 2) } else { (10, 4, 4) };

    let naive = time_ms(grid_iters, || {
        array.naive_panel_matrices(&fleet, &assignment, &biases)
    });
    // Cold cost included: plan caches compile inside the timed region,
    // exactly as the scheduler pays them.
    let shared = time_ms(grid_iters, || {
        array.batched_panel_matrices(&fleet, &assignment, &biases)
    });
    let panel_sched = time_ms(sched_iters, || {
        PanelScheduler::max_min().run(&fleet, &array)
    });
    let panel_min_power_gain_db = PanelScheduler::max_min()
        .run(&fleet, &array)
        .min_power_dbm()
        - Scheduler::max_min().run(&fleet).min_power_dbm();

    // Many-fleet serving: SERVER_FLEETS independent fleets through the
    // bounded-queue worker pool vs a serial loop.
    let fleets: Vec<Fleet> = (0..SERVER_FLEETS as u64)
        .map(|s| Fleet::mixed_wifi_ble(8, 3000 + s))
        .collect();
    let scheduler = Scheduler::max_min();
    let serial = time_ms(serve_iters, || {
        fleets.iter().map(|f| scheduler.run(f)).collect::<Vec<_>>()
    });
    let workers = rfmath::par::available_threads().min(SERVER_FLEETS);
    let server = FleetServer::new(workers);
    let served = time_ms(serve_iters, || serve_fleets(&server, &scheduler, &fleets));
    // One instrumented pass for the queue telemetry (wait time, steals):
    // the timed loops above stay stats-free so the measurement is pure.
    // The ring recorder rides along here — same pass, zero cost to the
    // timed regions — and its aggregate is stamped into the artifact.
    let recorder = RecorderHandle::new(Arc::new(RingRecorder::default()));
    let server = server.with_recorder(recorder.clone());
    let (_, stats) = server.try_serve_with_stats(fleets.iter().collect(), |_, fleet: &Fleet| {
        scheduler.run(fleet)
    });
    let grid_speedup = speedup(&naive, &shared);
    let concurrency = speedup(&serial, &served);

    let mut report = Report::new("panels")
        .param("quick", quick)
        .param("panels", PANEL_COUNT)
        .param("fleet_devices", FLEET_SIZE)
        .param("server_fleets", SERVER_FLEETS);
    report.telemetry = recorder.aggregate_json();
    for (name, samples) in [
        ("panel_4x32_probe_grid_naive", naive),
        ("panel_4x32_probe_grid_shared_plan", shared),
        ("panel_4x32_scheduler_max_min", panel_sched),
        ("server_8_fleets_serial", serial),
        ("server_8_fleets_concurrent", served),
    ] {
        report.push(Metric::timing(name, samples));
    }
    report.push(Metric::new("panel_grid_speedup", "x", grid_speedup));
    report.push(Metric::new(
        "panel_min_power_gain_db",
        "dB",
        panel_min_power_gain_db,
    ));
    report.push(Metric::new("server_concurrency_speedup", "x", concurrency));
    report.push(Metric::count("server_workers", workers));
    // Per-thread efficiency: speedup over the effective parallelism, so
    // a 2-worker run on a 1-core host reports ~1.0, not ~0.5.
    report.push(Metric::new(
        "server_scaling_efficiency",
        "ratio",
        concurrency / workers.min(crate::logical_cores()).max(1) as f64,
    ));
    // Stage-to-pop queue latency (mean, p50, p95: the mean alone hides a
    // starved tail) and cross-shard steals (load imbalance).
    for (name, wait) in [
        ("server_mean_queue_wait_ms", stats.mean_queue_wait),
        ("server_queue_wait_p50_ms", stats.queue_wait_p50),
        ("server_queue_wait_p95_ms", stats.queue_wait_p95),
    ] {
        report.push(Metric::new(name, "ms", wait.0 * 1e3));
    }
    report.push(Metric::count("server_steals", stats.steals));
    gate_panels(&mut report);
    report
}

/// The panel gates: the panel engine clears [`PANEL_SPEEDUP_FLOOR`], and
/// the panel array strictly lifts the shared-bias min power — a
/// fast-but-worse panel path is as much a regression as a slow one.
pub(crate) fn gate_panels(report: &mut Report) {
    report.gate("panel_grid_speedup", &[], Bound::Floor(PANEL_SPEEDUP_FLOOR));
    report.gate("panel_min_power_gain_db", &[], Bound::Above(0.0));
}

/// Minimum warm-vs-cold per-tick speedup on a full run (the mobility
/// simulator's acceptance bar at 32 devices / 64 ticks).
const MOBILITY_SPEEDUP_FLOOR: f64 = 3.0;

/// The quick-mode wall-clock floor (8 devices / 8 ticks: the cold-start
/// tick is a full eighth of the warm run, so the amortized ratio is
/// structurally ~2.4×, and shared CI runners add timing noise on a
/// sub-5 ms measurement). The deterministic probe-fraction gate carries
/// the real regression check in quick mode.
const MOBILITY_SPEEDUP_FLOOR_QUICK: f64 = 1.5;

/// Most of the cold probe bill the warm engine may spend.
const WARM_PROBE_FRACTION_CEILING: f64 = 0.5;

/// The warm-vs-cold wall-clock floor a mobility run is gated on.
pub(crate) fn mobility_speedup_floor(quick: bool) -> f64 {
    if quick {
        MOBILITY_SPEEDUP_FLOOR_QUICK
    } else {
        MOBILITY_SPEEDUP_FLOOR
    }
}

/// Times the event-stepped mobility simulator (`BENCH_PR5.json`): the
/// roaming mixed fleet over a distributed panel array, warm
/// (incremental re-optimization, hysteresis handoff) against cold
/// (memoryless full re-search per tick), plus the zero-motion exactness
/// check and a min-power-vs-handoff-rate sweep across hysteresis
/// settings. Full mode runs the 32-device / 64-tick acceptance
/// workload; quick mode the 8-device / 8-tick CI smoke.
pub fn run_mobility(quick: bool) -> Report {
    let (devices, ticks, panels) = if quick { (8, 8, 2) } else { (32, 64, 4) };
    let seed = 2021u64;
    let duration = Seconds(ticks as f64);
    let design = Fleet::mixed_wifi_ble(1, seed).design.clone();
    let array = PanelArray::distributed(design.clone(), panels);
    let scheduler = PanelScheduler::max_min();

    // Identical trajectories for both modes: fresh fleets, same seed.
    let mut roaming = DynamicFleet::roaming_mixed(devices, seed, duration);
    let cold =
        MobilitySim::new(scheduler.clone(), SimConfig::cold()).run(&mut roaming, &array, ticks);
    let mut roaming = DynamicFleet::roaming_mixed(devices, seed, duration);
    let warm =
        MobilitySim::new(scheduler.clone(), SimConfig::default()).run(&mut roaming, &array, ticks);

    // Zero-motion exactness: a parked fleet through both engines, every
    // tick's allocation compared bit for bit.
    let still = Fleet::mixed_wifi_ble(devices.min(8), seed);
    let still_array = PanelArray::uniform(still.design.clone(), panels.min(2));
    let still_ticks = ticks.min(8);
    // The zero-motion arm doubles as the telemetry capture: a ring
    // recorder rides the warm engine here (events never change the
    // computation, so the bitwise gate still holds) while the timed
    // headline runs above stay recorder-free.
    let ring_recorder = RecorderHandle::new(Arc::new(RingRecorder::default()));
    let warm_still = MobilitySim::new(scheduler.clone(), SimConfig::default())
        .with_recorder(ring_recorder.clone())
        .run(
            &mut DynamicFleet::new(still.clone()),
            &still_array,
            still_ticks,
        );
    let cold_still = MobilitySim::new(scheduler, SimConfig::cold()).run(
        &mut DynamicFleet::new(still),
        &still_array,
        still_ticks,
    );
    let zero_motion_equivalent = warm_still
        .ticks
        .iter()
        .zip(&cold_still.ticks)
        .all(|(w, c)| w.outcome.same_allocation(&c.outcome));

    let mut report = Report::new("mobility")
        .param("quick", quick)
        .param("fleet_devices", devices)
        .param("ticks", ticks)
        .param("panels", panels);
    report.telemetry = ring_recorder.aggregate_json();
    report.push(Metric::new("cold_wall_ms", "ms", cold.wall_ms));
    report.push(Metric::new("warm_wall_ms", "ms", warm.wall_ms));
    report.push(Metric::new(
        "warm_speedup",
        "x",
        cold.wall_ms / warm.wall_ms.max(1e-9),
    ));
    report.push(Metric::count(
        "cold_probes",
        cold.total(|t| t.outcome.probes),
    ));
    report.push(Metric::count(
        "warm_probes",
        warm.total(|t| t.outcome.probes),
    ));
    report.push(Metric::new(
        "warm_probe_fraction",
        "ratio",
        warm.total(|t| t.outcome.probes) as f64 / cold.total(|t| t.outcome.probes) as f64,
    ));
    report.push(Metric::new("cold_mean_duty", "ratio", cold.mean_duty()));
    report.push(Metric::new("warm_mean_duty", "ratio", warm.mean_duty()));
    report.push(Metric::count("warm_handoffs", warm.total(|t| t.handoffs)));
    report.push(Metric::flag(
        "zero_motion_equivalent",
        zero_motion_equivalent,
    ));

    // Min-power-vs-handoff-rate across hysteresis settings. The default
    // policy's point reuses the headline warm run — same config, same
    // seed, bit-identical results (the determinism contract) — instead
    // of re-simulating the most expensive workload.
    let default_handoff = SimConfig::default().handoff;
    let settings: &[(f64, usize)] = if quick {
        &[(0.0, 1), (4.0, 2)]
    } else {
        &[(0.0, 1), (0.5, 1), (1.0, 1), (2.0, 1), (2.0, 2)]
    };
    for &(hysteresis_db, dwell_ticks) in settings {
        let handoff = HandoffPolicy {
            hysteresis_db,
            dwell_ticks,
            ..HandoffPolicy::default()
        };
        let sim = if handoff == default_handoff {
            warm.clone()
        } else {
            let mut fleet = DynamicFleet::roaming_mixed(devices, seed, duration);
            MobilitySim::new(
                PanelScheduler::max_min(),
                SimConfig::default().with_handoff(handoff),
            )
            .run(&mut fleet, &array, ticks)
        };
        for metric in [
            Metric::count("handoffs", sim.total(|t| t.handoffs)),
            Metric::new("mean_min_power_dbm", "dBm", sim.mean_served_min_power_dbm()),
            Metric::new("mean_duty", "ratio", sim.mean_duty()),
        ] {
            report.push(
                metric
                    .label("hysteresis_db", format!("{hysteresis_db:.1}"))
                    .label("dwell_ticks", dwell_ticks),
            );
        }
    }
    gate_mobility(&mut report, quick);
    report
}

/// The mobility gates: the warm engine clears the wall-clock floor,
/// spends at most half the cold probe bill (a deterministic, noise-free
/// gate on the same regression), and the zero-motion equivalence held
/// exactly.
pub(crate) fn gate_mobility(report: &mut Report, quick: bool) {
    report.gate(
        "warm_speedup",
        &[],
        Bound::Floor(mobility_speedup_floor(quick)),
    );
    report.gate(
        "warm_probe_fraction",
        &[],
        Bound::Ceiling(WARM_PROBE_FRACTION_CEILING),
    );
    report.gate("zero_motion_equivalent", &[], Bound::Floor(1.0));
}

/// Minimum SoA-vs-reference speedup on the single-thread probe-grid
/// batch.
const SOA_PROBE_GRID_FLOOR: f64 = 1.5;

/// Minimum optimized-vs-churn-baseline speedup on the single-thread
/// warm mobility tick (arena rebinds + scratch probes vs allocating
/// rebinds + allocating `received_dbm_with` probes).
const MOBILITY_TICK_FLOOR: f64 = 1.3;

/// Minimum per-thread scaling efficiency at the largest measured worker
/// count on multi-core hosts (near-linear: ≥ 60% of ideal). Single-core
/// hosts skip the scaling smoke but stamp the skip into the artifact.
const SCALING_EFFICIENCY_FLOOR: f64 = 0.6;

/// Times the sharded-serving fast paths against their honest baselines
/// (`BENCH_PR8.json`), all on identical inputs:
///
/// * **probe grid** — [`StackEvaluator::eval_batch`] (the SoA slab
///   kernel) vs [`StackEvaluator::eval_batch_reference`] (the per-cell
///   AoS fold) on one compiled plan and a large distinct-bias batch;
/// * **mobility tick** — the warm engine with arena rebinds + scratch
///   probes vs the same engine under
///   [`SimConfig::with_churn_baseline`] (allocating rebinds, allocating
///   `received_dbm_with` probes), same seed, bit-identical outcomes;
/// * **thread scaling** — [`serve_fleets`] throughput across worker
///   counts on the sharded work-stealing queue, with an instrumented
///   pass recording steals and queue wait (skipped-but-stamped on
///   single-core hosts).
pub fn run_sharded(quick: bool) -> Report {
    let logical_cores = crate::logical_cores();

    // SoA vs reference batch on one compiled plan. The 24×24 distinct
    // grid mirrors the dedup shape of a real probe sweep; both paths
    // share the per-axis memos, so the comparison isolates the kernel.
    let design = fr4_optimized();
    let plan = StackEvaluator::new(&design.stack, F);
    let grid = 24usize;
    let biases: Vec<BiasState> = (0..grid * grid)
        .map(|i| {
            BiasState::new(
                30.0 * (i % grid) as f64 / (grid - 1) as f64,
                30.0 * (i / grid) as f64 / (grid - 1) as f64,
            )
        })
        .collect();
    let batch_iters = if quick { 20 } else { 60 };
    let reference = time_ms(batch_iters, || plan.eval_batch_reference(&biases));
    let soa = time_ms(batch_iters, || plan.eval_batch(&biases));

    // Warm mobility: optimized hot loops vs the churn baseline, same
    // seeded trajectory, outcomes compared bit for bit.
    let (devices, ticks, panels) = if quick { (12, 16, 3) } else { (24, 32, 3) };
    let seed = 2021u64;
    let duration = Seconds(ticks as f64);
    let sim_design = Fleet::mixed_wifi_ble(1, seed).design.clone();
    let array = PanelArray::distributed(sim_design, panels);
    let scheduler = PanelScheduler::max_min();
    // Best-of-N wall clock per arm (the runs are deterministic apart
    // from timing, so the min is the honest noise-free comparison —
    // a single quick run is only ~2 ms and flakes on loaded hosts).
    // Returns the best run plus every run's per-tick wall-clock, ms.
    let sim_reps = if quick { 5 } else { 3 };
    let run_arm = |churn_baseline: bool| {
        let mut best_run: Option<SimReport> = None;
        let mut per_tick_ms = Vec::with_capacity(sim_reps);
        for _ in 0..sim_reps {
            let mut roaming = DynamicFleet::roaming_mixed(devices, seed, duration);
            let run = MobilitySim::new(
                scheduler.clone(),
                SimConfig::default().with_churn_baseline(churn_baseline),
            )
            .run(&mut roaming, &array, ticks);
            per_tick_ms.push(run.wall_ms / ticks as f64);
            best_run = Some(match best_run {
                Some(prev) if prev.wall_ms <= run.wall_ms => prev,
                _ => run,
            });
        }
        (best_run.expect("at least one rep"), per_tick_ms)
    };
    let (churn, churn_samples) = run_arm(true);
    let (optimized, optimized_samples) = run_arm(false);
    let churn_bit_identical = churn
        .ticks
        .iter()
        .zip(&optimized.ticks)
        .all(|(a, b)| a.outcome.same_allocation(&b.outcome));

    let probe_grid_speedup = speedup(&reference, &soa);
    let mut report = Report::new("sharded")
        .param("quick", quick)
        .param("logical_cores", logical_cores);
    report.push(Metric::timing("probe_grid_576_batch_reference", reference));
    report.push(Metric::timing("probe_grid_576_batch_soa", soa));
    report.push(
        Metric::new(
            "mobility_tick_churn_baseline",
            "ms",
            churn.wall_ms / ticks as f64,
        )
        .with_samples(churn_samples),
    );
    report.push(
        Metric::new(
            "mobility_tick_optimized",
            "ms",
            optimized.wall_ms / ticks as f64,
        )
        .with_samples(optimized_samples),
    );
    report.push(Metric::new("probe_grid_speedup", "x", probe_grid_speedup));
    report.push(Metric::new(
        "mobility_tick_speedup",
        "x",
        churn.wall_ms / optimized.wall_ms.max(1e-9),
    ));
    report.push(Metric::flag("churn_bit_identical", churn_bit_identical));

    // Fleet-throughput thread scaling over the sharded queue. One ring
    // recorder rides every instrumented stats pass (never the timed
    // loops); its aggregate lands in the artifact's telemetry block.
    let ring_recorder = RecorderHandle::new(Arc::new(RingRecorder::default()));
    let thread_scaling_skipped = logical_cores <= 1;
    report.push(Metric::flag(
        "thread_scaling_skipped",
        thread_scaling_skipped,
    ));
    if !thread_scaling_skipped {
        let fleets: Vec<Fleet> = (0..SERVER_FLEETS as u64)
            .map(|s| Fleet::mixed_wifi_ble(8, 3000 + s))
            .collect();
        let sched = Scheduler::max_min();
        let serve_iters = if quick { 3 } else { 6 };
        let serial = time_ms(serve_iters, || {
            fleets.iter().map(|f| sched.run(f)).collect::<Vec<_>>()
        });
        let mut worker_counts = vec![1usize, 2];
        worker_counts.push(logical_cores.min(SERVER_FLEETS));
        worker_counts.sort_unstable();
        worker_counts.dedup();
        for &workers in &worker_counts {
            let server = FleetServer::new(workers);
            let served = time_ms(serve_iters, || serve_fleets(&server, &sched, &fleets));
            let server = server.with_recorder(ring_recorder.clone());
            let (_, stats) = server
                .try_serve_with_stats(fleets.iter().collect(), |_, fleet: &Fleet| sched.run(fleet));
            let scaling = speedup(&serial, &served);
            for metric in [
                Metric::new("min_ms", "ms", best(&served)).with_samples(served),
                Metric::new("speedup", "x", scaling),
                Metric::new(
                    "efficiency",
                    "ratio",
                    scaling / workers.min(logical_cores).max(1) as f64,
                ),
                Metric::count("steals", stats.steals),
                Metric::new("mean_queue_wait_ms", "ms", stats.mean_queue_wait.0 * 1e3),
            ] {
                report.push(
                    metric
                        .label("workers", workers)
                        .label("shards", server.shards),
                );
            }
        }
    }
    report.telemetry = ring_recorder.aggregate_json();
    gate_sharded(&mut report, thread_scaling_skipped);
    report
}

/// The sharded gates: the SoA kernel and the de-churned tick clear their
/// floors, the A/B runs stayed bit-identical, and — unless the host has
/// one core — fleet throughput at the largest worker count scaled
/// near-linearly.
pub(crate) fn gate_sharded(report: &mut Report, thread_scaling_skipped: bool) {
    report.gate(
        "probe_grid_speedup",
        &[],
        Bound::Floor(SOA_PROBE_GRID_FLOOR),
    );
    report.gate(
        "mobility_tick_speedup",
        &[],
        Bound::Floor(MOBILITY_TICK_FLOOR),
    );
    report.gate("churn_bit_identical", &[], Bound::Floor(1.0));
    if !thread_scaling_skipped {
        report
            .metrics
            .iter_mut()
            .rev()
            .find(|m| m.name == "efficiency")
            .expect("multi-core runs record thread-scaling rows")
            .bounds
            .push(Bound::Floor(SCALING_EFFICIENCY_FLOOR));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobility_quick_floor_is_lower() {
        assert_eq!(mobility_speedup_floor(true), 1.5);
        assert!(mobility_speedup_floor(true) < mobility_speedup_floor(false));
        let mut report = Report::new("mobility");
        for m in [
            Metric::new("warm_speedup", "x", 2.5),
            Metric::new("warm_probe_fraction", "ratio", 0.25),
            Metric::flag("zero_motion_equivalent", true),
        ] {
            report.push(m);
        }
        gate_mobility(&mut report, true);
        assert_eq!(
            report.metric("warm_speedup", &[]).unwrap().bounds,
            vec![Bound::Floor(1.5)]
        );
        assert!(report.passes());
    }

    /// Sets the first metric called `name` in `row` to `value`.
    fn set(report: &mut Report, name: &str, row: &[(&str, &str)], value: f64) {
        report
            .metrics
            .iter_mut()
            .find(|m| m.name == name && m.in_row(row))
            .expect("fixture records the metric")
            .value = value;
    }

    #[test]
    fn panel_report_serializes_and_gates_on_both_axes() {
        let mut report = Report::new("panels")
            .param("quick", true)
            .param("panels", PANEL_COUNT)
            .param("fleet_devices", FLEET_SIZE)
            .param("server_fleets", SERVER_FLEETS);
        report.push(Metric::timing("z", vec![1.0, 1.0]));
        report.push(Metric::new("panel_grid_speedup", "x", 3.0));
        report.push(Metric::new("panel_min_power_gain_db", "dB", 2.5));
        report.push(Metric::new("server_concurrency_speedup", "x", 1.8));
        report.push(Metric::count("server_workers", 2));
        report.push(Metric::new("server_scaling_efficiency", "ratio", 0.9));
        report.push(Metric::new("server_mean_queue_wait_ms", "ms", 0.05));
        report.push(Metric::new("server_queue_wait_p50_ms", "ms", 0.04));
        report.push(Metric::new("server_queue_wait_p95_ms", "ms", 0.09));
        report.push(Metric::count("server_steals", 1));
        gate_panels(&mut report);

        let json = report.to_json();
        assert!(json.starts_with("{\n  \"suite\": \"panels\",\n  \"quick\": true,"));
        assert!(json.contains("\"panels\": 4"));
        for key in [
            "\"machine\"",
            "\"logical_cores\"",
            "\"threads_used\"",
            "\"allocs_per_tick\"",
            "\"telemetry\"",
            "\"mode\": \"null\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        for metric in [
            "{\"name\": \"server_scaling_efficiency\", \"unit\": \"ratio\", \"value\": 0.9}",
            "{\"name\": \"server_mean_queue_wait_ms\", \"unit\": \"ms\", \"value\": 0.05}",
            "{\"name\": \"server_queue_wait_p50_ms\", \"unit\": \"ms\", \"value\": 0.04}",
            "{\"name\": \"server_queue_wait_p95_ms\", \"unit\": \"ms\", \"value\": 0.09}",
            "{\"name\": \"server_steals\", \"unit\": \"count\", \"value\": 1}",
            "{\"name\": \"panel_grid_speedup\", \"unit\": \"x\", \"value\": 3, \
             \"floor\": 2, \"pass\": true}",
            "{\"name\": \"panel_min_power_gain_db\", \"unit\": \"dB\", \"value\": 2.5, \
             \"above\": 0, \"pass\": true}",
        ] {
            assert!(json.contains(metric), "missing {metric}");
        }
        assert!(json.ends_with("\"pass\": true\n}\n"));
        assert!(report.passes());

        // Either axis failing fails the smoke: a fast-but-worse panel
        // path is as much a regression as a slow one.
        let mut slow = report.clone();
        set(&mut slow, "panel_grid_speedup", &[], 1.5);
        assert!(!slow.passes());
        let mut worse = report;
        set(&mut worse, "panel_min_power_gain_db", &[], -0.3);
        assert!(!worse.passes());
        assert_eq!(
            worse.failures(),
            vec!["panel_min_power_gain_db = -0.300 (needs > 0)".to_string()]
        );
    }

    #[test]
    fn mobility_report_serializes_and_gates_on_both_axes() {
        let mut report = Report::new("mobility")
            .param("quick", false)
            .param("fleet_devices", 32)
            .param("ticks", 64)
            .param("panels", 4);
        report.push(Metric::new("cold_wall_ms", "ms", 900.0));
        report.push(Metric::new("warm_wall_ms", "ms", 200.0));
        report.push(Metric::new("warm_speedup", "x", 4.5));
        report.push(Metric::count("cold_probes", 6400));
        report.push(Metric::count("warm_probes", 900));
        report.push(Metric::new("warm_probe_fraction", "ratio", 900.0 / 6400.0));
        report.push(Metric::new("cold_mean_duty", "ratio", 0.0));
        report.push(Metric::new("warm_mean_duty", "ratio", 0.8));
        report.push(Metric::count("warm_handoffs", 3));
        report.push(Metric::flag("zero_motion_equivalent", true));
        for metric in [
            Metric::count("handoffs", 3),
            Metric::new("mean_min_power_dbm", "dBm", -61.5),
            Metric::new("mean_duty", "ratio", 0.8),
        ] {
            report.push(
                metric
                    .label("hysteresis_db", format!("{:.1}", 2.0))
                    .label("dwell_ticks", 2),
            );
        }
        gate_mobility(&mut report, false);

        let json = report.to_json();
        assert!(json.starts_with("{\n  \"suite\": \"mobility\",\n  \"quick\": false,"));
        assert!(json.contains(
            "{\"name\": \"warm_speedup\", \"unit\": \"x\", \"value\": 4.5, \
             \"floor\": 3, \"pass\": true}"
        ));
        assert!(json.contains(
            "{\"name\": \"zero_motion_equivalent\", \"unit\": \"bool\", \"value\": true, \
             \"floor\": 1, \"pass\": true}"
        ));
        assert!(json.contains(
            "{\"name\": \"mean_min_power_dbm\", \
             \"labels\": {\"hysteresis_db\": \"2.0\", \"dwell_ticks\": \"2\"}, \
             \"unit\": \"dBm\", \"value\": -61.5}"
        ));
        assert!(json.ends_with("\"pass\": true\n}\n"));
        assert!(report.passes());

        // The hysteresis sweep is one table row, labels first.
        let csv = report.to_csv();
        assert!(csv.starts_with("hysteresis_db,dwell_ticks,cold_wall_ms,"));
        assert!(csv.ends_with("\n2.0,2,,,,,,,,,,,3,-61.5000,0.800\n"));

        // Every axis fails the smoke on its own.
        let mut slow = report.clone();
        set(&mut slow, "warm_speedup", &[], 1.5);
        assert!(!slow.passes());
        let mut probe_heavy = report.clone();
        set(&mut probe_heavy, "warm_probe_fraction", &[], 0.75);
        assert!(!probe_heavy.passes());
        let mut drifted = report;
        set(&mut drifted, "zero_motion_equivalent", &[], 0.0);
        assert!(!drifted.passes());
        assert_eq!(
            drifted.failures(),
            vec!["zero_motion_equivalent = false (needs >= 1)".to_string()]
        );
    }

    #[test]
    fn fleet_report_serializes_and_summarizes() {
        let mut report = Report::new("fleet")
            .param("quick", true)
            .param("fleet_devices", FLEET_SIZE);
        report.push(Metric::timing("y", vec![2.0, 3.0]));
        report.push(Metric::new("fleet_32_speedup", "x", 4.5));
        gate_fleet(&mut report);

        let json = report.to_json();
        assert!(json.starts_with("{\n  \"suite\": \"fleet\",\n  \"quick\": true,"));
        assert!(json.contains("\"fleet_devices\": 32"));
        assert!(json.contains(
            "{\"name\": \"fleet_32_speedup\", \"unit\": \"x\", \"value\": 4.5, \
             \"floor\": 3, \"pass\": true}"
        ));
        assert!(json.ends_with("\"pass\": true\n}\n"));
        assert!(report.passes());

        let summary = report.summary();
        assert!(summary.starts_with("== fleet (quick true, fleet_devices 32)\n"));
        assert!(summary.contains("fleet_32_speedup"));
        assert!(summary.contains("[>= 3] ok"));
        assert!(summary.ends_with("PASS\n"));

        set(&mut report, "fleet_32_speedup", &[], 2.0);
        assert!(!report.passes());
        assert!(report.summary().contains("[>= 3] FAIL"));
        assert!(report.summary().ends_with("FAIL\n"));
    }

    #[test]
    fn sharded_report_serializes_and_gates_on_every_axis() {
        let mut report = Report::new("sharded")
            .param("quick", true)
            .param("logical_cores", 4);
        report.push(Metric::timing("s", vec![1.0, 1.0]));
        report.push(Metric::new("probe_grid_speedup", "x", 2.1));
        report.push(Metric::new("mobility_tick_speedup", "x", 1.6));
        report.push(Metric::flag("churn_bit_identical", true));
        report.push(Metric::flag("thread_scaling_skipped", false));
        let single_core = report.clone();
        for (workers, efficiency) in [(1, 1.0), (4, 0.8)] {
            for metric in [
                Metric::new("min_ms", "ms", 2.0),
                Metric::new("speedup", "x", 4.0 * efficiency),
                Metric::new("efficiency", "ratio", efficiency),
                Metric::count("steals", 2),
                Metric::new("mean_queue_wait_ms", "ms", 0.01),
            ] {
                report.push(metric.label("workers", workers).label("shards", workers));
            }
        }
        gate_sharded(&mut report, false);

        let json = report.to_json();
        assert!(json.starts_with("{\n  \"suite\": \"sharded\",\n  \"quick\": true,"));
        assert!(json.contains("\"logical_cores\": 4"));
        assert!(json.contains(
            "{\"name\": \"probe_grid_speedup\", \"unit\": \"x\", \"value\": 2.1, \
             \"floor\": 1.5, \"pass\": true}"
        ));
        assert!(json.contains(
            "{\"name\": \"mobility_tick_speedup\", \"unit\": \"x\", \"value\": 1.6, \
             \"floor\": 1.3, \"pass\": true}"
        ));
        assert!(json.contains(
            "{\"name\": \"thread_scaling_skipped\", \"unit\": \"bool\", \"value\": false}"
        ));
        assert!(json.contains(
            "{\"name\": \"efficiency\", \"labels\": {\"workers\": \"4\", \"shards\": \"4\"}, \
             \"unit\": \"ratio\", \"value\": 0.8, \"floor\": 0.6, \"pass\": true}"
        ));
        assert!(json.ends_with("\"pass\": true\n}\n"));
        assert!(report.passes());

        // Each gate fails the smoke on its own.
        for (name, row, value) in [
            ("probe_grid_speedup", &[][..], 1.2),
            ("mobility_tick_speedup", &[], 1.1),
            ("churn_bit_identical", &[], 0.0),
            ("efficiency", &[("workers", "4")], 0.3),
        ] {
            let mut failing = report.clone();
            set(&mut failing, name, row, value);
            assert!(!failing.passes(), "{name} {row:?}");
            assert_eq!(failing.failures().len(), 1, "{name} {row:?}");
        }
        // Only the largest worker count is gated.
        let mut one_worker_slow = report;
        set(&mut one_worker_slow, "efficiency", &[("workers", "1")], 0.3);
        assert!(one_worker_slow.passes());

        // A single-core host skips the scaling gate but stamps the skip.
        let mut single_core = single_core;
        set(&mut single_core, "thread_scaling_skipped", &[], 1.0);
        gate_sharded(&mut single_core, true);
        assert!(single_core.passes());
        assert!(single_core.to_json().contains(
            "{\"name\": \"thread_scaling_skipped\", \"unit\": \"bool\", \"value\": true}"
        ));
    }

    /// The probe kernel (scratch power probes + compiled-plan bias
    /// sweeps, see [`allocs_per_tick`]) must not touch the heap after
    /// warm-up in debug-assert builds. This covers that synthetic kernel
    /// only; the real `MobilitySim` warm tick allocates and is measured
    /// by roombench's `sim.allocs_per_tick`.
    #[test]
    fn probe_kernel_is_allocation_free() {
        match allocs_per_tick() {
            Some(allocs) => assert_eq!(
                allocs, 0.0,
                "probe kernel allocated {allocs} times per tick"
            ),
            None => assert!(!alloc_counter::enabled()),
        }
    }

    #[test]
    fn report_serializes_and_summarizes() {
        let mut report = Report::new("engine").param("quick", true);
        report.push(Metric::timing("heatmap_31x31_naive", vec![6.0, 7.0, 8.0]));
        report.push(Metric::new("heatmap_31x31_speedup", "x", 6.0));
        report.push(Metric::flag("equivalent", true).label("room", "a,b"));
        gate_engine(&mut report);
        assert!(report.passes());

        let json = report.to_json();
        assert!(json.starts_with("{\n  \"suite\": \"engine\",\n  \"quick\": true,"));
        // Every artifact records the machine it was measured on, and
        // the probe-kernel allocation stamp sits right next to it.
        for key in [
            "\"machine\"",
            "\"logical_cores\"",
            "\"threads_used\"",
            "\"allocs_per_tick\"",
            "\"faults\"",
            "\"mode\": \"null\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        assert!(json.contains(
            "{\"name\": \"heatmap_31x31_naive\", \"unit\": \"ms\", \"value\": 7, \
             \"n\": 3, \"min\": 6, \"median\": 7, \"max\": 8}"
        ));
        assert!(json.contains(
            "{\"name\": \"heatmap_31x31_speedup\", \"unit\": \"x\", \"value\": 6, \
             \"floor\": 3, \"pass\": true}"
        ));
        assert!(
            json.contains("\"labels\": {\"room\": \"a,b\"}, \"unit\": \"bool\", \"value\": true")
        );
        assert!(json.ends_with("  ],\n  \"pass\": true\n}\n"));

        // One table row per label set; label columns first.
        let csv = report.to_csv();
        assert_eq!(
            csv,
            "room,heatmap_31x31_naive,heatmap_31x31_speedup,equivalent\n\
             ,7.0000,6.0000,\n\
             \"a,b\",,,true\n"
        );
        assert_eq!(report.to_markdown().lines().count(), 2 + 2);

        let summary = report.summary();
        assert!(summary.contains("heatmap_31x31_speedup"));
        assert!(summary.contains("[>= 3] ok"));
        assert!(summary.ends_with("PASS\n"));

        report.metrics[1].value = 2.0;
        assert!(!report.passes());
        assert_eq!(
            report.failures(),
            vec!["heatmap_31x31_speedup = 2.0000 (needs >= 3)".to_string()]
        );
        assert!(report.to_json().ends_with("\"pass\": false\n}\n"));
    }
}
