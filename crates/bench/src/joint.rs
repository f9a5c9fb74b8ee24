//! `expts --joint` — joint vs independent multi-surface serving
//! (`BENCH_PR9.json`).
//!
//! Two measurements, one artifact:
//!
//! * **quality** — on the `office-floor` and `warehouse-aisle` zoo
//!   rooms, the MaxMin min-power delta between the independent
//!   per-panel search and the joint block-coordinate refinement over
//!   the superposed multi-surface field ([`RoomScenario::
//!   joint_comparison`](llama_core::rooms::RoomScenario::joint_comparison)),
//!   with the descent telemetry (rounds, coupled probes, cross-term
//!   energy) the scheduler reports. Both sides of the delta are scored
//!   under the superposed field; the independent biases' home-field
//!   score is reported next to them, but it is a different physics
//!   model and not the base of the lift;
//! * **performance** — the coupled-evaluation hot path
//!   ([`CoupledEvaluator::powers_dbm`]) timed against the same
//!   evaluator at zero coupling (which short-circuits to the
//!   independent home-field physics, bitwise). The CI gate is the
//!   *ratio*: superposing K panels' cross terms may cost at most
//!   [`COUPLED_SLOWDOWN_CEILING`]× the independent evaluation, so the
//!   joint search's per-probe bill stays a bounded multiple of
//!   Algorithm 1's.

use llama_core::fleet::Fleet;
use llama_core::panels::{CoupledEvaluator, JointConfig, PanelArray, PanelOutcome};
use llama_core::rooms::RoomScenario;
use metasurface::stack::BiasState;
use propagation::coupling::CouplingConfig;

use crate::perf::{best, speedup, time_ms};
use crate::report::{Bound, Metric, Report};

/// Zoo rooms the quality comparison runs on.
pub const JOINT_ROOMS: [&str; 2] = ["office-floor", "warehouse-aisle"];

/// Minimum lift (dB) the joint search must show over the independent
/// biases on at least one room. The descent starts *at* the independent
/// solution, so any strictly positive delta is genuine cross-panel
/// energy the independent search cannot see; 0.01 dB keeps the gate off
/// the float noise floor.
pub const JOINT_LIFT_FLOOR_DB: f64 = 0.01;

/// The joint search may never end below its own starting point; this is
/// the float-dust tolerance on that monotonicity contract.
pub const JOINT_REGRESSION_TOLERANCE_DB: f64 = 1e-9;

/// Ceiling on `coupled eval time / zero-coupling eval time` — the
/// CI-gated throughput floor on the coupled-evaluation hot path,
/// expressed as a machine-independent ratio.
pub const COUPLED_SLOWDOWN_CEILING: f64 = 8.0;

/// Devices in the synthetic coupled-evaluation timing workload.
const EVAL_DEVICES: usize = 16;

/// Panels in the synthetic coupled-evaluation timing workload.
const EVAL_PANELS: usize = 3;

/// The superposed-field bias the scheduler holds an idle panel at (a
/// panel with no devices still leaks into every other panel's field).
const IDLE_PANEL_BIAS: BiasState = BiasState {
    vx: rfmath::units::Volts(6.0),
    vy: rfmath::units::Volts(6.0),
};

/// The joint-vs-independent comparison on one zoo room, as metrics
/// labelled `room`:
///
/// * `independent_home_min_dbm` — the independent biases scored under
///   each device's home-panel field alone (the independent scheduler's
///   own model);
/// * `independent_superposed_min_dbm` — the same biases re-measured with
///   [`CoupledEvaluator`] under the superposed field;
/// * `joint_min_dbm` — the joint refinement's score under the
///   superposed field;
/// * `lift_db` — the scheduler's own lift, `joint_min_dbm −
///   independent_superposed_min_dbm` (both under the superposed field);
///
/// plus the descent's rounds, convergence, coupled probes and
/// cross-term energy fraction.
pub(crate) fn room_metrics(room: &'static str) -> Vec<Metric> {
    let cfg = JointConfig::default();
    let scenario = crate::build_room(room, crate::SEED).expect("joint rooms are zoo rooms");
    let (independent, joint) = scenario.joint_comparison(cfg);
    let stats = joint.joint.expect("the joint run reports its stats");
    [
        Metric::new(
            "independent_home_min_dbm",
            "dBm",
            independent.min_power_dbm(),
        ),
        Metric::new(
            "independent_superposed_min_dbm",
            "dBm",
            superposed_min_dbm(&scenario, &independent, cfg.coupling),
        ),
        Metric::new("joint_min_dbm", "dBm", joint.min_power_dbm()),
        Metric::new("lift_db", "dB", stats.lift_db),
        Metric::count("rounds", stats.rounds),
        Metric::flag("converged", stats.converged),
        Metric::count("coupled_probes", stats.coupled_probes),
        Metric::new(
            "cross_energy_fraction",
            "ratio",
            stats.cross_energy_fraction,
        ),
    ]
    .into_iter()
    .map(|m| m.label("room", room))
    .collect()
}

/// MaxMin min power of `outcome`'s per-panel biases under the superposed
/// multi-surface field.
fn superposed_min_dbm(
    scenario: &RoomScenario,
    outcome: &PanelOutcome,
    coupling: CouplingConfig,
) -> f64 {
    let mut coupled = CoupledEvaluator::new(
        scenario.fleet.fleet(),
        &scenario.array,
        &outcome.assignment,
        coupling,
    );
    let biases: Vec<BiasState> = outcome
        .panel_biases()
        .into_iter()
        .map(|b| b.unwrap_or(IDLE_PANEL_BIAS))
        .collect();
    coupled
        .powers_dbm(&biases)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// Runs the joint-vs-independent comparison on the zoo rooms and times
/// the coupled-evaluation hot path (`BENCH_PR9.json`). `quick` trims the
/// sample budget for CI smoke use. The joint bench times its passes
/// directly, so its telemetry block stays the null stamp; `expts
/// --trace` is the instrumented face of the joint path.
pub fn run_joint(quick: bool) -> Report {
    let mut report = Report::new("joint")
        .param("quick", quick)
        .param("eval_devices", EVAL_DEVICES)
        .param("eval_panels", EVAL_PANELS);
    let mut max_lift_db = f64::NEG_INFINITY;
    for room in JOINT_ROOMS {
        for metric in room_metrics(room) {
            if metric.name == "lift_db" {
                max_lift_db = max_lift_db.max(metric.value);
            }
            report.push(metric);
        }
    }
    report.push(Metric::new("max_lift_db", "dB", max_lift_db));

    // The office-floor joint search, timed end to end (independent
    // warm-up + descent).
    let cfg = JointConfig::default();
    let office = crate::build_room("office-floor", crate::SEED).expect("zoo rooms exist");
    let sched_iters = if quick { 2 } else { 4 };
    report.push(Metric::timing(
        "office_floor_joint_scheduler",
        time_ms(sched_iters, || office.joint_comparison(cfg).1),
    ));

    // The coupled-evaluation hot path: K-panel superposed powers per
    // bias vector, against the same evaluator with coupling disabled
    // (bitwise the independent home-field physics).
    let fleet = Fleet::mixed_wifi_ble(EVAL_DEVICES, 2021);
    let array = PanelArray::distributed(fleet.design.clone(), EVAL_PANELS);
    let assignment = array.assign(&fleet, &llama_core::panels::Assignment::BestReference);
    let biases: Vec<BiasState> = (0..EVAL_PANELS)
        .map(|k| BiasState::new(4.0 + 7.0 * k as f64, 25.0 - 6.0 * k as f64))
        .collect();
    let eval_iters = if quick { 20 } else { 100 };
    let mut coupled = CoupledEvaluator::new(
        &fleet,
        &array,
        &assignment,
        CouplingConfig::indoor_default(),
    );
    let superposed = time_ms(eval_iters, || coupled.powers_dbm(&biases));
    let mut home_only =
        CoupledEvaluator::new(&fleet, &array, &assignment, CouplingConfig::disabled());
    let zero_coupling = time_ms(eval_iters, || home_only.powers_dbm(&biases));
    let slowdown = speedup(&superposed, &zero_coupling);
    let evals_per_sec = EVAL_DEVICES as f64 / (best(&superposed) / 1e3).max(1e-12);
    report.push(Metric::timing("coupled_eval_16x3_superposed", superposed));
    report.push(Metric::timing(
        "coupled_eval_16x3_zero_coupling",
        zero_coupling,
    ));
    report.push(Metric::new("coupled_slowdown", "x", slowdown));
    report.push(Metric::new("coupled_evals_per_sec", "1/s", evals_per_sec));
    gate_joint(&mut report);
    report
}

/// The joint gates: the search never ends below its independent
/// starting point on any room, lifts at least one room by
/// [`JOINT_LIFT_FLOOR_DB`], and the coupled evaluation stays within
/// [`COUPLED_SLOWDOWN_CEILING`]× of the independent path.
pub(crate) fn gate_joint(report: &mut Report) {
    report.gate("lift_db", &[], Bound::Floor(-JOINT_REGRESSION_TOLERANCE_DB));
    report.gate("max_lift_db", &[], Bound::Floor(JOINT_LIFT_FLOOR_DB));
    report.gate("coupled_slowdown", &[], Bound::Finite);
    report.gate(
        "coupled_slowdown",
        &[],
        Bound::Ceiling(COUPLED_SLOWDOWN_CEILING),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_joint_report_passes_its_own_gates() {
        let report = run_joint(true);
        for room in JOINT_ROOMS {
            let row = [("room", room)];
            for name in [
                "independent_home_min_dbm",
                "independent_superposed_min_dbm",
                "joint_min_dbm",
            ] {
                assert!(report.metric(name, &row).unwrap().value.is_finite());
            }
            assert!(report.metric("rounds", &row).unwrap().value >= 1.0);
            assert!(report.metric("coupled_probes", &row).unwrap().value > 0.0);
            let cross = report.metric("cross_energy_fraction", &row).unwrap().value;
            assert!(cross > 0.0 && cross < 1.0);
        }
        assert!(report.passes(), "joint gates failed:\n{}", report.summary());
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"joint\""));
        assert!(json.contains("\"office-floor\""));
        assert!(json.contains("\"warehouse-aisle\""));
        assert!(json.contains("\"coupled_slowdown\""));
        assert!(json.contains("\"pass\": true"));
    }

    /// `lift_db` is the joint score minus the independent biases' score,
    /// both under the superposed field — not minus their home-field
    /// score.
    #[test]
    fn lift_is_joint_minus_independent_under_the_superposed_field() {
        for room in JOINT_ROOMS {
            let metrics = room_metrics(room);
            let value = |name: &str| {
                metrics
                    .iter()
                    .find(|m| m.name == name)
                    .expect("room metric recorded")
                    .value
            };
            let delta = value("joint_min_dbm") - value("independent_superposed_min_dbm");
            assert!(
                (delta - value("lift_db")).abs() <= 1e-6,
                "{room}: joint − independent (superposed) = {delta} dB, lift_db = {} dB",
                value("lift_db")
            );
        }
    }
}
