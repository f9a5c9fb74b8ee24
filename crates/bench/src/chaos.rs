//! Chaos suite behind `expts --chaos`: sweeps seeded fault rates over a
//! scenario-zoo room and reports the degradation curve, one row of
//! metrics per fault rate.
//!
//! Three gates make the curve trustworthy:
//!
//! * **zero-fault identity** — the room under [`FaultPlan::none`] must
//!   reproduce the fault-free baseline *bitwise*, tick for tick
//!   (allocation, served power, duty, applied biases). If the fault
//!   plumbing perturbs a healthy run by one ULP, the report fails;
//! * **graceful degradation** — at the 5% and 10% fault points
//!   (panel-outage + report-loss + PSU-glitch rates set together, plus
//!   one scripted mid-run outage of panel 0) the room must still serve:
//!   finite worst-device power, mean duty above [`DUTY_FLOOR`], and the
//!   orphaned sub-fleet actually re-homed;
//! * **no panics anywhere** — every point runs the full warm engine;
//!   reaching the report at all is the isolation proof.
//!
//! Higher rates (20%, 30%) are measured and recorded for the curve but
//! not gated — a room three panels dark most ticks is allowed to
//! starve, it just has to do so without crashing.

use std::sync::Arc;

use llama_core::faults::{FaultPlan, FaultWindow, PanelOutage};
use llama_core::panels::JointConfig;
use llama_core::sim::SimReport;
use llama_core::telemetry::{RecorderHandle, RingRecorder};
use rfmath::units::Seconds;

use crate::report::{Bound, Metric, Report};

/// Fault rates swept for the degradation curve.
pub const RATES: [f64; 4] = [0.05, 0.10, 0.20, 0.30];

/// Highest fault rate the degradation gates apply to.
const GATED_RATE: f64 = 0.10;

/// Minimum device-weighted mean serving duty the gated (5% and 10%)
/// points must keep. The healthy zoo rooms sit near 0.9; a 0.2 floor
/// means "degraded but clearly alive" with headroom for the scripted
/// outage's re-home cold searches.
pub const DUTY_FLOOR: f64 = 0.2;

/// The fault plan of one sweep point: panel-outage, report-loss and
/// PSU-glitch rates all at `rate`, plus one scripted mid-run outage of
/// panel 0, so the orphan re-home machinery is exercised at every rate
/// (stochastic outages alone might miss a short room at the low rates).
pub(crate) fn scripted_plan(seed: u64, rate: f64) -> FaultPlan {
    let mut plan = FaultPlan::with_rates(seed, rate, rate, rate);
    plan.outages.push(PanelOutage {
        panel: 0,
        window: FaultWindow {
            start: Seconds(3.0),
            duration: Seconds(3.0),
        },
    });
    plan
}

/// The row label of one sweep point (`0.00` is the fault-free baseline).
fn rate_label(rate: f64) -> String {
    format!("{rate:.2}")
}

/// One point of the degradation curve, labelled by its fault rate.
fn point_metrics(rate: f64, sim: &SimReport) -> Vec<Metric> {
    [
        Metric::new("mean_duty", "ratio", sim.mean_duty()),
        Metric::new("mean_min_power_dbm", "dBm", sim.mean_served_min_power_dbm()),
        Metric::count("outaged_panel_ticks", sim.total_outaged_panel_ticks()),
        Metric::count("reassignments", sim.total_fault_reassignments()),
        Metric::count("reports_lost", sim.total_reports_lost()),
        Metric::count("reports_exhausted", sim.total_reports_exhausted()),
        Metric::count("psu_glitches", sim.total_psu_glitches()),
        Metric::count("handoffs", sim.handoffs),
    ]
    .into_iter()
    .map(|m| m.label("rate", rate_label(rate)))
    .collect()
}

/// Sweeps room `name` under `seed` (`Err` on an unknown room, listing
/// the catalog). With `joint`, the joint-mode smoke ([`joint_smoke`])
/// rides along in the same report. The JSON stamps the highest-rate
/// fault configuration swept.
pub fn run(name: &str, seed: u64, joint: bool) -> Result<Report, String> {
    let mut report = Report::new("chaos")
        .text("chaos_room", name)
        .param("seed", seed)
        .param("duty_floor", DUTY_FLOOR);
    if joint {
        for metric in joint_smoke(name, seed)? {
            report.push(metric);
        }
    }

    let baseline = crate::build_room(name, seed)?.run();
    // Gate 1: the empty plan must be bitwise inert.
    let zero = crate::build_room(name, seed)?.run_with_faults(FaultPlan::none());
    report.push(Metric::flag(
        "zero_fault_identical",
        bitwise_identical(&baseline, &zero),
    ));
    for metric in point_metrics(0.0, &baseline) {
        report.push(metric);
    }

    // The degradation curve. The ring recorder rides along with every
    // rate-point run; the baseline and zero-fault identity runs stay
    // untraced so the bitwise gate compares exactly what it always
    // compared.
    let recorder = RecorderHandle::new(Arc::new(RingRecorder::default()));
    for &rate in RATES.iter() {
        let sim =
            crate::build_room(name, seed)?.run_traced(scripted_plan(seed, rate), recorder.clone());
        for metric in point_metrics(rate, &sim) {
            report.push(metric);
        }
    }
    report.faults = scripted_plan(seed, RATES[RATES.len() - 1]);
    report.telemetry = recorder.aggregate_json();
    gate_chaos(&mut report, joint);
    Ok(report)
}

/// The chaos gates: zero-fault identity, and at every rate up to
/// [`GATED_RATE`] the room still serves — duty at or above
/// [`DUTY_FLOOR`], finite worst-device power, the scripted outage's
/// orphans actually re-homed. With `joint`, the joint smoke's
/// determinism and monotonicity too.
pub(crate) fn gate_chaos(report: &mut Report, joint: bool) {
    report.gate("zero_fault_identical", &[], Bound::Floor(1.0));
    for rate in RATES.into_iter().filter(|&r| r <= GATED_RATE + 1e-9) {
        let label = rate_label(rate);
        let row = [("rate", label.as_str())];
        report.gate("mean_duty", &row, Bound::Floor(DUTY_FLOOR));
        report.gate("mean_min_power_dbm", &row, Bound::Finite);
        report.gate("reassignments", &row, Bound::Floor(1.0));
    }
    if joint {
        report.gate("joint_deterministic", &[], Bound::Floor(1.0));
        report.gate(
            "joint_lift_db",
            &[],
            Bound::Floor(-crate::joint::JOINT_REGRESSION_TOLERANCE_DB),
        );
    }
}

/// The joint-mode smoke for the chaos lane: runs the room's
/// joint-vs-independent comparison twice under the same seed and
/// records (a) whether the two runs were bitwise identical and (b) the
/// descent's lift, whose monotonicity contract says the joint score
/// never ends below the independent starting point. `Err` on an
/// unknown room.
pub fn joint_smoke(name: &str, seed: u64) -> Result<Vec<Metric>, String> {
    let (independent, joint_a) =
        crate::build_room(name, seed)?.joint_comparison(JointConfig::default());
    let (_, joint_b) = crate::build_room(name, seed)?.joint_comparison(JointConfig::default());
    let deterministic = joint_a.same_allocation(&joint_b)
        && joint_a.score.to_bits() == joint_b.score.to_bits()
        && joint_a.probes == joint_b.probes;
    let stats = joint_a
        .joint
        .ok_or_else(|| "joint run reported no descent stats".to_string())?;
    Ok(vec![
        Metric::flag("joint_deterministic", deterministic),
        Metric::new(
            "joint_independent_min_dbm",
            "dBm",
            independent.min_power_dbm(),
        ),
        Metric::new("joint_min_dbm", "dBm", joint_a.min_power_dbm()),
        Metric::new("joint_lift_db", "dB", stats.lift_db),
        Metric::count("joint_rounds", stats.rounds),
        Metric::new(
            "joint_cross_energy_fraction",
            "ratio",
            stats.cross_energy_fraction,
        ),
    ])
}

/// Bit-for-bit tick comparison of two runs: allocation, served power,
/// throughput, duty and applied biases all compared on raw bits.
fn bitwise_identical(a: &SimReport, b: &SimReport) -> bool {
    a.ticks.len() == b.ticks.len()
        && a.handoffs == b.handoffs
        && a.ticks.iter().zip(&b.ticks).all(|(x, y)| {
            x.outcome.same_allocation(&y.outcome)
                && x.served_min_power_dbm.to_bits() == y.served_min_power_dbm.to_bits()
                && x.served_throughput_bits_hz.to_bits() == y.served_throughput_bits_hz.to_bits()
                && x.applied == y.applied
                && x.panel_duty.len() == y.panel_duty.len()
                && x.panel_duty
                    .iter()
                    .zip(&y.panel_duty)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_room_lists_the_catalog() {
        let err = run("no-such-room", 1, false).unwrap_err();
        assert!(err.contains("office-floor"));
        assert!(err.contains("conference-room"));
        assert!(joint_smoke("no-such-room", 1)
            .unwrap_err()
            .contains("office-floor"));
    }

    #[test]
    fn joint_smoke_is_deterministic_and_monotone() {
        let mut report = Report::new("chaos");
        for metric in joint_smoke("office-floor", crate::SEED).unwrap() {
            report.push(metric);
        }
        assert_eq!(
            report.metric("joint_deterministic", &[]).unwrap().value,
            1.0
        );
        assert!(report.metric("joint_rounds", &[]).unwrap().value >= 1.0);
        report.gate("joint_deterministic", &[], Bound::Floor(1.0));
        report.gate("joint_lift_db", &[], Bound::Floor(-1e-9));
        assert!(report.passes(), "{}", report.summary());
    }

    #[test]
    fn office_floor_survives_the_sweep_and_serializes() {
        let report = run("office-floor", crate::SEED, false).unwrap();
        assert!(report.passes(), "{}", report.summary());
        assert_eq!(
            report.metric("zero_fault_identical", &[]).unwrap().value,
            1.0
        );
        // The scripted outage guarantees degradation is visible at
        // every nonzero point.
        for rate in RATES {
            let label = rate_label(rate);
            let row = [("rate", label.as_str())];
            assert!(report.metric("outaged_panel_ticks", &row).unwrap().value > 0.0);
            assert!(report.metric("reassignments", &row).unwrap().value > 0.0);
        }
        let json = report.to_json();
        assert!(json.contains("\"chaos_room\": \"office-floor\""));
        assert!(json.contains("\"machine\""));
        assert!(json.contains("\"faults\""));
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"mode\": \"ring\""));
        // The scripted outage means the ring saw real fault traffic:
        // the per-phase tick spans must be populated.
        assert!(json.contains("sim.phase.reopt_ns"));
        assert!(json.contains(
            "{\"name\": \"zero_fault_identical\", \"unit\": \"bool\", \"value\": true, \
             \"floor\": 1, \"pass\": true}"
        ));
        assert!(json.contains("\"pass\": true"));
        assert!(report.summary().contains("PASS"));
    }
}
