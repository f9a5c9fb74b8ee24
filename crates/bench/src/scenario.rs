//! Scenario-zoo suite: simulates a named room configuration from
//! [`llama_core::rooms`] and reports how well it served.
//!
//! This is the CI face of the zoo — `expts --scenario <name>` runs one
//! room for its seeded tick budget, prints a human summary, writes the
//! JSON artifact, and exits nonzero unless the room actually served
//! (nonzero serving duty, finite served power). Every future
//! optimization that touches geometry, scheduling or the simulator gets
//! smoke-checked against rooms, not just the synthetic line fleet.

use std::sync::Arc;

use llama_core::faults::FaultPlan;
use llama_core::telemetry::{RecorderHandle, RingRecorder};

use crate::report::{Bound, Metric, Report};

/// Runs scenario `name` under `seed` (`Err` on an unknown name, listing
/// the catalog). Scenario-zoo runs are fault-free by construction, and
/// the stamp says so explicitly.
pub fn run(name: &str, seed: u64) -> Result<Report, String> {
    let mut scenario = crate::build_room(name, seed)?;
    // Every zoo run carries a ring recorder so the committed JSON gets a
    // real aggregated telemetry block, not a null stamp.
    let recorder = RecorderHandle::new(Arc::new(RingRecorder::default()));
    let sim = scenario.run_traced(FaultPlan::none(), recorder.clone());
    let mut report = Report::new("scenario")
        .text("scenario", scenario.name)
        .text("description", scenario.description)
        .param("seed", scenario.seed)
        .param("devices", scenario.fleet.len())
        .param("panels", scenario.array.len())
        .param("ticks", sim.ticks.len());
    report.telemetry = recorder.aggregate_json();
    for metric in [
        Metric::new("mean_duty", "ratio", sim.mean_duty()),
        Metric::new("mean_min_power_dbm", "dBm", sim.mean_served_min_power_dbm()),
        Metric::count("probes", sim.total_probes()),
        Metric::count("links_reprepared", sim.total_links_reprepared()),
        Metric::count("links_rebound", sim.total_links_rebound()),
        Metric::count("handoffs", sim.handoffs),
        Metric::new("wall_ms", "ms", sim.wall_ms),
    ] {
        report.push(metric);
    }
    gate_scenario(&mut report);
    Ok(report)
}

/// The scenario gates: the room actually served — some airtime went to
/// serving, and the worst-served power is a real number.
pub(crate) fn gate_scenario(report: &mut Report) {
    report.gate("mean_duty", &[], Bound::Above(0.0));
    report.gate("mean_min_power_dbm", &[], Bound::Finite);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenario_lists_the_catalog() {
        let err = run("no-such-room", 1).unwrap_err();
        assert!(err.contains("office-floor"));
        assert!(err.contains("warehouse-aisle"));
        assert!(err.contains("conference-room"));
    }

    #[test]
    fn office_floor_serves_and_serializes() {
        let report = run("office-floor", crate::SEED).unwrap();
        assert!(report.passes(), "{}", report.summary());
        let json = report.to_json();
        assert!(json.contains("\"scenario\": \"office-floor\""));
        assert!(json.contains("\"machine\""));
        assert!(json.contains("\"faults\""));
        assert!(json.contains("\"panel_outage_rate\": 0.0000"));
        assert!(json.contains("\"allocs_per_tick\""));
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"mode\": \"ring\""));
        assert!(json.contains("\"pass\": true"));
        assert!(report.summary().contains("PASS"));
    }
}
