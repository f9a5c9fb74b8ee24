//! Trace harness behind `expts --trace` and `expts --trace-overhead`:
//! the JSONL face of the telemetry plane, plus the CI gate that keeps
//! the plane cheap enough to leave compiled in.
//!
//! `--trace <room>` runs a zoo room start to finish with a
//! [`RingRecorder`] attached to every layer — the mobility engine
//! (tick-phase spans, fault and handoff edges), the panel scheduler
//! (per-panel sweep spans), and a single-worker [`FleetServer`] pass
//! over the room's fleet (job enqueue/complete events) — then runs the
//! whole thing *again* under the same seed and demands the two event
//! logs be **byte-identical**. Events carry only logical `(seq, tick)`
//! stamps and seed-deterministic payloads (wall-clock lands in the
//! aggregated histograms only), so any diff means nondeterminism crept
//! into the serving stack, and the trace doubles as a regression gate.
//!
//! `--trace-overhead` times the same room with a null recorder and with
//! a live ring and gates the ratio at [`OVERHEAD_CEILING`]. On a
//! single-core runner the timing is too noisy to gate hard, so the
//! ratio is recorded there but not bounded.

use std::sync::Arc;

use control::server::FleetServer;
use llama_core::faults::FaultPlan;
use llama_core::panels::PanelScheduler;
use llama_core::telemetry::{RecorderHandle, RingRecorder};
use llama_core::{Fleet, PanelArray};

use crate::chaos::scripted_plan;
use crate::perf::{best, time_ms};
use crate::report::{Bound, Metric, Report};

/// Jobs staged through the single-worker server pass (the room's fleet
/// snapshot, repeated): enough to land on more than one shard without
/// bloating the log.
pub const TRACE_SERVER_JOBS: usize = 4;

/// Max ring-over-null wall-clock ratio the overhead gate allows.
pub const OVERHEAD_CEILING: f64 = 1.05;

/// Every event family the acceptance gate requires in a room trace:
/// server, scheduler, sim-tick and fault coverage.
const REQUIRED_KINDS: [&str; 5] = [
    "job_enqueued",
    "job_completed",
    "sweep_span",
    "tick_phase",
    "fault_injected",
];

/// Captures room `name` under `seed` twice and compares the logs
/// (`Err` on an unknown room, listing the catalog). Returns the report
/// and the JSONL event log of the first capture, one event per line.
/// Every capture runs under the chaos sweep's scripted mid-run outage of
/// panel 0 with no stochastic faults, so the log always exercises the
/// injection, re-home and revival paths.
pub fn run(name: &str, seed: u64) -> Result<(Report, String), String> {
    let (jsonl, aggregate, events, dropped) = traced_pass(name, seed)?;
    let (replay, _, _, _) = traced_pass(name, seed)?;
    let mut report = Report::new("trace")
        .text("trace_room", name)
        .param("seed", seed);
    report.faults = scripted_plan(seed, 0.0);
    report.telemetry = aggregate;
    report.push(Metric::count("events", events));
    report.push(Metric::new("dropped", "count", dropped as f64));
    report.push(Metric::flag("deterministic", jsonl == replay));
    for kind in REQUIRED_KINDS {
        let n = jsonl.matches(&format!("\"type\": \"{kind}\"")).count();
        report.push(Metric::count("events_of_type", n).label("type", kind));
    }
    gate_trace(&mut report);
    Ok((report, jsonl))
}

/// The trace gates: the capture replayed byte-identically, logged
/// events, and every required event family showed up.
pub(crate) fn gate_trace(report: &mut Report) {
    report.gate("deterministic", &[], Bound::Floor(1.0));
    report.gate("events", &[], Bound::Floor(1.0));
    report.gate("events_of_type", &[], Bound::Floor(1.0));
}

/// One fully-traced capture: the room under the scripted outage, then a
/// single-worker server pass over the room's fleet. Returns
/// `(events_jsonl, aggregate_json, event_count, dropped)`.
fn traced_pass(name: &str, seed: u64) -> Result<(String, String, usize, u64), String> {
    let mut scenario = crate::build_room(name, seed)?;
    let ring = Arc::new(RingRecorder::default());
    let handle = RecorderHandle::new(ring.clone());

    // The server pass serves the *initial* fleet snapshot, so grab the
    // jobs before the simulation mutates the world in place.
    let jobs: Vec<(Fleet, PanelArray)> = (0..TRACE_SERVER_JOBS)
        .map(|_| (scenario.fleet.fleet().clone(), scenario.array.clone()))
        .collect();

    let _sim = scenario.run_traced(scripted_plan(seed, 0.0), handle.clone());

    // Single worker: event order across workers is only deterministic
    // when there is exactly one of them (results are deterministic at
    // any width — the trace pins width for the log's sake).
    let scheduler = PanelScheduler::max_min().with_recorder(handle.clone());
    let server = FleetServer::new(1).with_recorder(handle.clone());
    let (results, _stats) = server.try_serve_with_stats(
        jobs.iter().collect(),
        |_, (fleet, array): &(Fleet, PanelArray)| scheduler.run(fleet, array),
    );
    if results.iter().any(|r| r.is_err()) {
        return Err(format!("trace server pass failed on {name:?}"));
    }

    Ok((
        ring.events_jsonl(),
        handle.aggregate_json(),
        ring.event_count(),
        ring.dropped(),
    ))
}

/// The telemetry overhead gate: room `name` under `seed` timed `iters`
/// runs each with the null recorder and with a live ring recorder
/// (`Err` on an unknown room). The gate reads the best-of-N ratio
/// `ring / null`; a single-core host records it without a bound — the
/// measurement is too noisy there to fail CI on.
pub fn run_overhead(name: &str, seed: u64, iters: u64) -> Result<Report, String> {
    crate::build_room(name, seed)?; // validate the name once before timing
                                    // Interleave-free best-of-N per arm; a fresh room each run because
                                    // the simulation consumes its fleet.
    let null = time_ms(iters, || {
        let mut scenario = crate::build_room(name, seed).expect("validated above");
        scenario.run_traced(FaultPlan::none(), RecorderHandle::null())
    });
    let ring = time_ms(iters, || {
        let mut scenario = crate::build_room(name, seed).expect("validated above");
        let handle = RecorderHandle::new(Arc::new(RingRecorder::default()));
        scenario.run_traced(FaultPlan::none(), handle)
    });
    let single_core = crate::logical_cores() == 1;
    let mut report = Report::new("overhead")
        .text("overhead_room", name)
        .param("iters", iters);
    let overhead = best(&ring) / best(&null).max(1e-12);
    report.push(Metric::new("null_ms", "ms", best(&null)).with_samples(null));
    report.push(Metric::new("ring_ms", "ms", best(&ring)).with_samples(ring));
    report.push(Metric::new("overhead", "x", overhead));
    report.push(Metric::flag("single_core", single_core));
    gate_overhead(&mut report, single_core);
    Ok(report)
}

/// The overhead gate: the ring stays within [`OVERHEAD_CEILING`] of the
/// null recorder, except on a single-core host.
pub(crate) fn gate_overhead(report: &mut Report, single_core: bool) {
    if !single_core {
        report.gate("overhead", &[], Bound::Ceiling(OVERHEAD_CEILING));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_room_lists_the_catalog() {
        let err = run("no-such-room", 1).unwrap_err();
        assert!(err.contains("office-floor"));
        assert!(run_overhead("no-such-room", 1, 1)
            .unwrap_err()
            .contains("warehouse-aisle"));
    }

    #[test]
    fn warehouse_trace_is_deterministic_and_covers_every_layer() {
        let (report, jsonl) = run("warehouse-aisle", crate::SEED).unwrap();
        assert!(report.passes(), "{}", report.summary());
        assert_eq!(report.metric("deterministic", &[]).unwrap().value, 1.0);
        // The scripted outage shows up with its recovery, and the log
        // carries logical stamps only.
        assert!(jsonl.contains("\"type\": \"fault_recovered\""));
        assert!(jsonl.starts_with("{\"seq\": 0, \"tick\": 0,"));
        let json = report.to_json();
        assert!(json.contains("\"machine\""));
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"name\": \"deterministic\", \"unit\": \"bool\", \"value\": true"));
        assert!(json.contains("\"pass\": true"));
    }

    #[test]
    fn overhead_gate_measures_both_arms() {
        let report = run_overhead("conference-room", crate::SEED, 1).unwrap();
        assert!(report.metric("null_ms", &[]).unwrap().value > 0.0);
        assert!(report.metric("ring_ms", &[]).unwrap().value > 0.0);
        assert!(report.metric("overhead", &[]).unwrap().value.is_finite());
        let json = report.to_json();
        assert!(json.contains("\"overhead_room\": \"conference-room\""));
        if crate::logical_cores() > 1 {
            assert!(json.contains("\"ceiling\": 1.05"));
        }
    }
}
