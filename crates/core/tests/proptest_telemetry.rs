//! Telemetry-plane contracts:
//!
//! * **null-recorder inertness** — a [`RecorderHandle::null`] threaded
//!   through the warm [`MobilitySim`] engine reproduces the
//!   recorder-absent run *bitwise* on every tick (allocation, served
//!   powers, throughput, duty, applied biases), across random fleets,
//!   panel counts and assignment policies. Observability must cost
//!   nothing — not a ULP — when nobody is listening;
//! * **ring determinism** — the JSONL event log of a seeded chaos-style
//!   scenario (scripted outage, warm engine) is byte-identical across
//!   reruns: events carry only logical `(seq, tick)` stamps and
//!   seed-deterministic payloads, never wall-clock.

use std::sync::Arc;

use llama_core::faults::{FaultPlan, FaultWindow, PanelOutage};
use llama_core::panels::{Assignment, PanelArray, PanelScheduler};
use llama_core::sim::{DynamicFleet, MobilitySim, SimConfig};
use llama_core::telemetry::{RecorderHandle, RingRecorder};
use proptest::prelude::*;
use rfmath::units::Seconds;

fn assignment() -> BoxedStrategy<Assignment> {
    prop_oneof![
        Just(Assignment::ByOrientation),
        Just(Assignment::RoundRobin),
        Just(Assignment::BestReference),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole exactness bar: attaching the null recorder is
    /// invisible, bit for bit, even under mobility.
    #[test]
    fn a_null_recorder_reproduces_the_recorder_absent_run_bitwise(
        n in 2usize..7,
        seed in 0u64..1_000,
        k in 1usize..3,
        asg in assignment(),
        ticks in 2usize..6,
    ) {
        let horizon = Seconds(ticks as f64);
        let scheduler = PanelScheduler::max_min().with_assignment(asg);
        let array = PanelArray::distributed(
            DynamicFleet::roaming_mixed(n, seed, horizon).fleet().design.clone(),
            k,
        );
        let plain = MobilitySim::new(scheduler.clone(), SimConfig::default())
            .run(&mut DynamicFleet::roaming_mixed(n, seed, horizon), &array, ticks);
        let recorded = MobilitySim::new(scheduler, SimConfig::default())
            .with_recorder(RecorderHandle::null())
            .run(&mut DynamicFleet::roaming_mixed(n, seed, horizon), &array, ticks);
        prop_assert_eq!(plain.total(|t| t.handoffs), recorded.total(|t| t.handoffs));
        for (i, (p, r)) in plain.ticks.iter().zip(&recorded.ticks).enumerate() {
            prop_assert!(
                p.outcome.same_allocation(&r.outcome),
                "tick {} diverged under a null recorder", i
            );
            prop_assert_eq!(
                p.served_min_power_dbm.to_bits(),
                r.served_min_power_dbm.to_bits()
            );
            prop_assert_eq!(
                p.served_throughput_bits_hz.to_bits(),
                r.served_throughput_bits_hz.to_bits()
            );
            for (a, b) in p.panel_duty.iter().zip(&r.panel_duty) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(&p.applied, &r.applied);
            prop_assert_eq!(p.outcome.probes, r.outcome.probes);
        }
    }
}

/// One traced run of a seeded chaos-style scenario: a roaming fleet
/// over two panels, with the chaos harness's scripted mid-run outage of
/// panel 0. Returns the ring's JSONL log.
fn traced_chaos_jsonl(seed: u64) -> String {
    let ticks = 10usize;
    let horizon = Seconds(ticks as f64);
    let mut plan = FaultPlan::with_rates(seed, 0.05, 0.05, 0.05);
    plan.outages.push(PanelOutage {
        panel: 0,
        window: FaultWindow {
            start: Seconds(3.0),
            duration: Seconds(3.0),
        },
    });
    let mut fleet = DynamicFleet::roaming_mixed(6, seed, horizon);
    let array = PanelArray::distributed(fleet.fleet().design.clone(), 2);
    let ring = Arc::new(RingRecorder::default());
    MobilitySim::new(PanelScheduler::max_min(), SimConfig::default())
        .with_faults(plan)
        .with_recorder(RecorderHandle::new(ring.clone()))
        .run(&mut fleet, &array, ticks);
    ring.events_jsonl()
}

#[test]
fn ring_event_order_is_deterministic_across_reruns_of_a_seeded_chaos_scenario() {
    let first = traced_chaos_jsonl(2021);
    let second = traced_chaos_jsonl(2021);
    assert!(!first.is_empty());
    assert_eq!(first, second, "same-seed chaos reruns must log identically");
    // The scripted outage edge is in the log, with logical stamps only.
    assert!(first.contains("\"type\": \"fault_injected\""));
    assert!(first.contains("\"type\": \"tick_phase\""));
    assert!(first.starts_with("{\"seq\": 0, \"tick\": 0,"));
}
