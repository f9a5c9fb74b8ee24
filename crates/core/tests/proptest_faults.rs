//! Fault-injection contracts:
//!
//! * **empty-plan inertness** — a [`FaultPlan::none`] threaded through
//!   the warm [`MobilitySim`] engine reproduces the fault-free run
//!   *bitwise* on every tick (allocation, served powers, duty, applied
//!   biases), across random fleets, panel counts, mobility and
//!   assignment policies. The fault paths must never perturb a healthy
//!   world — not by a ULP;
//! * **mask inertness** — a healthy [`BiasFault`] installed on a
//!   [`FleetEvaluator`] leaves every probe bitwise unchanged, and an
//!   actually-stuck axis can never *improve* the best shared-bias probe
//!   (the feasible set only shrinks).

use llama_core::faults::{BiasFault, CellFaultKind, FaultPlan};
use llama_core::fleet::FleetEvaluator;
use llama_core::panels::{Assignment, PanelArray, PanelScheduler};
use llama_core::sim::{DynamicFleet, MobilitySim, SimConfig};
use llama_core::Fleet;
use metasurface::stack::BiasState;
use proptest::prelude::*;
use rfmath::units::{Degrees, Seconds, Volts};

/// A random heterogeneous fleet (same generator family as the fleet and
/// panel proptests).
fn fleet(max_devices: usize) -> BoxedStrategy<Fleet> {
    prop::collection::vec(0usize..3, 1..max_devices)
        .prop_map(|kinds| {
            let mut rng_state = 0x51D3_88A1_27B4_6C09u64 ^ (kinds.len() as u64);
            let mut next = move || {
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                rng_state
            };
            let mut f = Fleet::new(metasurface::designs::fr4_optimized());
            for (i, kind) in kinds.iter().enumerate() {
                let deg = Degrees((next() % 180) as f64 - 90.0);
                let seed = next() % 1_000;
                f.push(match kind {
                    0 => llama_core::fleet::FleetDevice::wifi(
                        format!("w{i}"),
                        deg,
                        150.0 + (next() % 300) as f64,
                        seed,
                    ),
                    1 => llama_core::fleet::FleetDevice::ble(
                        format!("b{i}"),
                        deg,
                        150.0 + (next() % 300) as f64,
                        seed,
                    ),
                    _ => llama_core::fleet::FleetDevice::usrp(
                        format!("u{i}"),
                        deg,
                        30.0 + (next() % 80) as f64,
                        seed,
                    ),
                });
            }
            f
        })
        .boxed()
}

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

    /// The PR-7 exactness bar: an empty fault plan in, the fault-free
    /// run out, bit for bit, even under mobility.
    #[test]
    fn an_empty_fault_plan_reproduces_the_fault_free_run_bitwise(
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
        let faulted = MobilitySim::new(scheduler, SimConfig::default())
            .with_faults(FaultPlan::none())
            .run(&mut DynamicFleet::roaming_mixed(n, seed, horizon), &array, ticks);
        prop_assert_eq!(plain.total(|t| t.handoffs), faulted.total(|t| t.handoffs));
        for (i, (p, f)) in plain.ticks.iter().zip(&faulted.ticks).enumerate() {
            prop_assert!(
                p.outcome.same_allocation(&f.outcome),
                "tick {} diverged under an empty plan", i
            );
            prop_assert_eq!(
                p.served_min_power_dbm.to_bits(),
                f.served_min_power_dbm.to_bits()
            );
            prop_assert_eq!(
                p.served_throughput_bits_hz.to_bits(),
                f.served_throughput_bits_hz.to_bits()
            );
            for (a, b) in p.panel_duty.iter().zip(&f.panel_duty) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(&p.applied, &f.applied);
            prop_assert_eq!(p.outcome.probes, f.outcome.probes);
            prop_assert_eq!(f.outaged_panels, 0);
            prop_assert_eq!(f.fault_reassignments, 0);
            prop_assert_eq!(f.reports_lost, 0);
            prop_assert_eq!(f.psu_glitches, 0);
        }
    }

    /// A healthy mask is the identity; a stuck axis only shrinks the
    /// feasible bias set.
    #[test]
    fn healthy_masks_are_bitwise_identities(
        f in fleet(5),
        vx in 0.0f64..30.0,
        vy in 0.0f64..30.0,
        stuck in 0.0f64..30.0,
    ) {
        let bias = BiasState::new(vx, vy);
        let unmasked = FleetEvaluator::new(&f);
        let mut masked = FleetEvaluator::new(&f);
        masked.set_bias_fault(Some(BiasFault::default()));
        for (a, b) in unmasked.powers_dbm(bias).iter().zip(&masked.powers_dbm(bias)) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }

        // Stuck X: every probe behaves as if vx were the frozen value.
        let mut broken = FleetEvaluator::new(&f);
        broken.set_bias_fault(Some(BiasFault {
            x: Some(CellFaultKind::Stuck(Volts(stuck))),
            y: None,
        }));
        let expect = unmasked.powers_dbm(BiasState::new(stuck, vy));
        for (a, b) in broken.powers_dbm(bias).iter().zip(&expect) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // And the defect never helps the worst device at the probe the
        // healthy panel would have chosen among these two.
        let healthy_best = unmasked
            .powers_dbm(bias)
            .iter()
            .fold(f64::INFINITY, |m, &p| m.min(p));
        let healthy_alt = expect.iter().fold(f64::INFINITY, |m, &p| m.min(p));
        let broken_best = broken
            .powers_dbm(bias)
            .iter()
            .fold(f64::INFINITY, |m, &p| m.min(p));
        prop_assert!(broken_best <= healthy_best.max(healthy_alt) + 1e-9);
    }
}
