//! Mobility-simulator contracts:
//!
//! * **zero-velocity equivalence** — a [`DynamicFleet`] with no mobility
//!   models and no blockage events, driven through the warm
//!   [`MobilitySim`] engine, reproduces the static [`PanelScheduler`]
//!   allocation *exactly* on every tick, across random fleets, panel
//!   counts and assignment policies. Tick 0 because the simulator runs
//!   the very same cold search over the very same cached evaluators;
//!   later ticks because an unchanged world is reused outright. The
//!   comparison is bit-for-bit on biases, served powers, assignment and
//!   score (probe counts are excluded — a reused tick spends zero, and
//!   that *is* the warm engine's point);
//! * **mode agreement** — the warm engine and the memoryless cold
//!   baseline agree on every tick's allocation when nothing moves.

use llama_core::panels::{Assignment, PanelArray, PanelScheduler};
use llama_core::sim::{DynamicFleet, MobilitySim, SimConfig};
use llama_core::Fleet;
use proptest::prelude::*;
use rfmath::units::Degrees;

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

    /// The PR-5 exactness bar: zero velocity in, the static scheduler's
    /// allocation out, on every tick.
    #[test]
    fn zero_velocity_fleet_reproduces_the_static_scheduler(
        f in fleet(5),
        k in 1usize..4,
        asg in assignment(),
        ticks in 2usize..5,
    ) {
        let array = PanelArray::uniform(f.design.clone(), k);
        let scheduler = PanelScheduler::max_min().with_assignment(asg);
        let reference = scheduler.run(&f, &array);
        let mut dynamic = DynamicFleet::new(f);
        let report = MobilitySim::new(scheduler, SimConfig::default())
            .run(&mut dynamic, &array, ticks);
        prop_assert_eq!(report.ticks.len(), ticks);
        prop_assert_eq!(report.total(|t| t.handoffs), 0);
        for (i, tick) in report.ticks.iter().enumerate() {
            prop_assert!(tick.moved.is_empty(), "tick {} dirtied a parked fleet", i);
            prop_assert!(
                tick.outcome.same_allocation(&reference),
                "tick {} diverged from the static allocation", i
            );
        }
        // Tick 0 pays the full static probe bill; later ticks are free.
        prop_assert_eq!(report.ticks[0].outcome.probes, reference.probes);
        for tick in &report.ticks[1..] {
            prop_assert_eq!(tick.outcome.probes, 0);
        }
    }

    /// Warm and cold engines agree tick for tick on a motionless world
    /// (the CI smoke pins the same property on the fixed workload).
    #[test]
    fn warm_and_cold_modes_agree_when_nothing_moves(
        f in fleet(4),
        k in 1usize..3,
    ) {
        let array = PanelArray::distributed(f.design.clone(), k);
        let scheduler = PanelScheduler::max_min();
        let warm = MobilitySim::new(scheduler.clone(), SimConfig::default())
            .run(&mut DynamicFleet::new(f.clone()), &array, 3);
        let cold = MobilitySim::new(scheduler, SimConfig::cold())
            .run(&mut DynamicFleet::new(f), &array, 3);
        for (w, c) in warm.ticks.iter().zip(&cold.ticks) {
            prop_assert!(w.outcome.same_allocation(&c.outcome));
        }
    }
}
