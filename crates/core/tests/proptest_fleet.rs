//! Fleet-engine contracts:
//!
//! * the shared-plan batch path equals the naive per-device loop to
//!   1e-12 across random fleets and bias lists (the PR's equivalence
//!   acceptance bar);
//! * the `MaxMin` scheduler's score is ≥ the worst link of *every*
//!   probed shared bias (it is the arg-max of the min — no probed
//!   compromise can beat it).

use control::sweep::coarse_to_fine_multi;
use llama_core::fleet::{Fleet, FleetDevice, FleetEvaluator, Scheduler};
use metasurface::stack::BiasState;
use proptest::prelude::*;
use rfmath::units::Degrees;

/// A random heterogeneous fleet: 1..max devices of mixed radio classes,
/// orientations, distances and channel seeds (derived from a xorshift
/// stream so each drawn class vector yields a full device population).
fn fleet(max_devices: usize) -> BoxedStrategy<Fleet> {
    prop::collection::vec(0usize..3, 1..max_devices)
        .prop_map(|kinds| {
            let mut rng_state = 0x243F_6A88_85A3_08D3u64 ^ (kinds.len() as u64);
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
                    0 => {
                        FleetDevice::wifi(format!("w{i}"), deg, 150.0 + (next() % 300) as f64, seed)
                    }
                    1 => {
                        FleetDevice::ble(format!("b{i}"), deg, 150.0 + (next() % 300) as f64, seed)
                    }
                    _ => FleetDevice::usrp(format!("u{i}"), deg, 30.0 + (next() % 80) as f64, seed),
                });
            }
            f
        })
        .boxed()
}

fn biases() -> BoxedStrategy<Vec<BiasState>> {
    prop::collection::vec((0.0f64..30.0, 0.0f64..30.0), 1..8)
        .prop_map(|v| v.into_iter().map(|(x, y)| BiasState::new(x, y)).collect())
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched == naive per-receiver powers to 1e-12, across random
    /// heterogeneous fleets (mixed radios, deployments, rooms) and
    /// random bias lists.
    #[test]
    fn batched_fleet_powers_match_naive_loop(f in fleet(6), probes in biases()) {
        let evaluator = FleetEvaluator::new(&f);
        let fast = evaluator.powers_matrix(&probes);
        let naive = f.naive_powers_matrix(&probes);
        for (b, (row_fast, row_naive)) in fast.iter().zip(&naive).enumerate() {
            for (d, (a, n)) in row_fast.iter().zip(row_naive).enumerate() {
                prop_assert!(
                    (a - n).abs() < 1e-12,
                    "bias {b} device {d}: batched {a} vs naive {n}"
                );
            }
        }
    }

    /// The MaxMin allocation is at least as good (for the worst link) as
    /// every shared bias the search probed.
    #[test]
    fn max_min_dominates_every_probed_bias(f in fleet(5), _pad in 0u8..2) {
        let scheduler = Scheduler::max_min();
        let outcome = scheduler.run(&f);
        // The scheduler's sweep, replayed with every probe recorded.
        let evaluator = FleetEvaluator::new(&f);
        let min = |m: &[f64]| m.iter().copied().fold(f64::INFINITY, f64::min);
        let mut probed = Vec::new();
        coarse_to_fine_multi(
            &scheduler.sweep,
            |p| {
                let bias = BiasState { vx: p.vx, vy: p.vy };
                let powers = evaluator.powers_dbm(bias);
                probed.push((bias, min(&powers)));
                powers
            },
            min,
        );
        for (bias, worst) in &probed {
            prop_assert!(
                outcome.score >= *worst,
                "probed bias {bias:?} has worst link {worst:.3} dBm above the \
                 scheduler's {:.3} dBm",
                outcome.score
            );
        }
        let best = probed.iter().map(|(_, w)| *w).fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(outcome.score, best);
        // And the reported per-device powers are exactly the winner's.
        let worst_reported = outcome
            .per_device
            .iter()
            .map(|d| d.power_dbm)
            .fold(f64::INFINITY, f64::min);
        prop_assert!((outcome.score - worst_reported).abs() < 1e-12);
    }
}
