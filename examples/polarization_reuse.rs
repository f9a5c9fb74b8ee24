//! Polarization reuse and access control (the paper's §7 outlook).
//!
//! Several IoT devices at different antenna orientations share one
//! LLAMA surface. One bias state must serve them all — or deliberately
//! serve *one* of them. This example runs both policies:
//!
//! * max-min fairness: the broadcast/coexistence setting;
//! * favor/suppress: polarization as a crude access-control key, putting
//!   a polarization null on the neighbour.
//!
//! ```sh
//! cargo run --release --example polarization_reuse
//! ```

use llama::control::sweep::SweepConfig;
use llama::core::fleet::{Fleet, FleetDevice, FleetEvaluator, Scheduler};
use llama::core::scenario::Scenario;
use llama::devices::profile::DeviceProfile;
use llama::rfmath::units::Degrees;

fn main() {
    let base = Scenario::transmissive_default().with_seed(42);

    // Three devices at awkward relative orientations.
    let mut fleet = Fleet::new(base.design.clone());
    for (label, orientation) in [
        ("thermostat (40°)", 40.0),
        ("camera (85°)", 85.0),
        ("door sensor (120°)", 120.0),
    ] {
        fleet.push(FleetDevice::from_profile(
            label,
            DeviceProfile::usrp_directional(),
            base.clone(),
            Degrees(orientation),
        ));
    }

    println!("Polarization reuse — three devices, one surface");
    println!();
    println!("per-device baselines (no surface):");
    let baselines = FleetEvaluator::new(&fleet).baselines_dbm();
    for (device, p) in fleet.devices().iter().zip(&baselines) {
        println!("  {:<22} {p:.1} dBm", device.label);
    }
    println!();

    // Both policies search one full 13 × 13 grid over the supply range.
    let sweep = SweepConfig {
        steps_per_axis: 13,
        ..SweepConfig::full_scan()
    };

    // Policy 1: fairness.
    let fair = Scheduler {
        sweep,
        ..Scheduler::max_min()
    }
    .run(&fleet);
    let bias = fair.shared_bias.expect("shared-bias policy");
    println!(
        "max-min fairness: bias Vx = {:.1} V, Vy = {:.1} V",
        bias.vx.0, bias.vy.0
    );
    for d in &fair.per_device {
        println!("  {:<22} {:>8.1} dBm", d.label, d.power_dbm);
    }
    println!("  worst link: {:.1} dBm", fair.min_power_dbm());
    println!();

    // Policy 2: favor the door sensor, suppress the rest.
    let favored = 2;
    let exclusive = Scheduler {
        sweep,
        ..Scheduler::favor(favored)
    }
    .run(&fleet);
    let bias = exclusive.shared_bias.expect("shared-bias policy");
    println!(
        "favor '{}': bias Vx = {:.1} V, Vy = {:.1} V",
        fleet.devices()[favored].label,
        bias.vx.0,
        bias.vy.0
    );
    for (i, d) in exclusive.per_device.iter().enumerate() {
        let marker = if i == favored { " <= favored" } else { "" };
        println!("  {:<22} {:>8.1} dBm{marker}", d.label, d.power_dbm);
    }
    // Under `Favor` the score is the favored device's margin over the
    // best other device.
    println!(
        "  isolation over best other device: {:.1} dB",
        exclusive.score
    );
    println!();
    println!(
        "One panel, two behaviours: a fair compromise rotation, or a \
         polarization null dropped on the neighbours — the §7 \"polarization \
         reuse or access control\" idea, quantified."
    );
}
