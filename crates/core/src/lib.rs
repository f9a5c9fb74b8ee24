//! # llama_core — the assembled LLAMA system
//!
//! Ties the substrates together into the end-to-end system of the
//! paper's Figure 5 and hosts the typed experiment runners behind every
//! table and figure of the evaluation:
//!
//! * [`scenario`] — fully specified experimental setups with builders
//!   for the paper's transmissive, reflective, Wi-Fi-IoT and BLE
//!   configurations;
//! * [`system`] — [`system::LlamaSystem`]: surface + PSU + controller +
//!   receiver on a simulation clock, with a fast optimization path and a
//!   fully event-stepped real-time loop (packetized reports, fault
//!   injection, 50 Hz switching budget);
//! * [`sensing`] — the §5.2.2 respiration pipeline;
//! * [`experiments`] — one runner per figure/table (see DESIGN.md's
//!   experiment index);
//! * [`fleet`] — the fleet-serving engine: heterogeneous device
//!   populations behind one surface, scheduled under max-min, favor
//!   (access control) and time-division policies on the shared-plan
//!   batch evaluation path;
//! * [`panels`] — multi-panel serving: K independently-biased surfaces
//!   ([`panels::PanelArray`]) under one controller, per-device panel
//!   assignment by geometry/polarization, a per-panel Algorithm 1
//!   scheduler ([`panels::PanelScheduler`]), and the typed front of the
//!   async many-fleet [`control::server::FleetServer`];
//! * [`faults`] — seeded fault injection: deterministic, time-windowed
//!   plans of dead unit-cell columns, PSU glitches, lost probe reports
//!   and whole-panel outages that the serving stack degrades through;
//! * [`sim`] — the event-stepped mobility simulator: moving fleets
//!   ([`sim::DynamicFleet`] with waypoint walks, turntable rotation and
//!   transient human blockage), panel handoff with dwell + dB
//!   hysteresis ([`sim::HandoffPolicy`]), warm-start re-optimization
//!   seeded from the previous tick, and PSU-aware tick budgets that
//!   bill probing airtime and rail settling against serving duty;
//! * [`multilink`] — the §7 outlook: several receivers sharing one
//!   surface, with max-min fairness and favor/suppress (polarization
//!   access control) policies, each a full-grid search of its own over
//!   the batched surface evaluator;
//! * [`render`] — ASCII tables, histograms, heatmaps and sparklines for
//!   terminal output;
//! * [`telemetry`] — the unified telemetry plane (canonical face of
//!   [`rfmath::telemetry`]): recorder trait, null/ring recorders,
//!   log-binned histograms, RAII spans and the deterministic structured
//!   event log the whole serving stack reports into.
//!
//! ```
//! use llama_core::scenario::Scenario;
//! use llama_core::system::LlamaSystem;
//!
//! let mut system = LlamaSystem::new(
//!     Scenario::transmissive_default().with_distance_cm(36.0).with_seed(7),
//! );
//! let outcome = system.optimize();
//! assert!(outcome.improvement.0 > 5.0, "the surface earns ≥5 dB here");
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod faults;
pub mod fleet;
pub mod multilink;
pub mod panels;
pub mod render;
pub mod rooms;
pub mod scenario;
pub mod sensing;
pub mod sim;
pub mod system;
pub mod telemetry;

pub use faults::FaultPlan;
pub use fleet::{Fleet, FleetDevice, FleetEvaluator, FleetOutcome, Policy, Scheduler};
pub use panels::{
    serve_fleets, serve_panel_fleets, Assignment, CoupledEvaluator, JointConfig, JointStats, Panel,
    PanelArray, PanelOutcome, PanelScheduler, RevivalPolicy,
};
pub use rooms::RoomScenario;
pub use scenario::{EndpointKind, Scenario};
pub use sensing::{run_sensing, SensingConfig, SensingResult};
pub use sim::{
    Blockage, DynamicFleet, HandoffPolicy, MobilityModel, MobilitySim, SimConfig, SimReport,
    TickOutcome,
};
pub use system::{LlamaSystem, OptimizeOutcome};
