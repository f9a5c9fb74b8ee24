//! The three named workloads: job generation from a seed, set-up, the
//! call each job makes into the serving stack, and the per-job output
//! summary with its checks and determinism digest.

use std::sync::Arc;
use std::time::Instant;

use control::server::{FleetServer, JobError, ServeStats};
use llama_core::faults::FaultPlan;
use llama_core::fleet::Fleet;
use llama_core::panels::{CoupledEvaluator, JointConfig, PanelArray, PanelOutcome, PanelScheduler};
use llama_core::rooms::{self, RoomScenario};
use llama_core::sim::SimReport;
use llama_core::telemetry::RecorderHandle;
use metasurface::{designs, SharedPlanCache};
use rfmath::rng::SeedSplitter;

use crate::trace::Spans;

/// Devices in one `fleet-cold` fleet.
pub const FLEET_DEVICES: usize = 32;
/// Panels behind one `fleet-cold` fleet.
pub const FLEET_PANELS: usize = 4;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Warm mobility runs of the zoo rooms.
    ZooSteady,
    /// Cold panel schedules of static mixed fleets over shared plans.
    FleetCold,
    /// Independent-then-joint schedules of zoo-room snapshots.
    JointCoupled,
}

impl Workload {
    /// Every workload, in catalog order.
    pub const ALL: [Workload; 3] = [Self::ZooSteady, Self::FleetCold, Self::JointCoupled];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::ZooSteady => "zoo-steady",
            Self::FleetCold => "fleet-cold",
            Self::JointCoupled => "joint-coupled",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs in one closed batch (about 0.2 s of work on two workers).
    pub fn batch_jobs(self) -> usize {
        match self {
            Self::ZooSteady => 192,
            Self::FleetCold => 256,
            Self::JointCoupled => 240,
        }
    }
}

/// One generated job, as the program receives it: a zoo room (absent
/// for `fleet-cold`, whose job is a synthetic fleet) and its seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Zoo room name, `None` for a `fleet-cold` fleet.
    pub room: Option<&'static str>,
    /// The job's own seed.
    pub seed: u64,
}

/// The job list of workload `w` under workload seed `seed`: rooms cycle
/// through the zoo catalog and every job draws its own seed.
pub fn job_specs(w: Workload, seed: u64, n: usize) -> Vec<JobSpec> {
    let split = SeedSplitter::new(seed).child(w.name());
    (0..n)
        .map(|i| JobSpec {
            room: match w {
                Workload::FleetCold => None,
                _ => Some(rooms::SCENARIOS[i % rooms::SCENARIOS.len()]),
            },
            seed: split.derive("job", i as u64),
        })
        .collect()
}

/// A batch's inputs, built from its job list during set-up.
pub enum Inputs {
    /// Zoo rooms (`zoo-steady`, `joint-coupled`).
    Rooms(Vec<RoomScenario>),
    /// Static fleets behind distributed arrays, plus the plan store all
    /// their jobs share (`fleet-cold`).
    Fleets {
        /// One `(fleet, array)` per job.
        jobs: Vec<(Fleet, PanelArray)>,
        /// The shared compiled-plan store, every carrier compiled.
        store: Arc<SharedPlanCache>,
        /// The design the store compiles (every panel's design).
        design: &'static str,
    },
}

/// Builds a batch's inputs: the rooms or fleets, and for `fleet-cold`
/// the shared plan store with every carrier the batch uses compiled.
pub fn set_up(w: Workload, specs: &[JobSpec]) -> Inputs {
    match w {
        Workload::ZooSteady | Workload::JointCoupled => Inputs::Rooms(
            specs
                .iter()
                .map(|s| {
                    let room = s.room.expect("room workloads name a room per job");
                    rooms::build(room, s.seed).expect("job rooms come from the catalog")
                })
                .collect(),
        ),
        Workload::FleetCold => {
            let design = designs::fr4_optimized();
            let jobs: Vec<(Fleet, PanelArray)> = specs
                .iter()
                .map(|s| {
                    (
                        Fleet::mixed_wifi_ble(FLEET_DEVICES, s.seed),
                        PanelArray::distributed(design.clone(), FLEET_PANELS),
                    )
                })
                .collect();
            let store = Arc::new(SharedPlanCache::new(&design.stack));
            let warm = store.handle();
            for (fleet, _) in &jobs {
                for device in fleet.devices() {
                    warm.plan(device.scenario.frequency);
                }
            }
            Inputs::Fleets {
                jobs,
                store,
                design: design.name,
            }
        }
    }
}

/// A copy of a room with its own world state (`RoomScenario::run`
/// advances the room's fleet in place).
fn clone_room(room: &RoomScenario) -> RoomScenario {
    RoomScenario {
        name: room.name,
        description: room.description,
        seed: room.seed,
        fleet: room.fleet.clone(),
        array: room.array.clone(),
        config: room.config,
        ticks: room.ticks,
    }
}

/// One job handed to the server.
pub enum Job<'a> {
    /// `zoo-steady`: one warm mobility run of a fresh room.
    Mobility(Box<RoomScenario>),
    /// `joint-coupled`: independent then joint schedule of a room's
    /// t = 0 snapshot.
    Joint(&'a RoomScenario),
    /// `fleet-cold`: a cold panel schedule over the shared plan store.
    Static(&'a (Fleet, PanelArray)),
}

impl Inputs {
    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        match self {
            Inputs::Rooms(r) => r.len(),
            Inputs::Fleets { jobs, .. } => jobs.len(),
        }
    }

    /// Job `i` of the batch for workload `w`.
    pub fn job(&self, w: Workload, i: usize) -> Job<'_> {
        match (self, w) {
            (Inputs::Rooms(r), Workload::ZooSteady) => Job::Mobility(Box::new(clone_room(&r[i]))),
            (Inputs::Rooms(r), Workload::JointCoupled) => Job::Joint(&r[i]),
            (Inputs::Fleets { jobs, .. }, Workload::FleetCold) => Job::Static(&jobs[i]),
            _ => unreachable!("inputs were built for another workload"),
        }
    }

    /// The whole batch, in submission order.
    pub fn batch(&self, w: Workload) -> Vec<Job<'_>> {
        (0..self.len()).map(|i| self.job(w, i)).collect()
    }
}

/// What one job returned.
pub enum Output {
    /// A mobility run's report.
    Mobility(SimReport),
    /// A cold panel schedule.
    Static(PanelOutcome),
    /// The independent schedule and the joint refinement of it.
    Joint {
        /// The independent per-panel search.
        independent: PanelOutcome,
        /// Block-coordinate descent on the superposed field.
        joint: PanelOutcome,
    },
}

/// Runs one job. A null `recorder` is the untraced job; an enabled one
/// attaches through the stack's public recorder hooks.
pub fn run_job(job: Job<'_>, inputs: &Inputs, recorder: &RecorderHandle) -> Output {
    match job {
        // `RoomScenario::run` is `run_traced` with an empty fault plan
        // and the null recorder.
        Job::Mobility(mut room) => {
            Output::Mobility(room.run_traced(FaultPlan::none(), recorder.clone()))
        }
        Job::Joint(room) if recorder.enabled() => {
            // `joint_comparison` builds its own schedulers, so the traced
            // job makes the same two calls with the recorder attached.
            let fleet = room.fleet.fleet();
            let independent = PanelScheduler::max_min()
                .with_recorder(recorder.clone())
                .run(fleet, &room.array);
            let joint = PanelScheduler::max_min()
                .with_joint(JointConfig::default())
                .with_recorder(recorder.clone())
                .run(fleet, &room.array);
            Output::Joint { independent, joint }
        }
        Job::Joint(room) => {
            let (independent, joint) = room.joint_comparison(JointConfig::default());
            Output::Joint { independent, joint }
        }
        Job::Static((fleet, array)) => {
            let Inputs::Fleets { store, design, .. } = inputs else {
                unreachable!("static jobs come with a shared plan store")
            };
            // The `serve_panel_fleets` composition: a handle on the
            // shared store, then the cold scheduler over it.
            let caches = [(*design, store.handle())];
            Output::Static(
                PanelScheduler::max_min()
                    .with_recorder(recorder.clone())
                    .run_with_caches(fleet, array, &caches),
            )
        }
    }
}

/// Re-checks a run's outputs against the stack's own reference paths,
/// outside the timed batches; returns notes for the report.
///
/// * `fleet-cold`: a schedule drawn from the shared plan store must be
///   the same allocation, bit for bit, as `PanelScheduler::run` with its
///   private caches.
/// * `joint-coupled`: for every job, the coupled-physics min power at
///   the independent biases is re-measured with a fresh
///   `CoupledEvaluator`; the joint min must not be below it, and the
///   reported lift must be the difference. The independent outcome's
///   own powers are scored without coupling, so comparing them with the
///   joint powers mixes two physics models; those jobs are only counted.
pub fn reference_check(w: Workload, inputs: &Inputs) -> Result<Vec<String>, String> {
    match inputs {
        Inputs::Fleets { jobs, .. } => {
            let Output::Static(shared) = run_job(inputs.job(w, 0), inputs, &RecorderHandle::null())
            else {
                unreachable!("fleet jobs return static schedules")
            };
            let (fleet, array) = &jobs[0];
            if shared.same_allocation(&PanelScheduler::max_min().run(fleet, array)) {
                Ok(Vec::new())
            } else {
                Err("shared-store schedule differs from PanelScheduler::run".to_string())
            }
        }
        Inputs::Rooms(rooms) if w == Workload::JointCoupled => {
            let (mut mixed, mut unchecked) = (0usize, 0usize);
            for (idx, room) in rooms.iter().enumerate() {
                let cfg = JointConfig::default();
                let (ind, joint) = room.joint_comparison(cfg);
                let Some(biases) = ind.panel_biases().into_iter().collect::<Option<Vec<_>>>()
                else {
                    unchecked += 1;
                    continue;
                };
                let baseline = CoupledEvaluator::new(
                    room.fleet.fleet(),
                    &room.array,
                    &ind.assignment,
                    cfg.coupling,
                )
                .min_power_dbm(&biases);
                let lift = joint.joint.map_or(f64::NAN, |s| s.lift_db);
                let min = joint.min_power_dbm();
                if !(min >= baseline && (min - baseline - lift).abs() <= 1e-9) {
                    return Err(format!(
                        "job {idx}: joint min {min} dBm, coupled baseline {baseline} dBm, \
                         reported lift {lift} dB"
                    ));
                }
                mixed += usize::from(min < ind.min_power_dbm());
            }
            Ok(vec![format!(
                "joint >= coupled baseline on all {} jobs ({unchecked} with an idle panel \
                 skipped); {mixed} end below the uncoupled independent min",
                rooms.len() - unchecked
            )])
        }
        Inputs::Rooms(_) => Ok(Vec::new()),
    }
}

/// What the benchmark keeps of one job's output.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Device allocations produced: one per device per tick, or one per
    /// device of a static schedule.
    pub decisions: usize,
    /// Worst-device served power, dBm (mean over ticks for a run).
    pub min_power_dbm: f64,
    /// Served throughput, bit/s/Hz (mean over ticks for a run).
    pub throughput_bits_hz: f64,
    /// Device-weighted serving duty as the program reports it.
    pub duty: f64,
    /// Digest of every served power and applied bias.
    pub digest: u64,
    /// The output check: `Err` names what failed.
    pub check: Result<(), String>,
}

/// Folds 64-bit words into a digest.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        let h = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        self.0 = h ^ (h >> 29);
    }

    /// Mixes the bits of one float in.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

fn digest_outcome(d: &mut Digest, o: &PanelOutcome) {
    for s in &o.per_device {
        d.float(s.power_dbm);
    }
    for bias in o.panel_biases().into_iter().flatten() {
        d.float(bias.vx.0);
        d.float(bias.vy.0);
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

/// Summarizes and checks one job's output.
pub fn summarize(out: &Output) -> Summary {
    let mut d = Digest::new();
    match out {
        Output::Mobility(report) => {
            for tick in &report.ticks {
                for s in &tick.outcome.per_device {
                    d.float(s.power_dbm);
                }
                for bias in &tick.applied {
                    d.float(bias.vx.0);
                    d.float(bias.vy.0);
                }
                d.float(tick.served_min_power_dbm);
                d.float(tick.served_throughput_bits_hz);
            }
            let min_power_dbm = report.mean_served_min_power_dbm();
            let duty = report.mean_duty();
            let check = if !min_power_dbm.is_finite() {
                Err(format!("served power {min_power_dbm} is not finite"))
            } else if duty <= 0.0 {
                Err(format!("serving duty {duty} is not positive"))
            } else {
                Ok(())
            };
            Summary {
                decisions: report
                    .ticks
                    .iter()
                    .map(|t| t.outcome.per_device.len())
                    .sum(),
                min_power_dbm,
                throughput_bits_hz: mean(report.ticks.iter().map(|t| t.served_throughput_bits_hz)),
                duty,
                digest: d.value(),
                check,
            }
        }
        Output::Static(o) => {
            digest_outcome(&mut d, o);
            let min_power_dbm = o.min_power_dbm();
            Summary {
                decisions: o.per_device.len(),
                min_power_dbm,
                throughput_bits_hz: o.total_throughput_bits_hz(),
                duty: mean(o.per_device.iter().map(|s| s.duty)),
                digest: d.value(),
                check: if min_power_dbm.is_finite() {
                    Ok(())
                } else {
                    Err(format!("served power {min_power_dbm} is not finite"))
                },
            }
        }
        Output::Joint { independent, joint } => {
            digest_outcome(&mut d, independent);
            digest_outcome(&mut d, joint);
            let min_power_dbm = joint.min_power_dbm();
            let lift = joint.joint.map_or(f64::NAN, |s| s.lift_db);
            // Improvements only: the joint min may not fall below the
            // independent biases' min, both under the coupled physics.
            let check = if !min_power_dbm.is_finite() {
                Err(format!("served power {min_power_dbm} is not finite"))
            } else if lift.is_nan() || lift < 0.0 {
                Err(format!("joint lift {lift} dB over the independent start"))
            } else {
                Ok(())
            };
            Summary {
                decisions: joint.per_device.len(),
                min_power_dbm,
                throughput_bits_hz: joint.total_throughput_bits_hz(),
                duty: mean(joint.per_device.iter().map(|s| s.duty)),
                digest: d.value(),
                check,
            }
        }
    }
}

/// What one handler call returns.
pub struct Done {
    /// The job's checked output summary.
    pub summary: Summary,
    /// Wall time of the job's call into the stack, nanoseconds.
    pub ns: u64,
    /// The run report of a traced mobility job, for the per-layer tally.
    pub report: Option<SimReport>,
}

/// One served batch.
pub struct Served {
    /// Per-job results, in submission order.
    pub results: Vec<Result<Done, JobError>>,
    /// The server's statistics.
    pub stats: ServeStats,
    /// Wall time of the serve call, nanoseconds.
    pub wall_ns: u64,
}

/// Serves one closed batch, timing each handler's call into the stack;
/// with `spans`, the serve call and every job get a span. Outputs are
/// summarized and dropped on the worker, after the call is timed.
pub fn serve(
    server: &FleetServer,
    jobs: Vec<Job<'_>>,
    inputs: &Inputs,
    recorder: &RecorderHandle,
    spans: Option<&Spans>,
) -> Served {
    let root = spans.map(|s| s.open("serve", None, None));
    let started = Instant::now();
    let (results, stats) = server.try_serve_with_stats(jobs, |idx, job| {
        let span = spans.map(|s| s.open("job", root, Some(idx)));
        let t = Instant::now();
        let out = run_job(job, inputs, recorder);
        let ns = t.elapsed().as_nanos() as u64;
        if let (Some(s), Some(id)) = (spans, span) {
            s.close(id);
        }
        let summary = summarize(&out);
        let report = match out {
            Output::Mobility(report) if recorder.enabled() => Some(report),
            _ => None,
        };
        Done {
            summary,
            ns,
            report,
        }
    });
    let wall_ns = started.elapsed().as_nanos() as u64;
    if let (Some(s), Some(id)) = (spans, root) {
        s.close(id);
    }
    Served {
        results,
        stats,
        wall_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_an_identical_job_list() {
        for w in Workload::ALL {
            let a = job_specs(w, 2021, 48);
            assert_eq!(a, job_specs(w, 2021, 48), "{}", w.name());
            assert_ne!(a, job_specs(w, 2022, 48), "{}", w.name());
            let seeds: std::collections::BTreeSet<u64> = a.iter().map(|s| s.seed).collect();
            assert_eq!(seeds.len(), a.len(), "{}: per-job seeds repeat", w.name());
        }
        let rooms: Vec<_> = job_specs(Workload::ZooSteady, 1, 3)
            .into_iter()
            .map(|s| s.room)
            .collect();
        assert_eq!(rooms, rooms::SCENARIOS.map(Some).to_vec());
        assert!(job_specs(Workload::FleetCold, 1, 4)
            .iter()
            .all(|s| s.room.is_none()));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("zoo"), None);
    }
}
