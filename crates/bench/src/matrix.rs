//! `expts --matrix` — the many-fleet serving matrix.
//!
//! Runs the cross product of `--rooms × --policy × --fleets × --devices
//! × --threads × --shards` (each a comma-separated list) through the
//! sharded work-stealing [`FleetServer`], recording wall-clock,
//! throughput, speedup over a serial baseline, steals, queue wait *and*
//! the served MaxMin headline (worst device power across the cell's
//! jobs — the figure the legacy `--panels` report carried as its
//! single-shape summary) for every cell, and renders the same table as
//! markdown, CSV and JSON — one run, three artifacts, so sweep results
//! can be pasted into a PR description, loaded into a spreadsheet, or
//! diffed in CI without re-measuring.
//!
//! The `--rooms` axis accepts scenario-zoo names (the cell serves
//! copies of the room's t = 0 fleet over the room's mounted panel
//! array; the `--devices` axis is reported as the room's own device
//! count) plus the `synthetic` pseudo-room (the historical
//! `mixed_wifi_ble` line fleet on a distributed two-panel array). The
//! `--policy` axis selects the per-panel scheduling objective:
//! `maxmin`, `favor` (device 0 favored) or `timedivision`.

use std::sync::Arc;

use control::server::FleetServer;
use llama_core::fleet::{Fleet, Scheduler};
use llama_core::panels::{serve_panel_fleets, PanelArray, PanelScheduler};
use llama_core::rooms;
use llama_core::telemetry::{RecorderHandle, RingRecorder};

use crate::perf::{best, time_ms};
use crate::report::{Bound, Metric, Report};

/// Base seed for the matrix fleets (offset per fleet index so the jobs
/// are distinct but reproducible).
const MATRIX_SEED: u64 = 7000;

/// The `--rooms` pseudo-entry selecting the synthetic line fleet.
pub const SYNTHETIC_ROOM: &str = "synthetic";

/// The names the `--policy` axis accepts.
pub const POLICIES: [&str; 3] = ["maxmin", "favor", "timedivision"];

/// The six swept axes. Empty lists are rejected at parse time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatrixAxes {
    /// Workload rooms: zoo names plus [`SYNTHETIC_ROOM`].
    pub rooms: Vec<String>,
    /// Scheduling policies (see [`POLICIES`]).
    pub policies: Vec<String>,
    /// Concurrent fleets per serve call.
    pub fleets: Vec<usize>,
    /// Devices per fleet (synthetic room only; zoo rooms bring their
    /// own populations).
    pub devices: Vec<usize>,
    /// Worker threads in the pool.
    pub threads: Vec<usize>,
    /// Shard deques jobs are hashed across.
    pub shards: Vec<usize>,
}

impl MatrixAxes {
    /// The default sweep: the synthetic workload under max-min, one
    /// fleet-size point, one device point, a 1-vs-all-cores thread axis
    /// and a 1-vs-4 shard axis — small enough to run as a smoke, wide
    /// enough to show the scaling shape.
    pub fn default_axes() -> Self {
        let mut threads = vec![1, crate::logical_cores()];
        threads.dedup();
        Self {
            rooms: vec![SYNTHETIC_ROOM.to_string()],
            policies: vec!["maxmin".to_string()],
            fleets: vec![8],
            devices: vec![8],
            threads,
            shards: vec![1, 4],
        }
    }

    /// Parses one comma-separated axis list (`"1,2,8"`); rejects empty
    /// lists, zeros and malformed entries.
    pub fn parse_list(flag: &str, raw: &str) -> Result<Vec<usize>, String> {
        let mut out = Vec::new();
        for part in raw.split(',') {
            match part.trim().parse::<usize>() {
                Ok(n) if n > 0 => out.push(n),
                _ => {
                    return Err(format!(
                        "{flag} takes a comma-separated list of positive integers; \
                         got {raw:?}"
                    ))
                }
            }
        }
        if out.is_empty() {
            return Err(format!("{flag} list is empty"));
        }
        Ok(out)
    }

    /// Parses a comma-separated name list validated against `allowed`.
    pub fn parse_names(flag: &str, raw: &str, allowed: &[&str]) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        for part in raw.split(',') {
            let name = part.trim();
            if !allowed.contains(&name) {
                return Err(format!(
                    "{flag} got unknown name {name:?}; known: {}",
                    allowed.join(", ")
                ));
            }
            out.push(name.to_string());
        }
        if out.is_empty() {
            return Err(format!("{flag} list is empty"));
        }
        Ok(out)
    }

    /// The names the `--rooms` axis accepts.
    pub fn known_rooms() -> Vec<&'static str> {
        let mut rooms: Vec<&'static str> = vec![SYNTHETIC_ROOM];
        rooms.extend(rooms::SCENARIOS);
        rooms
    }

    /// Total cells in the cross product.
    pub fn cells(&self) -> usize {
        self.rooms.len()
            * self.policies.len()
            * self.fleets.len()
            * self.devices.len()
            * self.threads.len()
            * self.shards.len()
    }
}

/// Builds the scheduler for one `--policy` name.
fn scheduler_for(policy: &str) -> PanelScheduler {
    match policy {
        "favor" => PanelScheduler {
            base: Scheduler::favor(0),
            ..PanelScheduler::max_min()
        },
        "timedivision" => PanelScheduler::time_division(),
        _ => PanelScheduler::max_min(),
    }
}

/// Builds one cell workload: `fleets_n` jobs of `(fleet, array)`.
fn jobs_for(room: &str, fleets_n: usize, devices_n: usize) -> Vec<(Fleet, PanelArray)> {
    if room == SYNTHETIC_ROOM {
        (0..fleets_n as u64)
            .map(|s| {
                let fleet = Fleet::mixed_wifi_ble(devices_n, MATRIX_SEED + s);
                let array = PanelArray::distributed(fleet.design.clone(), 2);
                (fleet, array)
            })
            .collect()
    } else {
        let scenario = rooms::build(room, MATRIX_SEED).expect("axis names validated at parse time");
        let fleet = scenario.fleet.fleet().clone();
        let array = scenario.array;
        (0..fleets_n)
            .map(|_| (fleet.clone(), array.clone()))
            .collect()
    }
}

/// Measures every cell of `axes` (`Err` when an axis is empty, so the
/// cross product would measure nothing). Each cell is one table row,
/// labelled by its six axis values, recording wall-clock, throughput,
/// speedup over a serial baseline, steals, queue wait *and* the served
/// MaxMin headline. Serial baselines (and the served min-power headline)
/// are measured once per distinct workload and shared across that
/// workload's thread/shard cells. A ring recorder rides every cell's
/// stats pass; the timed passes stay recorder-free so the speedup
/// columns are unperturbed.
pub fn run(axes: MatrixAxes, quick: bool) -> Result<Report, String> {
    if axes.cells() == 0 {
        return Err("every matrix axis needs at least one value".to_string());
    }
    let iters = if quick { 2 } else { 4 };
    // Debug-formatted lists of numbers and ASCII names are JSON arrays.
    let mut report = Report::new("matrix").param("quick", quick).param(
        "axes",
        format!(
            "{{\"rooms\": {:?}, \"policies\": {:?}, \"fleets\": {:?}, \
             \"devices\": {:?}, \"threads\": {:?}, \"shards\": {:?}}}",
            axes.rooms, axes.policies, axes.fleets, axes.devices, axes.threads, axes.shards
        ),
    );
    let recorder = RecorderHandle::new(Arc::new(RingRecorder::default()));
    for room in &axes.rooms {
        for policy in &axes.policies {
            let scheduler = scheduler_for(policy);
            for &fleets_n in &axes.fleets {
                for &devices_n in &axes.devices {
                    let jobs = jobs_for(room, fleets_n, devices_n);
                    let reported_devices = jobs
                        .first()
                        .map(|(fleet, _)| fleet.len())
                        .unwrap_or(devices_n);
                    let serial = time_ms(iters, || {
                        jobs.iter()
                            .map(|(f, a)| scheduler.run(f, a))
                            .collect::<Vec<_>>()
                    });
                    // The folded --panels headline: worst served device
                    // power across the cell's jobs (server results are
                    // bit-identical to serial runs).
                    let min_power_dbm = jobs
                        .iter()
                        .map(|(f, a)| scheduler.run(f, a).min_power_dbm())
                        .fold(f64::INFINITY, f64::min);
                    for &threads in &axes.threads {
                        for &shards in &axes.shards {
                            let server = FleetServer::new(threads).with_shards(shards);
                            let served =
                                time_ms(iters, || serve_panel_fleets(&server, &scheduler, &jobs));
                            let server = server.with_recorder(recorder.clone());
                            let (_, stats) = server.try_serve_with_stats(
                                jobs.iter().collect(),
                                |_, (f, a): &(Fleet, PanelArray)| scheduler.run(f, a),
                            );
                            let min_ms = best(&served);
                            for metric in [
                                Metric::timing("mean_ms", served),
                                Metric::new("min_ms", "ms", min_ms),
                                Metric::new(
                                    "fleets_per_sec",
                                    "1/s",
                                    fleets_n as f64 / (min_ms / 1e3).max(1e-12),
                                ),
                                Metric::new(
                                    "speedup_vs_serial",
                                    "x",
                                    best(&serial) / min_ms.max(1e-12),
                                ),
                                Metric::new("min_power_dbm", "dBm", min_power_dbm),
                                Metric::count("steals", stats.steals),
                                Metric::new(
                                    "mean_queue_wait_ms",
                                    "ms",
                                    stats.mean_queue_wait.0 * 1e3,
                                ),
                            ] {
                                report.push(
                                    metric
                                        .label("room", room)
                                        .label("policy", policy)
                                        .label("fleets", fleets_n)
                                        .label("devices", reported_devices)
                                        .label("threads", threads)
                                        .label("shards", shards),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    report.telemetry = recorder.aggregate_json();
    gate_matrix(&mut report);
    Ok(report)
}

/// The matrix gates: every cell measured a finite, positive best-of-N
/// wall-clock and a finite served min power.
pub(crate) fn gate_matrix(report: &mut Report) {
    report.gate("min_ms", &[], Bound::Finite);
    report.gate("min_ms", &[], Bound::Above(0.0));
    report.gate("min_power_dbm", &[], Bound::Finite);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_list_accepts_commas_and_rejects_junk() {
        assert_eq!(
            MatrixAxes::parse_list("--threads", "1,2,8").unwrap(),
            vec![1, 2, 8]
        );
        assert_eq!(MatrixAxes::parse_list("--shards", " 4 ").unwrap(), vec![4]);
        assert!(MatrixAxes::parse_list("--fleets", "").is_err());
        assert!(MatrixAxes::parse_list("--fleets", "2,0").is_err());
        assert!(MatrixAxes::parse_list("--devices", "two").is_err());
    }

    #[test]
    fn parse_names_validates_against_the_catalog() {
        let rooms = MatrixAxes::known_rooms();
        assert_eq!(
            MatrixAxes::parse_names("--rooms", "synthetic, office-floor", &rooms).unwrap(),
            vec!["synthetic".to_string(), "office-floor".to_string()]
        );
        assert!(MatrixAxes::parse_names("--rooms", "atrium", &rooms).is_err());
        assert_eq!(
            MatrixAxes::parse_names("--policy", "maxmin,favor", &POLICIES).unwrap(),
            vec!["maxmin".to_string(), "favor".to_string()]
        );
        assert!(MatrixAxes::parse_names("--policy", "fairness", &POLICIES).is_err());
    }

    #[test]
    fn tiny_matrix_measures_every_cell_in_all_three_formats() {
        let axes = MatrixAxes {
            fleets: vec![2],
            devices: vec![2],
            threads: vec![1, 2],
            shards: vec![1, 2],
            ..MatrixAxes::default_axes()
        };
        assert_eq!(axes.cells(), 4);
        let report = run(axes, true).unwrap();
        assert_eq!(
            report.metrics.iter().filter(|m| m.name == "min_ms").count(),
            4
        );
        assert!(report.passes());
        let md = report.to_markdown();
        assert_eq!(md.lines().count(), 2 + 4);
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.starts_with("room,policy,fleets,devices,threads,shards"));
        let json = report.to_json();
        assert!(json.contains("\"axes\""));
        assert!(json.contains("\"threads\": [1, 2]"));
        assert!(json.contains("\"allocs_per_tick\""));
        assert!(json.contains("\"pass\": true"));
    }

    #[test]
    fn policy_and_room_axes_multiply_the_cross_product() {
        // One zoo room under two policies: 2 rooms-cells × 2 policies,
        // single-point remaining axes. Zoo cells report the room's own
        // device count and a finite served min power (the folded
        // --panels headline).
        let axes = MatrixAxes {
            rooms: vec![SYNTHETIC_ROOM.to_string(), "conference-room".to_string()],
            policies: vec!["maxmin".to_string(), "favor".to_string()],
            fleets: vec![2],
            devices: vec![2],
            threads: vec![1],
            shards: vec![1],
        };
        assert_eq!(axes.cells(), 4);
        let report = run(axes, true).unwrap();
        assert!(report.passes());
        let zoo: Vec<&Metric> = report
            .metrics
            .iter()
            .filter(|m| m.name == "min_power_dbm" && m.in_row(&[("room", "conference-room")]))
            .collect();
        assert_eq!(zoo.len(), 2);
        for cell in zoo {
            assert!(
                cell.in_row(&[("devices", "8")]),
                "the room brings its own population"
            );
            assert!(cell.value.is_finite());
        }
        assert!(report.to_csv().contains("conference-room,favor"));
        assert!(report
            .to_json()
            .contains("\"policies\": [\"maxmin\", \"favor\"]"));
    }
}
