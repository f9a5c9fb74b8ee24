//! roombench: the room-serving benchmark of the LLAMA reproduction.
//!
//! ```text
//! roombench --workload <zoo-steady|fleet-cold|joint-coupled>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload is a closed batch of generated jobs served by
//! `FleetServer::new(2)` through `try_serve_with_stats`, repeated until
//! `--seconds` have passed. `--trace 0` reports the end-to-end metrics
//! of untraced batches; `--trace 1` interleaves untraced and traced
//! batches, runs the layer ladder and the allocation count, and reports
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` beside this package for every metric's definition.

mod allocs;
mod ladder;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use control::server::FleetServer;
use llama_core::sim::SimReport;
use llama_core::telemetry::{Recorder, RecorderHandle};

use trace::{SampleRecorder, Spans};
use workload::{job_specs, run_job, serve, set_up, Served, Workload};

#[global_allocator]
static ALLOC: allocs::Counting = allocs::Counting;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2021;
/// A seed kept out of tuning, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 7919;

/// Serving workers (`FleetServer::new(WORKERS)`).
const WORKERS: usize = 2;
/// Timed batches a run makes at least, however short `--seconds` is.
const MIN_BATCHES: usize = 5;
/// Jobs the layer ladder and the allocation count take their inputs from.
const LADDER_JOBS: usize = 6;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("device_decisions_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("served_min_power_dbm", "dBm"),
    ("served_throughput_bits_hz", "bit/s/Hz"),
    ("served_duty", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("metasurface.plan_compile_ms", "ms"),
    ("metasurface.eval_batch_ns_per_bias", "ns"),
    ("metasurface.soa_speedup", "x"),
    ("metasurface.soa_speedup_q1", "x"),
    ("metasurface.soa_speedup_q3", "x"),
    ("propagation.link_prepare_us", "us"),
    ("propagation.rebind_ns", "ns"),
    ("propagation.probe_ns", "ns"),
    ("propagation.coupled_eval_ns", "ns"),
    ("fleet.powers_matrix_ns_per_cell", "ns"),
    ("sweep.cold_ms", "ms"),
    ("sweep.cold_probes", "count"),
    ("sweep.warm_ms", "ms"),
    ("sweep.warm_probes", "count"),
    ("panels.independent_ms", "ms"),
    ("panels.joint_ms", "ms"),
    ("panels.joint_rounds", "count"),
    ("panels.coupled_probes", "count"),
    ("panels.joint_lift_db", "dB"),
    ("sim.phase.advance_p50_ns", "ns"),
    ("sim.phase.advance_tail_ns", "ns"),
    ("sim.phase.reopt_p50_ns", "ns"),
    ("sim.phase.reopt_tail_ns", "ns"),
    ("sim.phase.settle_p50_ns", "ns"),
    ("sim.phase.settle_tail_ns", "ns"),
    ("sim.phase.serve_p50_ns", "ns"),
    ("sim.phase.serve_tail_ns", "ns"),
    ("sim.tick_p50_ms", "ms"),
    ("sim.tick_tail_ms", "ms"),
    ("sim.probes", "count"),
    ("sim.links_reprepared", "count"),
    ("sim.links_rebound", "count"),
    ("sim.cold_panels", "count"),
    ("sim.warm_panels", "count"),
    ("sim.reused_panels", "count"),
    ("sim.handoffs", "count"),
    ("sim.reuse_frac", "ratio"),
    ("sim.allocs_per_tick", "count"),
    ("allocs_per_job", "count"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.queue_wait_p95_ms", "ms"),
    ("server.steals", "count"),
    ("server.workers_used", "count"),
    ("server.failed", "count"),
    ("server.busy_frac", "ratio"),
    ("telemetry.overhead_ratio", "x"),
    ("job_fail_frac", "ratio"),
];

const USAGE: &str = "usage: roombench --workload <zoo-steady|fleet-cold|joint-coupled> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a batch contributed, after its outputs were checked.
struct BatchSummary {
    decisions: usize,
    handler_ms: Vec<f64>,
}

/// Job accounting across a run: failures, and the determinism digest
/// every batch must reproduce.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    reference: Option<u64>,
    mismatches: usize,
    /// Served quality of the first batch (every batch must match it).
    quality: [f64; 3],
}

impl Tally {
    fn add(&mut self, served: &Served) -> BatchSummary {
        let mut digest = workload::Digest::new();
        let mut summary = BatchSummary {
            decisions: 0,
            handler_ms: Vec::with_capacity(served.results.len()),
        };
        let mut quality = [0.0; 3];
        let mut ok = 0usize;
        for (idx, result) in served.results.iter().enumerate() {
            self.attempted += 1;
            match result {
                Ok(done) => {
                    summary.handler_ms.push(done.ns as f64 * 1e-6);
                    let s = &done.summary;
                    digest.word(s.digest);
                    if let Err(why) = &s.check {
                        self.fail(idx, why);
                        continue;
                    }
                    ok += 1;
                    summary.decisions += s.decisions;
                    quality[0] += s.min_power_dbm;
                    quality[1] += s.throughput_bits_hz;
                    quality[2] += s.duty;
                }
                Err(e) => {
                    digest.word(u64::MAX);
                    self.fail(idx, &e.to_string());
                }
            }
        }
        let digest = digest.value();
        match self.reference {
            None => {
                self.reference = Some(digest);
                self.quality = quality.map(|q| q / ok.max(1) as f64);
            }
            Some(r) if r != digest => self.mismatches += 1,
            Some(_) => {}
        }
        summary
    }

    fn fail(&mut self, idx: usize, why: &str) {
        if self.failed < 5 {
            eprintln!("job {idx} failed: {why}");
        }
        self.failed += 1;
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }
}

/// Per-tick counts folded over mobility runs.
#[derive(Default)]
struct SimTally {
    ticks: usize,
    counts: [usize; 7],
    tick_ms: Vec<f64>,
}

impl SimTally {
    fn add(&mut self, report: &SimReport) {
        for t in &report.ticks {
            self.ticks += 1;
            let c = [
                t.outcome.probes,
                t.links_reprepared,
                t.links_rebound,
                t.cold_panels,
                t.warm_panels,
                t.reused_panels,
                t.handoffs,
            ];
            for (acc, v) in self.counts.iter_mut().zip(c) {
                *acc += v;
            }
            self.tick_ms.push(t.wall_ms);
        }
    }

    fn metrics(&self, rec: &SampleRecorder, m: &mut Metrics) {
        let names = [
            "sim.probes",
            "sim.links_reprepared",
            "sim.links_rebound",
            "sim.cold_panels",
            "sim.warm_panels",
            "sim.reused_panels",
            "sim.handoffs",
        ];
        for (name, &count) in names.into_iter().zip(&self.counts) {
            m.insert(name, count as f64 / self.ticks.max(1) as f64);
        }
        let [_, _, _, cold, warm, reused, _] = self.counts;
        m.insert(
            "sim.reuse_frac",
            reused as f64 / (cold + warm + reused).max(1) as f64,
        );
        m.insert("sim.tick_p50_ms", stats::median(&self.tick_ms));
        m.insert("sim.tick_tail_ms", stats::tail(&self.tick_ms).1);
        for (phase, p50, tail) in [
            (
                "sim.phase.advance_ns",
                "sim.phase.advance_p50_ns",
                "sim.phase.advance_tail_ns",
            ),
            (
                "sim.phase.reopt_ns",
                "sim.phase.reopt_p50_ns",
                "sim.phase.reopt_tail_ns",
            ),
            (
                "sim.phase.settle_ns",
                "sim.phase.settle_p50_ns",
                "sim.phase.settle_tail_ns",
            ),
            (
                "sim.phase.serve_ns",
                "sim.phase.serve_p50_ns",
                "sim.phase.serve_tail_ns",
            ),
        ] {
            let samples = rec.durations(phase);
            m.insert(p50, stats::median(&samples));
            m.insert(tail, stats::tail(&samples).1);
        }
    }
}

/// A finished run: accounting, metrics, and human-readable notes.
struct Report {
    tally: Tally,
    metrics: Metrics,
    notes: Vec<String>,
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Untraced batches for `seconds`: the end-to-end metrics.
fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Report {
    let specs = job_specs(w, seed, w.batch_jobs());
    // Every batch is set up afresh, so the set-up median spans the same
    // host conditions as the batches; the previous batch's inputs are
    // dropped first, so one set is alive at a time.
    let timed_set_up = |setup: &mut Vec<f64>| {
        let t = Instant::now();
        let inputs = set_up(w, &specs);
        setup.push(secs_since(t));
        inputs
    };
    let mut setup = Vec::new();
    let mut inputs = timed_set_up(&mut setup);
    let server = FleetServer::new(WORKERS);
    let null = RecorderHandle::null();
    let mut tally = Tally::default();
    // The first batch warms the process up and fixes the reference
    // digest and served quality; it is not timed.
    tally.add(&serve(&server, inputs.batch(w), &inputs, &null, None));

    let (mut rates, mut latency, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while rates.len() < MIN_BATCHES || Instant::now() < deadline {
        drop(inputs);
        inputs = timed_set_up(&mut setup);
        let served = serve(&server, inputs.batch(w), &inputs, &null, None);
        let batch = tally.add(&served);
        rates.push(batch.decisions as f64 / (served.wall_ns as f64 * 1e-9));
        tails.push(stats::tail(&batch.handler_ms));
        latency.extend(batch.handler_ms);
    }
    let mut notes = match workload::reference_check(w, &inputs) {
        Ok(notes) => notes,
        Err(why) => {
            tally.mismatches += 1;
            vec![format!("reference check failed: {why}")]
        }
    };
    let tail_p = tails[0].0;
    let mut m = Metrics::new();
    m.insert("setup_s", stats::median(&setup));
    m.insert("device_decisions_per_s", stats::median(&rates));
    m.insert("job_p50_ms", stats::median(&latency));
    m.insert(
        "job_tail_ms",
        stats::median(&tails.iter().map(|t| t.1).collect::<Vec<_>>()),
    );
    m.insert("peak_rss_mb", peak_rss_mb());
    m.insert("served_min_power_dbm", tally.quality[0]);
    m.insert("served_throughput_bits_hz", tally.quality[1]);
    m.insert("served_duty", tally.quality[2]);
    notes.push(format!(
        "{} timed batches of {} jobs ({} handler calls); job_tail_ms is the median over \
         batches of each batch's p{tail_p}",
        rates.len(),
        inputs.len(),
        latency.len()
    ));
    notes.push(format!(
        "digest {:016x}, {} batch(es) disagreeing",
        tally.reference.unwrap_or(0),
        tally.mismatches
    ));
    Report {
        tally,
        metrics: m,
        notes,
    }
}

/// Interleaved untraced and traced batches, the layer ladder and the
/// allocation count: the per-layer metrics.
fn traced(w: Workload, seed: u64, seconds: f64) -> Report {
    let specs = job_specs(w, seed, w.batch_jobs());
    let inputs = set_up(w, &specs);
    let null = RecorderHandle::null();
    let sampler = Arc::new(SampleRecorder::default());
    let handle = RecorderHandle::new(sampler.clone());
    let server = FleetServer::new(WORKERS);
    let traced_server = FleetServer::new(WORKERS).with_recorder(handle.clone());
    let spans = Spans::new();
    let mut tally = Tally::default();
    tally.add(&serve(&server, inputs.batch(w), &inputs, &null, None));

    let mut sim = SimTally::default();
    let (mut wall_off, mut wall_on, mut busy_ns) = (0u64, 0u64, 0u64);
    let mut serve_stats = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.75);
    while serve_stats.len() < MIN_BATCHES || Instant::now() < deadline {
        let off = serve(&server, inputs.batch(w), &inputs, &null, None);
        tally.add(&off);
        wall_off += off.wall_ns;
        let on = serve(
            &traced_server,
            inputs.batch(w),
            &inputs,
            &handle,
            Some(&spans),
        );
        tally.add(&on);
        wall_on += on.wall_ns;
        for done in on.results.iter().flatten() {
            busy_ns += done.ns;
            if let Some(report) = &done.report {
                sim.add(report);
            }
        }
        serve_stats.push(on.stats);
    }

    let mut m = Metrics::new();
    let ladder_inputs = ladder::inputs(&inputs, LADDER_JOBS);
    let root = spans.open("ladder", None, None);
    ladder::run(&ladder_inputs, &spans, root, &mut m);
    if w != Workload::ZooSteady {
        // zoo-steady's jobs are mobility runs; the other workloads enter
        // the sim layer here, on the same inputs as the ladder.
        for input in &ladder_inputs {
            let report = spans.time("sim.run", Some(root), || {
                input.simulate(&handle, input.ticks)
            });
            sim.add(&report);
        }
    }
    spans.close(root);
    sim.metrics(&sampler, &mut m);

    // Allocations, counted serially on untraced calls: whole jobs, and
    // the marginal tick (a run twice as long, minus the run).
    let mut job_allocs = 0u64;
    for i in 0..LADDER_JOBS.min(inputs.len()) {
        let job = inputs.job(w, i);
        job_allocs += allocs::count(|| run_job(job, &inputs, &null)).1;
    }
    let mut tick_allocs = Vec::new();
    for input in &ladder_inputs {
        let short = allocs::count(|| input.simulate(&null, input.ticks)).1;
        let long = allocs::count(|| input.simulate(&null, 2 * input.ticks)).1;
        tick_allocs.push(long.saturating_sub(short) as f64 / input.ticks as f64);
    }
    m.insert(
        "allocs_per_job",
        job_allocs as f64 / LADDER_JOBS.min(inputs.len()) as f64,
    );
    m.insert(
        "sim.allocs_per_tick",
        tick_allocs.iter().sum::<f64>() / tick_allocs.len() as f64,
    );

    let waits = |f: fn(&control::server::ServeStats) -> f64| {
        stats::median(&serve_stats.iter().map(f).collect::<Vec<_>>())
    };
    let batches = serve_stats.len() as f64;
    m.insert(
        "server.queue_wait_p50_ms",
        waits(|s| s.queue_wait_p50.0 * 1e3),
    );
    m.insert(
        "server.queue_wait_p95_ms",
        waits(|s| s.queue_wait_p95.0 * 1e3),
    );
    m.insert(
        "server.steals",
        serve_stats.iter().map(|s| s.steals as f64).sum::<f64>() / batches,
    );
    m.insert(
        "server.workers_used",
        serve_stats
            .iter()
            .map(|s| s.workers_used as f64)
            .sum::<f64>()
            / batches,
    );
    m.insert(
        "server.failed",
        serve_stats.iter().map(|s| s.failed as f64).sum(),
    );
    m.insert(
        "server.busy_frac",
        busy_ns as f64 / (wall_on as f64 * WORKERS as f64),
    );
    m.insert("telemetry.overhead_ratio", wall_on as f64 / wall_off as f64);
    m.insert(
        "job_fail_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    let recs = spans.snapshot();
    let selfs = trace::self_times(&recs);
    let (serve_self, serve_wall) = recs
        .iter()
        .zip(&selfs)
        .filter(|(r, _)| r.name == "serve")
        .fold((0u64, 0u64), |(s, d), (r, &own)| {
            (s + own, d + (r.end_ns - r.start_ns))
        });
    let mut notes = vec![
        format!(
            "{} traced and {} untraced batches of {} jobs; digest {:016x}, {} batch(es) disagreeing",
            serve_stats.len(),
            serve_stats.len(),
            inputs.len(),
            tally.reference.unwrap_or(0),
            tally.mismatches
        ),
        format!(
            "serve self time (no handler running) {:.2}% of serve wall",
            100.0 * serve_self as f64 / serve_wall.max(1) as f64
        ),
    ];
    notes.push(write_trace(w, seed, &sampler.aggregate_json(), &recs));
    Report {
        tally,
        metrics: m,
        notes,
    }
}

/// Writes the spans as JSONL next to the build, headed by the recorder's
/// aggregate; returns a note saying where (or why not).
fn write_trace(w: Workload, seed: u64, aggregate: &str, recs: &[trace::SpanRec]) -> String {
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("roombench");
    let path = dir.join(format!("trace-{}-{seed}.jsonl", w.name()));
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"telemetry\": {aggregate}}}\n{}",
        w.name(),
        trace::spans_jsonl(recs)
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => format!("{} spans written to {}", recs.len(), path.display()),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    }
}

/// The result line: every metric of `table`, in order, with its unit.
fn result_json(report: &Report, table: &[(&'static str, &'static str)]) -> String {
    assert_eq!(
        report.metrics.len(),
        table.len(),
        "the run measured other metrics than it reports"
    );
    let mut correct = report.tally.correct();
    let fields: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = report.metrics[name];
            let value = if v.is_finite() {
                format!("{v:?}")
            } else {
                correct = false;
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.tally.attempted,
        report.tally.failed,
        fields.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("roombench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "roombench {} seed={} seconds={} trace={} workers={WORKERS} cores={cores}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (report, table): (Report, &[(&str, &str)]) = if args.trace {
        (traced(args.workload, args.seed, args.seconds), &PER_LAYER)
    } else {
        (
            end_to_end(args.workload, args.seed, args.seconds),
            &END_TO_END,
        )
    };
    for &(name, unit) in table {
        println!("  {name:<36} {:>16.6} {unit}", report.metrics[name]);
    }
    for note in &report.notes {
        println!("  {note}");
    }
    println!("{}", result_json(&report, table));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_match_the_allowed_pattern_and_are_unique() {
        let names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for name in &names {
            assert!(name_ok(name), "{name}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let metrics: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        assert_eq!(listed, [workloads, metrics].concat());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut tally = Tally::default();
        assert!(tally.correct());
        tally.attempted = 4;
        tally.fail(2, "served power -inf is not finite");
        assert_eq!((tally.attempted, tally.failed), (4, 1));
        assert!(!tally.correct());
        let report = Report {
            tally,
            metrics: END_TO_END.iter().map(|&(n, _)| (n, 1.0)).collect(),
            notes: Vec::new(),
        };
        let line = result_json(&report, &END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
    }

    #[test]
    fn arguments_parse_strictly() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert_eq!(
            args("--workload fleet-cold --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: Workload::FleetCold,
                seed: 7,
                seconds: 10.0,
                trace: true
            })
        );
        assert_eq!(args("--workload zoo-steady").unwrap().seed, DEFAULT_SEED);
        assert!(args("--seed 7").is_err());
        assert!(args("--workload zoo").is_err());
        assert!(args("--workload zoo-steady --trace 2").is_err());
        assert!(args("--workload zoo-steady --seconds 0").is_err());
        assert!(args("--workload zoo-steady --bogus 1").is_err());
        assert_ne!(DEFAULT_SEED, HELD_OUT_SEED);
    }
}
