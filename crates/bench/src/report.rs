//! The one report model every bench suite shares.
//!
//! A suite records a flat list of [`Metric`]s into a [`Report`]: each
//! metric has a name, a unit, its raw samples, the value its gate reads,
//! optional row labels (a room, a fault rate, a matrix cell) and any
//! number of [`Bound`]s. Boolean contracts — bitwise equivalence,
//! replay determinism — are `bool` metrics gated at `>= 1`. One
//! [`Report::passes`] gates every suite, and one writer renders every
//! report as JSON, markdown, CSV and a console summary.
//!
//! Every JSON artifact carries the shared stamp block after its identity
//! lines: machine topology, the probe-kernel allocation count, the active
//! fault configuration and the aggregated telemetry block, so a number
//! measured on one core, under injected faults or with a recorder
//! attached can never pass for another.

use std::fmt::Display;

use llama_core::faults::FaultPlan;
use rfmath::telemetry::null_block_json;

/// One condition a metric's value must meet for its report to pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// `value >= x` (a floor).
    Floor(f64),
    /// `value > x` (a strict floor).
    Above(f64),
    /// `value <= x` (a ceiling).
    Ceiling(f64),
    /// `value` is a real number: neither NaN nor infinite.
    Finite,
}

impl Bound {
    /// Whether `value` meets the bound (NaN meets only no bound).
    pub fn holds(self, value: f64) -> bool {
        match self {
            Bound::Floor(x) => value >= x,
            Bound::Above(x) => value > x,
            Bound::Ceiling(x) => value <= x,
            Bound::Finite => value.is_finite(),
        }
    }

    /// The JSON key/value pair the writer renders the bound as.
    fn json(self) -> String {
        match self {
            Bound::Floor(x) => format!("\"floor\": {}", json_num(x)),
            Bound::Above(x) => format!("\"above\": {}", json_num(x)),
            Bound::Ceiling(x) => format!("\"ceiling\": {}", json_num(x)),
            Bound::Finite => "\"finite\": true".to_string(),
        }
    }
}

impl Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Floor(x) => write!(f, ">= {x}"),
            Bound::Above(x) => write!(f, "> {x}"),
            Bound::Ceiling(x) => write!(f, "<= {x}"),
            Bound::Finite => write!(f, "finite"),
        }
    }
}

/// One measured quantity.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name; with [`Metric::labels`] it names one table cell.
    pub name: &'static str,
    /// Row labels (`room`, `rate`, matrix axes): metrics sharing labels
    /// form one row of the markdown/CSV table.
    pub labels: Vec<(&'static str, String)>,
    /// Unit: `ms`, `x`, `dB`, `dBm`, `count`, `ratio`, `bool`, ...
    pub unit: &'static str,
    /// The raw per-iteration samples behind the value (empty for a
    /// derived or single-shot value).
    pub samples: Vec<f64>,
    /// The value the gate reads and the writer reports.
    pub value: f64,
    /// Conditions the value must meet; empty for an informational metric.
    pub bounds: Vec<Bound>,
}

impl Metric {
    /// An ungated metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            labels: Vec::new(),
            unit,
            samples: Vec::new(),
            value,
            bounds: Vec::new(),
        }
    }

    /// A wall-clock timing in milliseconds: the value is the mean of
    /// the per-iteration `samples`.
    pub fn timing(name: &'static str, samples: Vec<f64>) -> Self {
        let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
        Self::new(name, "ms", mean).with_samples(samples)
    }

    /// A deterministic count.
    pub fn count(name: &'static str, n: usize) -> Self {
        Self::new(name, "count", n as f64)
    }

    /// A yes/no outcome, stored as 1 or 0 (gate it with `Floor(1.0)`).
    pub fn flag(name: &'static str, yes: bool) -> Self {
        Self::new(name, "bool", if yes { 1.0 } else { 0.0 })
    }

    /// Adds a row label.
    pub fn label(mut self, key: &'static str, value: impl Display) -> Self {
        self.labels.push((key, value.to_string()));
        self
    }

    /// Attaches the raw samples behind the value.
    pub fn with_samples(mut self, samples: Vec<f64>) -> Self {
        self.samples = samples;
        self
    }

    /// Whether every bound holds.
    pub fn passes(&self) -> bool {
        self.bounds.iter().all(|b| b.holds(self.value))
    }

    /// Whether the metric's labels include every `(key, value)` of `row`
    /// (an empty `row` matches every metric).
    pub(crate) fn in_row(&self, row: &[(&str, &str)]) -> bool {
        row.iter()
            .all(|(k, v)| self.labels.iter().any(|(lk, lv)| lk == k && lv == v))
    }

    /// `name[key=value, ...]` — the metric's display name.
    fn display_name(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_string();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}[{}]", self.name, labels.join(", "))
    }

    /// The value as a table cell.
    fn cell(&self) -> String {
        let v = self.value;
        match self.unit {
            "bool" => (v >= 1.0).to_string(),
            "count" => format!("{v:.0}"),
            // Four significant digits for sub-unit values.
            _ if v.is_finite() && v != 0.0 && v.abs() < 1.0 => {
                let decimals = 3 + (-v.abs().log10()).floor() as usize;
                format!("{v:.*}", decimals.min(12))
            }
            _ => format!("{v:.4}"),
        }
    }

    fn to_json(&self) -> String {
        let mut out = format!("{{\"name\": \"{}\"", self.name);
        if !self.labels.is_empty() {
            let labels: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v:?}"))
                .collect();
            out.push_str(&format!(", \"labels\": {{{}}}", labels.join(", ")));
        }
        let value = match self.unit {
            "bool" => (self.value >= 1.0).to_string(),
            _ => json_num(self.value),
        };
        out.push_str(&format!(
            ", \"unit\": \"{}\", \"value\": {value}",
            self.unit
        ));
        if !self.samples.is_empty() {
            let mut sorted = self.samples.clone();
            sorted.sort_by(f64::total_cmp);
            out.push_str(&format!(
                ", \"n\": {}, \"min\": {}, \"median\": {}, \"max\": {}",
                sorted.len(),
                json_num(sorted[0]),
                json_num(sorted[sorted.len() / 2]),
                json_num(sorted[sorted.len() - 1])
            ));
        }
        for bound in &self.bounds {
            out.push_str(&format!(", {}", bound.json()));
        }
        if !self.bounds.is_empty() {
            out.push_str(&format!(", \"pass\": {}", self.passes()));
        }
        out.push('}');
        out
    }
}

/// A JSON number, or `null` for NaN and infinities (which JSON lacks).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One suite's measurements, ready to print, write and gate on.
#[derive(Clone, Debug)]
pub struct Report {
    /// Suite name (`engine`, `fleet`, `chaos`, ...).
    pub suite: &'static str,
    /// Identity and workload parameters, values pre-rendered as JSON.
    pub params: Vec<(&'static str, String)>,
    /// The fault configuration the measurements ran under.
    pub faults: FaultPlan,
    /// Aggregated telemetry block (single-line JSON object; the null
    /// block when no recorder rode along).
    pub telemetry: String,
    /// Every measured quantity, gated or not.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// An empty, fault-free, uninstrumented report for `suite`.
    pub fn new(suite: &'static str) -> Self {
        Self {
            suite,
            params: Vec::new(),
            faults: FaultPlan::none(),
            telemetry: null_block_json(),
            metrics: Vec::new(),
        }
    }

    /// Adds a parameter whose value is already JSON (a number, a bool,
    /// an array or object).
    pub fn param(mut self, key: &'static str, json: impl Display) -> Self {
        self.params.push((key, json.to_string()));
        self
    }

    /// Adds a string parameter.
    pub fn text(self, key: &'static str, value: &str) -> Self {
        self.param(key, format!("{value:?}"))
    }

    /// Records one metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Attaches `bound` to every metric called `name` in `row` (see
    /// [`Report::metric`]).
    ///
    /// # Panics
    ///
    /// When no metric matches: a gate on a metric the suite never
    /// recorded would silently never fail.
    pub fn gate(&mut self, name: &str, row: &[(&str, &str)], bound: Bound) {
        let mut matched = false;
        for m in self
            .metrics
            .iter_mut()
            .filter(|m| m.name == name && m.in_row(row))
        {
            m.bounds.push(bound);
            matched = true;
        }
        assert!(matched, "gate on unrecorded metric {name} {row:?}");
    }

    /// The first metric called `name` whose labels include every
    /// `(key, value)` of `row`.
    pub fn metric(&self, name: &str, row: &[(&str, &str)]) -> Option<&Metric> {
        self.metrics
            .iter()
            .find(|m| m.name == name && m.in_row(row))
    }

    /// The gate: every bound on every metric holds.
    pub fn passes(&self) -> bool {
        self.metrics.iter().all(Metric::passes)
    }

    /// One line per violated bound (empty when every bound holds).
    pub fn failures(&self) -> Vec<String> {
        self.metrics
            .iter()
            .flat_map(|m| {
                m.bounds
                    .iter()
                    .filter(|b| !b.holds(m.value))
                    .map(move |b| format!("{} = {} (needs {b})", m.display_name(), m.cell()))
            })
            .collect()
    }

    /// The JSON artifact: identity, parameters, the shared stamp block,
    /// every metric, and the verdict.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"suite\": \"{}\",\n", self.suite);
        for (key, json) in &self.params {
            out.push_str(&format!("  \"{key}\": {json},\n"));
        }
        out.push_str(&stamp(&self.faults, &self.telemetry));
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            out.push_str(&format!("    {}{comma}\n", m.to_json()));
        }
        out.push_str(&format!("  ],\n  \"pass\": {}\n}}\n", self.passes()));
        out
    }

    /// The metrics as a markdown table: one row per label set, one
    /// column per label key and metric name.
    pub fn to_markdown(&self) -> String {
        let (header, rows) = self.table();
        let mut out = format!(
            "| {} |\n|{}\n",
            header.join(" | "),
            "---|".repeat(header.len())
        );
        for row in rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// The same table as [`Report::to_markdown`], as CSV.
    pub fn to_csv(&self) -> String {
        let (header, rows) = self.table();
        let csv_row = |cells: Vec<String>| {
            let cells: Vec<String> = cells
                .into_iter()
                .map(|c| {
                    if c.contains([',', '"']) {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c
                    }
                })
                .collect();
            format!("{}\n", cells.join(","))
        };
        let mut out = csv_row(header.into_iter().map(str::to_string).collect());
        for row in rows {
            out.push_str(&csv_row(row));
        }
        out
    }

    /// The console summary: one line per metric, its bounds and whether
    /// they hold, then the verdict.
    pub fn summary(&self) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect();
        let mut out = format!("== {} ({})\n", self.suite, params.join(", "));
        for m in &self.metrics {
            let mut line = format!("{:>44}: {:>12} {}", m.display_name(), m.cell(), m.unit);
            if m.samples.len() > 1 {
                line.push_str(&format!(" (n {})", m.samples.len()));
            }
            if !m.bounds.is_empty() {
                let bounds: Vec<String> = m.bounds.iter().map(Bound::to_string).collect();
                let verdict = if m.passes() { "ok" } else { "FAIL" };
                line.push_str(&format!("  [{}] {verdict}", bounds.join(", ")));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out.push_str(if self.passes() { "PASS\n" } else { "FAIL\n" });
        out
    }

    /// Header and rows of the markdown/CSV table: rows are the distinct
    /// label sets in first-appearance order; columns are the label keys,
    /// then the metric names, each in first-appearance order.
    fn table(&self) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let mut keys: Vec<&'static str> = Vec::new();
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows: Vec<&[(&'static str, String)]> = Vec::new();
        for m in &self.metrics {
            for (k, _) in &m.labels {
                if !keys.contains(k) {
                    keys.push(k);
                }
            }
            if !names.contains(&m.name) {
                names.push(m.name);
            }
            if !rows.contains(&m.labels.as_slice()) {
                rows.push(&m.labels);
            }
        }
        let cells = rows
            .iter()
            .map(|labels| {
                let label_cells = keys.iter().map(|k| {
                    labels
                        .iter()
                        .find(|(lk, _)| lk == k)
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default()
                });
                let metric_cells = names.iter().map(|name| {
                    self.metrics
                        .iter()
                        .find(|m| m.name == *name && m.labels.as_slice() == *labels)
                        .map(Metric::cell)
                        .unwrap_or_default()
                });
                label_cells.chain(metric_cells).collect()
            })
            .collect();
        let mut header = keys;
        header.extend(names);
        (header, cells)
    }
}

/// The shared stamp block: machine topology, the probe-kernel
/// allocation count ([`crate::perf::allocs_per_tick`], `null` when
/// counting is compiled out), the fault configuration and the telemetry
/// block. `telemetry` must be a single-line JSON object.
fn stamp(plan: &FaultPlan, telemetry: &str) -> String {
    let allocs = crate::perf::allocs_per_tick()
        .map(|v| format!("{v:.2}"))
        .unwrap_or_else(|| "null".to_string());
    format!(
        "  \"machine\": {{\"logical_cores\": {}, \"threads_used\": {}}},\n\
         \x20 \"allocs_per_tick\": {allocs},\n\
         \x20 \"faults\": {{\"seed\": {}, \"panel_outage_rate\": {:.4}, \
         \"report_loss_rate\": {:.4}, \"psu_glitch_rate\": {:.4}, \
         \"scripted_outages\": {}, \"dead_columns\": {}, \
         \"max_report_attempts\": {}}},\n\
         \x20 \"telemetry\": {telemetry},\n",
        crate::logical_cores(),
        rfmath::par::available_threads(),
        plan.seed,
        plan.panel_outage_rate,
        plan.report_loss_rate,
        plan.psu_glitch_rate,
        plan.outages.len(),
        plan.dead_columns.len(),
        plan.retry.max_attempts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use Bound::{Above, Ceiling, Finite, Floor};

    /// One metric of a suite fixture: name, row labels, and the bounds
    /// the suite's gate must attach (empty: the gate must leave it
    /// unbounded).
    type Pin = (
        &'static str,
        &'static [(&'static str, &'static str)],
        &'static [Bound],
    );

    /// A suite fixture: its name, its gate function, and its pins.
    type Suite = (&'static str, fn(&mut Report), &'static [Pin]);

    /// Every suite's gate function with the gates it must attach, bound
    /// constants written out.
    const SUITES: &[Suite] = &[
        (
            "engine",
            crate::perf::gate_engine,
            &[("heatmap_31x31_speedup", &[], &[Floor(3.0)])],
        ),
        (
            "fleet",
            crate::perf::gate_fleet,
            &[("fleet_32_speedup", &[], &[Floor(3.0)])],
        ),
        (
            "panels",
            crate::perf::gate_panels,
            &[
                ("panel_grid_speedup", &[], &[Floor(2.0)]),
                ("panel_min_power_gain_db", &[], &[Above(0.0)]),
            ],
        ),
        (
            "mobility (full)",
            |r| crate::perf::gate_mobility(r, false),
            &[
                ("warm_speedup", &[], &[Floor(3.0)]),
                ("warm_probe_fraction", &[], &[Ceiling(0.5)]),
                ("zero_motion_equivalent", &[], &[Floor(1.0)]),
            ],
        ),
        (
            "mobility (quick)",
            |r| crate::perf::gate_mobility(r, true),
            &[
                ("warm_speedup", &[], &[Floor(1.5)]),
                ("warm_probe_fraction", &[], &[Ceiling(0.5)]),
                ("zero_motion_equivalent", &[], &[Floor(1.0)]),
            ],
        ),
        (
            "sharded (multi-core)",
            |r| crate::perf::gate_sharded(r, false),
            &[
                ("probe_grid_speedup", &[], &[Floor(1.5)]),
                ("mobility_tick_speedup", &[], &[Floor(1.3)]),
                ("churn_bit_identical", &[], &[Floor(1.0)]),
                // Only the largest worker count is gated.
                ("efficiency", &[("workers", "1")], &[]),
                ("efficiency", &[("workers", "2")], &[Floor(0.6)]),
            ],
        ),
        (
            "sharded (single core)",
            |r| crate::perf::gate_sharded(r, true),
            &[
                ("probe_grid_speedup", &[], &[Floor(1.5)]),
                ("mobility_tick_speedup", &[], &[Floor(1.3)]),
                ("churn_bit_identical", &[], &[Floor(1.0)]),
            ],
        ),
        (
            "joint",
            crate::joint::gate_joint,
            &[
                ("lift_db", &[("room", "office-floor")], &[Floor(-1e-9)]),
                ("lift_db", &[("room", "warehouse-aisle")], &[Floor(-1e-9)]),
                ("max_lift_db", &[], &[Floor(0.01)]),
                ("coupled_slowdown", &[], &[Finite, Ceiling(8.0)]),
            ],
        ),
        (
            "chaos",
            |r| crate::chaos::gate_chaos(r, false),
            &[
                ("zero_fault_identical", &[], &[Floor(1.0)]),
                ("mean_duty", &[("rate", "0.00")], &[]),
                ("mean_duty", &[("rate", "0.05")], &[Floor(0.2)]),
                ("mean_min_power_dbm", &[("rate", "0.05")], &[Finite]),
                ("reassignments", &[("rate", "0.05")], &[Floor(1.0)]),
                ("mean_duty", &[("rate", "0.10")], &[Floor(0.2)]),
                ("mean_min_power_dbm", &[("rate", "0.10")], &[Finite]),
                ("reassignments", &[("rate", "0.10")], &[Floor(1.0)]),
                ("mean_duty", &[("rate", "0.20")], &[]),
                ("reassignments", &[("rate", "0.30")], &[]),
            ],
        ),
        (
            "chaos --joint",
            |r| crate::chaos::gate_chaos(r, true),
            &[
                ("zero_fault_identical", &[], &[Floor(1.0)]),
                ("mean_duty", &[("rate", "0.05")], &[Floor(0.2)]),
                ("mean_min_power_dbm", &[("rate", "0.05")], &[Finite]),
                ("reassignments", &[("rate", "0.05")], &[Floor(1.0)]),
                ("mean_duty", &[("rate", "0.10")], &[Floor(0.2)]),
                ("mean_min_power_dbm", &[("rate", "0.10")], &[Finite]),
                ("reassignments", &[("rate", "0.10")], &[Floor(1.0)]),
                ("joint_deterministic", &[], &[Floor(1.0)]),
                ("joint_lift_db", &[], &[Floor(-1e-9)]),
            ],
        ),
        (
            "scenario",
            crate::scenario::gate_scenario,
            &[
                ("mean_duty", &[], &[Above(0.0)]),
                ("mean_min_power_dbm", &[], &[Finite]),
            ],
        ),
        (
            "trace",
            crate::trace::gate_trace,
            &[
                ("deterministic", &[], &[Floor(1.0)]),
                ("events", &[], &[Floor(1.0)]),
                ("events_of_type", &[("type", "job_enqueued")], &[Floor(1.0)]),
                (
                    "events_of_type",
                    &[("type", "job_completed")],
                    &[Floor(1.0)],
                ),
                ("events_of_type", &[("type", "sweep_span")], &[Floor(1.0)]),
                ("events_of_type", &[("type", "tick_phase")], &[Floor(1.0)]),
                (
                    "events_of_type",
                    &[("type", "fault_injected")],
                    &[Floor(1.0)],
                ),
            ],
        ),
        (
            "overhead (multi-core)",
            |r| crate::trace::gate_overhead(r, false),
            &[("overhead", &[], &[Ceiling(1.05)])],
        ),
        (
            "overhead (single core)",
            |r| crate::trace::gate_overhead(r, true),
            &[("overhead", &[], &[])],
        ),
        (
            "matrix",
            crate::matrix::gate_matrix,
            &[
                ("min_ms", &[("room", "synthetic")], &[Finite, Above(0.0)]),
                ("min_power_dbm", &[("room", "synthetic")], &[Finite]),
                ("min_ms", &[("room", "office-floor")], &[Finite, Above(0.0)]),
                ("min_power_dbm", &[("room", "office-floor")], &[Finite]),
            ],
        ),
    ];

    /// The value sitting exactly on the edge of `bounds` — in range.
    fn inside(bounds: &[Bound]) -> f64 {
        bounds.iter().fold(0.0, |v, b| match *b {
            Floor(x) | Ceiling(x) => x,
            Above(x) => x.next_up(),
            Finite => v,
        })
    }

    /// A value violating `bound` alone among `bounds`.
    fn past(bound: Bound, bounds: &[Bound]) -> f64 {
        match bound {
            Floor(x) => x.next_down(),
            Above(x) => x,
            Ceiling(x) => x.next_up(),
            Finite if bounds.iter().any(|b| matches!(b, Ceiling(_))) => f64::NEG_INFINITY,
            Finite => f64::INFINITY,
        }
    }

    /// For every suite: a fixture at the edge of every bound passes, the
    /// gate attaches exactly the pinned bounds, and moving any one
    /// bounded metric just past any one of its bounds fails the report
    /// on that bound alone.
    #[test]
    fn every_suite_gate_flips_just_past_its_bound() {
        for &(suite, gate, pins) in SUITES {
            let mut report = Report::new("fixture");
            for &(name, row, bounds) in pins {
                let mut metric = Metric::new(name, "x", inside(bounds));
                for &(k, v) in row {
                    metric = metric.label(k, v);
                }
                report.push(metric);
            }
            gate(&mut report);
            for (metric, &(name, row, bounds)) in report.metrics.iter().zip(pins) {
                assert_eq!(metric.bounds, bounds, "{suite}: bounds of {name} {row:?}");
            }
            assert!(report.passes(), "{suite}: {:?}", report.failures());

            for (i, &(name, _, bounds)) in pins.iter().enumerate() {
                let edge = report.metrics[i].value;
                for &bound in bounds {
                    report.metrics[i].value = past(bound, bounds);
                    assert!(!report.passes(), "{suite}: {name} past {bound}");
                    assert_eq!(report.failures().len(), 1, "{suite}: {name}");
                    report.metrics[i].value = edge;
                }
            }
            assert!(report.passes());
        }
    }

    #[test]
    fn nan_fails_every_bound() {
        for bound in [Floor(0.0), Above(0.0), Ceiling(0.0), Finite] {
            assert!(!bound.holds(f64::NAN), "{bound}");
        }
    }
}
