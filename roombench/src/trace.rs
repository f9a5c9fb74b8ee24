//! The traced pass's instruments, all outside the program: spans the
//! benchmark records around its own calls into each layer, and a
//! recorder that forwards everything to a [`RingRecorder`] while also
//! keeping every duration sample, so phase percentiles are exact rather
//! than log-binned.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use llama_core::telemetry::{Recorder, RingRecorder, TelemetryEvent};

/// One benchmark span: a call into a layer.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Span name (`serve`, `job`, or a layer call such as `sweep.cold`).
    pub name: &'static str,
    /// Start, nanoseconds since the span store was created.
    pub start_ns: u64,
    /// End, nanoseconds since the span store was created (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Job index within its batch, for spans belonging to one job.
    pub job: Option<usize>,
}

/// In-memory span store, shared by the serving workers.
pub struct Spans {
    origin: Instant,
    recs: Mutex<Vec<SpanRec>>,
}

impl Spans {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            recs: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: &'static str, parent: Option<usize>, job: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut recs = self.recs.lock().expect("span store poisoned by a panic");
        recs.push(SpanRec {
            name,
            start_ns,
            end_ns: 0,
            parent,
            job,
        });
        recs.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.recs.lock().expect("span store poisoned by a panic")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent, None);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.recs
            .lock()
            .expect("span store poisoned by a panic")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
pub fn self_times(recs: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); recs.len()];
    for r in recs {
        if let Some(p) = r.parent {
            children[p].push((r.start_ns, r.end_ns));
        }
    }
    recs.iter()
        .zip(children)
        .map(|(r, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = r.start_ns;
            for (s, e) in kids {
                let (s, e) = (s.max(reach), e.min(r.end_ns));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (r.end_ns - r.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The spans as JSONL, one span per line, with self times.
pub fn spans_jsonl(recs: &[SpanRec]) -> String {
    let selfs = self_times(recs);
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    recs.iter()
        .enumerate()
        .map(|(id, r)| {
            format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"job\": {}, \"self_ns\": {}}}\n",
                r.name,
                r.start_ns,
                r.end_ns,
                opt(r.parent),
                opt(r.job),
                selfs[id]
            )
        })
        .collect()
}

/// A [`RingRecorder`] that also keeps every duration sample by name.
#[derive(Debug, Default)]
pub struct SampleRecorder {
    ring: RingRecorder,
    durations: Mutex<BTreeMap<&'static str, Vec<u64>>>,
}

impl SampleRecorder {
    /// Every duration sample recorded under `name`, nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.durations
            .lock()
            .expect("recorder poisoned by a panic")
            .get(name)
            .map(|v| v.iter().map(|&ns| ns as f64).collect())
            .unwrap_or_default()
    }
}

impl Recorder for SampleRecorder {
    fn enabled(&self) -> bool {
        true
    }
    fn add(&self, name: &'static str, delta: u64) {
        self.ring.add(name, delta);
    }
    fn gauge(&self, name: &'static str, value: f64) {
        self.ring.gauge(name, value);
    }
    fn duration_ns(&self, name: &'static str, nanos: u64) {
        self.ring.duration_ns(name, nanos);
        self.durations
            .lock()
            .expect("recorder poisoned by a panic")
            .entry(name)
            .or_default()
            .push(nanos);
    }
    fn record_value(&self, name: &'static str, value: u64) {
        self.ring.record_value(name, value);
    }
    fn emit(&self, event: TelemetryEvent) {
        self.ring.emit(event);
    }
    fn set_tick(&self, tick: u64) {
        self.ring.set_tick(tick);
    }
    fn aggregate_json(&self) -> String {
        self.ring.aggregate_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name: "t",
            start_ns,
            end_ns,
            parent,
            job: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap (union 50),
        // and 90..120 is clipped to the parent (10).
        let recs = vec![
            rec(0, 100, None),
            rec(10, 40, Some(0)),
            rec(30, 60, Some(0)),
            rec(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&recs), vec![40, 30, 30, 30]);
    }
}
