//! In-memory spans recorded by the benchmark around calls into each crate.
//!
//! A span has a name (`<layer>.<call>`), a parent (the span open when it
//! started), a group id shared by every span of one operation, and start and
//! end offsets from the tracer's epoch. Spans are kept in memory and written
//! out once, when the run ends. Durations that a crate reports itself (a
//! pass's `PassReport::wall`, a campaign's checkpoint wall) are kept next to
//! the spans as named samples, so every per-layer time comes from one place.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    group: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder. When disabled, [`Tracer::span`] only calls through.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only calls through.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the span open now.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.offset_ns(Instant::now());
        self.spans.push(Span { name, parent, group, start_ns, end_ns: start_ns });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.offset_ns(Instant::now());
        out
    }

    /// Records a span measured elsewhere, such as a server request from
    /// `submit` to its result, which runs on a worker thread.
    pub fn record(&mut self, name: &'static str, group: u64, start: Instant, end: Instant) {
        if self.on {
            let parent = self.open.last().copied();
            let (start_ns, end_ns) = (self.offset_ns(start), self.offset_ns(end));
            self.spans.push(Span { name, parent, group, start_ns, end_ns });
        }
    }

    /// Records a duration a crate reported about its own work.
    pub fn sample(&mut self, name: &'static str, wall: Duration) {
        if self.on {
            self.samples.entry(name).or_default().push(wall.as_secs_f64() * 1e3);
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in ms of every span and sample named `name`.
    fn durations_ms(&self, name: &str) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        if let Some(v) = self.samples.get(name) {
            out.extend_from_slice(v);
        }
        out
    }

    /// Mean duration in ms of the spans and samples named `name`, if any.
    pub fn mean_ms(&self, name: &str) -> Option<f64> {
        let d = self.durations_ms(name);
        (!d.is_empty()).then(|| d.iter().sum::<f64>() / d.len() as f64)
    }

    /// The spans as JSON lines of one array (name, parent, group, start and
    /// end in ns from the epoch).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"group\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Mean cost in ms of recording one empty span, measured on a throwaway
/// tracer. Multiplied by the spans a run recorded it gives the time the
/// tracing itself added to that run.
pub fn span_cost_ms() -> f64 {
    const N: u64 = 200_000;
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for i in 0..N {
        t.span("calibrate", i, |_| std::hint::black_box(i));
    }
    start.elapsed().as_secs_f64() * 1e3 / N as f64
}
