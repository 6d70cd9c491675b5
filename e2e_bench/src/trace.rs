//! Host-time spans recorded around calls into each layer, from the
//! benchmark's own code, kept in memory and written out at the end as
//! Chrome trace-event JSON (opens in Perfetto or `chrome://tracing`).

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, `layer.function`.
    pub name: &'static str,
    /// The layer the call belongs to (`nn`, `compiler`, `sim`, `xbar`,
    /// `runtime`, or `bench` for the benchmark's own grouping spans).
    pub layer: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// The request the call served, as its position in the request set.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans. A recorder that is off takes no timestamps at all, so
/// the same code runs untraced to measure the recorder's own cost.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Recorder {
        Recorder { origin: Instant::now(), on, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when the recorder is off.
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, layer, start_ns, end_ns: start_ns, parent, request });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, layer, parent, None);
        let out = f();
        self.close(id);
        out
    }

    /// The spans recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover (children are clipped to the parent and, being
/// sequential calls on one thread, do not overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// The share of span `root`'s duration covered by the leaf spans below it
/// — how much of the measured wall time the layer spans account for.
pub fn coverage(spans: &[Span], root: usize) -> f64 {
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let under_root = |mut i: usize| loop {
        match spans[i].parent {
            Some(p) if p == root => return true,
            Some(p) => i = p,
            None => return false,
        }
    };
    let leaves: u64 = (0..spans.len())
        .filter(|&i| !has_child[i] && under_root(i))
        .map(|i| spans[i].duration_ns())
        .sum();
    leaves as f64 / spans[root].duration_ns().max(1) as f64
}

/// Mean duration of the spans called `name`, in ns (0 when there are none).
pub fn mean_ns(spans: &[Span], name: &str) -> f64 {
    let (n, total) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.duration_ns()));
    total as f64 / n.max(1) as f64
}

/// Total duration of the spans called `name`, in ns.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum()
}

/// Renders the first `limit` spans as Chrome trace-event JSON: one
/// complete (`"ph": "X"`) event per span on a single thread, with its
/// layer as the category and its id, parent and request in `args`.
/// Names are identifiers, so nothing needs escaping.
pub fn chrome_json(spans: &[Span], limit: usize) -> String {
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (id, s) in spans.iter().enumerate().take(limit) {
        if id > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {id}, \"layer\": \"{}\", \"parent\": {}, \
             \"request\": {}}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.layer,
            opt(s.parent.map(|p| p as u64)),
            opt(s.request),
        );
    }
    let _ = write!(
        out,
        "\n], \"otherData\": {{\"spans\": {}, \"written\": {}}}}}\n",
        spans.len(),
        spans.len().min(limit)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, layer: "sim", start_ns, end_ns, parent, request: Some(3) }
    }

    /// replay [0, 100) ⊃ request [10, 90) ⊃ {reset [10, 20), run [25, 85)}.
    fn tree() -> Vec<Span> {
        vec![
            span("bench.replay", 0, 100, None),
            span("bench.request", 10, 90, Some(0)),
            span("sim.reset", 10, 20, Some(1)),
            span("sim.run", 25, 85, Some(1)),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&tree()), vec![20, 10, 10, 60]);
    }

    #[test]
    fn coverage_counts_leaves_under_the_root() {
        assert!((coverage(&tree(), 0) - 0.70).abs() < 1e-12);
        assert!((coverage(&tree(), 1) - 70.0 / 80.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.open("sim.run", "sim", None, Some(0));
        rec.close(id);
        assert_eq!(rec.time("sim.reset", "sim", None, || 7), 7);
        assert!(id.is_none() && rec.spans().is_empty());
    }

    #[test]
    fn recorder_nests_and_times() {
        let mut rec = Recorder::new(true);
        let outer = rec.open("bench.request", "bench", None, Some(1));
        rec.time("sim.run", "sim", outer, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        rec.close(outer);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].duration_ns() >= 1_000_000);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!((mean_ns(spans, "sim.run") - spans[1].duration_ns() as f64).abs() < 1e-9);
    }

    #[test]
    fn chrome_json_parses_and_respects_the_limit() {
        let text = chrome_json(&tree(), 3);
        let doc = puma_bench::json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 3);
        let run = &events[2];
        assert_eq!(run.get("name").and_then(|n| n.as_str()), Some("sim.reset"));
        assert_eq!(run.get("ph").and_then(|n| n.as_str()), Some("X"));
        let args = run.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_u64()), Some(1));
        assert_eq!(args.get("request").and_then(|p| p.as_u64()), Some(3));
        assert_eq!(
            doc.get("otherData").and_then(|o| o.get("spans")).and_then(|s| s.as_u64()),
            Some(4)
        );
    }
}
