//! In-memory spans around every call into a layer, the self-time
//! arithmetic over them, and the trace file writer.

use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` indexes the span that caused this one
/// within the same trace; spans of one request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u32,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records the spans of one thread. Several tracers share one `epoch`
/// so their spans land on one time axis and [`Tracer::absorb`] can
/// merge them.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    /// An empty tracer measuring from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Tag every span opened from now on with `request`.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Record an interval the caller timed itself, under the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos())
                .expect("run shorter than 2^64 ns")
        };
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
            request: self.request,
        });
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 2^64 ns")
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans, all closed.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a finished trace has no open span");
        self.spans
    }

    /// Append another tracer's (closed) spans, re-basing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer still has open spans");
        let base = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once and
/// children are clipped to the parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Write `spans` as `{"workload": …, "spans": [{name, start_ns, end_ns,
/// parent, request}, …]}`; a span's index in the array is its id.
pub fn write_trace(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    // rendered row by row: a traced round leaves ~10^5 spans, too many
    // to build as one value first
    let mut text = format!("{{\"workload\": {}, \"spans\": [", Json::str(workload).render());
    for (i, s) in spans.iter().enumerate() {
        let row = Json::obj([
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
            ("request", Json::Num(f64::from(s.request))),
        ]);
        text.push_str(if i == 0 { "\n" } else { ",\n" });
        text.push_str(&row.render());
    }
    text.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name: "s", start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root 0..100 > step 10..90 > two runs 20..30, 40..70
        let spans = vec![
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 30, Some(1)),
            span(40, 70, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 10, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // children 10..50 and 30..70 cover 10..70 = 60, plus one
        // contained in the first (20..40) adding nothing
        let spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            span(20, 40, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // a child that outlives its parent (a completion observed
        // late) covers only the shared interval 80..100
        let spans = vec![span(0, 100, None), span(80, 130, Some(0)), span(200, 210, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 80);
    }

    #[test]
    fn trace_file_is_one_json_document() {
        let dir = std::env::temp_dir().join(format!("camp-benchmark-trace-{}", std::process::id()));
        let path = dir.join("trace-t.json");
        let spans = vec![span(0, 100, None), span(10, 90, Some(0))];
        write_trace(&path, "t", &spans).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let Some(Json::Arr(rows)) = doc.get("spans") else { panic!("spans array") };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(rows[0].get("parent"), Some(&Json::Null));
        assert_eq!(doc.get("workload"), Some(&Json::str("t")));
    }

    #[test]
    fn tracer_nests_and_merges() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.set_request(3);
        let outer = a.open("request");
        let step = a.open("infer.decode_step");
        a.close(step);
        a.close(outer);
        let mut b = Tracer::new(epoch);
        let first = b.open("request");
        b.close(first);
        let inner_parent = b.open("request");
        b.record("exec.run", epoch, Instant::now());
        b.close(inner_parent);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 5);
        assert_eq!((s[1].name, s[1].parent, s[1].request), ("infer.decode_step", Some(0), 3));
        assert_eq!(s[4].parent, Some(inner_parent + 2), "parents re-based past a's two spans");
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
    }
}
