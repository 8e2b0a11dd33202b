//! In-memory span recording for the traced run: one span per call into a
//! layer, `{name, start, end, parent, op_id}`, kept in a `Vec` and
//! reduced (or dumped) only after the measured loop has ended.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name, e.g. `proxy.dispatch`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The operation all spans of one request share.
    pub op_id: u32,
}

/// Records spans from one thread. Spans nest by open/close order; the
/// innermost open span is the parent of the next one opened.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u32,
}

impl Recorder {
    /// An empty recorder measuring from `epoch` (recorders of several
    /// threads share one epoch so their spans share a time axis).
    pub fn at(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op_id: u32) {
        self.op_id = op_id;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let end = self.now();
        let id = self.open.pop().expect("close without open");
        self.spans[id as usize].end = end;
    }

    /// Records an already-timed call as a child of the innermost open
    /// span — for call sites that take their own `Instant`s anyway.
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: ns(start),
            end: ns(end),
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals of a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans of this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// A span's self time: its duration minus the part of its interval its
/// direct children cover (overlapping children are not double-counted).
/// `children` are `(start, end)` pairs in any order.
pub fn self_time(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start;
    for &(s, e) in children.iter() {
        let s = s.clamp(cursor, span.end);
        let e = e.clamp(cursor, span.end);
        covered += e - s;
        cursor = e.max(cursor);
    }
    (span.end - span.start) - covered
}

/// Reduces a span set to totals per `(root name, span name)`: a layer's
/// spans under an op root are kept apart from the same layer's spans
/// under another root (the after-the-answer tail, say).
pub fn totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), NameTotal> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<&'static str> = Vec::with_capacity(spans.len());
    for s in spans {
        // Parents are recorded before their children, so a parent's root
        // is already known.
        roots.push(match s.parent {
            Some(p) => {
                children[p as usize].push((s.start, s.end));
                roots[p as usize]
            }
            None => s.name,
        });
    }
    let mut out: BTreeMap<_, NameTotal> = BTreeMap::new();
    for ((s, kids), root) in spans.iter().zip(children.iter_mut()).zip(roots) {
        let t = out.entry((root, s.name)).or_default();
        t.count += 1;
        t.total_ns += s.end - s.start;
        t.self_ns += self_time(s, kids);
    }
    out
}

/// Renders the spans of operations `< max_ops` as a JSON array, for the
/// dump a traced run leaves behind.
pub fn dump_json(spans: &[Span], max_ops: u32) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.op_id < max_ops)
        .map(|(i, s)| {
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op_id\": {}}}",
                s.name, s.start, s.end, s.op_id
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "x",
            start,
            end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let parent = span(100, 200, None);
        assert_eq!(self_time(&parent, &mut []), 100);
        // Two disjoint children cover 30 + 20.
        assert_eq!(self_time(&parent, &mut [(150, 170), (110, 140)]), 50);
        // Overlapping children cover their union [110, 160), once.
        assert_eq!(self_time(&parent, &mut [(110, 150), (130, 160)]), 50);
        // A child poking outside the parent is clipped to it.
        assert_eq!(self_time(&parent, &mut [(90, 120), (190, 250)]), 70);
        // Full cover leaves nothing.
        assert_eq!(self_time(&parent, &mut [(100, 200)]), 0);
    }

    #[test]
    fn totals_attribute_nested_time_once() {
        let spans = [
            Span {
                name: "op",
                ..span(0, 100, None)
            },
            Span {
                name: "layer",
                ..span(10, 40, Some(0))
            },
            Span {
                name: "inner",
                ..span(20, 30, Some(1))
            },
            Span {
                name: "layer",
                ..span(50, 90, Some(0))
            },
            Span {
                name: "tail",
                ..span(100, 120, None)
            },
            Span {
                name: "layer",
                ..span(105, 110, Some(4))
            },
        ];
        let t = totals(&spans);
        assert_eq!(t[&("op", "op")].self_ns, 30); // 100 − (30 + 40)
        assert_eq!(
            t[&("op", "layer")],
            NameTotal {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(t[&("op", "inner")].self_ns, 10);
        // The same layer under another root is accounted apart.
        assert_eq!(t[&("tail", "layer")].total_ns, 5);
        assert_eq!(t[&("tail", "tail")].self_ns, 15);
        // Self times partition the root spans exactly.
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 120);
    }

    #[test]
    fn recorder_nests_by_open_order() {
        let mut r = Recorder::at(Instant::now());
        r.set_op(7);
        r.open("op");
        r.open("child");
        r.close();
        let t = Instant::now();
        r.push("pushed", t, t + std::time::Duration::from_nanos(5));
        r.close();
        assert_eq!(
            (r.spans()[2].name, r.spans()[2].parent),
            ("pushed", Some(0))
        );
        assert_eq!(r.spans()[2].end - r.spans()[2].start, 5);
        let s = r.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].op_id), ("op", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("child", Some(0)));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(dump_json(s, 8).contains("\"name\": \"child\""));
        assert_eq!(dump_json(s, 7), "[\n\n]\n");
    }
}
