//! Spans of the traced run, recorded from the benchmark's own files around
//! its calls into each layer: held in memory, written to `trace.json` when
//! the run ends. Spans inside the simulator are a later change.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One span. Spans of one workload share its name; `parent` is the span that
/// was open when this one began (0 for none), which is the span that caused
/// it because the benchmark is a closed loop on one thread.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub workload: String,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// One element of the `spans` array `to_json` writes.
    pub fn from_json(v: &Json) -> Option<Span> {
        let int = |k: &str| Some(v.get(k)?.as_f64()? as u64);
        Some(Span {
            id: int("id")? as u32,
            parent: int("parent")? as u32,
            name: v.get("name")?.as_str()?.to_string(),
            start_ns: int("start_ns")?,
            end_ns: int("end_ns")?,
            workload: v.get("workload")?.as_str()?.to_string(),
        })
    }
}

/// Records spans when enabled; a disabled tracer reads no clock at all, so
/// end-to-end metrics are taken with tracing off.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: String,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, workload: &str) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            workload: workload.to_string(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            workload: self.workload.clone(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        r
    }

    /// Record a span whose ends were observed elsewhere (a worker process's
    /// stamps), on the clock `now_mark` reads.
    pub fn span_at(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                id: self.spans.len() as u32 + 1,
                parent: self.open.last().copied().unwrap_or(0),
                name: name.to_string(),
                start_ns,
                end_ns: end_ns.max(start_ns),
                workload: self.workload.clone(),
            });
        }
    }

    /// The tracer's clock now (0 when disabled), for `span_at`.
    pub fn now_mark(&self) -> u64 {
        if self.enabled {
            self.now_ns()
        } else {
            0
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the most recent finished span called `name`, in ns.
    pub fn last_duration_ns(&self, name: &str) -> Option<u64> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(Span::duration_ns)
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// child spans cover (children of one parent never overlap here, since one
/// thread opens and closes them in order).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
    let by_id: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            *covered.entry(p.id).or_default() += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .map(|s| {
            s.duration_ns()
                .saturating_sub(covered.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Total self time and call count per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64, u64)> {
    let mut rows: Vec<(String, u64, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += self_ns;
                r.2 += 1;
            }
            None => rows.push((s.name.clone(), self_ns, 1)),
        }
    }
    rows
}

/// The spans as the document written to `trace.json`.
pub fn to_json(spans: &[Span]) -> Json {
    Json::obj([
        ("clock", Json::str("ns since the traced run began")),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("id", Json::from(s.id as u64)),
                            ("parent", Json::from(s.parent as u64)),
                            ("name", Json::str(&s.name)),
                            ("start_ns", Json::from(s.start_ns)),
                            ("end_ns", Json::from(s.end_ns)),
                            ("workload", Json::str(&s.workload)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            workload: "w".into(),
        }
    }

    #[test]
    fn self_time_subtracts_children_but_not_grandchildren() {
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "child", 10, 40),
            span(3, 2, "grandchild", 15, 25),
            span(4, 1, "child", 50, 70),
            span(5, 0, "other", 100, 130),
        ];
        assert_eq!(self_times(&spans), [50, 20, 10, 20, 30]);
        let rows = self_time_by_name(&spans);
        assert_eq!(rows[0], ("root".to_string(), 50, 1));
        assert_eq!(rows[1], ("child".to_string(), 40, 2));
    }

    #[test]
    fn a_child_that_outlives_its_parent_is_clipped() {
        let spans = [span(1, 0, "p", 0, 10), span(2, 1, "c", 5, 30)];
        assert_eq!(self_times(&spans), [5, 25]);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true, "w");
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!((s[0].name.as_str(), s[0].parent), ("outer", 0));
        assert_eq!((s[1].name.as_str(), s[1].parent), ("inner", 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false, "w");
        assert_eq!(off.span("x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_document_round_trips() {
        let spans = [span(1, 0, "a", 1, 2)];
        let doc = to_json(&spans);
        let back = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(back, doc);
        let read: Vec<Span> = back
            .get("spans")
            .unwrap()
            .as_arr()
            .iter()
            .filter_map(Span::from_json)
            .collect();
        assert_eq!(read, spans);
    }
}
