//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `(name, start, end, parent, iteration)`. Spans are kept in
//! memory while the workload runs and written out once at the end, so
//! tracing adds one short lock per span and no I/O to a timed iteration.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub iteration: u32,
}

/// The span store of one benchmark process.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &str, parent: Option<usize>, iteration: u32) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            iteration,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("no span holder panics")[id].end_ns = end_ns;
    }

    /// `(duration_ns, self_ns)` of every span called `name` in one
    /// iteration, in the order they opened.
    fn query(&self, iteration: u32, name: &str) -> Vec<(u64, u64)> {
        let spans = self.spans.lock().expect("no span holder panics");
        spans
            .iter()
            .zip(self_times(&spans))
            .filter(|(s, _)| s.iteration == iteration && s.name == name)
            .map(|(s, own)| (s.end_ns - s.start_ns, own))
            .collect()
    }

    /// Every span with its self time, plus per-name totals, as JSON.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.lock().expect("no span holder panics");
        let self_ns = self_times(&spans);
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        let mut list = Vec::with_capacity(spans.len());
        for (span, &own) in spans.iter().zip(&self_ns) {
            let e = by_name.entry(&span.name).or_default();
            e.0 += 1;
            e.1 += span.end_ns - span.start_ns;
            e.2 += own;
            list.push(Json::Obj(vec![
                ("name".into(), Json::Str(span.name.clone())),
                ("start_ns".into(), Json::U64(span.start_ns)),
                ("end_ns".into(), Json::U64(span.end_ns)),
                (
                    "parent".into(),
                    span.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("iteration".into(), Json::U64(u64::from(span.iteration))),
                ("self_ns".into(), Json::U64(own)),
            ]));
        }
        let summary = by_name
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::U64(count)),
                        ("total_ns".into(), Json::U64(total)),
                        ("self_ns".into(), Json::U64(own)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("by_name".into(), Json::Obj(summary)),
            ("spans".into(), Json::Arr(list)),
        ])
    }
}

/// Where a workload's layer calls report their spans: tracing on (a
/// tracer and the iteration id) or off.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    iteration: u32,
}

impl<'a> Scope<'a> {
    pub fn off() -> Self {
        Self {
            tracer: None,
            iteration: 0,
        }
    }

    pub fn on(tracer: &'a Tracer, iteration: u32) -> Self {
        Self {
            tracer: Some(tracer),
            iteration,
        }
    }

    pub fn is_on(&self) -> bool {
        self.tracer.is_some()
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id to
    /// parent the spans it opens (`None` with tracing off).
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        let Some(tracer) = self.tracer else {
            return f(None);
        };
        let id = tracer.open(name, parent, self.iteration);
        let out = f(Some(id));
        tracer.close(id);
        out
    }

    fn query(&self, name: &str) -> Vec<(u64, u64)> {
        self.tracer
            .map_or_else(Vec::new, |t| t.query(self.iteration, name))
    }

    /// Durations in seconds of this iteration's spans called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.query(name)
            .iter()
            .map(|&(d, _)| d as f64 * 1e-9)
            .collect()
    }

    /// Durations in milliseconds of this iteration's spans called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.query(name)
            .iter()
            .map(|&(d, _)| d as f64 * 1e-6)
            .collect()
    }

    /// Self times in seconds of this iteration's spans called `name`.
    pub fn self_s(&self, name: &str) -> Vec<f64> {
        self.query(name)
            .iter()
            .map(|&(_, s)| s as f64 * 1e-9)
            .collect()
    }
}

/// Each span's duration minus the part of it that its children cover.
/// Children may overlap (shards on parallel threads), so the covered
/// part is the length of the union of their intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)), // overlaps the first child by 10
            span(80, 90, Some(0)),
            span(35, 38, Some(2)), // grandchild: counts against its parent only
        ];
        assert_eq!(self_times(&spans), [100 - 60, 30, 27, 10, 3]);
    }

    #[test]
    fn spans_record_nesting_and_iterations_when_on() {
        let tracer = Tracer::new();
        let off = Scope::off();
        assert_eq!(off.span("x", None, |id| id), None);
        let on = Scope::on(&tracer, 3);
        on.span("outer", None, |outer| {
            on.span("inner", outer, |_| ());
            on.span("inner", outer, |_| ());
        });
        let outer = on.durations_s("outer");
        let inner = on.durations_s("inner");
        assert_eq!((outer.len(), inner.len()), (1, 2));
        assert!(outer[0] >= inner.iter().sum::<f64>());
        let own = on.self_s("outer")[0];
        assert!((own - (outer[0] - inner.iter().sum::<f64>())).abs() < 1e-12);
        assert!(Scope::on(&tracer, 4).durations_s("outer").is_empty());
        assert!(off.durations_s("outer").is_empty());
    }
}
