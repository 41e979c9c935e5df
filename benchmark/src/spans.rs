//! In-memory spans recorded by the benchmark around its calls into the
//! program's public functions. Nothing inside the program is instrumented.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval. `units` is the work the span covered (nodes,
/// bytes, queries — whatever the layer counts), 0 when it has no count.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub lap: u32,
    pub query: Option<u32>,
    /// The site whose work this stands for, when the program would have run
    /// it site-side (sites work in parallel; the benchmark re-enacts them
    /// one after another).
    pub site: Option<u32>,
    pub units: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    pub lap: u32,
    pub query: Option<u32>,
    pub site: Option<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            lap: 0,
            query: None,
            site: None,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `body` inside a span named `name`, child of the innermost open
    /// span, tagged with the current `lap`, `query` and `site`.
    pub fn span<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            lap: self.lap,
            query: self.query,
            site: self.site,
            units: 0,
        });
        self.open.push(id);
        let result = body(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Record how much work the innermost open span covers.
    pub fn units(&mut self, units: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].units = units;
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::ns).sum()
    }

    pub fn total_units(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.units).sum()
    }

    /// Durations of every span with this name, in milliseconds.
    pub fn millis(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// Mean nanoseconds per unit of work over every span with this name.
    pub fn ns_per_unit(&self, name: &str) -> f64 {
        self.total_ns(name) as f64 / self.total_units(name) as f64
    }

    /// Units per second, in millions (MB/s when the unit is a byte).
    pub fn mega_units_per_s(&self, name: &str) -> f64 {
        self.total_units(name) as f64 / 1e6 / (self.total_ns(name) as f64 / 1e9)
    }

    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.into())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("parent", opt(s.parent.map(|p| p as f64))),
                        ("lap", Json::Num(s.lap as f64)),
                        ("query", opt(s.query.map(f64::from))),
                        ("site", opt(s.site.map(f64::from))),
                        ("units", Json::Num(s.units as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_their_units() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            t.span("inner", |t| {
                t.units(3);
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", |t| t.units(4));
        });
        assert_eq!(t.count("inner"), 2);
        assert_eq!(t.total_units("inner"), 7);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].ns() >= t.total_ns("inner") && t.total_ns("inner") >= 2_000_000);
    }
}
