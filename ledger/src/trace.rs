//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into one layer, kept in
//! memory, and written to `trace.jsonl` when the run ends. Two kinds:
//!
//! * **interval spans** (`span`) — one record per call, for
//!   coarse boundaries (a dynamics run, a batched BFS, a probe);
//! * **aggregate spans** (`call`) — hot per-player calls (a best
//!   response, a view build) fold into one record per `(parent, name)`:
//!   `start_ns`/`end_ns` bracket the first and last call, `busy_ns` sums
//!   their durations and `calls` counts them.
//!
//! A span's self time is its `busy_ns` minus its children's `busy_ns`;
//! for an interval span `busy_ns = end_ns − start_ns`. Each worker
//! thread owns a `Tracer`; [`Tracer::absorb`] merges them in a fixed
//! order, so span ids and counters are deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ncg_core::equilibrium::{BestResponder, Deviation};
use ncg_core::{GameSpec, PlayerView};
use ncg_solver::Responder;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub cell: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    /// Aggregate span of `(open parent, name)`, so repeated calls find it.
    aggregates: BTreeMap<(Option<usize>, &'static str), usize>,
    /// Summed counters.
    pub counters: BTreeMap<&'static str, f64>,
    /// Running maxima.
    pub maxima: BTreeMap<&'static str, f64>,
    /// Cell stamped on spans opened from now on.
    pub cell: Option<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (shared by every
    /// worker's tracer so merged spans sit on one time base).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            aggregates: BTreeMap::new(),
            counters: BTreeMap::new(),
            maxima: BTreeMap::new(),
            cell: None,
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let start = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name,
            cell: self.cell,
            start_ns: start,
            end_ns: start,
            busy_ns: 0,
            calls: 1,
        });
        self.stack.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans must close innermost first");
        let end = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.busy_ns = end - span.start_ns;
    }

    /// Runs `f` inside an interval span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Times one hot call into the aggregate span `name` under the
    /// innermost open span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.record_call(name, start, took);
        out
    }

    fn record_call(&mut self, name: &'static str, start: Instant, took: Duration) {
        let (s, e) = (self.ns(start), self.ns(start + took));
        let parent = self.stack.last().copied();
        let id = *self.aggregates.entry((parent, name)).or_insert_with(|| {
            self.spans.push(Span {
                parent,
                name,
                cell: self.cell,
                start_ns: s,
                end_ns: e,
                busy_ns: 0,
                calls: 0,
            });
            self.spans.len() - 1
        });
        let span = &mut self.spans[id];
        span.end_ns = span.end_ns.max(e);
        span.busy_ns += e - s;
        span.calls += 1;
    }

    pub fn add(&mut self, counter: &'static str, value: f64) {
        *self.counters.entry(counter).or_default() += value;
    }

    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.maxima.entry(name).or_default();
        *slot = slot.max(value);
    }

    /// Appends a finished worker tracer's spans and counters.
    /// Its root spans stay roots: workers run in parallel, so their busy
    /// time may exceed any enclosing interval.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbed tracer still has open spans");
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, v) in other.counters {
            self.add(name, v);
        }
        for (name, v) in other.maxima {
            self.max(name, v);
        }
    }

    /// Self time per span: `busy_ns` minus the children's `busy_ns`.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.busy_ns as i64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.busy_ns as i64;
            }
        }
        own
    }

    /// Self seconds summed over the spans whose name `keep` accepts.
    pub fn self_s(&self, keep: impl Fn(&str) -> bool) -> f64 {
        let own = self.self_ns();
        let total: i64 =
            self.spans.iter().zip(&own).filter(|(s, _)| keep(s.name)).map(|(_, &n)| n).sum();
        total as f64 / 1e9
    }

    /// The spans as JSON lines: `id, parent, name, cell, start_ns,
    /// end_ns, busy_ns, calls`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"cell\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"busy_ns\":{},\"calls\":{}}}",
                opt(s.parent),
                s.name,
                opt(s.cell),
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// The exact responder with every call timed into the `solver.call`
/// aggregate span. `current_total` is computed outside the timed call,
/// so the span holds the engine's work only.
pub struct Timed<'a> {
    pub inner: &'a mut Responder,
    pub tracer: &'a mut Tracer,
    /// Players in the game, the base of `core.view_share`.
    pub n: usize,
}

impl Timed<'_> {
    /// One timed best response, and whether it strictly improves on the
    /// player's current strategy.
    pub fn respond(&mut self, spec: &GameSpec, view: &PlayerView) -> (Deviation, bool) {
        let current = ncg_core::deviation::current_total(spec, view);
        let inner = &mut *self.inner;
        let best = self.tracer.call("solver.call", || inner.best_response(spec, view));
        let improving = GameSpec::strictly_better(best.total_cost, current);
        let t = &mut *self.tracer;
        t.add("solver.calls", 1.0);
        t.add("solver.improving", f64::from(u8::from(improving)));
        t.add("core.view_nodes_total", view.len() as f64);
        t.add("core.view_share_total", view.len() as f64 / self.n as f64);
        t.max("core.view_nodes_max", view.len() as f64);
        (best, improving)
    }
}

impl BestResponder for Timed<'_> {
    fn best_response(&mut self, spec: &GameSpec, view: &PlayerView) -> Deviation {
        self.respond(spec, view).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_nest_and_self_time_is_never_negative() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        t.span("dynamics.run", |t| {
            for _ in 0..3 {
                t.call("solver.call", || std::thread::sleep(Duration::from_millis(1)));
            }
        });
        let mut worker = Tracer::new(origin);
        worker.span("graph.batch_bfs", |t| t.call("graph.lane_ball", || ()));
        t.absorb(worker);
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].calls, 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, None, "worker roots stay roots");
        assert_eq!(t.spans[3].parent, Some(2), "worker parents are re-based");
        assert!(t.self_ns().iter().all(|&n| n >= 0));
        assert!(t.self_s(|n| n == "solver.call") >= 0.003);
    }
}
