//! In-memory span recording for the traced run.
//!
//! Every span has a name, a start, an end and the span that caused it
//! (its parent). Spans are kept in memory while the benchmark runs and are
//! written out once it ends. A span's name starts with the layer it times
//! (`sim.slice`, `core.tick`, ...); a layer's self time is the time its
//! spans cover minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval, in seconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`, e.g. `core.tick`.
    pub name: &'static str,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// End, seconds since the recorder's origin.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer the span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when on; every call is a no-op when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; recorded spans stay.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Records a finished span and returns its index (`None` when off).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.push(name, now, now, parent)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed().as_secs_f64();
        }
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Sums the self time of every span below (and including) `root`, by
/// layer, ordered by layer name.
pub fn layer_self_times(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if descends_from(spans, i, root) {
            *out.entry(s.layer()).or_insert(0.0) += own[i];
        }
    }
    out
}

/// Whether span `i` is `root` or lies below it.
pub fn descends_from(spans: &[Span], mut i: usize, root: usize) -> bool {
    loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

/// The spans as CSV: `id,parent,name,start_s,end_s,self_s`.
pub fn to_csv(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::from("id,parent,name,start_s,end_s,self_s\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(String::new, |p| p.to_string());
        let _ = writeln!(
            out,
            "{i},{parent},{},{:.9},{:.9},{:.9}",
            s.name, s.start, s.end, own[i]
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_times_partition_the_root() {
        let spans = vec![
            span("bench.pass", 0.0, 10.0, None),
            span("sim.slice", 0.0, 4.0, Some(0)),
            span("core.tick", 4.0, 9.0, Some(0)),
            span("sim.slice", 9.0, 9.5, Some(0)),
            span("other.root", 20.0, 21.0, None),
        ];
        let layers = layer_self_times(&spans, 0);
        assert_eq!(layers["sim"], 4.5);
        assert_eq!(layers["core"], 5.0);
        assert_eq!(layers["bench"], 0.5);
        assert!(!layers.contains_key("other"));
        let total: f64 = layers.values().sum();
        assert_eq!(total, spans[0].secs());
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("sim.slice", None);
        t.close(id);
        assert!(id.is_none());
        assert!(t.spans().is_empty());
    }
}
