//! The benchmark's own span recorder: an in-memory vector of
//! (name, start, end, parent, pass) written out when the run ends. It is
//! deliberately not `crates/trace` — that crate is one of the layers
//! being measured, and a change to it must not move the instrument.
//!
//! A span name is `layer/call` (`netsim/fanout`); the layer is the part
//! before the slash. A layer's self time is its spans' durations minus
//! the part their child spans cover. The root span of a pass is `pass`,
//! whose self time is the harness's own glue (input clones, digests).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub const ROOT: &str = "pass";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub pass: u32,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Switch recording on or off between passes; `pass` tags the spans
    /// recorded from here on.
    pub fn set(&mut self, on: bool, pass: u32) {
        debug_assert!(self.open.is_empty(), "switched inside a span");
        self.on = on;
        self.pass = pass;
    }

    /// Room for `n` more spans, so a traced pass does not reallocate.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Run `f` inside a span called `name`. Costs one branch when off.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            pass: self.pass,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        r
    }

    /// Self time in seconds of each span name in each traced pass:
    /// `name → one value per pass`, passes in recording order. A name a
    /// pass never entered contributes 0 for that pass.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i128)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p as usize] -= (s.end_ns - s.start_ns) as i128;
            }
        }
        let mut passes: Vec<u32> = self.spans.iter().map(|s| s.pass).collect();
        passes.dedup();
        let index: BTreeMap<u32, usize> = passes.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            out.entry(s.name).or_insert_with(|| vec![0.0; passes.len()])[index[&s.pass]] +=
                ns as f64 / 1e9;
        }
        out
    }

    /// Chrome `trace_event` JSON (complete events), loadable in Perfetto;
    /// `args` carries the parent span and the pass id.
    pub fn chrome_json(&self, meta: &str) -> String {
        let mut s = String::with_capacity(128 * self.spans.len() + meta.len() + 64);
        let _ = write!(s, "{{\"meta\": {meta},\n\"traceEvents\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}, \"pass\": {}}}}}",
                sp.name,
                layer_of(sp.name),
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.pass
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// `netsim/fanout` → `netsim`; a name without a slash is its own layer.
pub fn layer_of(name: &str) -> &str {
    name.split('/').next().unwrap_or(name)
}
