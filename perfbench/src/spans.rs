//! Benchmark-side tracing for the traced run: spans around every call the
//! benchmark makes into a layer, plus per-thread op latency histograms.
//!
//! Nothing here is compiled into the bare run's hot loop: workers are
//! generic over [`Probe`], and the bare run instantiates them with `()`.

use crate::metrics::Hist;
use crate::reclaimer::Reclaim;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent` is 0 for a root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span store of one process: phase spans are kept in full, op spans are
/// handed in by the workers' bounded samples at the end of the run.
pub struct Spans {
    epoch: Instant,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can parent its own children.
    pub fn scope<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.new_id();
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name,
            thread: 0,
            start_ns,
            end_ns,
        });
        out
    }

    pub fn push(&self, s: Span) {
        self.done.lock().expect("span store poisoned").push(s);
    }

    pub fn extend(&self, v: &[Span]) {
        self.done
            .lock()
            .expect("span store poisoned")
            .extend_from_slice(v);
    }

    pub fn len(&self) -> usize {
        self.done.lock().expect("span store poisoned").len()
    }

    /// Writes every span as one JSON object per line, sorted by start.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut v = self.done.lock().expect("span store poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &v {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` in a span when tracing, or plainly when not.
pub fn scope<T>(
    spans: Option<&Spans>,
    name: &'static str,
    parent: u64,
    f: impl FnOnce(u64) -> T,
) -> T {
    match spans {
        Some(s) => s.scope(name, parent, f),
        None => f(0),
    }
}

/// The public structure calls the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Enqueue,
    Dequeue,
    Add,
    Remove,
    Contains,
}

impl Op {
    pub const ALL: [Op; 5] = [Op::Enqueue, Op::Dequeue, Op::Add, Op::Remove, Op::Contains];

    pub fn name(self) -> &'static str {
        match self {
            Op::Enqueue => "enqueue",
            Op::Dequeue => "dequeue",
            Op::Add => "add",
            Op::Remove => "remove",
            Op::Contains => "contains",
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Op::Enqueue => "structures.enqueue",
            Op::Dequeue => "structures.dequeue",
            Op::Add => "structures.add",
            Op::Remove => "structures.remove",
            Op::Contains => "structures.contains",
        }
    }
}

/// What a worker does around each op. `()` does nothing.
pub trait Probe {
    fn op<T>(&mut self, op: Op, f: impl FnOnce() -> T) -> T;
    /// Called once per op; samples the reclamation gauge now and then.
    fn tick(&mut self, rec: &impl Reclaim);
    /// A worker's call into a layer outside the op loop.
    fn call<T>(&mut self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

impl Probe for () {
    #[inline(always)]
    fn op<T>(&mut self, _: Op, f: impl FnOnce() -> T) -> T {
        f()
    }

    #[inline(always)]
    fn tick(&mut self, _: &impl Reclaim) {}
}

/// Op spans kept per thread (the newest, of one in [`SAMPLE_EVERY`]).
const SAMPLE_CAP: usize = 4096;
const SAMPLE_EVERY: u64 = 64;
/// Ops between two reads of the unreclaimed gauge.
const GAUGE_EVERY: u64 = 128;

/// Per-thread traced probe: every op timed into a histogram, a bounded
/// ring of sampled op spans, and the peak of the sampled gauge.
pub struct OpLog<'a> {
    spans: &'a Spans,
    parent: u64,
    thread: u32,
    pub hists: [Hist; 5],
    pub sample: Vec<Span>,
    next: usize,
    seen: u64,
    pub peak_unreclaimed: u64,
}

impl<'a> OpLog<'a> {
    pub fn new(spans: &'a Spans, parent: u64, thread: u32) -> Self {
        Self {
            spans,
            parent,
            thread,
            hists: Default::default(),
            sample: Vec::with_capacity(SAMPLE_CAP),
            next: 0,
            seen: 0,
            peak_unreclaimed: 0,
        }
    }

    /// Hands the sampled spans to the process store.
    pub fn finish(&self) {
        self.spans.extend(&self.sample);
    }

    pub fn sample_gauge(&mut self, rec: &impl Reclaim) {
        self.peak_unreclaimed = self.peak_unreclaimed.max(rec.unreclaimed());
    }
}

impl Probe for OpLog<'_> {
    #[inline]
    fn op<T>(&mut self, op: Op, f: impl FnOnce() -> T) -> T {
        let start_ns = self.spans.now_ns();
        let out = f();
        let end_ns = self.spans.now_ns();
        self.hists[op as usize].record(end_ns - start_ns);
        self.seen += 1;
        if self.seen.is_multiple_of(SAMPLE_EVERY) {
            let s = Span {
                id: self.spans.new_id(),
                parent: self.parent,
                name: op.span_name(),
                thread: self.thread,
                start_ns,
                end_ns,
            };
            if self.sample.len() < SAMPLE_CAP {
                self.sample.push(s);
            } else {
                self.sample[self.next] = s;
                self.next = (self.next + 1) % SAMPLE_CAP;
            }
        }
        out
    }

    #[inline]
    fn tick(&mut self, rec: &impl Reclaim) {
        if self.seen.is_multiple_of(GAUGE_EVERY) {
            self.sample_gauge(rec);
        }
    }

    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.spans.new_id();
        let start_ns = self.spans.now_ns();
        let out = f();
        self.spans.push(Span {
            id,
            parent: self.parent,
            name,
            thread: self.thread,
            start_ns,
            end_ns: self.spans.now_ns(),
        });
        out
    }
}
