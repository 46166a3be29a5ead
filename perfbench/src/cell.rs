//! One (workload, scheme) cell, run in its own process: set-up repeated
//! `reps` times, one timed phase, then teardown with every validator.

use crate::check::{encode, mix, verify_reclaimed, QueueCheck, Rng, SetTally};
use crate::metrics::{median, Hist};
use crate::reclaimer::{drain, Manual, Orc, Reclaim};
use crate::spans::{scope, Op, OpLog, Probe, Span, Spans};
use crate::{Scheme, Workload};
use reclaim::stall::{self, Gate, StallPoint};
use reclaim::{Ebr, HazardPointers, PassThePointer, Smr, StatsSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use structures::list::{MichaelList, MichaelListOrc};
use structures::queue::{MsQueue, MsQueueOrc};
use structures::tree::{NmTree, NmTreeOrc};
use structures::{ConcurrentQueue, ConcurrentSet};

/// Worker threads of `queue-churn` and `tree-read`.
const THREADS: usize = 2;
/// `tree-read` key range (the paper's Fig. 7-8 range), half prefilled.
const TREE_KEYS: u64 = 1_000_000;
/// `list-stall` key range, half prefilled.
const LIST_KEYS: u64 = 1_000;
/// `list-stall` writer ops per stalled round.
const STALL_BUDGET: u64 = 100_000;
/// `tree-read` mix in percent: inserts, removes; the rest are lookups.
const TREE_INSERT_PCT: u64 = 5;
const TREE_REMOVE_PCT: u64 = 5;
/// Gauge flush attempts before leftover garbage counts as a failure.
const DRAIN_ATTEMPTS: usize = 2_000;
/// Throughput window of `queue-churn` and `tree-read`: the cell reports
/// the median window, which a short disturbance cannot move.
const WINDOW: Duration = Duration::from_millis(100);
/// Ops between two progress reports of a worker.
const PUBLISH_EVERY: u64 = 16;

pub struct CellCfg {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// How many times set-up runs; only the last build is timed.
    pub reps: usize,
    /// Smoke-test sizes.
    pub tiny: bool,
}

impl CellCfg {
    fn tree_keys(&self) -> u64 {
        if self.tiny {
            1 << 12
        } else {
            TREE_KEYS
        }
    }

    fn stall_budget(&self) -> u64 {
        if self.tiny {
            2_000
        } else {
            STALL_BUDGET
        }
    }
}

/// What a cell measured.
#[derive(Default)]
pub struct CellOut {
    /// Median throughput over the timed phase's windows (`list-stall`:
    /// over its stalled rounds), in Mops/s.
    pub mops: f64,
    pub ops: u64,
    pub failed: u64,
    pub setup_s: Vec<f64>,
    pub empty_dequeues: u64,
    /// Traced run only: per-op latencies, the counter deltas of the timed
    /// phase and the peak of the sampled unreclaimed gauge.
    pub hists: [Hist; 5],
    pub stats: StatsSnapshot,
    pub peak_unreclaimed: u64,
}

/// Runs one cell; `spans` is `Some` for the traced run.
pub fn run(w: Workload, s: Scheme, cfg: &CellCfg, spans: Option<Arc<Spans>>) -> CellOut {
    let stall_point = match s {
        Scheme::Ebr => StallPoint::BeginOp,
        _ => StallPoint::Protect,
    };
    match (w, s) {
        (Workload::QueueChurn, Scheme::Hp) => {
            queue_churn(cfg, spans, manual::<HazardPointers, _>(MsQueue::new))
        }
        (Workload::QueueChurn, Scheme::Ptp) => {
            queue_churn(cfg, spans, manual::<PassThePointer, _>(MsQueue::new))
        }
        (Workload::QueueChurn, Scheme::Ebr) => {
            queue_churn(cfg, spans, manual::<Ebr, _>(MsQueue::new))
        }
        (Workload::QueueChurn, Scheme::Orcgc) => queue_churn(cfg, spans, orc::<MsQueueOrc<u64>>),
        (Workload::TreeRead, Scheme::Hp) => {
            tree_read(cfg, spans, manual::<HazardPointers, _>(NmTree::new))
        }
        (Workload::TreeRead, Scheme::Ptp) => {
            tree_read(cfg, spans, manual::<PassThePointer, _>(NmTree::new))
        }
        (Workload::TreeRead, Scheme::Ebr) => tree_read(cfg, spans, manual::<Ebr, _>(NmTree::new)),
        (Workload::TreeRead, Scheme::Orcgc) => tree_read(cfg, spans, orc::<NmTreeOrc<u64>>),
        (Workload::ListStall, Scheme::Hp) => list_stall(
            cfg,
            spans,
            stall_point,
            manual::<HazardPointers, _>(MichaelList::new),
        ),
        (Workload::ListStall, Scheme::Ptp) => list_stall(
            cfg,
            spans,
            stall_point,
            manual::<PassThePointer, _>(MichaelList::new),
        ),
        (Workload::ListStall, Scheme::Ebr) => {
            list_stall(cfg, spans, stall_point, manual::<Ebr, _>(MichaelList::new))
        }
        (Workload::ListStall, Scheme::Orcgc) => {
            list_stall(cfg, spans, stall_point, orc::<MichaelListOrc<u64>>)
        }
    }
}

/// Constructor of a structure over a fresh manual scheme instance.
fn manual<S: Smr + Clone + Default, T>(ctor: fn(S) -> T) -> impl Fn() -> (T, Manual<S>) {
    move || {
        let smr = S::default();
        (ctor(smr.clone()), Manual(smr))
    }
}

/// Constructor of an OrcGC structure (its domain is process-wide).
fn orc<T: Default>() -> (T, Orc) {
    (T::default(), Orc)
}

// ---------------------------------------------------------------------
// Start line shared by a cell's worker threads.
// ---------------------------------------------------------------------

const WAIT: u8 = 0;
const GO: u8 = 1;
const ABORT: u8 = 2;

struct Start {
    ready: Barrier,
    go: AtomicU8,
    stop: AtomicBool,
    progress: Vec<Progress>,
}

/// A worker's op count, on its own cache line.
#[repr(align(128))]
#[derive(Default)]
struct Progress(AtomicU64);

impl Start {
    fn new(workers: usize) -> Arc<Self> {
        Arc::new(Self {
            ready: Barrier::new(workers + 1),
            go: AtomicU8::new(WAIT),
            stop: AtomicBool::new(false),
            progress: (0..workers).map(|_| Progress::default()).collect(),
        })
    }

    /// Worker side: reports `ops` done so far every [`PUBLISH_EVERY`].
    #[inline]
    fn publish(&self, me: usize, ops: u64) {
        if ops.is_multiple_of(PUBLISH_EVERY) {
            self.progress[me].0.store(ops, Ordering::Relaxed);
        }
    }

    /// Main side: throughput of each [`WINDOW`] until `seconds` pass (one
    /// shorter window when `seconds` is below half a window).
    fn windows(&self, seconds: f64) -> Vec<f64> {
        let total = || -> u64 {
            self.progress
                .iter()
                .map(|p| p.0.load(Ordering::Relaxed))
                .sum()
        };
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut last = (Instant::now(), total());
        let mut rates = Vec::new();
        loop {
            let now = Instant::now();
            if now >= deadline {
                return rates;
            }
            std::thread::sleep(WINDOW.min(deadline - now));
            let now = (Instant::now(), total());
            let dt = (now.0 - last.0).as_secs_f64();
            if dt >= WINDOW.as_secs_f64() / 2.0 || rates.is_empty() && now.0 >= deadline {
                rates.push((now.1 - last.1) as f64 / dt / 1e6);
            }
            last = now;
        }
    }

    /// Worker side: reports ready, then waits for the start signal.
    /// Returns false when the build is thrown away instead.
    fn ready_then_go(&self) -> bool {
        self.ready.wait();
        loop {
            match self.go.load(Ordering::Acquire) {
                WAIT => std::thread::yield_now(),
                GO => return true,
                _ => return false,
            }
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Latency histograms and sampled gauge peak of one traced worker.
type Traced = ([Hist; 5], u64);
/// A worker's result, with its trace when traced.
type Done<W> = (W, Option<Traced>);
/// A worker thread; `None` when its build was thrown away.
type Worker<W> = JoinHandle<Option<Done<W>>>;

/// A built cell: structure, reclaimer, and workers parked at the start.
struct Built<T, R, W> {
    obj: Arc<T>,
    rec: Arc<R>,
    start: Arc<Start>,
    crew: Vec<Worker<W>>,
}

impl<T, R, W> Built<T, R, W> {
    fn abort(self) {
        self.start.go.store(ABORT, Ordering::Release);
        for h in self.crew {
            h.join().expect("worker panicked");
        }
    }

    fn join(&mut self) -> Vec<Done<W>> {
        self.crew
            .drain(..)
            .map(|h| h.join().expect("worker panicked").expect("worker started"))
            .collect()
    }
}

/// Runs `body` with a traced probe when `spans` is set, else with `()`.
macro_rules! probed {
    ($spans:expr, $parent:expr, $thread:expr, |$p:ident| $body:expr) => {
        match $spans {
            Some(sp) => {
                let mut log = OpLog::new(sp, $parent, $thread);
                let out = {
                    let $p = &mut log;
                    $body
                };
                log.finish();
                (out, Some((log.hists.clone(), log.peak_unreclaimed)))
            }
            None => {
                let $p = &mut ();
                ($body, None)
            }
        }
    };
}

/// Builds the cell `reps` times, timing each build, and keeps the last.
fn setup<T, R, W>(
    reps: usize,
    spans: Option<&Spans>,
    root: u64,
    mut build: impl FnMut(u64) -> Built<T, R, W>,
) -> (Built<T, R, W>, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for rep in 0..reps.max(1) {
        let t0 = Instant::now();
        let b = scope(spans, "setup", root, &mut build);
        times.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps {
            scope(spans, "setup.discard", root, |_| b.abort());
        } else {
            kept = Some(b);
        }
    }
    (kept.expect("at least one build"), times)
}

/// Runs `f`, then flushes the calling thread's reclamation state, so the
/// thread exits holding no protection and no parked handover.
fn flushed<T>(rec: &impl Reclaim, f: impl FnOnce() -> T) -> T {
    let out = f();
    rec.flush();
    out
}

/// Spawns `n` workers that wait at the start line, then run `body(i)`.
fn spawn_crew<W: Send + 'static, R: Reclaim>(
    spans: Option<&Spans>,
    parent: u64,
    start: &Arc<Start>,
    rec: &Arc<R>,
    n: usize,
    mut body: impl FnMut(usize) -> Box<dyn FnOnce() -> Done<W> + Send>,
) -> Vec<Worker<W>> {
    scope(spans, "spawn", parent, |_| {
        let crew = (0..n)
            .map(|i| {
                let (start, rec) = (Arc::clone(start), Arc::clone(rec));
                let work = body(i);
                std::thread::spawn(move || {
                    crate::affinity::pin(i);
                    start.ready_then_go().then(|| flushed(&*rec, work))
                })
            })
            .collect();
        start.ready.wait();
        crew
    })
}

/// What the timed phase returns.
struct Timed<W> {
    outs: Vec<Done<W>>,
    /// Throughput of each window `wait` measured, Mops/s.
    windows: Vec<f64>,
    /// Counter movement over the phase.
    stats: StatsSnapshot,
}

/// The timed phase: counter snapshot, start, `wait`, stop, join, snapshot.
fn timed<T, R: Reclaim, W>(
    b: &mut Built<T, R, W>,
    spans: Option<&Spans>,
    root: u64,
    timed_id: u64,
    wait: impl FnOnce(&Start) -> Vec<f64>,
) -> Timed<W> {
    let base = scope(spans, R::STATS, root, |_| b.rec.stats());
    let start_ns = spans.map_or(0, Spans::now_ns);
    b.start.go.store(GO, Ordering::Release);
    let windows = wait(&b.start);
    b.start.stop.store(true, Ordering::Relaxed);
    let outs = b.join();
    if let Some(sp) = spans {
        sp.push(Span {
            id: timed_id,
            parent: root,
            name: "timed",
            thread: 0,
            start_ns,
            end_ns: sp.now_ns(),
        });
    }
    let end = scope(spans, R::STATS, root, |_| b.rec.stats());
    Timed {
        outs,
        windows,
        stats: end.since(&base),
    }
}

/// Drops the structure, then flushes until nothing is unreclaimed.
/// Returns the failures (one if garbage is left).
fn teardown_memory<T, R: Reclaim>(obj: Arc<T>, rec: &R, spans: Option<&Spans>, parent: u64) -> u64 {
    scope(spans, "drop", parent, |_| {
        drop(Arc::into_inner(obj).expect("workers joined"))
    });
    let left = scope(spans, R::FLUSH, parent, |_| drain(rec, DRAIN_ATTEMPTS));
    scope(spans, R::GAUGE, parent, |_| rec.unreclaimed());
    verify_reclaimed(left)
}

fn merge_traced(out: &mut CellOut, traced: impl IntoIterator<Item = Option<Traced>>) {
    for (hists, peak) in traced.into_iter().flatten() {
        for (a, b) in out.hists.iter_mut().zip(&hists) {
            a.merge(b);
        }
        out.peak_unreclaimed = out.peak_unreclaimed.max(peak);
    }
}

// ---------------------------------------------------------------------
// queue-churn: enqueue→dequeue pairs on an MS queue.
// ---------------------------------------------------------------------

struct ChurnOut {
    produced: u64,
    ops: u64,
    empty: u64,
    check: QueueCheck,
}

fn churn<Q: ConcurrentQueue<u64>, R: Reclaim>(
    p: &mut impl Probe,
    q: &Q,
    rec: &R,
    start: &Start,
    me: usize,
    salt: u64,
) -> ChurnOut {
    let mut check = QueueCheck::new(THREADS, salt);
    let (mut seq, mut empty) = (0, 0);
    while !start.stopped() {
        p.op(Op::Enqueue, || q.enqueue(encode(me, seq)));
        seq += 1;
        match p.op(Op::Dequeue, || q.dequeue()) {
            Some(v) => check.see(v),
            None => empty += 1,
        }
        p.tick(rec);
        start.publish(me, 2 * seq);
    }
    ChurnOut {
        produced: seq,
        ops: 2 * seq,
        empty,
        check,
    }
}

fn queue_churn<Q, R>(cfg: &CellCfg, spans: Option<Arc<Spans>>, make: impl Fn() -> (Q, R)) -> CellOut
where
    Q: ConcurrentQueue<u64> + 'static,
    R: Reclaim,
{
    let sp = spans.as_deref();
    let salt = mix(cfg.seed);
    scope(sp, "cell", 0, |root| {
        let timed_id = sp.map_or(0, Spans::new_id);
        let (mut b, setup_s) = setup(cfg.reps, sp, root, |parent| {
            let (q, rec) = scope(sp, "construct", parent, |_| make());
            let (obj, rec, start) = (Arc::new(q), Arc::new(rec), Start::new(THREADS));
            let crew = spawn_crew(sp, parent, &start, &rec, THREADS, |me| {
                let (q, rec, start, spans) = (
                    Arc::clone(&obj),
                    Arc::clone(&rec),
                    Arc::clone(&start),
                    spans.clone(),
                );
                Box::new(move || {
                    probed!(spans.as_deref(), timed_id, me as u32 + 1, |p| {
                        churn(p, &*q, &*rec, &start, me, salt)
                    })
                })
            });
            Built {
                obj,
                rec,
                start,
                crew,
            }
        });
        let t = timed(&mut b, sp, root, timed_id, |s| s.windows(cfg.seconds));
        let mut out = CellOut {
            mops: median(&t.windows),
            setup_s,
            stats: t.stats,
            ..CellOut::default()
        };
        let mut checks = Vec::new();
        let mut produced = Vec::new();
        let mut traced = Vec::new();
        for (w, t) in t.outs {
            out.ops += w.ops;
            out.empty_dequeues += w.empty;
            produced.push(w.produced);
            checks.push(w.check);
            traced.push(t);
        }
        merge_traced(&mut out, traced);
        out.failed = scope(sp, "teardown", root, |parent| {
            let mut tail = QueueCheck::new(THREADS, salt);
            scope(sp, "drain-queue", parent, |_| {
                while let Some(v) = b.obj.dequeue() {
                    tail.see(v);
                }
            });
            checks.push(tail);
            let bad = scope(sp, "validate", parent, |_| {
                QueueCheck::verify(&checks, &produced)
            });
            bad + teardown_memory(b.obj, &*b.rec, sp, parent)
        });
        out
    })
}

// ---------------------------------------------------------------------
// Sets: prefill and content validation shared by tree-read and list-stall.
// ---------------------------------------------------------------------

/// Half of `0..range` in a seed-determined order.
fn prefill_keys(seed: u64, range: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..range).collect();
    let mut rng = Rng::new(seed, u64::MAX);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    keys.truncate(keys.len() / 2);
    keys
}

/// Inserts `keys` from `THREADS` threads; returns their tally and the
/// number of refused inserts (all keys are distinct, so each refusal is a
/// failure).
fn prefill<T: ConcurrentSet<u64>>(set: &T, rec: &impl Reclaim, keys: &[u64]) -> (SetTally, u64) {
    std::thread::scope(|sc| {
        let parts: Vec<_> = (0..THREADS)
            .map(|i| {
                sc.spawn(move || {
                    flushed(rec, || {
                        let mut tally = SetTally::default();
                        let mut refused = 0;
                        for &k in keys.iter().skip(i).step_by(THREADS) {
                            if set.add(k) {
                                tally.added(k);
                            } else {
                                refused += 1;
                            }
                        }
                        (tally, refused)
                    })
                })
            })
            .collect();
        let mut out = (SetTally::default(), 0);
        for h in parts {
            let (t, r) = h.join().expect("prefill panicked");
            out.0.merge(&t);
            out.1 += r;
        }
        out
    })
}

/// Compares the set's contents with the expected tally, sweeping the key
/// range from `THREADS` threads.
fn validate_set<T: ConcurrentSet<u64>>(
    set: &T,
    rec: &impl Reclaim,
    range: u64,
    expected: &SetTally,
) -> u64 {
    let chunk = range.div_ceil(THREADS as u64);
    let actual = std::thread::scope(|sc| {
        let parts: Vec<_> = (0..THREADS as u64)
            .map(|i| {
                let keys = i * chunk..((i + 1) * chunk).min(range);
                sc.spawn(move || flushed(rec, || SetTally::of_set(keys, |k| set.contains(&k))))
            })
            .collect();
        let mut t = SetTally::default();
        for h in parts {
            t.merge(&h.join().expect("validator panicked"));
        }
        t
    });
    SetTally::verify(expected, &actual)
}

// ---------------------------------------------------------------------
// tree-read: 5i-5r-90l on a half-full NM-tree over 10^6 keys.
// ---------------------------------------------------------------------

struct MixOut {
    ops: u64,
    tally: SetTally,
}

#[allow(clippy::too_many_arguments)]
fn read_mix<T: ConcurrentSet<u64>, R: Reclaim>(
    p: &mut impl Probe,
    set: &T,
    rec: &R,
    start: &Start,
    me: usize,
    mut rng: Rng,
    range: u64,
) -> MixOut {
    let mut tally = SetTally::default();
    let mut ops = 0;
    while !start.stopped() {
        let k = rng.below(range);
        let r = rng.below(100);
        if r < TREE_INSERT_PCT {
            if p.op(Op::Add, || set.add(k)) {
                tally.added(k);
            }
        } else if r < TREE_INSERT_PCT + TREE_REMOVE_PCT {
            if p.op(Op::Remove, || set.remove(&k)) {
                tally.removed(k);
            }
        } else {
            std::hint::black_box(p.op(Op::Contains, || set.contains(&k)));
        }
        ops += 1;
        p.tick(rec);
        start.publish(me, ops);
    }
    MixOut { ops, tally }
}

fn tree_read<T, R>(cfg: &CellCfg, spans: Option<Arc<Spans>>, make: impl Fn() -> (T, R)) -> CellOut
where
    T: ConcurrentSet<u64> + 'static,
    R: Reclaim,
{
    let sp = spans.as_deref();
    let range = cfg.tree_keys();
    let keys = prefill_keys(cfg.seed, range);
    scope(sp, "cell", 0, |root| {
        let timed_id = sp.map_or(0, Spans::new_id);
        let (mut expected, mut refused) = (SetTally::default(), 0);
        let (mut b, setup_s) = setup(cfg.reps, sp, root, |parent| {
            let (set, rec) = scope(sp, "construct", parent, |_| make());
            let (tally, r) = scope(sp, "prefill", parent, |_| prefill(&set, &rec, &keys));
            (expected, refused) = (tally, refused + r);
            let (obj, rec, start) = (Arc::new(set), Arc::new(rec), Start::new(THREADS));
            let crew = spawn_crew(sp, parent, &start, &rec, THREADS, |me| {
                let (set, rec, start, spans) = (
                    Arc::clone(&obj),
                    Arc::clone(&rec),
                    Arc::clone(&start),
                    spans.clone(),
                );
                let rng = Rng::new(cfg.seed, me as u64);
                Box::new(move || {
                    probed!(spans.as_deref(), timed_id, me as u32 + 1, |p| {
                        read_mix(p, &*set, &*rec, &start, me, rng, range)
                    })
                })
            });
            Built {
                obj,
                rec,
                start,
                crew,
            }
        });
        let t = timed(&mut b, sp, root, timed_id, |s| s.windows(cfg.seconds));
        let mut out = CellOut {
            mops: median(&t.windows),
            setup_s,
            stats: t.stats,
            ..CellOut::default()
        };
        let mut traced = Vec::new();
        for (w, t) in t.outs {
            out.ops += w.ops;
            expected.merge(&w.tally);
            traced.push(t);
        }
        merge_traced(&mut out, traced);
        out.failed = refused
            + scope(sp, "teardown", root, |parent| {
                let bad = scope(sp, "validate", parent, |_| {
                    validate_set(&*b.obj, &*b.rec, range, &expected)
                });
                bad + teardown_memory(b.obj, &*b.rec, sp, parent)
            });
        out
    })
}

// ---------------------------------------------------------------------
// list-stall: a writer churns a Michael list while a reader is parked
// inside `contains`, one fixed op budget per stalled round.
// ---------------------------------------------------------------------

#[derive(Default)]
struct WriterOut {
    ops: u64,
    /// Throughput of each round, Mops/s.
    rounds: Vec<f64>,
    tally: SetTally,
}

/// Rounds until `seconds` have passed: park the reader, run `budget`
/// 50i-50r ops, release the reader, flush.
#[allow(clippy::too_many_arguments)]
fn stall_writer<T: ConcurrentSet<u64>, R: Reclaim>(
    p: &mut impl Probe,
    set: &T,
    rec: &R,
    mut rng: Rng,
    range: u64,
    budget: u64,
    seconds: f64,
    gates: Sender<Arc<Gate>>,
    acks: Receiver<()>,
) -> WriterOut {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = WriterOut::default();
    loop {
        let gate = Gate::new();
        gates.send(Arc::clone(&gate)).expect("reader alive");
        assert!(
            gate.wait_until_parked(Duration::from_secs(60)),
            "the reader never reached the stall point"
        );
        let t0 = Instant::now();
        for _ in 0..budget {
            let k = rng.below(range);
            if rng.below(2) == 0 {
                if p.op(Op::Add, || set.add(k)) {
                    out.tally.added(k);
                }
            } else if p.op(Op::Remove, || set.remove(&k)) {
                out.tally.removed(k);
            }
            p.tick(rec);
        }
        gate.release();
        acks.recv().expect("reader alive");
        p.call(R::FLUSH, || rec.flush());
        out.rounds
            .push(budget as f64 / t0.elapsed().as_secs_f64() / 1e6);
        out.ops += budget;
        if Instant::now() >= deadline {
            return out;
        }
    }
}

/// Parks inside `contains` once per gate it receives.
fn stall_reader<T: ConcurrentSet<u64>>(
    p: &mut impl Probe,
    set: &T,
    point: StallPoint,
    key: u64,
    gates: Receiver<Arc<Gate>>,
    acks: Sender<()>,
) {
    for gate in gates {
        stall::arm(point, gate);
        std::hint::black_box(p.call("structures.contains.stalled", || set.contains(&key)));
        acks.send(()).expect("writer alive");
    }
}

fn list_stall<T, R>(
    cfg: &CellCfg,
    spans: Option<Arc<Spans>>,
    point: StallPoint,
    make: impl Fn() -> (T, R),
) -> CellOut
where
    T: ConcurrentSet<u64> + 'static,
    R: Reclaim,
{
    let sp = spans.as_deref();
    let keys = prefill_keys(cfg.seed, LIST_KEYS);
    let budget = cfg.stall_budget();
    scope(sp, "cell", 0, |root| {
        let timed_id = sp.map_or(0, Spans::new_id);
        let (mut expected, mut refused) = (SetTally::default(), 0);
        let (mut b, setup_s) = setup(cfg.reps, sp, root, |parent| {
            let (set, rec) = scope(sp, "construct", parent, |_| make());
            let (tally, r) = scope(sp, "prefill", parent, |_| prefill(&set, &rec, &keys));
            (expected, refused) = (tally, refused + r);
            let (obj, rec, start) = (Arc::new(set), Arc::new(rec), Start::new(2));
            let (gate_tx, gate_rx) = channel();
            let (ack_tx, ack_rx) = channel();
            let mut writer_end = Some((gate_tx, ack_rx));
            let mut reader_end = Some((gate_rx, ack_tx));
            let crew = spawn_crew(sp, parent, &start, &rec, 2, |me| {
                let (set, rec, spans) = (Arc::clone(&obj), Arc::clone(&rec), spans.clone());
                if me == 0 {
                    let (gates, acks) = writer_end.take().expect("one writer");
                    let rng = Rng::new(cfg.seed, 0);
                    let seconds = cfg.seconds;
                    Box::new(move || {
                        probed!(spans.as_deref(), timed_id, 1, |p| {
                            stall_writer(
                                p, &*set, &*rec, rng, LIST_KEYS, budget, seconds, gates, acks,
                            )
                        })
                    })
                } else {
                    let (gates, acks) = reader_end.take().expect("one reader");
                    Box::new(move || {
                        let (_, traced) = probed!(spans.as_deref(), timed_id, 2, |p| {
                            stall_reader(p, &*set, point, LIST_KEYS / 2, gates, acks)
                        });
                        (WriterOut::default(), traced)
                    })
                }
            });
            Built {
                obj,
                rec,
                start,
                crew,
            }
        });
        let t = timed(&mut b, sp, root, timed_id, |_| Vec::new());
        let mut out = CellOut {
            setup_s,
            stats: t.stats,
            ..CellOut::default()
        };
        let mut traced = Vec::new();
        for (w, t) in t.outs {
            out.ops += w.ops;
            if !w.rounds.is_empty() {
                out.mops = median(&w.rounds);
            }
            expected.merge(&w.tally);
            traced.push(t);
        }
        merge_traced(&mut out, traced);
        out.failed = refused
            + scope(sp, "teardown", root, |parent| {
                let bad = scope(sp, "validate", parent, |_| {
                    validate_set(&*b.obj, &*b.rec, LIST_KEYS, &expected)
                });
                bad + teardown_memory(b.obj, &*b.rec, sp, parent)
            });
        out
    })
}

#[cfg(test)]
mod tests {
    //! Planted faults: each validator must count a failure when the
    //! structure or the reclaimer misbehaves.

    use super::*;

    fn tiny() -> CellCfg {
        CellCfg {
            seed: 3,
            seconds: 0.05,
            reps: 1,
            tiny: true,
        }
    }

    /// Drops every 100th enqueued value.
    struct LossyQueue(MsQueue<u64, HazardPointers>, AtomicU64);

    impl ConcurrentQueue<u64> for LossyQueue {
        fn enqueue(&self, v: u64) {
            if self.1.fetch_add(1, Ordering::Relaxed) % 100 != 99 {
                self.0.enqueue(v)
            }
        }
        fn dequeue(&self) -> Option<u64> {
            self.0.dequeue()
        }
        fn name(&self) -> &'static str {
            "lossy"
        }
    }

    /// Claims success for every 50th add without inserting.
    struct LyingSet<T>(T, AtomicU64);

    impl<T: ConcurrentSet<u64>> ConcurrentSet<u64> for LyingSet<T> {
        fn add(&self, k: u64) -> bool {
            self.1.fetch_add(1, Ordering::Relaxed) % 50 == 49 || self.0.add(k)
        }
        fn remove(&self, k: &u64) -> bool {
            self.0.remove(k)
        }
        fn contains(&self, k: &u64) -> bool {
            self.0.contains(k)
        }
        fn name(&self) -> &'static str {
            "lying"
        }
    }

    /// Reports one object that never gets reclaimed.
    struct Leaky<R>(R);

    impl<R: Reclaim> Reclaim for Leaky<R> {
        const STATS: &'static str = R::STATS;
        const GAUGE: &'static str = R::GAUGE;
        const FLUSH: &'static str = R::FLUSH;
        fn stats(&self) -> StatsSnapshot {
            self.0.stats()
        }
        fn unreclaimed(&self) -> u64 {
            self.0.unreclaimed() + 1
        }
        fn flush(&self) {
            self.0.flush()
        }
    }

    fn hp() -> HazardPointers {
        HazardPointers::default()
    }

    #[test]
    fn clean_cells_pass() {
        let out = queue_churn(&tiny(), None, manual::<HazardPointers, _>(MsQueue::new));
        assert!(out.ops > 0);
        assert_eq!(out.failed, 0);
        let out = tree_read(&tiny(), None, manual::<HazardPointers, _>(NmTree::new));
        assert_eq!(out.failed, 0);
        let out = list_stall(
            &tiny(),
            None,
            StallPoint::Protect,
            manual::<HazardPointers, _>(MichaelList::new),
        );
        assert!(out.ops > 0);
        assert_eq!(out.failed, 0);
    }

    #[test]
    fn planted_queue_loss_fails() {
        let out = queue_churn(&tiny(), None, || {
            let s = hp();
            (
                LossyQueue(MsQueue::new(s.clone()), AtomicU64::new(0)),
                Manual(s),
            )
        });
        assert!(out.failed > 0);
    }

    #[test]
    fn planted_set_lie_fails() {
        let out = tree_read(&tiny(), None, || {
            let s = hp();
            (
                LyingSet(NmTree::new(s.clone()), AtomicU64::new(0)),
                Manual(s),
            )
        });
        assert!(out.failed > 0);
        let out = list_stall(&tiny(), None, StallPoint::Protect, || {
            let s = hp();
            (
                LyingSet(MichaelList::new(s.clone()), AtomicU64::new(0)),
                Manual(s),
            )
        });
        assert!(out.failed > 0);
    }

    #[test]
    fn planted_leak_fails() {
        let out = queue_churn(&tiny(), None, || {
            let s = hp();
            (MsQueue::new(s.clone()), Leaky(Manual(s)))
        });
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn traced_cell_fills_histograms_and_spans() {
        let spans = Arc::new(Spans::default());
        let out = queue_churn(
            &tiny(),
            Some(Arc::clone(&spans)),
            manual::<HazardPointers, _>(MsQueue::new),
        );
        assert_eq!(out.failed, 0);
        assert!(out.hists[Op::Enqueue as usize].count() > 0);
        assert_eq!(out.hists[Op::Add as usize].count(), 0);
        assert!(spans.len() > 5, "phase spans and sampled op spans");
    }
}
