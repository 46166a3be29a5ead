//! Reclamation telemetry (orc-stats) and the per-instance ledger.
//!
//! The paper's whole evaluation (§6, Figs. 1–8) is about *observed*
//! reclamation behavior — throughput, retired-but-unreclaimed counts,
//! memory footprint — yet a single `unreclaimed()` gauge cannot explain
//! *why* a scheme costs what it costs. This module provides the
//! dependency-free, lock-free counters every scheme in the workspace
//! feeds:
//!
//! * **per-thread sharded counters** — one cache-line-padded slot per
//!   registry tid (the same dense-tid layout the hazard arrays use). Only
//!   the owning tid ever writes its shard, so the hot-path cost of an
//!   event is a relaxed load and a relaxed store to the caller's own
//!   line: no `lock`-prefixed RMW, no cross-thread contention. They
//!   include the object lifecycle — allocs, frees and their slot bytes —
//!   which makes [`SchemeStats`] the one accounting spine of a scheme
//!   instance (or the OrcGC domain): live objects and bytes, and for the
//!   OrcGC domain the `unreclaimed` gauge itself
//!   ([`SchemeStats::unreclaimed`]), are *derived* from the shards;
//! * **power-of-two histograms** of reclamation batch sizes — whether a
//!   scheme frees in dribbles (PTP: batch = 1) or avalanches (EBR: whole
//!   limbo bins) is exactly what separates their latency profiles;
//! * a **peak-unreclaimed watermark** (`fetch_max` on its own padded
//!   line, taken only when the value rises), the number the paper's
//!   Table 1 bounds.
//!
//! # Single writer
//!
//! Every writer passes its own registry tid (`debug_assert`ed), so a
//! shard has one writer at a time and a count is `load` + `store`, not
//! `fetch_add`. A tid passes to a new thread only through the registry's
//! `USED` flag (released by the exiting thread's `Release` store,
//! claimed by the next thread's `AcqRel` CAS), so the new owner starts
//! from the old owner's last store. Readers on other threads see each
//! counter move monotonically.
//!
//! Aggregation ([`SchemeStats::snapshot`]) sums the shards into a plain
//! [`StatsSnapshot`] — the uniform currency returned by `Smr::stats()`
//! and `orcgc::domain_stats()` and consumed by the torture harness, the
//! bench records and the `orcstat` example.
//!
//! # Kill switch
//!
//! The event counters ([`SchemeStats::bump`] / [`SchemeStats::add`] /
//! [`SchemeStats::on_alloc`] / [`SchemeStats::on_free`]) are the ledger
//! and are always on. Setting `ORC_STATS=0` (or `false`/`off`) in the
//! environment disables only the parts that need a clock read or a
//! shared RMW: the batch and delay histograms, retire stamps, and the
//! peak watermark (and with it the periodic fold of a derived gauge into
//! the peak, see [`SchemeStats::on_retire`]). The first check latches the
//! flag into a static, after which each gated call is a single relaxed
//! load and a predicted-not-taken branch; an instance built with the
//! switch off never allocates its histograms, so its per-tid footprint is
//! the one padded line of counters. Everything is **on** by default.
//!
//! # Exactness contract
//!
//! Schemes pair every `unreclaimed += 1` with [`Event::Retire`] and every
//! `unreclaimed -= 1` with [`Event::Reclaim`] (an instance with a derived
//! gauge gets this by construction), and count every tracked
//! allocation and free of the objects they own, so at quiescence (no
//! in-flight operations) the invariants
//! `retires − reclaims == unreclaimed()` and
//! `allocs − frees == unreclaimed()` (once the structure dropped its
//! live nodes) hold exactly, and `reclaims ≤ retires` holds at all
//! times. The torture harness asserts them across the whole battery,
//! with the kill switch on and off.

// Deliberately NOT the `crate::atomics` facade — the same exemption as
// trace.rs: the ledger is statistics, not synchronization, and every
// alloc, retire and free touches it. Routing it through the orc-check
// shims would make each count a scheduling point, exploding the model
// checker's branch space with interleavings no protocol property
// depends on.
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::registry;
use crate::CachePadded;

/// Number of power-of-two buckets in the batch-size histogram; bucket `i`
/// counts batches of size `[2^i, 2^(i+1))`, with the last bucket open.
pub const BATCH_BUCKETS: usize = 32;

/// Buckets in the retire→reclaim delay histogram. HDR-style layout: 4
/// linear sub-buckets per power-of-two octave (relative error ≤ 25%),
/// covering 0 ns to ~2^42 ns (≈ 73 minutes); longer delays land in the
/// last (open) bucket. See [`delay_bucket_of`].
pub const DELAY_BUCKETS: usize = 168;

/// One countable reclamation event.
///
/// The variants cover every scheme in the workspace; schemes simply never
/// bump the events that do not apply to them (EBR has no handovers, PTP
/// has no flush-driven scans beyond its matrix walks, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Event {
    /// An object entered the scheme's retired-but-unfreed set.
    Retire = 0,
    /// An object left the retired set (freed, or for OrcGC the rare
    /// unretire transition when the counter moved after the claim).
    Reclaim = 1,
    /// One scan / liberate / collect / handover-matrix pass.
    Scan = 2,
    /// One explicit `flush()` call.
    Flush = 3,
    /// One failed validation iteration inside a protect loop (the
    /// published word changed under the reader and the loop retried).
    ProtectRetry = 4,
    /// One object parked into (or displaced through) a handover /
    /// handoff slot (PTP, PTB, OrcGC).
    Handover = 5,
    /// One tracked object allocated (see [`SchemeStats::on_alloc`]).
    Alloc = 6,
    /// One tracked object freed (see [`SchemeStats::on_free`]).
    Free = 7,
    /// Slot bytes of the allocations counted by [`Event::Alloc`].
    AllocBytes = 8,
    /// Slot bytes of the frees counted by [`Event::Free`].
    FreeBytes = 9,
}

const EVENTS: usize = 10;

/// Retires on one shard between two folds of a derived gauge into the
/// peak watermark (see [`SchemeStats::on_retire`]).
pub const PEAK_FOLD_STRIDE: u64 = 64;

/// Adds `n` to a counter that only the calling thread writes: a relaxed
/// load and store, no `lock`-prefixed RMW. Returns the new value.
#[inline]
fn owner_add(c: &AtomicU64, n: u64) -> u64 {
    let v = c.load(Ordering::Relaxed) + n;
    c.store(v, Ordering::Relaxed);
    v
}

/// Checks (in debug builds) the single-writer precondition of every
/// shard write: `tid` is the caller's own registry tid.
#[inline]
fn debug_assert_owner(tid: usize) {
    debug_assert_eq!(
        tid,
        registry::tid(),
        "ledger shard written by a foreign tid"
    );
}

/// Raises a shared watermark to `v`, writing its line only when `v` is
/// above the value already there.
#[inline]
fn raise(w: &AtomicU64, v: u64) {
    if v > w.load(Ordering::Relaxed) {
        w.fetch_max(v, Ordering::Relaxed);
    }
}

/// Per-tid ledger counters ([`Event`]-indexed). Padded so adjacent tids
/// never share a cache line.
struct Shard {
    counters: [AtomicU64; EVENTS],
}

impl Shard {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn count(&self, ev: Event) -> u64 {
        self.counters[ev as usize].load(Ordering::Relaxed)
    }

    /// Adds this shard's counters into `s`.
    fn fold_into(&self, s: &mut StatsSnapshot) {
        s.retires += self.count(Event::Retire);
        s.reclaims += self.count(Event::Reclaim);
        s.scans += self.count(Event::Scan);
        s.flushes += self.count(Event::Flush);
        s.protect_retries += self.count(Event::ProtectRetry);
        s.handovers += self.count(Event::Handover);
        s.allocs += self.count(Event::Alloc);
        s.frees += self.count(Event::Free);
        s.alloc_bytes += self.count(Event::AllocBytes);
        s.free_bytes += self.count(Event::FreeBytes);
    }
}

/// Per-tid histograms — the optional telemetry behind `ORC_STATS`.
struct Hists {
    batch: [AtomicU64; BATCH_BUCKETS],
    delay: [AtomicU64; DELAY_BUCKETS],
}

impl Hists {
    fn new() -> Self {
        Self {
            batch: std::array::from_fn(|_| AtomicU64::new(0)),
            delay: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds these histograms into `s`.
    fn fold_into(&self, s: &mut StatsSnapshot) {
        for (acc, b) in s.batch_hist.iter_mut().zip(self.batch.iter()) {
            *acc += b.load(Ordering::Relaxed);
        }
        for (acc, b) in s.delay_hist.iter_mut().zip(self.delay.iter()) {
            *acc += b.load(Ordering::Relaxed);
        }
    }
}

/// Sharded telemetry counters for one scheme instance (or the OrcGC
/// domain). See the module docs for layout and cost.
///
/// The two shared words written in steady state with stats on sit on
/// lines of their own, so they never share one with the read-mostly
/// `shards`/`hists` pointers (or with an owner's fields around an inline
/// `SchemeStats`, such as the OrcGC domain's row table).
pub struct SchemeStats {
    shards: Box<[CachePadded<Shard>]>,
    /// Per-tid histograms; allocated only when [`enabled`] (1.6 KB per
    /// tid that an `ORC_STATS=0` run never touches).
    hists: Option<Box<[CachePadded<Hists>]>>,
    /// Process-wide high-water mark of the owner's `unreclaimed` gauge.
    peak_unreclaimed: CachePadded<AtomicU64>,
    /// Longest retire→reclaim delay observed, exactly (the histogram only
    /// bounds it to a sub-bucket).
    max_delay_ns: CachePadded<AtomicU64>,
}

impl SchemeStats {
    pub fn new() -> Self {
        Self {
            shards: (0..registry::max_threads())
                .map(|_| CachePadded::new(Shard::new()))
                .collect(),
            hists: enabled().then(|| {
                (0..registry::max_threads())
                    .map(|_| CachePadded::new(Hists::new()))
                    .collect()
            }),
            peak_unreclaimed: CachePadded::new(AtomicU64::new(0)),
            max_delay_ns: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The shards a tid has ever been handed out for; the rest were never
    /// written.
    fn live_shards(&self) -> &[CachePadded<Shard>] {
        &self.shards[..registry::registered_watermark().min(self.shards.len())]
    }

    /// The caller's own counter for `ev`. `tid` must be the caller's
    /// registry tid — the single-writer precondition of every ledger
    /// write.
    #[inline]
    fn own(&self, tid: usize, ev: Event) -> &AtomicU64 {
        debug_assert_owner(tid);
        &self.shards[tid].counters[ev as usize]
    }

    /// Records one `ev` on the calling thread's shard (`tid` must be the
    /// caller's registry tid — every scheme hot path already has it).
    /// Always on: the counters are the ledger. An owner-only relaxed
    /// load and store, not an atomic add (see the module docs).
    #[inline]
    pub fn bump(&self, tid: usize, ev: Event) {
        owner_add(self.own(tid, ev), 1);
    }

    /// Records `n` occurrences of `ev` at once (scan loops count locally
    /// and publish a single store). Same contract as [`Self::bump`].
    #[inline]
    pub fn add(&self, tid: usize, ev: Event, n: u64) {
        if n != 0 {
            owner_add(self.own(tid, ev), n);
        }
    }

    /// Records one tracked allocation of `bytes` slot bytes.
    #[inline]
    pub fn on_alloc(&self, tid: usize, bytes: usize) {
        self.bump(tid, Event::Alloc);
        self.add(tid, Event::AllocBytes, bytes as u64);
    }

    /// Records one tracked free of `bytes` slot bytes.
    #[inline]
    pub fn on_free(&self, tid: usize, bytes: usize) {
        self.bump(tid, Event::Free);
        self.add(tid, Event::FreeBytes, bytes as u64);
    }

    /// Records one retire on an instance whose `unreclaimed` gauge is
    /// derived from the shards ([`Self::unreclaimed`]) rather than kept
    /// in a shared word. With stats on, every [`PEAK_FOLD_STRIDE`]th
    /// retire on the shard folds the derived gauge into the peak, so the
    /// watermark costs one O(threads) sum per stride instead of per
    /// retire; [`Self::snapshot`] folds it once more.
    #[inline]
    pub fn on_retire(&self, tid: usize) {
        let n = owner_add(self.own(tid, Event::Retire), 1);
        if n % PEAK_FOLD_STRIDE == 0 && enabled() {
            self.note_unreclaimed(self.unreclaimed());
        }
    }

    /// Sum of one event counter over every shard — a cheaper read than a
    /// full [`snapshot`](Self::snapshot) when a caller needs one number.
    pub fn total(&self, ev: Event) -> u64 {
        self.live_shards().iter().map(|s| s.count(ev)).sum()
    }

    /// The derived `unreclaimed` gauge: Σ(`Retire` − `Reclaim`) over the
    /// shards of every registered tid, saturating at 0. One thread may
    /// retire what another reclaims, so a single shard's difference can
    /// be negative; only the sum means anything. Retires are summed
    /// before reclaims, so a read racing with churn leans toward
    /// undercounting the backlog rather than inventing one. Exact at
    /// quiescence, like every other ledger read.
    pub fn unreclaimed(&self) -> u64 {
        let shards = self.live_shards();
        let retires: u64 = shards.iter().map(|s| s.count(Event::Retire)).sum();
        let reclaims: u64 = shards.iter().map(|s| s.count(Event::Reclaim)).sum();
        retires.saturating_sub(reclaims)
    }

    /// Records one reclamation batch of `n` objects freed together.
    #[inline]
    pub fn batch(&self, tid: usize, n: u64) {
        match &self.hists {
            Some(h) if n != 0 => {
                debug_assert_owner(tid);
                owner_add(&h[tid].batch[bucket_of(n)], 1);
            }
            _ => {}
        }
    }

    /// Folds the owner's current `unreclaimed` gauge into the peak
    /// watermark.
    #[inline]
    pub fn note_unreclaimed(&self, now: u64) {
        if enabled() {
            raise(&self.peak_unreclaimed, now);
        }
    }

    /// Records one retire→reclaim delay of `ns` nanoseconds (the time an
    /// object spent in the retired set before its memory came back).
    #[inline]
    pub fn reclaim_delay(&self, tid: usize, ns: u64) {
        if let Some(h) = &self.hists {
            debug_assert_owner(tid);
            owner_add(&h[tid].delay[delay_bucket_of(ns)], 1);
            raise(&self.max_delay_ns, ns);
        }
    }

    /// Sums every shard into a point-in-time [`StatsSnapshot`].
    ///
    /// Counters are relaxed, so a snapshot taken during churn is
    /// approximate (each individual counter is exact-eventually); at
    /// quiescence it is exact. With stats on, the snapshot's own
    /// `outstanding()` is folded into the peak first, so
    /// `peak_unreclaimed >= outstanding()` holds in every snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for shard in self.live_shards() {
            shard.fold_into(&mut s);
        }
        for h in self.hists.iter().flat_map(|h| h.iter()) {
            h.fold_into(&mut s);
        }
        self.note_unreclaimed(s.outstanding());
        s.peak_unreclaimed = self.peak_unreclaimed.load(Ordering::Relaxed);
        s.max_delay_ns = self.max_delay_ns.load(Ordering::Relaxed);
        s
    }

    /// The counters and histograms of `tid`'s shard alone (watermarks
    /// stay 0: they are instance-wide). While a thread owns its tid, no
    /// other thread writes this shard, so a single-threaded test can
    /// diff it around its own work even while other threads churn the
    /// same instance.
    pub fn thread_snapshot(&self, tid: usize) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        self.shards[tid].fold_into(&mut s);
        if let Some(h) = &self.hists {
            h[tid].fold_into(&mut s);
        }
        s
    }
}

impl Default for SchemeStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Histogram bucket for a batch of `n ≥ 1`: `floor(log2 n)`, capped.
#[inline]
fn bucket_of(n: u64) -> usize {
    ((63 - n.leading_zeros()) as usize).min(BATCH_BUCKETS - 1)
}

/// Delay-histogram bucket for `ns`: values 0–3 get exact buckets; above
/// that, each power-of-two octave splits into 4 linear sub-buckets
/// (HDR-histogram layout), capped at [`DELAY_BUCKETS`]` - 1`.
#[inline]
pub(crate) fn delay_bucket_of(ns: u64) -> usize {
    if ns < 4 {
        return ns as usize;
    }
    let oct = (63 - ns.leading_zeros()) as usize; // ≥ 2
    let sub = ((ns >> (oct - 2)) & 3) as usize;
    ((oct - 2) * 4 + 4 + sub).min(DELAY_BUCKETS - 1)
}

/// Representative value (midpoint) of delay bucket `idx` — the inverse
/// of [`delay_bucket_of`] used when reading quantiles back out.
pub(crate) fn delay_bucket_value(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let q = idx - 4;
    let oct = q / 4 + 2;
    let sub = (q % 4) as u64;
    let lo = (4 + sub) << (oct - 2);
    lo + (1u64 << (oct - 2)) / 2
}

/// Compact human formatting of a nanosecond duration for table cells
/// (`"850ns"`, `"12.4us"`, `"3.1ms"`, `"2.50s"`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

// Kill-switch state: 0 = unread, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry recording is on (`ORC_STATS` unset or not one of
/// `0`/`false`/`off`). Latched on first call; a relaxed load afterwards.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = parse_enabled(std::env::var("ORC_STATS").ok().as_deref());
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// `ORC_STATS` parsing: only explicit `0`, `false` or `off` disable.
fn parse_enabled(v: Option<&str>) -> bool {
    !matches!(
        v.map(str::trim),
        Some("0") | Some("false") | Some("off") | Some("FALSE") | Some("OFF")
    )
}

/// Aggregated, uniform view of one scheme's telemetry — the return type
/// of `Smr::stats()` and `orcgc::domain_stats()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Objects that entered the retired set.
    pub retires: u64,
    /// Objects that left the retired set (freed or unretired).
    pub reclaims: u64,
    /// Scan / liberate / collect / matrix-walk passes.
    pub scans: u64,
    /// Explicit `flush()` calls.
    pub flushes: u64,
    /// Failed protect-loop validation iterations.
    pub protect_retries: u64,
    /// Handover / handoff transfers (PTP, PTB, OrcGC).
    pub handovers: u64,
    /// Tracked objects allocated.
    pub allocs: u64,
    /// Tracked objects freed.
    pub frees: u64,
    /// Slot bytes of `allocs`.
    pub alloc_bytes: u64,
    /// Slot bytes of `frees`.
    pub free_bytes: u64,
    /// High-water mark of the scheme's `unreclaimed` gauge (0 with
    /// `ORC_STATS=0`).
    pub peak_unreclaimed: u64,
    /// Power-of-two reclamation batch sizes: `batch_hist[i]` counts
    /// batches of `[2^i, 2^(i+1))` objects freed in one pass.
    pub batch_hist: [u64; BATCH_BUCKETS],
    /// Retire→reclaim delay histogram (HDR-style log-bucketed, see
    /// [`DELAY_BUCKETS`]); one count per object whose free was observed
    /// with a retire timestamp.
    pub delay_hist: [u64; DELAY_BUCKETS],
    /// Longest observed retire→reclaim delay, exact.
    pub max_delay_ns: u64,
}

impl Default for StatsSnapshot {
    fn default() -> Self {
        Self {
            retires: 0,
            reclaims: 0,
            scans: 0,
            flushes: 0,
            protect_retries: 0,
            handovers: 0,
            allocs: 0,
            frees: 0,
            alloc_bytes: 0,
            free_bytes: 0,
            peak_unreclaimed: 0,
            batch_hist: [0; BATCH_BUCKETS],
            delay_hist: [0; DELAY_BUCKETS],
            max_delay_ns: 0,
        }
    }
}

impl StatsSnapshot {
    /// `retires − reclaims`: at quiescence, exactly the scheme's
    /// `unreclaimed()` gauge (saturating under mid-churn skew).
    pub fn outstanding(&self) -> u64 {
        self.retires.saturating_sub(self.reclaims)
    }

    /// `allocs − frees`: tracked objects still live (retired-but-unfreed
    /// ones included). Signed so a diff over a window that frees more
    /// than it allocates reads negative rather than wrapping.
    pub fn live_objects(&self) -> i64 {
        self.allocs as i64 - self.frees as i64
    }

    /// `alloc_bytes − free_bytes`: slot bytes still live.
    pub fn live_bytes(&self) -> i64 {
        self.alloc_bytes as i64 - self.free_bytes as i64
    }

    /// Total reclamation batches recorded in the histogram.
    pub fn batches(&self) -> u64 {
        self.batch_hist.iter().sum()
    }

    /// Mean objects freed per batch (0.0 when no batches ran).
    pub fn mean_batch(&self) -> f64 {
        let b = self.batches();
        if b == 0 {
            0.0
        } else {
            self.reclaims as f64 / b as f64
        }
    }

    /// Objects with a recorded retire→reclaim delay. Can trail
    /// `reclaims` (`ORC_STATS=0` at retire time records no stamp).
    pub fn delays(&self) -> u64 {
        self.delay_hist.iter().sum()
    }

    /// Retire→reclaim delay at quantile `q` ∈ (0, 1], in nanoseconds
    /// (bucket midpoint, ≤ 25% relative error, clamped to the observed
    /// maximum so quantiles never exceed `max_delay_ns`). 0 when none
    /// recorded.
    pub fn delay_quantile(&self, q: f64) -> u64 {
        let total = self.delays();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.delay_hist.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket's midpoint can overshoot the true
                // maximum; the clamp keeps p50 ≤ p99 ≤ max invariant.
                return delay_bucket_value(i).min(self.max_delay_ns.max(1));
            }
        }
        self.max_delay_ns
    }

    /// Median retire→reclaim delay, ns (0 when none recorded).
    pub fn delay_p50(&self) -> u64 {
        self.delay_quantile(0.50)
    }

    /// 99th-percentile retire→reclaim delay, ns (0 when none recorded).
    pub fn delay_p99(&self) -> u64 {
        self.delay_quantile(0.99)
    }

    /// Counter movement since `base` (peak is carried, not differenced —
    /// it is a watermark, not a counter).
    pub fn since(&self, base: &StatsSnapshot) -> StatsSnapshot {
        let mut d = StatsSnapshot {
            retires: self.retires.saturating_sub(base.retires),
            reclaims: self.reclaims.saturating_sub(base.reclaims),
            scans: self.scans.saturating_sub(base.scans),
            flushes: self.flushes.saturating_sub(base.flushes),
            protect_retries: self.protect_retries.saturating_sub(base.protect_retries),
            handovers: self.handovers.saturating_sub(base.handovers),
            allocs: self.allocs.saturating_sub(base.allocs),
            frees: self.frees.saturating_sub(base.frees),
            alloc_bytes: self.alloc_bytes.saturating_sub(base.alloc_bytes),
            free_bytes: self.free_bytes.saturating_sub(base.free_bytes),
            peak_unreclaimed: self.peak_unreclaimed,
            batch_hist: [0; BATCH_BUCKETS],
            delay_hist: [0; DELAY_BUCKETS],
            max_delay_ns: self.max_delay_ns,
        };
        for (i, b) in d.batch_hist.iter_mut().enumerate() {
            *b = self.batch_hist[i].saturating_sub(base.batch_hist[i]);
        }
        for (i, b) in d.delay_hist.iter_mut().enumerate() {
            *b = self.delay_hist[i].saturating_sub(base.delay_hist[i]);
        }
        d
    }

    /// True when every counter of `self` is ≥ the matching counter of
    /// `earlier` — snapshots of a live instance must be monotone.
    pub fn is_monotone_since(&self, earlier: &StatsSnapshot) -> bool {
        self.retires >= earlier.retires
            && self.reclaims >= earlier.reclaims
            && self.scans >= earlier.scans
            && self.flushes >= earlier.flushes
            && self.protect_retries >= earlier.protect_retries
            && self.handovers >= earlier.handovers
            && self.allocs >= earlier.allocs
            && self.frees >= earlier.frees
            && self.alloc_bytes >= earlier.alloc_bytes
            && self.free_bytes >= earlier.free_bytes
            && self.peak_unreclaimed >= earlier.peak_unreclaimed
            && self.max_delay_ns >= earlier.max_delay_ns
            && self
                .batch_hist
                .iter()
                .zip(earlier.batch_hist.iter())
                .all(|(a, b)| a >= b)
            && self
                .delay_hist
                .iter()
                .zip(earlier.delay_hist.iter())
                .all(|(a, b)| a >= b)
    }

    /// Width of the label column in [`table_header`](Self::table_header) /
    /// [`table_row`](Self::table_row) — sized for registry cell labels
    /// like `OrcGC/CRF-skip-OrcGC`.
    pub const TABLE_LABEL_WIDTH: usize = 22;

    /// Header line for the aligned telemetry table ([`table_row`]
    /// produces the matching rows). `label_col` titles the first column
    /// (`"scheme"` for orcstat, `"cell"` for the torture ledger battery).
    ///
    /// [`table_row`]: Self::table_row
    pub fn table_header(label_col: &str) -> String {
        format!(
            "{:<lw$} {:>8} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>8} {:>8} {:>7} {:>6} {:>8} {:>8} {:>8}",
            label_col,
            "Mops/s",
            "retires",
            "reclaims",
            "outst",
            "peak",
            "scans",
            "flushes",
            "p-retry",
            "handover",
            "batches",
            "mean",
            "rd-p50",
            "rd-p99",
            "rd-max",
            lw = Self::TABLE_LABEL_WIDTH,
        )
    }

    /// One aligned table row for this snapshot, under
    /// [`table_header`](Self::table_header). `mops` fills the throughput
    /// column when the caller measured one (orcstat); `None` renders `-`
    /// (the torture batteries churn for correctness, not speed).
    pub fn table_row(&self, label: &str, mops: Option<f64>) -> String {
        let mops = match mops {
            Some(m) => format!("{m:>8.3}"),
            None => format!("{:>8}", "-"),
        };
        let (p50, p99, max) = if self.delays() == 0 {
            ("-".into(), "-".into(), "-".into())
        } else {
            (
                fmt_ns(self.delay_p50()),
                fmt_ns(self.delay_p99()),
                fmt_ns(self.max_delay_ns),
            )
        };
        format!(
            "{label:<lw$} {mops} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>8} {:>8} {:>7} {:>6.1} {p50:>8} {p99:>8} {max:>8}",
            self.retires,
            self.reclaims,
            self.outstanding(),
            self.peak_unreclaimed,
            self.scans,
            self.flushes,
            self.protect_retries,
            self.handovers,
            self.batches(),
            self.mean_batch(),
            lw = Self::TABLE_LABEL_WIDTH,
        )
    }

    /// Serializes the scalar counters as one JSON object (hand-rolled —
    /// the workspace has no serde). This is the nested `"stats"` object
    /// of `Measurement::json` in `workloads` and of the torture bin's
    /// `--json` lines: keep the key set append-only so committed
    /// `BENCH_*.json` baselines stay parseable.
    pub fn json(&self) -> String {
        let mean = self.mean_batch();
        format!(
            "{{\"retires\":{},\"reclaims\":{},\"scans\":{},\"flushes\":{},\
             \"protect_retries\":{},\"handovers\":{},\"peak_unreclaimed\":{},\
             \"batches\":{},\"mean_batch\":{},\"allocs\":{},\"frees\":{},\
             \"live_bytes\":{}}}",
            self.retires,
            self.reclaims,
            self.scans,
            self.flushes,
            self.protect_retries,
            self.handovers,
            self.peak_unreclaimed,
            self.batches(),
            // 0-batch snapshots yield mean 0.0 (never NaN), but guard
            // anyway: `{}` on a non-finite f64 is invalid JSON.
            if mean.is_finite() {
                format!("{mean}")
            } else {
                "null".into()
            },
            self.allocs,
            self.frees,
            self.live_bytes(),
        )
    }

    /// One-line human summary for progress output.
    pub fn summary(&self) -> String {
        format!(
            "retires {} reclaims {} scans {} flushes {} retries {} handovers {} peak {} mean-batch {:.1} rd-p50 {} rd-p99 {} rd-max {}",
            self.retires,
            self.reclaims,
            self.scans,
            self.flushes,
            self.protect_retries,
            self.handovers,
            self.peak_unreclaimed,
            self.mean_batch(),
            fmt_ns(self.delay_p50()),
            fmt_ns(self.delay_p99()),
            fmt_ns(self.max_delay_ns),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_floor_log2() {
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(7), 2);
        assert_eq!(bucket_of(8), 3);
        assert_eq!(bucket_of(u64::MAX), BATCH_BUCKETS - 1);
    }

    #[test]
    fn delay_buckets_are_monotone_and_invertible() {
        // Exact low range.
        for ns in 0..4u64 {
            assert_eq!(delay_bucket_of(ns), ns as usize);
            assert_eq!(delay_bucket_value(ns as usize), ns);
        }
        // Buckets are non-decreasing in ns and the representative value
        // lands back in its own bucket.
        let mut prev = 0;
        for shift in 2..42 {
            for sub in 0..4u64 {
                let ns = (4 + sub) << (shift - 2);
                let b = delay_bucket_of(ns);
                assert!(b >= prev, "bucket regressed at ns={ns}");
                prev = b;
                assert_eq!(delay_bucket_of(delay_bucket_value(b)), b);
            }
        }
        assert_eq!(delay_bucket_of(u64::MAX), DELAY_BUCKETS - 1);
        // Relative error of the midpoint representative stays ≤ 25%.
        for ns in [5u64, 100, 1_000, 123_456, 10_000_000] {
            let v = delay_bucket_value(delay_bucket_of(ns)) as f64;
            let err = (v - ns as f64).abs() / ns as f64;
            assert!(err <= 0.25, "ns={ns} rep={v} err={err}");
        }
    }

    #[test]
    fn delay_quantiles_from_synthetic_hist() {
        let s = SchemeStats::new();
        let tid = registry::tid();
        // 99 fast frees at ~1 µs, one straggler at ~1 s.
        for _ in 0..99 {
            s.reclaim_delay(tid, 1_000);
        }
        s.reclaim_delay(tid, 1_000_000_000);
        let snap = s.snapshot();
        assert_eq!(snap.delays(), 100);
        assert_eq!(snap.max_delay_ns, 1_000_000_000);
        let p50 = snap.delay_p50();
        assert!((750..=1_250).contains(&p50), "p50={p50}");
        let p99 = snap.delay_p99();
        assert!(p99 <= 1_250, "p99 rank 99 is still a fast free, got {p99}");
        assert!(snap.delay_quantile(1.0) >= 750_000_000);
        assert_eq!(StatsSnapshot::default().delay_p50(), 0);
    }

    #[test]
    fn fmt_ns_is_compact() {
        assert_eq!(fmt_ns(0), "0ns");
        assert_eq!(fmt_ns(850), "850ns");
        assert_eq!(fmt_ns(12_400), "12.4us");
        assert_eq!(fmt_ns(3_100_000), "3.1ms");
        assert_eq!(fmt_ns(2_500_000_000), "2.50s");
        for ns in [0, 999, 999_949, 999_949_999, 9_999_994_999_999] {
            assert!(fmt_ns(ns).len() <= 8, "{} too wide", fmt_ns(ns));
        }
    }

    #[test]
    fn parse_enabled_defaults_on() {
        assert!(parse_enabled(None));
        assert!(parse_enabled(Some("1")));
        assert!(parse_enabled(Some("yes")));
        assert!(!parse_enabled(Some("0")));
        assert!(!parse_enabled(Some(" 0 ")));
        assert!(!parse_enabled(Some("false")));
        assert!(!parse_enabled(Some("off")));
        assert!(!parse_enabled(Some("OFF")));
    }

    #[test]
    fn events_accumulate_into_snapshot() {
        let s = SchemeStats::new();
        let tid = registry::tid();
        for _ in 0..5 {
            s.bump(tid, Event::Retire);
        }
        s.add(tid, Event::Reclaim, 3);
        s.bump(tid, Event::Scan);
        s.bump(tid, Event::Flush);
        s.bump(tid, Event::ProtectRetry);
        s.bump(tid, Event::Handover);
        s.batch(tid, 3);
        s.note_unreclaimed(5);
        s.note_unreclaimed(2); // watermark must not regress
        let snap = s.snapshot();
        assert_eq!(snap.retires, 5);
        assert_eq!(snap.reclaims, 3);
        assert_eq!(snap.scans, 1);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.protect_retries, 1);
        assert_eq!(snap.handovers, 1);
        assert_eq!(snap.outstanding(), 2);
        assert_eq!(snap.peak_unreclaimed, 5);
        assert_eq!(snap.batches(), 1);
        assert_eq!(snap.batch_hist[1], 1, "batch of 3 lands in [2,4)");
        assert!((snap.mean_batch() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn owners_bump_while_a_reader_snapshots() {
        const PER: u64 = 20_000;
        let s = std::sync::Arc::new(SchemeStats::new());
        let done = std::sync::Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let (s, done) = (s.clone(), done.clone());
                std::thread::spawn(move || {
                    let tid = registry::tid();
                    for i in 0..PER {
                        s.bump(tid, Event::Retire);
                        s.on_alloc(tid, 8);
                        if i % 2 == 0 {
                            s.add(tid, Event::Reclaim, 2);
                        }
                    }
                    done.fetch_add(1, Ordering::Release);
                })
            })
            .collect();
        let reader = {
            let (s, done) = (s.clone(), done.clone());
            std::thread::spawn(move || {
                let mut last = s.snapshot();
                let mut snaps = 0u64;
                while done.load(Ordering::Acquire) < 4 || snaps == 0 {
                    let now = s.snapshot();
                    assert!(now.is_monotone_since(&last), "a counter went backwards");
                    last = now;
                    snaps += 1;
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        let end = s.snapshot();
        assert_eq!((end.retires, end.reclaims), (4 * PER, 4 * PER));
        assert_eq!((end.allocs, end.alloc_bytes), (4 * PER, 4 * PER * 8));
        assert_eq!(s.unreclaimed(), 0);
    }

    #[test]
    fn derived_gauge_sums_signed_across_shards() {
        let s = std::sync::Arc::new(SchemeStats::new());
        let retire = |n: u64| {
            let s = s.clone();
            std::thread::spawn(move || (0..n).for_each(|_| s.on_retire(registry::tid())))
                .join()
                .unwrap()
        };
        let reclaim = |n: u64| {
            let s = s.clone();
            std::thread::spawn(move || s.add(registry::tid(), Event::Reclaim, n))
                .join()
                .unwrap()
        };
        // One thread retires, another reclaims: neither shard alone
        // holds the gauge.
        retire(10);
        reclaim(7);
        assert_eq!(s.unreclaimed(), 3);
        assert_eq!(s.unreclaimed(), s.snapshot().outstanding());
        // Mid-churn skew can read more reclaims than retires: clamp at 0.
        reclaim(5);
        assert_eq!(s.unreclaimed(), 0);
    }

    #[test]
    fn peak_folds_every_stride_and_at_snapshot() {
        let s = SchemeStats::new();
        let tid = registry::tid();
        for _ in 1..PEAK_FOLD_STRIDE {
            s.on_retire(tid);
        }
        let between = s.peak_unreclaimed.load(Ordering::Relaxed);
        s.on_retire(tid);
        let at_stride = s.peak_unreclaimed.load(Ordering::Relaxed);
        s.on_retire(tid);
        let snap = s.snapshot();
        if enabled() {
            assert_eq!(between, 0, "no O(threads) sum before the stride");
            assert_eq!(at_stride, PEAK_FOLD_STRIDE);
            assert_eq!(snap.peak_unreclaimed, PEAK_FOLD_STRIDE + 1);
            assert!(snap.peak_unreclaimed >= snap.outstanding());
            s.add(tid, Event::Reclaim, PEAK_FOLD_STRIDE + 1);
            assert_eq!(s.snapshot().peak_unreclaimed, PEAK_FOLD_STRIDE + 1);
        } else {
            assert_eq!((at_stride, snap.peak_unreclaimed), (0, 0));
        }
    }

    #[test]
    fn shared_words_own_their_lines() {
        use std::mem::{offset_of, size_of};
        // Lines of `CachePadded`'s 128-byte stride touched by a field.
        let lines = |off: usize, len: usize| off / 128..=(off + len - 1) / 128;
        type Padded = CachePadded<AtomicU64>;
        assert_eq!((size_of::<Padded>(), align_of::<Padded>()), (128, 128));
        assert_eq!(align_of::<SchemeStats>(), 128);
        let hot = [
            offset_of!(SchemeStats, peak_unreclaimed),
            offset_of!(SchemeStats, max_delay_ns),
        ];
        let cold = [
            lines(
                offset_of!(SchemeStats, shards),
                size_of::<Box<[CachePadded<Shard>]>>(),
            ),
            lines(
                offset_of!(SchemeStats, hists),
                size_of::<Option<Box<[CachePadded<Hists>]>>>(),
            ),
        ];
        for h in hot {
            assert_eq!(h % 128, 0, "a padded word must start a line");
            for c in &cold {
                assert!(
                    !c.contains(&(h / 128)),
                    "read-mostly pointer shares a written line"
                );
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "foreign tid")]
    fn foreign_tid_writes_are_caught() {
        let s = SchemeStats::new();
        let other = (registry::tid() + 1) % registry::max_threads();
        s.bump(other, Event::Retire);
    }

    #[test]
    fn shards_merge_across_threads() {
        let s = std::sync::Arc::new(SchemeStats::new());
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let tid = registry::tid();
                    for _ in 0..1_000 {
                        s.bump(tid, Event::Retire);
                        s.bump(tid, Event::Reclaim);
                    }
                    s.batch(tid, 1_000);
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.retires, 4_000);
        assert_eq!(snap.reclaims, 4_000);
        assert_eq!(snap.batches(), 4);
        assert_eq!(snap.outstanding(), 0);
    }

    #[test]
    fn since_and_monotone() {
        let s = SchemeStats::new();
        let tid = registry::tid();
        s.bump(tid, Event::Retire);
        let a = s.snapshot();
        s.bump(tid, Event::Retire);
        s.bump(tid, Event::Reclaim);
        s.batch(tid, 1);
        let b = s.snapshot();
        assert!(b.is_monotone_since(&a));
        assert!(!a.is_monotone_since(&b));
        let d = b.since(&a);
        assert_eq!(d.retires, 1);
        assert_eq!(d.reclaims, 1);
        assert_eq!(d.batches(), 1);
    }

    #[test]
    fn lifecycle_counts_derive_live_objects_and_bytes() {
        let s = SchemeStats::new();
        let tid = registry::tid();
        s.on_alloc(tid, 64);
        s.on_alloc(tid, 32);
        let snap = s.snapshot();
        assert_eq!((snap.allocs, snap.alloc_bytes), (2, 96));
        assert_eq!((snap.live_objects(), snap.live_bytes()), (2, 96));
        s.on_free(tid, 64);
        let d = s.snapshot().since(&snap);
        assert_eq!((d.live_objects(), d.live_bytes()), (-1, -64));
        s.on_free(tid, 32);
        let end = s.snapshot();
        assert_eq!((end.live_objects(), end.live_bytes()), (0, 0));
        assert!(end.is_monotone_since(&snap));
        assert!(end
            .json()
            .contains("\"allocs\":2,\"frees\":2,\"live_bytes\":0"));
    }

    #[test]
    fn thread_snapshot_sees_only_its_own_shard() {
        let s = std::sync::Arc::new(SchemeStats::new());
        let tid = registry::tid();
        s.on_alloc(tid, 8);
        let s2 = s.clone();
        std::thread::spawn(move || {
            let t = registry::tid();
            s2.on_alloc(t, 16);
            s2.bump(t, Event::Retire);
        })
        .join()
        .unwrap();
        let mine = s.thread_snapshot(tid);
        assert_eq!((mine.allocs, mine.alloc_bytes, mine.retires), (1, 8, 0));
        assert_eq!(s.snapshot().allocs, 2);
        assert_eq!(s.total(Event::Retire), 1);
    }

    #[test]
    fn zero_counts_are_ignored() {
        let s = SchemeStats::new();
        let tid = registry::tid();
        s.add(tid, Event::Reclaim, 0);
        s.batch(tid, 0);
        let snap = s.snapshot();
        assert_eq!(snap.reclaims, 0);
        assert_eq!(snap.batches(), 0);
    }

    #[test]
    fn summary_is_one_line() {
        let snap = StatsSnapshot::default();
        let line = snap.summary();
        assert!(!line.contains('\n'));
        assert!(line.contains("retires 0"));
    }

    #[test]
    fn table_rows_align_with_header() {
        let header = StatsSnapshot::table_header("cell");
        let snap = StatsSnapshot::default();
        let with_mops = snap.table_row("HP/MichaelList", Some(1.234));
        let without = snap.table_row("OrcGC/CRF-skip-OrcGC", None);
        assert_eq!(header.len(), with_mops.len());
        assert_eq!(header.len(), without.len());
        assert!(with_mops.contains("1.234"));
        assert!(without.contains(" - "));
    }
}
