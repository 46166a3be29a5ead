//! Shared low-level utilities for the OrcGC reproduction.
//!
//! This crate hosts the substrate pieces every reclamation scheme and data
//! structure in the workspace relies on:
//!
//! * [`registry`] — a process-wide, lock-free thread registry that hands out
//!   dense thread ids (`tid`s) so schemes can index per-thread hazard arrays,
//!   and runs per-thread cleanup callbacks when a thread exits.
//! * [`marked`] — Harris-style marked-pointer helpers (tag bits in the low
//!   bits of aligned pointers).
//! * [`dwcas`] — a double-word (128-bit) atomic built on `cmpxchg16b`, needed
//!   by pass-the-buck and LCRQ.
//! * [`rng`] — a tiny xorshift generator for hot paths (skip-list levels,
//!   workload key streams) and for the workspace's randomized tests.
//! * [`sync`] — in-tree [`CachePadded`] and [`Backoff`] (the workspace
//!   builds with zero external dependencies; see README "Building offline
//!   & CI").
//! * [`stall`] — stalled-reader fault injection used by the torture
//!   harness to validate the paper's unreclaimed-memory bounds.
//! * [`stats`] — orc-stats: each scheme instance's per-thread sharded
//!   ledger (allocs, frees and their slot bytes, retires, reclaims, scans,
//!   protect retries, handovers) plus batch-size and retire→reclaim delay
//!   histograms; `ORC_STATS=0` turns off only the histograms, retire
//!   stamps and peak watermark. The leak tests and the memory-usage
//!   experiments read live objects and bytes from it.
//! * [`obs`] — orc-obs: background sampler turning per-scheme stats and
//!   pool gauges into seqlock-ring time series, operation-latency spans
//!   ([`obs::time_op`]), a rising-unreclaimed reclamation watchdog
//!   ([`obs::ObsAlert`]), and Prometheus/JSON-lines export
//!   ([`obs::ObsReport`]), behind an `ORC_OBS=0` kill-switch.
//! * [`trace`] — orc-trace: per-tid lock-free ring-buffer event tracer
//!   ([`trace_event!`]), flight recorder (panic-hook post-mortems) and
//!   Chrome trace-event/Perfetto exporter, behind an `ORC_TRACE=0`
//!   kill-switch.
//! * [`atomics`] — the workspace atomics facade: plain `std::sync::atomic`
//!   re-exports by default, instrumented orc-check shims under the
//!   `orc_check` feature. All scheme/structure code imports atomics from
//!   here (CI-enforced for crates/{core,reclaim}).
//! * [`chk`] (feature `orc_check`) — the orc-check bounded model checker:
//!   cooperative scheduler, DFS interleaving explorer with preemption
//!   bounding + sleep sets, and the shadow-heap reclamation oracles.
//! * [`chk_hooks`] — always-present hook layer the reclamation crates call
//!   on alloc/retire/reclaim; no-ops unless an exploration is running.
//! * [`pool`] — orc-pool: the type-segregated, per-thread slab allocator
//!   behind `SmrHeader`/`OrcHeader` allocation (size-classed slots,
//!   lock-free remote free, batch refill), behind an `ORC_POOL=0`
//!   kill-switch.

pub mod atomics;
#[cfg(feature = "orc_check")]
pub mod chk;
pub mod chk_hooks;
pub mod dwcas;
pub mod marked;
pub mod obs;
pub mod pool;
pub mod registry;
pub mod rng;
pub mod stall;
pub mod stats;
pub mod sync;
pub mod trace;

pub use sync::Backoff;
pub use sync::CachePadded;
