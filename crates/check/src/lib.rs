//! orc-check: the checked-protocol entry point.
//!
//! This crate is a thin veneer: it turns on the `orc_check` feature of
//! `orc-util` (so the whole workspace compiles against the instrumented
//! atomics facade — Cargo feature unification takes care of `reclaim`,
//! `orcgc` and `structures`) and re-exports the model checker's API. The
//! actual checked protocol suite lives in `tests/`; see DESIGN.md §9 for
//! the architecture and the `ORC_CHECK_*` environment knobs.
//!
//! Run it with `cargo test -p check`. The default configuration is the
//! per-push CI setting (exhaustive, preemption bound 2); CI's nightly soak
//! raises the bound and adds randomized schedules on top.

pub use orc_util::chk::{
    explore, spawn, Acc, CheckMode, Config, Failure, JoinHandle, Report, TraceEv,
};

/// Silences the optional orc-stats telemetry for the current process.
///
/// The ledger counters bypass the checker's atomics facade, so they never
/// appear in a trace; what `ORC_STATS=0` removes is the gated rest — retire
/// stamps and the delay histogram (clock reads), the batch histogram and
/// the peak watermark — keeping explored executions protocol-only and
/// cheap. Latches [`orc_util::stats::enabled`], so it must run before the
/// first scheme operation of the process.
pub fn quiet_stats() {
    std::env::set_var("ORC_STATS", "0");
    // Latch the kill-switch now, outside any exploration, so the latch
    // store itself never appears inside a model trace.
    let _ = orc_util::stats::enabled();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_explore_is_usable() {
        quiet_stats();
        let report = explore(Config::default(), || {
            let a = orc_util::atomics::AtomicUsize::new(0);
            a.store(1, orc_util::atomics::Ordering::SeqCst);
            assert_eq!(a.load(orc_util::atomics::Ordering::SeqCst), 1);
        })
        .expect("single-threaded body has no failing schedule");
        assert_eq!(report.schedules, 1);
    }
}
