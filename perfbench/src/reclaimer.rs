//! The reclamation layer as the benchmark sees it: the public telemetry
//! and gauge calls of a manual `Smr` instance or of the OrcGC domain.

use reclaim::{Smr, StatsSnapshot};

pub trait Reclaim: Send + Sync + 'static {
    /// Span names of the three calls below.
    const STATS: &'static str;
    const GAUGE: &'static str;
    const FLUSH: &'static str;

    /// Cumulative counters (all zero when `ORC_STATS=0`).
    fn stats(&self) -> StatsSnapshot;
    /// Retired objects not yet freed.
    fn unreclaimed(&self) -> u64;
    /// Reclaims what the calling thread can.
    fn flush(&self);
}

/// A manual scheme instance (`reclaim` layer).
pub struct Manual<S>(pub S);

impl<S: Smr> Reclaim for Manual<S> {
    const STATS: &'static str = "reclaim.stats";
    const GAUGE: &'static str = "reclaim.unreclaimed";
    const FLUSH: &'static str = "reclaim.flush";

    fn stats(&self) -> StatsSnapshot {
        self.0.stats()
    }

    fn unreclaimed(&self) -> u64 {
        self.0.unreclaimed() as u64
    }

    fn flush(&self) {
        self.0.flush()
    }
}

/// The process-wide OrcGC domain (`core` layer).
pub struct Orc;

impl Reclaim for Orc {
    const STATS: &'static str = "core.domain_stats";
    const GAUGE: &'static str = "core.unreclaimed";
    const FLUSH: &'static str = "core.flush_thread";

    fn stats(&self) -> StatsSnapshot {
        orcgc::domain_stats()
    }

    fn unreclaimed(&self) -> u64 {
        orcgc::domain().unreclaimed()
    }

    fn flush(&self) {
        orcgc::flush_thread()
    }
}

/// Flushes until nothing is left unreclaimed or `attempts` run out;
/// returns what is left.
pub fn drain(rec: &impl Reclaim, attempts: usize) -> u64 {
    for i in 0..attempts {
        if rec.unreclaimed() == 0 {
            return 0;
        }
        rec.flush();
        if i % 32 == 31 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        } else {
            std::thread::yield_now();
        }
    }
    rec.unreclaimed()
}
