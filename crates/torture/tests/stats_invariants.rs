//! orc-stats invariants across the torture leak-ledger battery.
//!
//! The telemetry contract (see `orc_util::stats`): every scheme pairs
//! `unreclaimed += 1` with a Retire event and every `-= 1` with a
//! Reclaim event, so
//!
//! * `reclaims ≤ retires` holds at all times, and
//! * at quiescence `retires − reclaims == unreclaimed()` holds exactly —
//!   and so does `allocs − frees == unreclaimed()` once the structure has
//!   dropped its live nodes.
//!
//! The per-scheme micro-tests live in `reclaim/tests/stats.rs`; here the
//! same invariants are asserted on top of the *full* ledgered churn
//! battery (multi-threaded, structure-driven, teardown included), swept
//! over every cell of the (scheme × structure) registry matrix — manual
//! cells against the scheme instance's counters, OrcGC cells against the
//! process-global domain's delta.

use reclaim::{SchemeKind, Smr, StatsSnapshot};
use structures::registry::{MatrixFilter, SchemeAxis};
use structures::ConcurrentSet;
use torture::{assert_balanced, churn_queue_cell, churn_set_cell, exclusive, Config};

/// Invariants every post-drain battery snapshot must satisfy. The cell
/// runners drain to `unreclaimed() == 0` before snapshotting (structure
/// teardown uses `dealloc_now`, which never retires), so a reclaiming
/// scheme must come back exactly balanced; for OrcGC cells the snapshot
/// is the domain delta over the cell, balanced once the ledger settled.
fn assert_quiescent(label: &str, s: &StatsSnapshot, reclaiming: bool) {
    assert!(
        s.reclaims <= s.retires,
        "{label}: reclaims {} > retires {}",
        s.reclaims,
        s.retires
    );
    assert!(
        s.peak_unreclaimed >= s.outstanding(),
        "{label}: peak {} below outstanding {}",
        s.peak_unreclaimed,
        s.outstanding()
    );
    assert!(s.retires > 0, "{label}: churn recorded no retires");
    if reclaiming {
        assert_eq!(
            s.retires, s.reclaims,
            "{label}: drained to unreclaimed()==0 but stats disagree"
        );
        assert!(
            s.batches() > 0,
            "{label}: objects were reclaimed but no batch was recorded"
        );
    } else {
        assert_eq!(s.reclaims, 0, "{label}: the leaky baseline never reclaims");
        assert_eq!(s.batches(), 0, "{label}: no reclaims, no batches");
        assert_eq!(s.peak_unreclaimed, s.retires, "{label}: peak is the total");
    }
}

/// Whether a cell's scheme reclaims at all (everything but the leaky
/// baseline; the OrcGC domain always does).
fn reclaims(axis: SchemeAxis) -> bool {
    axis.manual().is_none_or(|kind| kind.reclaims())
}

#[test]
fn every_set_cell_stats_balance() {
    let cfg = Config::short();
    for cell in MatrixFilter::full().set_cells() {
        let s = churn_set_cell(&cell, cfg.threads, cfg.iters);
        assert_quiescent(&cell.label(), &s, reclaims(cell.scheme));
    }
}

#[test]
fn every_queue_cell_stats_balance() {
    let cfg = Config::short();
    for cell in MatrixFilter::full().queue_cells() {
        let s = churn_queue_cell(&cell, cfg.threads, cfg.iters);
        assert_quiescent(&cell.label(), &s, reclaims(cell.scheme));
    }
}

/// `retires − reclaims == unreclaimed()` checked against the live gauge:
/// the cell runners consume their scheme handle, so this test builds each
/// manual scheme directly and drives every registered set through it
/// (under [`exclusive`]: the sibling cells' pool checks are process-wide).
#[test]
fn outstanding_matches_live_gauge() {
    let _serial = exclusive();
    for kind in SchemeKind::ALL {
        for entry in structures::registry::SETS {
            let smr = kind.build();
            {
                let set = (entry.make)(smr.clone());
                for k in 0..400u64 {
                    set.add(k % 64);
                    set.remove(&(k % 64));
                }
            }
            // Mid-quiescence (before any drain): the contract must
            // already hold — this is what catches an unpaired gauge
            // update or an uncounted alloc/free.
            let label = format!("{kind}/{}", entry.name);
            assert_balanced(&label, &smr.stats(), smr.unreclaimed() as u64);
            for _ in 0..400 {
                if smr.unreclaimed() == 0 {
                    break;
                }
                smr.flush();
            }
            assert_balanced(&label, &smr.stats(), smr.unreclaimed() as u64);
        }
    }
}

/// OrcGC domain deltas across consecutive ledgered cells: cumulative
/// snapshots are monotone and each cell's delta balances (the ledger
/// settles only once every node of the section is freed or unretired).
/// One test, sequential: the domain is process-global and parallel orc
/// churn would pollute the deltas.
#[test]
fn orc_domain_deltas_monotone_and_balanced() {
    let cfg = Config::short();
    let filter = MatrixFilter::full();
    let mut last = orcgc::domain_stats();
    for cell in filter.set_cells() {
        if cell.scheme != SchemeAxis::Orc {
            continue;
        }
        churn_set_cell(&cell, cfg.threads, cfg.iters);
        let now = orcgc::domain_stats();
        assert!(
            now.is_monotone_since(&last),
            "{}: domain counters went backwards",
            cell.label()
        );
        last = now;
    }
    for cell in filter.queue_cells() {
        if cell.scheme != SchemeAxis::Orc {
            continue;
        }
        churn_queue_cell(&cell, cfg.threads, cfg.iters);
        let now = orcgc::domain_stats();
        assert!(
            now.is_monotone_since(&last),
            "{}: domain counters went backwards",
            cell.label()
        );
        last = now;
    }
}
