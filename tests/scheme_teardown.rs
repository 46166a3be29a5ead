//! Teardown discipline, per (scheme × structure) cell: after a churn,
//! `flush()` must drive `unreclaimed()` to exactly 0 (the leaky
//! baseline: only at drop), and dropping the structure must return every
//! allocation that is not retired-and-unfreed — verified against the
//! scheme instance's own ledger: `allocs − frees == unreclaimed()`.
//! (The leaky baseline's stash freed by the last handle's drop is
//! covered by `reclaim`'s `leaky::teardown_frees_the_leak`.)
//!
//! Sweeps every manual scheme over every registered generic set, so a
//! new scheme or structure is teardown-tested by registration alone; the
//! failure message names the cell directly.

use orcgc_suite::prelude::*;
use structures::registry::SETS;

/// Churn that forces real retire traffic: insert, delete, re-insert.
fn churn(kind: SchemeKind, entry: &structures::registry::SetEntry) {
    let label = format!("{kind}/{}", entry.name);
    let smr = kind.build();
    {
        let set = (entry.make)(smr.clone());
        for round in 0..3u64 {
            for k in 0..256u64 {
                assert!(set.add(k), "{label}: add({k}) failed in round {round}");
            }
            for k in 0..256u64 {
                assert!(
                    set.remove(&k),
                    "{label}: remove({k}) failed in round {round}"
                );
            }
        }
        smr.flush();
        if kind.reclaims() {
            assert_eq!(
                smr.unreclaimed(),
                0,
                "{label}: quiescent flush must reclaim every retired node"
            );
        } else {
            // The leaky baseline holds everything until teardown. At
            // least one retired node per removal — tree-shaped structures
            // retire internal routing nodes on top.
            assert!(smr.unreclaimed() >= 3 * 256, "{label}");
        }
    }
    let s = smr.stats();
    let unreclaimed = smr.unreclaimed() as i64;
    assert!(
        s.live_objects() == unreclaimed && (unreclaimed != 0 || s.live_bytes() == 0),
        "{label}: ledger unbalanced — {} allocs vs {} frees ({:+} live bytes), \
         {unreclaimed} unreclaimed",
        s.allocs,
        s.frees,
        s.live_bytes(),
    );
}

#[test]
fn teardown_is_clean_for_every_cell() {
    for kind in SchemeKind::ALL {
        for entry in SETS {
            churn(kind, entry);
        }
    }
}
