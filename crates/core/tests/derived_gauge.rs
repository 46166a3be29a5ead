//! The OrcGC domain's `unreclaimed` gauge is derived from the per-tid
//! ledger (Σ retires − reclaims). These tests pin that it agrees with the
//! ledger at quiescence and that the peak watermark covers it, whatever
//! `ORC_STATS` says: run this binary once with the variable unset and
//! once with `ORC_STATS=0`.
//!
//! The domain is process-wide, so every test here serializes on one lock.

use orc_util::stats;
use orcgc::{domain, domain_stats, flush_thread, make_orc, OrcAtomic, OrcPtr};
use std::sync::{Arc, Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The Michael–Scott queue of the crate docs (paper Algorithm 1).
struct Node {
    item: Option<u64>,
    next: OrcAtomic<Node>,
}

struct Queue {
    head: OrcAtomic<Node>,
    tail: OrcAtomic<Node>,
}

impl Queue {
    fn new() -> Self {
        let sentinel = make_orc(Node {
            item: None,
            next: OrcAtomic::null(),
        });
        Self {
            head: OrcAtomic::new(&sentinel),
            tail: OrcAtomic::new(&sentinel),
        }
    }

    fn enqueue(&self, item: u64) {
        let node = make_orc(Node {
            item: Some(item),
            next: OrcAtomic::null(),
        });
        loop {
            let ltail = self.tail.load();
            let lnext = ltail.next.load();
            if lnext.is_null() {
                if ltail.next.cas(&lnext, &node) {
                    self.tail.cas(&ltail, &node);
                    return;
                }
            } else {
                self.tail.cas(&ltail, &lnext);
            }
        }
    }

    fn dequeue(&self) -> Option<u64> {
        let mut node: OrcPtr<Node> = self.head.load();
        loop {
            let lnext = node.next.load();
            if lnext.is_null() {
                return None;
            }
            if self.head.cas(&node, &lnext) {
                return lnext.item;
            }
            node = self.head.load();
        }
    }
}

#[test]
fn queue_churn_gauge_matches_ledger_delta() {
    let _s = serial();
    flush_thread();
    let base = domain_stats();
    let q = Arc::new(Queue::new());
    let workers: Vec<_> = (0..2u64)
        .map(|t| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..20_000 {
                    q.enqueue(t << 32 | i);
                    assert!(q.dequeue().is_some(), "a pair never sees an empty queue");
                }
                flush_thread();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    drop(q);
    flush_thread();
    let end = domain_stats();
    let d = end.since(&base);
    assert!(d.retires >= 40_000, "every dequeue retires a node: {d:?}");
    assert_eq!(
        domain().unreclaimed(),
        end.retires - end.reclaims,
        "derived gauge disagrees with the ledger"
    );
    assert_eq!(d.retires, d.reclaims, "queue drained and dropped");
    assert_eq!((d.allocs, d.live_bytes()), (d.frees, 0));
    if stats::enabled() {
        assert!(end.peak_unreclaimed >= end.outstanding());
        assert!(d.peak_unreclaimed >= d.outstanding());
    } else {
        assert_eq!(end.peak_unreclaimed, 0, "ORC_STATS=0 keeps no peak");
    }
}

#[test]
fn peak_covers_outstanding_while_guards_pin_retired_objects() {
    const PINNED: usize = 48;
    let _s = serial();
    flush_thread();
    let before = domain().unreclaimed();
    // Each object is unlinked (BRETIRED) while a guard still protects
    // it, so the deletion waits on the guard: PINNED objects stay
    // retired-but-unreclaimed until the guards drop.
    let links: Vec<_> = (0..PINNED as u64)
        .map(|i| OrcAtomic::new(&make_orc(i)))
        .collect();
    let guards: Vec<_> = links.iter().map(OrcAtomic::load).collect();
    for l in &links {
        l.store_null();
    }
    assert_eq!(domain().unreclaimed(), before + PINNED as u64);
    let mid = domain_stats();
    assert_eq!(mid.outstanding(), domain().unreclaimed());
    drop(guards);
    drop(links);
    flush_thread();
    let end = domain_stats();
    assert_eq!(domain().unreclaimed(), before);
    if stats::enabled() {
        assert!(mid.peak_unreclaimed >= mid.outstanding());
        assert!(
            end.peak_unreclaimed >= mid.outstanding(),
            "the peak is a watermark"
        );
    } else {
        assert_eq!((mid.peak_unreclaimed, end.peak_unreclaimed), (0, 0));
    }
}
