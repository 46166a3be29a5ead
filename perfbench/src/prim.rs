//! Primitive cells: single-thread loops over the public `Smr`,
//! `OrcAtomic` and `make_orc` calls, in ns per call.

use crate::metrics::median;
use orcgc::{make_orc, OrcAtomic};
use reclaim::{Ebr, HazardPointers, PassThePointer, Smr};
use std::hint::black_box;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

/// Repetitions per cell; the cell reports their median.
const REPS: usize = 7;

/// ns per iteration of `f`: calibrates the iteration count to `per_rep`
/// once, then reports the median of [`REPS`] timed repetitions.
fn ns_per_call(per_rep: Duration, mut f: impl FnMut(u64)) -> f64 {
    let mut iters = 1_000u64;
    loop {
        let t0 = Instant::now();
        (0..iters).for_each(&mut f);
        let el = t0.elapsed();
        if el >= per_rep / 4 {
            iters = (iters as f64 * per_rep.as_secs_f64() / el.as_secs_f64()).max(1.0) as u64;
            break;
        }
        iters *= 4;
    }
    let per: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            (0..iters).for_each(&mut f);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per)
}

/// `begin_op`, `protect`, `clear`, `end_op` on one live object.
fn protect_clear<S: Smr + Default>(per_rep: Duration) -> f64 {
    let smr = S::default();
    let link = AtomicUsize::new(smr.alloc(7u64) as usize);
    let ns = ns_per_call(per_rep, |_| {
        smr.begin_op();
        black_box(smr.protect(0, &link));
        smr.clear(0);
        smr.end_op();
    });
    // SAFETY: no other thread ever saw the object; it is freed once here.
    unsafe { smr.dealloc_now(link.into_inner() as *mut u64) };
    ns
}

/// `alloc` then `retire` of a fresh object (scans amortized in).
fn alloc_retire<S: Smr + Default>(per_rep: Duration) -> f64 {
    let smr = S::default();
    let ns = ns_per_call(per_rep, |i| {
        let p = smr.alloc(black_box(i));
        // SAFETY: `p` was never published, so it is unreachable and
        // retired exactly once.
        unsafe { smr.retire(p) };
    });
    smr.flush();
    ns
}

/// `(name, ns)` of every primitive cell.
pub fn run(per_rep: Duration) -> Vec<(String, f64)> {
    let mut out = vec![
        (
            "prim.protect_clear_ns.hp".to_string(),
            protect_clear::<HazardPointers>(per_rep),
        ),
        (
            "prim.protect_clear_ns.ptp".to_string(),
            protect_clear::<PassThePointer>(per_rep),
        ),
        (
            "prim.protect_clear_ns.ebr".to_string(),
            protect_clear::<Ebr>(per_rep),
        ),
        (
            "prim.alloc_retire_ns.hp".to_string(),
            alloc_retire::<HazardPointers>(per_rep),
        ),
        (
            "prim.alloc_retire_ns.ptp".to_string(),
            alloc_retire::<PassThePointer>(per_rep),
        ),
        (
            "prim.alloc_retire_ns.ebr".to_string(),
            alloc_retire::<Ebr>(per_rep),
        ),
    ];
    let a = make_orc(1u64);
    let b = make_orc(2u64);
    let link = OrcAtomic::new(&a);
    out.push((
        "prim.orc_load_ns".to_string(),
        ns_per_call(per_rep, |_| {
            black_box(link.load().raw());
        }),
    ));
    out.push((
        "prim.orc_store_ns".to_string(),
        ns_per_call(per_rep, |i| {
            link.store(if i % 2 == 0 { &b } else { &a });
        }),
    ));
    out.push((
        "prim.orc_make_drop_ns".to_string(),
        ns_per_call(per_rep, |i| {
            black_box(make_orc(i).raw());
        }),
    ));
    drop(link);
    orcgc::flush_thread();
    out
}
