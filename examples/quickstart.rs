//! Quickstart: the paper's Algorithm-1 experience in Rust.
//!
//! Build your own lock-free structure with three annotations — `make_orc`
//! instead of `Box::new`, `OrcAtomic` instead of `AtomicPtr`, `OrcPtr`
//! guards for loaded references — and memory reclamation is automatic,
//! lock-free, and bounded.
//!
//! Run: `cargo run --release --example quickstart`

use std::sync::Arc;
use structures::list::MichaelListOrc;
use structures::queue::MsQueueOrc;

fn main() {
    // A Michael-Scott queue with automatic reclamation (paper Alg. 1).
    let queue = Arc::new(MsQueueOrc::new());
    let producers: Vec<_> = (0..2)
        .map(|p| {
            let queue = queue.clone();
            std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    queue.enqueue(p * 10_000 + i);
                }
            })
        })
        .collect();
    let consumer = {
        let queue = queue.clone();
        std::thread::spawn(move || {
            let mut got = 0u64;
            while got < 20_000 {
                if queue.dequeue().is_some() {
                    got += 1;
                }
            }
            got
        })
    };
    for p in producers {
        p.join().unwrap();
    }
    let consumed = consumer.join().unwrap();
    println!("queue: consumed {consumed} items, none leaked, no retire() anywhere");

    // An ordered set with the same annotations.
    let set = Arc::new(MichaelListOrc::new());
    let writers: Vec<_> = (0..4)
        .map(|t| {
            let set = set.clone();
            std::thread::spawn(move || {
                for k in 0..500u64 {
                    set.add(t * 500 + k);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    println!("set: {} keys inserted concurrently", set.len());
    for k in 0..2_000u64 {
        assert!(set.contains(&k));
    }
    println!("set: all lookups hit; dropping the set cascades reclamation");

    // Everything allocated is returned once the structures drop.
    drop(queue);
    drop(set);
    orcgc::flush_thread();
    let stats = orcgc::domain_stats();
    println!(
        "ledger: {} allocations, {} frees, {} live tracked objects",
        stats.allocs,
        stats.frees,
        stats.live_objects()
    );
}
