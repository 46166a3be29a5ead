//! Leak-ledger battery: every cell of the (scheme × structure) registry
//! matrix must end a churn balanced on its own ledger after `flush()` +
//! the structure's drop — `allocs − frees == retires − reclaims ==
//! unreclaimed()` — the manual schemes on every registered structure
//! (against the instance's ledger), plus every OrcGC-annotated variant
//! (against the delta of the process-global domain's ledger).
//!
//! The matrix comes from [`MatrixFilter::full`], so a structure or scheme
//! added to the registry is leak-tested here with no edit to this file.
//! The ledger counters are always on, so this battery holds with
//! `ORC_STATS=0` too (CI runs it both ways).

use structures::registry::MatrixFilter;
use torture::{churn_queue_cell, churn_set_cell, Config};

#[test]
fn every_set_cell_balances() {
    let cfg = Config::short();
    for cell in MatrixFilter::full().set_cells() {
        churn_set_cell(&cell, cfg.threads, cfg.iters);
    }
}

#[test]
fn every_queue_cell_balances() {
    let cfg = Config::short();
    for cell in MatrixFilter::full().queue_cells() {
        churn_queue_cell(&cell, cfg.threads, cfg.iters);
    }
}
