//! Metric names, units and the math that turns raw counts into them.
//!
//! The metric catalogue here is the single source of the names the
//! benchmark prints; `tests/smoke.rs` checks it against `BENCHMARK.json`.

use crate::Scheme;

/// The schemes whose reclamation counters come from `Smr::stats()` (the
/// `reclaim` layer); OrcGC's come from `orcgc::domain_stats()` (`core`).
const MANUAL: [Scheme; 3] = [Scheme::Hp, Scheme::Ptp, Scheme::Ebr];

/// `(name, unit)` of every end-to-end metric, in print order.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    let mut m = Vec::new();
    for s in Scheme::ALL {
        m.push((format!("mops.{}", s.name()), "Mops/s"));
    }
    for s in Scheme::ALL {
        m.push((format!("peak_rss_mib.{}", s.name()), "MiB"));
    }
    m.push(("setup_s".to_string(), "s"));
    m
}

/// `(name, unit)` of every per-layer metric, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let all = |m: &mut Vec<(String, &'static str)>, stem: &str, unit| {
        for s in Scheme::ALL {
            m.push((format!("{stem}.{}", s.name()), unit));
        }
    };
    for op in ["enqueue", "dequeue", "add", "remove", "contains"] {
        for q in ["p50_ns", "p99_ns"] {
            all(&mut m, &format!("structures.{op}.{q}"), "ns");
        }
    }
    all(&mut m, "structures.dequeue_empty_per_kop", "1/kop");
    for (stem, unit) in [
        ("reclaim.retires_per_kop", "1/kop"),
        ("reclaim.scans_per_kop", "1/kop"),
        ("reclaim.freed_per_scan", "1/scan"),
        ("reclaim.peak_unreclaimed", "count"),
        ("reclaim.delay_p99_us", "us"),
    ] {
        for s in MANUAL {
            m.push((format!("{stem}.{}", s.name()), unit));
        }
    }
    for s in [Scheme::Hp, Scheme::Ptp] {
        m.push((
            format!("reclaim.protect_retries_per_kop.{}", s.name()),
            "1/kop",
        ));
    }
    m.push(("reclaim.handovers_per_kop.ptp".to_string(), "1/kop"));
    for stem in [
        "retires_per_kop",
        "scans_per_kop",
        "handovers_per_kop",
        "protect_retries_per_kop",
    ] {
        m.push((format!("core.{stem}"), "1/kop"));
    }
    m.push(("core.peak_unreclaimed".to_string(), "count"));
    m.push(("core.delay_p99_us".to_string(), "us"));
    for stem in ["prim.protect_clear_ns", "prim.alloc_retire_ns"] {
        for s in MANUAL {
            m.push((format!("{stem}.{}", s.name()), "ns"));
        }
    }
    for name in [
        "prim.orc_load_ns",
        "prim.orc_store_ns",
        "prim.orc_make_drop_ns",
    ] {
        m.push((name.to_string(), "ns"));
    }
    for stem in [
        "price.pool_pct",
        "price.stats_pct",
        "price.trace_pct",
        "trace.overhead_pct",
    ] {
        all(&mut m, stem, "%");
    }
    m
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method).
/// Needs at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |i: usize| {
        // 1-based position (n + 1) * i / 4, interpolated between the
        // nearest order statistics (extrapolated at the ends, as Python).
        let m = n as f64 + 1.0;
        let pos = m * i as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Events per thousand operations; 0 when no operation ran.
pub fn per_kop(events: u64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        events as f64 * 1000.0 / ops as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Throughput lost by a configuration relative to `base`, in percent of
/// `base` (negative when the configuration is faster).
pub fn loss_pct(base: f64, other: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (base - other) / base
    }
}

const SUB: u32 = 16;
/// Buckets of [`Hist`]: exact below `SUB`, then `SUB` per power of two.
const BUCKETS: usize = (SUB + (64 - SUB.trailing_zeros()) * SUB) as usize;

/// Log-linear latency histogram (at most 1/16 relative error per bucket).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB.trailing_zeros();
        let sub = (v >> shift) as u32 & (SUB - 1);
        (SUB + shift * SUB + sub) as usize
    }

    /// Midpoint of bucket `i`.
    fn value(i: usize) -> u64 {
        let i = i as u32;
        if i < SUB {
            return i as u64;
        }
        let shift = (i - SUB) / SUB;
        let sub = (i - SUB) % SUB;
        let lo = ((SUB + sub) as u64) << shift;
        lo + ((1u64 << shift) >> 1)
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Value at quantile `q` ∈ (0, 1]; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with
        // few values the method extrapolates past the data.
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        let (q1, q3) = quartiles(&[5.0, 1.0, 3.0]);
        assert_eq!((q1, q3), (1.0, 5.0));
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!((q1, q3), (2.0, 6.0));
    }

    #[test]
    fn per_kop_and_ratios() {
        assert_eq!(per_kop(5, 1000), 5.0);
        assert_eq!(per_kop(1, 4000), 0.25);
        assert_eq!(per_kop(7, 0), 0.0);
        assert_eq!(ratio(9, 3), 3.0);
        assert_eq!(ratio(9, 0), 0.0);
        assert_eq!(loss_pct(2.0, 1.5), 25.0);
        assert_eq!(loss_pct(2.0, 2.5), -25.0);
        assert_eq!(loss_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn hist_quantiles_within_bucket_error() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            assert!((got - exact).abs() / exact < 1.0 / 16.0, "q{q}: {got}");
        }
        let mut small = Hist::default();
        small.record(3);
        assert_eq!(small.quantile(0.5), 3);
        assert_eq!(Hist::default().quantile(0.5), 0);
        let mut big = Hist::default();
        big.record(u64::MAX);
        assert!(big.quantile(1.0) > u64::MAX / 2);
    }

    #[test]
    fn catalogue_sizes_and_uniqueness() {
        assert_eq!(end_to_end().len(), 9);
        assert_eq!(per_layer().len(), 93);
        let mut names: Vec<_> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|(n, _)| n)
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
    }
}
