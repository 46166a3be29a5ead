//! Output validators. Each counts violations; the cell reports the sum as
//! failed ops.

/// SplitMix64 finalizer: the per-value hash behind the multiset checksums.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Small deterministic generator for workload inputs.
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)) | 1)
    }

    #[inline]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..bound`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }
}

/// Queue values carry their producer in the high bits and the
/// producer's sequence number in the low bits.
const SEQ_BITS: u32 = 40;

pub fn encode(producer: usize, seq: u64) -> u64 {
    ((producer as u64) << SEQ_BITS) | seq
}

/// One consumer's view of the values it dequeued.
#[derive(Clone, Debug)]
pub struct QueueCheck {
    salt: u64,
    last: Vec<Option<u64>>,
    count: Vec<u64>,
    hash: Vec<u64>,
    /// Values from an unknown producer or out of per-producer FIFO order.
    pub violations: u64,
}

impl QueueCheck {
    pub fn new(producers: usize, salt: u64) -> Self {
        Self {
            salt,
            last: vec![None; producers],
            count: vec![0; producers],
            hash: vec![0; producers],
            violations: 0,
        }
    }

    #[inline]
    pub fn see(&mut self, v: u64) {
        let p = (v >> SEQ_BITS) as usize;
        let seq = v & ((1 << SEQ_BITS) - 1);
        if p >= self.last.len() {
            self.violations += 1;
            return;
        }
        if self.last[p].is_some_and(|l| seq <= l) {
            self.violations += 1;
        }
        self.last[p] = Some(seq);
        self.count[p] += 1;
        self.hash[p] = self.hash[p].wrapping_add(mix(v ^ self.salt));
    }

    /// Failures over all consumers, given how many values each producer
    /// enqueued: every value must have been dequeued exactly once, in
    /// per-producer order. A count or checksum mismatch for a producer
    /// counts as at least one failure.
    pub fn verify(consumers: &[QueueCheck], produced: &[u64]) -> u64 {
        let mut failed: u64 = consumers.iter().map(|c| c.violations).sum();
        for (p, &n) in produced.iter().enumerate() {
            let salt = consumers.first().map_or(0, |c| c.salt);
            let count: u64 = consumers.iter().map(|c| c.count[p]).sum();
            let hash = consumers
                .iter()
                .fold(0u64, |h, c| h.wrapping_add(c.hash[p]));
            let want = (0..n).fold(0u64, |h, s| h.wrapping_add(mix(encode(p, s) ^ salt)));
            if count != n || hash != want {
                failed += count.abs_diff(n).max(1);
            }
        }
        failed
    }
}

/// Net effect of successful set updates: key count and key checksum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SetTally {
    pub count: i64,
    pub sum: u64,
}

impl SetTally {
    #[inline]
    pub fn added(&mut self, k: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(mix(k));
    }

    #[inline]
    pub fn removed(&mut self, k: u64) {
        self.count -= 1;
        self.sum = self.sum.wrapping_sub(mix(k));
    }

    pub fn merge(&mut self, o: &SetTally) {
        self.count += o.count;
        self.sum = self.sum.wrapping_add(o.sum);
    }

    /// Tally of the keys in `keys` that `contains` reports present.
    pub fn of_set(keys: std::ops::Range<u64>, contains: impl Fn(u64) -> bool) -> SetTally {
        let mut t = SetTally::default();
        for k in keys.filter(|&k| contains(k)) {
            t.added(k);
        }
        t
    }

    /// Failures when the set's contents disagree with the expected tally.
    pub fn verify(expected: &SetTally, actual: &SetTally) -> u64 {
        if expected == actual {
            0
        } else {
            expected.count.abs_diff(actual.count).max(1)
        }
    }
}

/// One failure when anything is left unreclaimed at quiescence.
pub fn verify_reclaimed(left: u64) -> u64 {
    u64::from(left != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consume(values: &[u64], producers: usize) -> QueueCheck {
        let mut c = QueueCheck::new(producers, 7);
        for &v in values {
            c.see(v);
        }
        c
    }

    #[test]
    fn clean_queue_history_passes() {
        let c0 = consume(&[encode(0, 0), encode(1, 0), encode(0, 2)], 2);
        let c1 = consume(&[encode(0, 1), encode(1, 1)], 2);
        assert_eq!(QueueCheck::verify(&[c0, c1], &[3, 2]), 0);
    }

    #[test]
    fn planted_duplicate_is_counted() {
        let c = consume(&[encode(0, 0), encode(0, 1), encode(0, 1)], 1);
        assert!(QueueCheck::verify(&[c], &[2]) >= 1);
    }

    #[test]
    fn planted_loss_is_counted() {
        let c = consume(&[encode(0, 0), encode(0, 2)], 1);
        assert_eq!(QueueCheck::verify(&[c], &[3]), 1);
    }

    #[test]
    fn planted_fifo_inversion_is_counted() {
        let c = consume(&[encode(0, 1), encode(0, 0)], 1);
        assert_eq!(c.violations, 1);
        assert_eq!(QueueCheck::verify(&[c], &[2]), 1);
    }

    #[test]
    fn planted_substitution_is_counted() {
        // Right count, wrong value: only the checksum can see it.
        let c = consume(&[encode(0, 0), encode(0, 5)], 1);
        assert_eq!(QueueCheck::verify(&[c], &[2]), 1);
    }

    #[test]
    fn foreign_value_is_counted() {
        let c = consume(&[encode(3, 0)], 1);
        assert_eq!(c.violations, 1);
    }

    #[test]
    fn set_tally_detects_lost_and_phantom_keys() {
        let mut want = SetTally::default();
        for k in [1, 5, 9] {
            want.added(k);
        }
        want.removed(5);
        let exact = SetTally::of_set(0..16, |k| k == 1 || k == 9);
        assert_eq!(SetTally::verify(&want, &exact), 0);
        let lost = SetTally::of_set(0..16, |k| k == 1);
        assert_eq!(SetTally::verify(&want, &lost), 1);
        let swapped = SetTally::of_set(0..16, |k| k == 1 || k == 8);
        assert_eq!(SetTally::verify(&want, &swapped), 1);
    }

    #[test]
    fn leftover_garbage_is_a_failure() {
        assert_eq!(verify_reclaimed(0), 0);
        assert_eq!(verify_reclaimed(3), 1);
    }

    #[test]
    fn rng_is_seeded_and_bounded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1, 0);
                move |_| r.below(10)
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(1, 0);
                move |_| r.below(10)
            })
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 10));
        assert_ne!(Rng::new(1, 0).next(), Rng::new(2, 0).next());
    }
}
