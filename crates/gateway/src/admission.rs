//! The admission core shared by both gateway faces: transaction-id LRU
//! dedup (the cheapest rejection, taken before any signature is verified)
//! and per-client token buckets (lazy integer refill in milli-tokens —
//! no floats, no wall clock, fully deterministic).

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

use fabric_primitives::ids::TxId;

/// A bounded LRU set of recently seen transaction ids.
///
/// Hits refresh recency, so a transaction being actively flooded stays in
/// the window for as long as the flood lasts — exactly the case the dedup
/// exists for.
pub struct DedupLru {
    capacity: usize,
    stamp: u64,
    by_id: HashMap<TxId, u64>,
    by_stamp: BTreeMap<u64, TxId>,
}

impl DedupLru {
    /// A window remembering at most `capacity` ids (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        DedupLru {
            capacity: capacity.max(1),
            stamp: 0,
            by_id: HashMap::new(),
            by_stamp: BTreeMap::new(),
        }
    }

    /// Whether `id` is in the window; a hit refreshes its recency.
    pub fn check(&mut self, id: &TxId) -> bool {
        let Some(stamp) = self.by_id.get(id).copied() else {
            return false;
        };
        self.by_stamp.remove(&stamp);
        self.stamp += 1;
        self.by_stamp.insert(self.stamp, *id);
        self.by_id.insert(*id, self.stamp);
        true
    }

    /// Records `id`, evicting the least-recently-seen id past capacity.
    pub fn insert(&mut self, id: TxId) {
        if self.check(&id) {
            return;
        }
        self.stamp += 1;
        self.by_id.insert(id, self.stamp);
        self.by_stamp.insert(self.stamp, id);
        if self.by_id.len() > self.capacity {
            if let Some((&oldest, &victim)) = self.by_stamp.iter().next() {
                self.by_stamp.remove(&oldest);
                self.by_id.remove(&victim);
            }
        }
    }

    /// Forgets `id` (a mempool eviction hands the slot back so the
    /// transaction can be legitimately resubmitted).
    pub fn remove(&mut self, id: &TxId) {
        if let Some(stamp) = self.by_id.remove(id) {
            self.by_stamp.remove(&stamp);
        }
    }

    /// Ids currently remembered.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

/// One client's token bucket. Tokens are kept in milli-tokens so that a
/// rate of `r` tokens/second refills exactly `r` milli-tokens per
/// millisecond — integer math, no drift.
struct TokenBucket {
    tokens_milli: u64,
    last_ms: u64,
}

impl TokenBucket {
    /// Milli-tokens held at `now_ms`, refill included.
    fn level(&self, now_ms: u64, rate: u64, burst_milli: u64) -> u64 {
        let elapsed = now_ms.saturating_sub(self.last_ms);
        self.tokens_milli
            .saturating_add(elapsed.saturating_mul(rate))
            .min(burst_milli)
    }
}

const TOKEN: u64 = 1000;

/// Most client buckets tracked at once. Bucket keys are creator bytes no
/// one has verified yet, so without a cap a flood of forged creators
/// would grow the map without limit.
const MAX_BUCKETS: usize = 4096;

/// Per-client admission state: the LRU dedup window plus one token
/// bucket per client key (creator certificate bytes), at most
/// [`MAX_BUCKETS`] of them.
pub(crate) struct Admission {
    rate_per_sec: u64,
    burst_milli: u64,
    buckets: HashMap<Vec<u8>, TokenBucket>,
    pub(crate) dedup: DedupLru,
}

/// Verdict of the pre-checks (dedup, rate): pass does not yet consume a
/// token — call [`Admission::commit`] once the rest of admission holds.
pub(crate) enum Gate {
    Pass,
    Duplicate,
    /// Rate limited; retry after this many milliseconds.
    Limited { after_ms: u64 },
}

impl Admission {
    pub(crate) fn new(rate_per_sec: u64, burst: u64, dedup_capacity: usize) -> Self {
        Admission {
            rate_per_sec,
            burst_milli: burst.max(1) * TOKEN,
            buckets: HashMap::new(),
            dedup: DedupLru::new(dedup_capacity),
        }
    }

    fn refill(&mut self, client: &[u8], now_ms: u64) -> &mut TokenBucket {
        let burst = self.burst_milli;
        let rate = self.rate_per_sec;
        if self.buckets.len() >= MAX_BUCKETS && !self.buckets.contains_key(client) {
            self.evict(now_ms);
        }
        let bucket = self
            .buckets
            .entry(client.to_vec())
            .or_insert(TokenBucket { tokens_milli: burst, last_ms: now_ms });
        if now_ms > bucket.last_ms {
            bucket.tokens_milli = bucket.level(now_ms, rate, burst);
            bucket.last_ms = now_ms;
        }
        bucket
    }

    /// Makes room for more buckets. Every bucket that has refilled to the
    /// burst goes first: a full bucket admits exactly like an absent one,
    /// so forgetting it changes no verdict. If none is full, the fullest
    /// eighth goes (oldest, then lowest key, among equals): it forgets the
    /// least rate-limit state, the choice is deterministic, and a flood
    /// pays for one sweep per eighth of the cap, not one per creator.
    fn evict(&mut self, now_ms: u64) {
        let burst = self.burst_milli;
        let rate = self.rate_per_sec;
        self.buckets.retain(|_, b| b.level(now_ms, rate, burst) < burst);
        if self.buckets.len() < MAX_BUCKETS {
            return;
        }
        let mut ranked: Vec<_> = self
            .buckets
            .iter()
            .map(|(key, b)| (Reverse(b.level(now_ms, rate, burst)), b.last_ms, key))
            .collect();
        let evict = MAX_BUCKETS / 8;
        ranked.select_nth_unstable(evict - 1);
        let victims: Vec<Vec<u8>> = ranked[..evict].iter().map(|(_, _, key)| (*key).clone()).collect();
        for key in &victims {
            self.buckets.remove(key);
        }
    }

    /// Dedup + rate pre-checks, cheapest first. Consumes nothing.
    pub(crate) fn check(&mut self, tx_id: &TxId, client: &[u8], now_ms: u64) -> Gate {
        if self.dedup.check(tx_id) {
            return Gate::Duplicate;
        }
        if self.rate_per_sec == 0 {
            return Gate::Pass;
        }
        let rate = self.rate_per_sec;
        let bucket = self.refill(client, now_ms);
        if bucket.tokens_milli >= TOKEN {
            Gate::Pass
        } else {
            // Exact wait until the next whole token accrues.
            let deficit = TOKEN - bucket.tokens_milli;
            Gate::Limited { after_ms: deficit.div_ceil(rate).max(1) }
        }
    }

    /// Consumes one token and records the id; call only after
    /// [`Admission::check`] returned [`Gate::Pass`] and every other
    /// admission condition held.
    pub(crate) fn commit(&mut self, tx_id: TxId, client: &[u8], now_ms: u64) {
        if self.rate_per_sec > 0 {
            let bucket = self.refill(client, now_ms);
            bucket.tokens_milli = bucket.tokens_milli.saturating_sub(TOKEN);
        }
        self.dedup.insert(tx_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u8) -> TxId {
        TxId(fabric_crypto::digest(&[n]))
    }

    #[test]
    fn dedup_lru_evicts_least_recent() {
        let mut lru = DedupLru::new(2);
        lru.insert(id(1));
        lru.insert(id(2));
        assert!(lru.check(&id(1)), "hit refreshes 1");
        lru.insert(id(3)); // evicts 2, the least recently seen
        assert!(lru.check(&id(1)));
        assert!(!lru.check(&id(2)));
        assert!(lru.check(&id(3)));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn dedup_remove_reopens_slot() {
        let mut lru = DedupLru::new(4);
        lru.insert(id(1));
        lru.remove(&id(1));
        assert!(!lru.check(&id(1)));
        assert!(lru.is_empty());
    }

    #[test]
    fn bucket_refills_at_rate() {
        // 10 tokens/sec, burst 2.
        let mut adm = Admission::new(10, 2, 64);
        let c = b"client".as_slice();
        for n in 0..2u8 {
            assert!(matches!(adm.check(&id(n), c, 0), Gate::Pass));
            adm.commit(id(n), c, 0);
        }
        // Burst spent: next token is 100 ms away.
        match adm.check(&id(9), c, 0) {
            Gate::Limited { after_ms } => assert_eq!(after_ms, 100),
            _ => panic!("expected rate limit"),
        }
        // Waiting exactly the hint succeeds.
        assert!(matches!(adm.check(&id(9), c, 100), Gate::Pass));
        // Buckets are per client: another client is unaffected.
        assert!(matches!(adm.check(&id(10), b"other", 0), Gate::Pass));
    }

    fn creator(n: usize) -> Vec<u8> {
        format!("forged-creator-{n}").into_bytes()
    }

    #[test]
    fn forged_creator_flood_keeps_bucket_map_bounded() {
        // Every forged creator is admitted once (the ordering face verifies
        // nothing), so each leaves a drained, non-full bucket behind.
        let mut adm = Admission::new(1, 1, 64);
        for n in 0..4 * MAX_BUCKETS {
            let now_ms = n as u64 / 64;
            let tx = TxId(fabric_crypto::digest(&creator(n)));
            assert!(matches!(adm.check(&tx, &creator(n), now_ms), Gate::Pass));
            adm.commit(tx, &creator(n), now_ms);
            assert!(adm.buckets.len() <= MAX_BUCKETS, "{} buckets", adm.buckets.len());
        }
    }

    #[test]
    fn full_buckets_are_evicted_before_drained_ones() {
        // 1 token/sec, burst 1: the honest client drains its bucket.
        let mut adm = Admission::new(1, 1, 64);
        let honest = b"honest".as_slice();
        adm.commit(id(1), honest, 0);
        // A flood of checked-but-never-admitted forged creators leaves
        // only full buckets behind; each eviction drops those, never the
        // honest client's drained one.
        for n in 0..2 * MAX_BUCKETS {
            let tx = TxId(fabric_crypto::digest(&creator(n)));
            assert!(matches!(adm.check(&tx, &creator(n), 1), Gate::Pass));
        }
        assert!(adm.buckets.len() <= MAX_BUCKETS);
        match adm.check(&id(2), honest, 2) {
            Gate::Limited { after_ms } => assert_eq!(after_ms, 998),
            _ => panic!("drained bucket was forgotten"),
        }
    }

    #[test]
    fn duplicate_checked_before_rate() {
        let mut adm = Admission::new(1, 1, 64);
        adm.commit(id(1), b"c", 0);
        // The duplicate verdict wins even with an empty bucket.
        assert!(matches!(adm.check(&id(1), b"c", 0), Gate::Duplicate));
    }
}
