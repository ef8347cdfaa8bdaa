//! The client-side index cache: bounded, hotness-aware, deterministic.
//!
//! Every [`crate::AcesoClient`] keeps a private cache mapping keys to the
//! index slot that last resolved them — both the slot *address* (so an
//! UPDATE can speculate straight to the commit CAS) and the slot *value*
//! (so a hot SEARCH can read the KV pair and re-read the 16 B slot in one
//! doorbell batch, ~1 RTT instead of 2, §3.5.1). Fills never pay their own
//! round trip: they ride the read batches SEARCH and UPDATE already issue.
//!
//! Three properties this module enforces:
//!
//! * **Bounded.** The map holds at most `capacity` entries
//!   ([`ClientTuning::cache_capacity`](crate::ClientTuning::cache_capacity)).
//!   Eviction is CLOCK / second-chance: every hit sets a reference bit, the
//!   clock hand sweeps keys in order giving each referenced entry one more
//!   round before it goes. CLOCK approximates LRU without per-hit
//!   reordering, which keeps hits O(log n) and — unlike an LRU list — keeps
//!   the structure trivially deterministic.
//! * **Deterministic.** Backed by a `BTreeMap`, so the eviction sweep and
//!   every purge iterate in key order — never `HashMap` iteration order
//!   (the PR 6 lesson: seed-stable benches and chaos schedules must not
//!   depend on hasher state).
//! * **Safely invalidated.** The cache never *serves* stale data on its
//!   own authority — every hit is verified against fabric state (slot
//!   re-read, or the commit CAS itself), and the client drops entries on
//!   commit-CAS failure, on epoch fences / placement refresh (any entry
//!   whose column's placement changed after the fill, see
//!   [`crate::PlacementSnapshot::col_epoch`]), and on recovery
//!   notification. The `client.cache.invalidations` counter tracks these
//!   drops; `evictions` counts only capacity evictions.

use aceso_index::{SlotAtomic, SlotMeta};
use aceso_obs::{Counter, Registry};
use aceso_rdma::GlobalAddr;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included, Unbounded};

/// One cached index resolution for a key.
///
/// Holds everything a client needs to skip the index walk: where the slot
/// lives (`slot_addr`, for the speculative commit CAS), what it contained
/// (`atomic` + `meta`, for the batched KV-read-plus-verify fast path), and
/// the placement epoch the fill was made under (`fill_epoch`, for the
/// epoch-based purge in `refresh_placement`).
#[derive(Clone, Copy, Debug)]
pub struct CacheEntry {
    /// Physical address of the 16 B index slot at fill time.
    pub slot_addr: GlobalAddr,
    /// The slot's Atomic word as last observed (fp, version, KV pointer).
    pub atomic: SlotAtomic,
    /// The slot's Meta word as last observed (epoch, lock, obsolete bits).
    pub meta: SlotMeta,
    /// True when the cached slot recorded a tombstone (deleted key).
    pub tombstone: bool,
    /// The client's placement epoch when this entry was filled. An entry
    /// is purged once the placement of any column it references advanced
    /// past this epoch.
    pub fill_epoch: u64,
}

/// Pre-resolved counter handles, present only when the owning store has a
/// recorder installed — the disabled path stays zero-overhead.
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
}

impl CacheMetrics {
    fn new(reg: &Registry) -> Self {
        CacheMetrics {
            hits: reg.counter("client.cache.hits"),
            misses: reg.counter("client.cache.misses"),
            evictions: reg.counter("client.cache.evictions"),
            invalidations: reg.counter("client.cache.invalidations"),
        }
    }
}

struct Slot {
    entry: CacheEntry,
    /// CLOCK reference bit: set on every hit, cleared (one second chance)
    /// when the hand sweeps past.
    referenced: bool,
}

impl Slot {
    /// A freshly filled or refreshed entry, referenced.
    fn hot(entry: CacheEntry) -> Self {
        Slot {
            entry,
            referenced: true,
        }
    }
}

/// A bounded, deterministic, second-chance index cache (see the module
/// docs for the eviction and invalidation contract).
pub struct IndexCache {
    map: BTreeMap<Vec<u8>, Slot>,
    capacity: usize,
    /// The CLOCK hand: the key the next eviction sweep starts from.
    /// `None` means "start from the first key". Keys removed out from
    /// under the hand are harmless — the sweep is a range query.
    hand: Option<Vec<u8>>,
    metrics: Option<CacheMetrics>,
}

impl IndexCache {
    /// Creates a cache bounded at `capacity` entries. A capacity of 0
    /// disables caching entirely (every insert is a no-op).
    pub fn new(capacity: usize, reg: Option<&Registry>) -> Self {
        IndexCache {
            map: BTreeMap::new(),
            capacity,
            hand: None,
            metrics: reg.map(CacheMetrics::new),
        }
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True when `key` is cached (does not touch recency or counters).
    pub fn contains(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    /// Re-bounds the cache (factor analysis / `set_tuning`), evicting down
    /// to the new capacity if it shrank.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.map.len() > self.capacity {
            self.evict_one();
        }
    }

    /// Looks `key` up, counting a hit or a miss and setting the reference
    /// bit on a hit. This is the op-entry lookup; use [`IndexCache::peek`]
    /// for a secondary probe inside the same logical operation.
    pub fn get(&mut self, key: &[u8]) -> Option<CacheEntry> {
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.referenced = true;
                if let Some(m) = &self.metrics {
                    m.hits.inc();
                }
                Some(slot.entry)
            }
            None => {
                if let Some(m) = &self.metrics {
                    m.misses.inc();
                }
                None
            }
        }
    }

    /// Looks `key` up and refreshes its recency **without** counting a hit
    /// or miss — for the second probe of an operation that already counted
    /// its lookup (e.g. the slow-path `locate_slot` after a rejected
    /// speculation), so `hits + misses` stays one-per-lookup.
    pub fn peek(&mut self, key: &[u8]) -> Option<CacheEntry> {
        self.map.get_mut(key).map(|slot| {
            slot.referenced = true;
            slot.entry
        })
    }

    /// Inserts (or refreshes) `key`. Fills ride existing read batches, so
    /// this never touches the fabric; it may evict one cold entry to stay
    /// within capacity. With `capacity == 0` this is a no-op.
    pub fn insert(&mut self, key: Vec<u8>, entry: CacheEntry) {
        if self.capacity == 0 {
            return;
        }
        // Only a full cache must know whether the key is new before it can
        // touch the map (a new key evicts first); below capacity one entry
        // lookup does both.
        if self.map.len() >= self.capacity {
            if let Some(slot) = self.map.get_mut(&key) {
                *slot = Slot::hot(entry);
                return;
            }
            while self.map.len() >= self.capacity {
                self.evict_one();
            }
        }
        match self.map.entry(key) {
            Entry::Occupied(mut o) => *o.get_mut() = Slot::hot(entry),
            Entry::Vacant(v) => {
                v.insert(Slot::hot(entry));
            }
        }
    }

    /// Drops `key`, counting an invalidation if it was present. Every
    /// targeted removal is a correctness-motivated invalidation (CAS
    /// failure, fence bounce, verify mismatch) — capacity evictions go
    /// through the internal sweep instead.
    pub fn invalidate(&mut self, key: &[u8]) -> bool {
        let hit = self.map.remove(key).is_some();
        if hit {
            if let Some(m) = &self.metrics {
                m.invalidations.inc();
            }
        }
        hit
    }

    /// Drops every entry `stale` returns true for, counting each as an
    /// invalidation. Iterates in key order (deterministic). Used by the
    /// placement refresh (epoch / retirement purge) and recovery
    /// notifications.
    pub fn purge(&mut self, mut stale: impl FnMut(&[u8], &CacheEntry) -> bool) {
        let before = self.map.len();
        self.map.retain(|k, slot| !stale(k, &slot.entry));
        let dropped = (before - self.map.len()) as u64;
        if dropped > 0 {
            if let Some(m) = &self.metrics {
                m.invalidations.add(dropped);
            }
        }
    }

    /// Drops everything without touching the invalidation counter (tuning
    /// switch-off / factor analysis, not a protocol event).
    pub fn clear(&mut self) {
        self.map.clear();
        self.hand = None;
    }

    /// Evicts exactly one entry by the CLOCK sweep: advance the hand in
    /// key order (wrapping), clear reference bits as second chances, and
    /// remove the first unreferenced entry met. Terminates within two laps
    /// — after one full lap every bit is clear.
    fn evict_one(&mut self) {
        if self.map.is_empty() {
            return;
        }
        // No hand starts at the empty key, the smallest of all.
        let hand = self.hand.as_deref().unwrap_or(&[]);
        let sweep = |(k, slot): (&Vec<u8>, &mut Slot)| {
            (!std::mem::take(&mut slot.referenced)).then(|| k.clone())
        };
        let victim = loop {
            let from_hand = (Included(hand), Unbounded);
            if let Some(k) = self.map.range_mut::<[u8], _>(from_hand).find_map(sweep) {
                break k;
            }
            let wrapped = (Unbounded, Excluded(hand));
            if let Some(k) = self.map.range_mut::<[u8], _>(wrapped).find_map(sweep) {
                break k;
            }
        };
        self.map.remove(&victim);
        if let Some(m) = &self.metrics {
            m.evictions.inc();
        }
        // Park the hand just past the victim: the smallest key strictly
        // greater than it is the victim plus a 0x00 byte.
        let mut next = victim;
        next.push(0);
        self.hand = Some(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aceso_rdma::NodeId;

    fn entry(tag: u64) -> CacheEntry {
        CacheEntry {
            slot_addr: GlobalAddr::new(NodeId(0), tag),
            atomic: SlotAtomic::default(),
            meta: SlotMeta::default(),
            tombstone: false,
            fill_epoch: tag,
        }
    }

    fn key(i: usize) -> Vec<u8> {
        format!("key-{i:04}").into_bytes()
    }

    /// CLOCK eviction as first written, one range seek, lookup and key
    /// clone per hand step. `evict_one` must pick the same victims and
    /// leave the hand in the same place. Returns the victim.
    fn reference_evict_one(c: &mut IndexCache) -> Option<Vec<u8>> {
        if c.map.is_empty() {
            return None;
        }
        loop {
            let key = match &c.hand {
                Some(h) => c
                    .map
                    .range::<[u8], _>((Included(h.as_slice()), Unbounded))
                    .next()
                    .map(|(k, _)| k.clone()),
                None => None,
            }
            .or_else(|| c.map.keys().next().cloned())
            .expect("map is non-empty");
            let mut next = key.clone();
            next.push(0);
            c.hand = Some(next);
            let slot = c.map.get_mut(&key).expect("key just ranged");
            if slot.referenced {
                slot.referenced = false;
            } else {
                c.map.remove(&key);
                return Some(key);
            }
        }
    }

    /// `insert` as first written, on top of [`reference_evict_one`].
    fn reference_insert(c: &mut IndexCache, key: Vec<u8>, entry: CacheEntry) -> Vec<Vec<u8>> {
        let mut victims = Vec::new();
        if let Some(slot) = c.map.get_mut(&key) {
            slot.entry = entry;
            slot.referenced = true;
            return victims;
        }
        while c.map.len() >= c.capacity {
            victims.extend(reference_evict_one(c));
        }
        c.map.insert(key, Slot::hot(entry));
        victims
    }

    #[test]
    fn eviction_matches_reference_clock() {
        let mut rng: u64 = 0xC10C;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for capacity in [1, 8, 4096] {
            let mut fast = IndexCache::new(capacity, None);
            let mut slow = IndexCache::new(capacity, None);
            let (mut fast_victims, mut slow_victims) = (Vec::new(), Vec::new());
            let keys = 2 * capacity + 3;
            for op in 0..100_000u64 {
                let k = key(next() as usize % keys);
                match if op % 1000 == 999 { 16 } else { next() % 16 } {
                    0..=6 => assert_eq!(fast.get(&k).is_some(), slow.get(&k).is_some()),
                    7..=13 => {
                        let evicts = fast.len() >= capacity && !fast.contains(&k);
                        fast.insert(k.clone(), entry(op));
                        if evicts {
                            let mut victim = fast.hand.clone().expect("eviction moved the hand");
                            victim.pop();
                            fast_victims.push(victim);
                        }
                        slow_victims.extend(reference_insert(&mut slow, k, entry(op)));
                    }
                    14 => assert_eq!(fast.invalidate(&k), slow.invalidate(&k)),
                    15 => {
                        assert_eq!(fast.peek(&k).is_some(), slow.peek(&k).is_some())
                    }
                    _ => {
                        // Drop about 1% of the keys, by their last two digits.
                        let tail = format!("{:02}", next() % 100).into_bytes();
                        fast.purge(|k, _| k.ends_with(&tail));
                        slow.purge(|k, _| k.ends_with(&tail));
                    }
                }
                assert_eq!(fast.hand, slow.hand, "capacity {capacity} op {op}");
            }
            assert!(
                slow_victims.len() > 10_000,
                "capacity {capacity}: too few evictions"
            );
            assert_eq!(fast_victims, slow_victims, "capacity {capacity}");
            let state = |c: &IndexCache| -> Vec<(Vec<u8>, bool, u64)> {
                c.map
                    .iter()
                    .map(|(k, s)| (k.clone(), s.referenced, s.entry.fill_epoch))
                    .collect()
            };
            assert_eq!(state(&fast), state(&slow), "capacity {capacity}");
        }
    }

    #[test]
    fn bound_holds_under_churn() {
        let mut c = IndexCache::new(8, None);
        for i in 0..1000 {
            c.insert(key(i), entry(i as u64));
            assert!(c.len() <= 8, "cache exceeded bound at insert {i}");
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = IndexCache::new(0, None);
        c.insert(key(1), entry(1));
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let mut c = IndexCache::new(4, None);
        for i in 0..4 {
            c.insert(key(i), entry(i as u64));
        }
        // Keep key(1) hot through heavy churn. (key(0) sits exactly where
        // the clock hand starts, and CLOCK's first all-referenced sweep
        // legitimately evicts the hand position — so the guarantee under
        // test is "an entry re-referenced after the hand passes survives",
        // demonstrated on a key that is not the initial hand position.)
        for i in 4..20 {
            assert!(c.get(&key(1)).is_some(), "hot key evicted at round {i}");
            c.insert(key(i), entry(i as u64));
        }
        assert!(c.contains(&key(1)), "hot key should survive the churn");
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let mut c = IndexCache::new(4, None);
            for i in 0..32 {
                c.insert(key(i), entry(i as u64));
            }
            c.map.keys().cloned().collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counters_track_hits_misses_evictions_invalidations() {
        let reg = Registry::new();
        let mut c = IndexCache::new(2, Some(&reg));
        c.insert(key(0), entry(0));
        c.insert(key(1), entry(1));
        assert!(c.get(&key(0)).is_some());
        assert!(c.get(&key(9)).is_none());
        c.insert(key(2), entry(2)); // evicts one
        assert!(c.invalidate(&key(2)));
        assert!(!c.invalidate(&key(2))); // absent: not counted
        c.purge(|_, _| true);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("client.cache.hits"), Some(1));
        assert_eq!(snap.counter("client.cache.misses"), Some(1));
        assert_eq!(snap.counter("client.cache.evictions"), Some(1));
        // invalidate(key2) + purge of the single remaining entry.
        assert_eq!(snap.counter("client.cache.invalidations"), Some(2));
    }

    #[test]
    fn peek_refreshes_recency_without_counting() {
        let reg = Registry::new();
        let mut c = IndexCache::new(2, Some(&reg));
        c.insert(key(0), entry(0));
        assert!(c.peek(&key(0)).is_some());
        assert!(c.peek(&key(5)).is_none());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("client.cache.hits"), Some(0));
        assert_eq!(snap.counter("client.cache.misses"), Some(0));
    }

    #[test]
    fn shrinking_capacity_evicts_down() {
        let mut c = IndexCache::new(8, None);
        for i in 0..8 {
            c.insert(key(i), entry(i as u64));
        }
        c.set_capacity(3);
        assert_eq!(c.len(), 3);
        c.insert(key(100), entry(100));
        assert_eq!(c.len(), 3);
    }
}
