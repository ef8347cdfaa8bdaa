//! Client- and server-side operations on one MN's index partition.
//!
//! Clients touch the index exclusively through one-sided verbs: a SEARCH
//! reads the key's two combined buckets with one doorbell batch; commits CAS
//! the slot's Atomic word; epoch rollovers CAS the Meta word (Algorithm 1
//! lives in `aceso-core`, built on these primitives). The MN server
//! additionally gets zero-cost local accessors used by checkpointing and
//! recovery.

use crate::layout::{IndexLayout, BUCKET_SLOTS, COMBINED_BYTES, COMBINED_SLOTS};
use crate::slot::{SlotAtomic, SlotMeta, SLOT_BYTES};
use aceso_rdma::{DmClient, GlobalAddr, NodeId, Region, Result};

/// A decoded slot plus the global address of its Atomic word.
#[derive(Clone, Copy, Debug)]
pub struct SlotRef {
    /// Global address of the slot's Atomic word.
    pub addr: GlobalAddr,
    /// Decoded Atomic half.
    pub atomic: SlotAtomic,
    /// Decoded Meta half.
    pub meta: SlotMeta,
}

impl SlotRef {
    /// Global address of the slot's Meta word.
    pub fn meta_addr(&self) -> GlobalAddr {
        self.addr.add(8)
    }
}

/// Result of scanning a key's two combined buckets.
#[derive(Clone, Debug, Default)]
pub struct BucketScan {
    /// Slots whose fingerprint matches the key, in deterministic scan order
    /// (callers must still verify the full key against the KV pair).
    pub matches: Vec<SlotRef>,
    /// Empty slots, in scan order (insert targets).
    pub empties: Vec<GlobalAddr>,
}

/// One MN's index partition.
#[derive(Clone, Copy, Debug)]
pub struct RemoteIndex {
    /// The node holding this partition.
    pub node: NodeId,
    /// Its geometry.
    pub layout: IndexLayout,
}

impl RemoteIndex {
    /// Creates a handle for the partition on `node` with `layout`.
    pub fn new(node: NodeId, layout: IndexLayout) -> Self {
        RemoteIndex { node, layout }
    }

    /// Reads the key's two combined buckets (one doorbell batch of two
    /// `RDMA_READ`s) and classifies their slots.
    pub fn scan(&self, dm: &DmClient, key: &[u8], fp: u8) -> Result<BucketScan> {
        let coords = self.layout.buckets_for(key);
        let mut bufs = [[0u8; COMBINED_BYTES as usize]; 2];
        dm.batch(|dm| -> Result<()> {
            for (buf, &(g, c)) in bufs.iter_mut().zip(&coords) {
                let off = self.layout.combined_offset(g, c);
                dm.read(GlobalAddr::new(self.node, off), buf)?;
            }
            Ok(())
        })?;

        // Both hashes in one group: the second combined bucket opens with
        // the shared overflow bucket the first one already ended with.
        let shared = if coords[0].0 == coords[1].0 {
            BUCKET_SLOTS
        } else {
            0
        };
        let mut scan = BucketScan {
            matches: Vec::new(),
            empties: Vec::with_capacity(2 * COMBINED_SLOTS as usize),
        };
        for (i, (buf, &(g, c))) in bufs.iter().zip(&coords).enumerate() {
            let first = if i == 0 { 0 } else { shared };
            for s in first..COMBINED_SLOTS {
                let b = &buf[(s * SLOT_BYTES) as usize..][..SLOT_BYTES as usize];
                let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
                let atomic = SlotAtomic::decode(word(0));
                let addr = GlobalAddr::new(self.node, self.layout.slot_offset(g, c, s));
                if atomic.is_empty() {
                    scan.empties.push(addr);
                } else if atomic.fp == fp {
                    let meta = SlotMeta::decode(word(8));
                    scan.matches.push(SlotRef { addr, atomic, meta });
                }
            }
        }
        Ok(scan)
    }

    /// Re-reads one slot (16 B `RDMA_READ`).
    pub fn read_slot(&self, dm: &DmClient, addr: GlobalAddr) -> Result<SlotRef> {
        let b = dm.read_vec(addr, SLOT_BYTES as usize)?;
        Ok(SlotRef {
            addr,
            atomic: SlotAtomic::decode(u64::from_le_bytes(b[..8].try_into().unwrap())),
            meta: SlotMeta::decode(u64::from_le_bytes(b[8..].try_into().unwrap())),
        })
    }

    /// CAS on a slot's Atomic word. Returns the observed previous value;
    /// the commit succeeded iff it equals `old`.
    pub fn cas_atomic(
        &self,
        dm: &DmClient,
        addr: GlobalAddr,
        old: SlotAtomic,
        new: SlotAtomic,
    ) -> Result<SlotAtomic> {
        Ok(SlotAtomic::decode(dm.cas(
            addr,
            old.encode(),
            new.encode(),
        )?))
    }

    /// CAS on a slot's Meta word (epoch lock protocol). `addr` is the
    /// *Atomic* word's address; the Meta word sits 8 bytes past it.
    pub fn cas_meta(
        &self,
        dm: &DmClient,
        addr: GlobalAddr,
        old: SlotMeta,
        new: SlotMeta,
    ) -> Result<SlotMeta> {
        Ok(SlotMeta::decode(dm.cas(
            addr.add(8),
            old.encode(),
            new.encode(),
        )?))
    }

    /// Overwrites a slot's Meta word with a plain 8 B write (used for the
    /// `len` refresh when a client detects a stale length, §3.2.2).
    pub fn write_meta(&self, dm: &DmClient, addr: GlobalAddr, meta: SlotMeta) -> Result<()> {
        dm.write_inline(addr.add(8), &meta.encode().to_le_bytes())
    }

    /// Reads the partition's Index Version word.
    pub fn index_version(&self, dm: &DmClient) -> Result<u64> {
        dm.read_u64(GlobalAddr::new(
            self.node,
            self.layout.index_version_offset(),
        ))
    }

    // ---- Server-side (local, zero network cost) accessors. ----

    /// Local read of the Index Version by the MN's own server.
    pub fn local_index_version(&self, region: &Region) -> u64 {
        region
            .load64(self.layout.index_version_offset())
            .expect("index version in range")
    }

    /// Local bump of the Index Version after a checkpoint round (§3.2.3).
    pub fn local_set_index_version(&self, region: &Region, v: u64) {
        region
            .store64(self.layout.index_version_offset(), v)
            .expect("index version in range");
    }

    /// Snapshot of the raw bucket bytes (excluding the Index Version word).
    ///
    /// Concurrent `RDMA_CAS` commits stay word-atomic against this copy, so
    /// the snapshot never contains a torn Atomic or Meta word — the property
    /// §3.2.1 derives from PCIe read-modify-write semantics.
    pub fn snapshot(&self, region: &Region) -> Vec<u8> {
        region
            .read_vec(self.layout.base, (self.layout.num_groups * 384) as usize)
            .expect("index area in range")
    }

    /// Writes raw bucket bytes back (recovery restoring a checkpoint).
    pub fn restore(&self, region: &Region, bytes: &[u8]) {
        assert_eq!(bytes.len() as u64, self.layout.num_groups * 384);
        region
            .write(self.layout.base, bytes)
            .expect("index area in range");
    }

    /// Iterates every slot in a raw snapshot, yielding
    /// `(group, slot_in_group, SlotAtomic, SlotMeta)`.
    pub fn slots_in_snapshot<'a>(
        &self,
        snap: &'a [u8],
    ) -> impl Iterator<Item = (u64, u64, SlotAtomic, SlotMeta)> + 'a {
        let groups = self.layout.num_groups;
        (0..groups).flat_map(move |g| {
            (0..24u64).map(move |s| {
                let off = (g * 384 + s * SLOT_BYTES) as usize;
                let a =
                    SlotAtomic::decode(u64::from_le_bytes(snap[off..off + 8].try_into().unwrap()));
                let m = SlotMeta::decode(u64::from_le_bytes(
                    snap[off + 8..off + 16].try_into().unwrap(),
                ));
                (g, s, a, m)
            })
        })
    }

    /// Address of the slot at `(group, slot_in_group)` (inverse of the
    /// coordinates produced by [`RemoteIndex::slots_in_snapshot`]).
    pub fn slot_addr(&self, group: u64, slot_in_group: u64) -> GlobalAddr {
        GlobalAddr::new(
            self.node,
            self.layout.base + group * 384 + slot_in_group * SLOT_BYTES,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fingerprint;
    use aceso_rdma::{Cluster, ClusterConfig, CostModel};
    use std::sync::Arc;

    fn setup() -> (Arc<Cluster>, RemoteIndex) {
        let cluster = Cluster::new(ClusterConfig {
            num_mns: 1,
            region_len: 1 << 20,
            cost: CostModel::default(),
        });
        let idx = RemoteIndex::new(NodeId(0), IndexLayout::new(0, 64));
        (cluster, idx)
    }

    #[test]
    fn scan_empty_index() {
        let (c, idx) = setup();
        let dm = c.client();
        let scan = idx.scan(&dm, b"nothing", fingerprint(b"nothing")).unwrap();
        assert!(scan.matches.is_empty());
        // Two combined buckets of 16 slots, minus shared-overflow dedup.
        assert!(scan.empties.len() >= 24 && scan.empties.len() <= 32);
    }

    /// The scan as first written: both combined buckets slot by slot,
    /// skipping any slot offset already visited. `scan` must agree with it
    /// on which slots it reports and in what order.
    fn reference_scan(
        idx: &RemoteIndex,
        region: &Region,
        key: &[u8],
        fp: u8,
    ) -> (Vec<GlobalAddr>, Vec<GlobalAddr>) {
        let (mut matches, mut empties, mut seen) = (Vec::new(), Vec::new(), Vec::new());
        for (g, c) in idx.layout.buckets_for(key) {
            for s in 0..COMBINED_SLOTS {
                let off = idx.layout.slot_offset(g, c, s);
                if seen.contains(&off) {
                    continue;
                }
                seen.push(off);
                let atomic = SlotAtomic::decode(region.load64(off).unwrap());
                let addr = GlobalAddr::new(idx.node, off);
                if atomic.is_empty() {
                    empties.push(addr);
                } else if atomic.fp == fp {
                    matches.push(addr);
                }
            }
        }
        (matches, empties)
    }

    fn distinct(addrs: &[GlobalAddr]) -> usize {
        let mut offs: Vec<u64> = addrs.iter().map(|a| a.offset).collect();
        offs.sort_unstable();
        offs.dedup();
        offs.len()
    }

    #[test]
    fn one_group_scan_visits_each_of_its_24_slots_once() {
        let cluster = Cluster::new(ClusterConfig {
            num_mns: 1,
            region_len: 4096,
            cost: CostModel::default(),
        });
        let idx = RemoteIndex::new(NodeId(0), IndexLayout::new(0, 1));
        let dm = cluster.client();
        let region = &cluster.node(NodeId(0)).unwrap().region;
        let key = b"shared-group";
        let fp = fingerprint(key);
        let scan = idx.scan(&dm, key, fp).unwrap();
        assert_eq!((scan.empties.len(), distinct(&scan.empties)), (24, 24));
        assert_eq!(scan.empties, reference_scan(&idx, region, key, fp).1);
        // Fill every slot with a fingerprint match: now all 24 are matches.
        for s in 0..24 {
            let a = SlotAtomic {
                fp,
                addr48: 64 * (s + 1),
                ver: 1,
            };
            region.store64(s * SLOT_BYTES, a.encode()).unwrap();
        }
        let scan = idx.scan(&dm, key, fp).unwrap();
        let addrs: Vec<GlobalAddr> = scan.matches.iter().map(|m| m.addr).collect();
        assert!(scan.empties.is_empty());
        assert_eq!((addrs.len(), distinct(&addrs)), (24, 24));
        assert_eq!(addrs, reference_scan(&idx, region, key, fp).0);
    }

    #[test]
    fn scan_agrees_with_reference_order() {
        let mut rng: u64 = 0x5eed;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for groups in [1, 2, 64] {
            let (cluster, _) = setup();
            let idx = RemoteIndex::new(NodeId(0), IndexLayout::new(0, groups));
            let dm = cluster.client();
            let region = &cluster.node(NodeId(0)).unwrap().region;
            // A third of the slots empty, a third carrying fingerprint 7,
            // the rest another fingerprint; every Meta word distinct.
            for slot in 0..groups * 24 {
                let fp = match next() % 3 {
                    0 => continue,
                    1 => 7,
                    _ => 8 + (next() % 200) as u8,
                };
                let a = SlotAtomic {
                    fp,
                    addr48: 64 * (slot + 1),
                    ver: 1,
                };
                let m = SlotMeta {
                    len64: 1,
                    epoch: 2 * slot,
                };
                let at = slot * SLOT_BYTES;
                region.store64(at, a.encode()).unwrap();
                region.store64(at + 8, m.encode()).unwrap();
            }
            for k in 0..300 {
                let key = format!("key-{k}").into_bytes();
                let scan = idx.scan(&dm, &key, 7).unwrap();
                let (matches, empties) = reference_scan(&idx, region, &key, 7);
                let addrs: Vec<GlobalAddr> = scan.matches.iter().map(|m| m.addr).collect();
                assert_eq!(addrs, matches, "groups {groups} key {k}");
                assert_eq!(scan.empties, empties, "groups {groups} key {k}");
                for m in &scan.matches {
                    let meta = SlotMeta::decode(region.load64(m.addr.offset + 8).unwrap());
                    assert_eq!(m.meta, meta);
                }
            }
        }
    }

    #[test]
    fn cas_then_scan_finds_match() {
        let (c, idx) = setup();
        let dm = c.client();
        let key = b"hello";
        let fp = fingerprint(key);
        let scan = idx.scan(&dm, key, fp).unwrap();
        let target = scan.empties[0];
        let new = SlotAtomic {
            fp,
            addr48: GlobalAddr::new(NodeId(0), 1 << 19).pack48(),
            ver: 1,
        };
        let prev = idx
            .cas_atomic(&dm, target, SlotAtomic::default(), new)
            .unwrap();
        assert!(prev.is_empty());

        let scan2 = idx.scan(&dm, key, fp).unwrap();
        assert_eq!(scan2.matches.len(), 1);
        assert_eq!(scan2.matches[0].atomic, new);
        assert_eq!(scan2.matches[0].addr, target);
    }

    #[test]
    fn failed_cas_reports_observed() {
        let (c, idx) = setup();
        let dm = c.client();
        let addr = idx.slot_addr(0, 0);
        let a1 = SlotAtomic {
            fp: 3,
            addr48: 64,
            ver: 1,
        };
        idx.cas_atomic(&dm, addr, SlotAtomic::default(), a1)
            .unwrap();
        // Stale expectation fails and reports a1.
        let a2 = SlotAtomic {
            fp: 3,
            addr48: 128,
            ver: 2,
        };
        let seen = idx
            .cas_atomic(&dm, addr, SlotAtomic::default(), a2)
            .unwrap();
        assert_eq!(seen, a1);
        assert_eq!(idx.read_slot(&dm, addr).unwrap().atomic, a1);
    }

    #[test]
    fn meta_lock_roundtrip() {
        let (c, idx) = setup();
        let dm = c.client();
        let addr = idx.slot_addr(2, 5);
        let m0 = SlotMeta::default();
        let locked = SlotMeta { len64: 0, epoch: 1 };
        let seen = idx.cas_meta(&dm, addr, m0, locked).unwrap();
        assert_eq!(seen, m0);
        assert!(idx.read_slot(&dm, addr).unwrap().meta.is_locked());
        let unlocked = SlotMeta { len64: 0, epoch: 2 };
        idx.cas_meta(&dm, addr, locked, unlocked).unwrap();
        assert!(!idx.read_slot(&dm, addr).unwrap().meta.is_locked());
    }

    #[test]
    fn snapshot_sees_committed_slots() {
        let (c, idx) = setup();
        let dm = c.client();
        let addr = idx.slot_addr(1, 3);
        let a = SlotAtomic {
            fp: 9,
            addr48: 64,
            ver: 7,
        };
        idx.cas_atomic(&dm, addr, SlotAtomic::default(), a).unwrap();
        let region = &c.node(NodeId(0)).unwrap().region;
        let snap = idx.snapshot(region);
        let found: Vec<_> = idx
            .slots_in_snapshot(&snap)
            .filter(|(_, _, at, _)| !at.is_empty())
            .collect();
        assert_eq!(found.len(), 1);
        let (g, s, at, _) = found[0];
        assert_eq!((g, s), (1, 3));
        assert_eq!(at, a);
        assert_eq!(idx.slot_addr(g, s), addr);
    }

    #[test]
    fn index_version_local_and_remote_agree() {
        let (c, idx) = setup();
        let dm = c.client();
        let region = &c.node(NodeId(0)).unwrap().region;
        assert_eq!(idx.index_version(&dm).unwrap(), 0);
        idx.local_set_index_version(region, 42);
        assert_eq!(idx.index_version(&dm).unwrap(), 42);
        assert_eq!(idx.local_index_version(region), 42);
    }

    #[test]
    fn restore_roundtrips_snapshot() {
        let (c, idx) = setup();
        let dm = c.client();
        idx.cas_atomic(
            &dm,
            idx.slot_addr(5, 11),
            SlotAtomic::default(),
            SlotAtomic {
                fp: 1,
                addr48: 64,
                ver: 3,
            },
        )
        .unwrap();
        let region = &c.node(NodeId(0)).unwrap().region;
        let snap = idx.snapshot(region);
        region.zero(0, snap.len()).unwrap();
        assert!(idx.snapshot(region).iter().all(|&b| b == 0));
        idx.restore(region, &snap);
        assert_eq!(idx.snapshot(region), snap);
    }
}
