//! Registered memory regions backing each memory node.
//!
//! A region is a fixed-size array of [`AtomicU64`] words accessed at byte
//! granularity. This mirrors how an RNIC exposes host memory: ordinary
//! READ/WRITE verbs move bytes with no atomicity guarantee beyond the bus
//! word, while CAS/FAA are atomic PCIe read-modify-write transactions on
//! naturally aligned 8-byte words. Protocols that need torn-read detection
//! (the KV pair `Write Version` pairs, checkpoint snapshots of 8 B slot
//! halves) get exactly the guarantees they would get from real hardware.

use crate::error::{RdmaError, Result};
use crate::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};

/// A registered memory region: `len` bytes backed by 8-byte atomic words.
pub struct Region {
    words: Box<[AtomicU64]>,
    len: usize,
    node: NodeId,
}

impl Region {
    /// Allocates a zeroed region of `len` bytes on behalf of `node`.
    ///
    /// `len` is rounded up to a multiple of 8.
    pub fn new(node: NodeId, len: usize) -> Self {
        let words = len.div_ceil(8);
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU64::new(0));
        Region {
            words: v.into_boxed_slice(),
            len: words * 8,
            node,
        }
    }

    /// Size of the region in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the region has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check(&self, offset: u64, len: usize) -> Result<usize> {
        let off = offset as usize;
        if off.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(RdmaError::OutOfBounds {
                node: self.node,
                offset,
                len,
                region: self.len,
            });
        }
        Ok(off)
    }

    /// Reads `dst.len()` bytes starting at `offset` into `dst`.
    ///
    /// Each underlying 8-byte word is loaded atomically (Acquire), matching
    /// the per-bus-word atomicity of a real RNIC DMA read. Reads racing with
    /// concurrent writes may observe a mix of old and new words but never a
    /// torn word.
    pub fn read(&self, offset: u64, dst: &mut [u8]) -> Result<()> {
        let off = self.check(offset, dst.len())?;
        let (head, words) = split(off, dst.len());
        let (head_dst, rest) = dst.split_at_mut(head);
        if head > 0 {
            let shift = off % 8;
            let word = self.words[off / 8].load(Ordering::Acquire).to_le_bytes();
            head_dst.copy_from_slice(&word[shift..shift + head]);
        }
        let first = (off + head) / 8;
        let (body, tail) = rest.split_at_mut(words * 8);
        for (chunk, w) in body
            .chunks_exact_mut(8)
            .zip(&self.words[first..first + words])
        {
            chunk.copy_from_slice(&w.load(Ordering::Acquire).to_le_bytes());
        }
        if !tail.is_empty() {
            let word = self.words[first + words]
                .load(Ordering::Acquire)
                .to_le_bytes();
            tail.copy_from_slice(&word[..tail.len()]);
        }
        Ok(())
    }

    /// Writes `src` starting at `offset`.
    ///
    /// Whole words are stored atomically (Release); partial edge words use a
    /// CAS loop so concurrent atomics on neighbouring bytes are not clobbered.
    pub fn write(&self, offset: u64, src: &[u8]) -> Result<()> {
        let off = self.check(offset, src.len())?;
        let (head, words) = split(off, src.len());
        let (head_src, rest) = src.split_at(head);
        if head > 0 {
            self.merge(off, head_src);
        }
        let first = (off + head) / 8;
        let (body, tail) = rest.split_at(words * 8);
        for (chunk, w) in body.chunks_exact(8).zip(&self.words[first..first + words]) {
            let chunk: [u8; 8] = chunk.try_into().expect("chunks_exact yields 8 bytes");
            w.store(u64::from_le_bytes(chunk), Ordering::Release);
        }
        if !tail.is_empty() {
            self.merge((first + words) * 8, tail);
        }
        Ok(())
    }

    /// Stores `bytes` (which must not cross a word boundary) at byte `at`
    /// with a CAS merge, leaving the word's other bytes untouched.
    fn merge(&self, at: usize, bytes: &[u8]) {
        let shift = at % 8;
        let mut mask = [0u8; 8];
        let mut val = [0u8; 8];
        mask[shift..shift + bytes.len()].fill(0xFF);
        val[shift..shift + bytes.len()].copy_from_slice(bytes);
        let mask = u64::from_le_bytes(mask);
        let val = u64::from_le_bytes(val);
        let _ = self.words[at / 8].fetch_update(Ordering::AcqRel, Ordering::Acquire, |old| {
            Some((old & !mask) | val)
        });
    }

    /// Atomically compare-and-swaps the 8-byte word at `offset`.
    ///
    /// Returns the value observed before the operation; the swap succeeded
    /// iff the returned value equals `expected`, exactly like `RDMA_CAS`.
    pub fn cas64(&self, offset: u64, expected: u64, new: u64) -> Result<u64> {
        if !offset.is_multiple_of(8) {
            return Err(RdmaError::Unaligned(offset));
        }
        let off = self.check(offset, 8)?;
        match self.words[off / 8].compare_exchange(
            expected,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(prev) => Ok(prev),
            Err(prev) => Ok(prev),
        }
    }

    /// Atomically fetch-and-adds `delta` to the 8-byte word at `offset`.
    ///
    /// Returns the pre-add value, like `RDMA_FAA`.
    pub fn faa64(&self, offset: u64, delta: u64) -> Result<u64> {
        if !offset.is_multiple_of(8) {
            return Err(RdmaError::Unaligned(offset));
        }
        let off = self.check(offset, 8)?;
        Ok(self.words[off / 8].fetch_add(delta, Ordering::AcqRel))
    }

    /// Atomically loads the 8-byte word at `offset`.
    pub fn load64(&self, offset: u64) -> Result<u64> {
        if !offset.is_multiple_of(8) {
            return Err(RdmaError::Unaligned(offset));
        }
        let off = self.check(offset, 8)?;
        Ok(self.words[off / 8].load(Ordering::Acquire))
    }

    /// Atomically stores the 8-byte word at `offset`.
    pub fn store64(&self, offset: u64, value: u64) -> Result<()> {
        if !offset.is_multiple_of(8) {
            return Err(RdmaError::Unaligned(offset));
        }
        let off = self.check(offset, 8)?;
        self.words[off / 8].store(value, Ordering::Release);
        Ok(())
    }

    /// Copies `len` bytes at `offset` into a fresh vector.
    pub fn read_vec(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut v = vec![0u8; len];
        self.read(offset, &mut v)?;
        Ok(v)
    }

    /// Zeroes `len` bytes starting at `offset` (used when blocks are freed).
    pub fn zero(&self, offset: u64, len: usize) -> Result<()> {
        let off = self.check(offset, len)?;
        let (head, words) = split(off, len);
        let tail = len - head - words * 8;
        if head > 0 {
            self.merge(off, &[0u8; 8][..head]);
        }
        let first = (off + head) / 8;
        for w in &self.words[first..first + words] {
            w.store(0, Ordering::Release);
        }
        if tail > 0 {
            self.merge((first + words) * 8, &[0u8; 8][..tail]);
        }
        Ok(())
    }
}

/// Splits the byte range `[off, off + len)` into an unaligned head (the
/// bytes before the first word boundary, or all of them if the range ends
/// first) and the number of whole aligned words after it; whatever is left
/// is the unaligned tail.
fn split(off: usize, len: usize) -> (usize, usize) {
    let head = (off.wrapping_neg() % 8).min(len);
    (head, (len - head) / 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Barrier};

    fn region(len: usize) -> Region {
        Region::new(NodeId(0), len)
    }

    #[test]
    fn write_read_roundtrip_aligned() {
        let r = region(64);
        let data: Vec<u8> = (0..32).collect();
        r.write(8, &data).unwrap();
        assert_eq!(r.read_vec(8, 32).unwrap(), data);
    }

    #[test]
    fn write_read_roundtrip_unaligned() {
        let r = region(64);
        let data: Vec<u8> = (10..31).collect();
        r.write(3, &data).unwrap();
        assert_eq!(r.read_vec(3, data.len()).unwrap(), data);
    }

    #[test]
    fn unaligned_write_preserves_neighbours() {
        let r = region(32);
        r.write(0, &[0xAA; 32]).unwrap();
        r.write(5, &[0x11, 0x22]).unwrap();
        let v = r.read_vec(0, 32).unwrap();
        assert_eq!(v[4], 0xAA);
        assert_eq!(v[5], 0x11);
        assert_eq!(v[6], 0x22);
        assert_eq!(v[7], 0xAA);
    }

    #[test]
    fn cas_semantics() {
        let r = region(16);
        r.store64(8, 7).unwrap();
        assert_eq!(r.cas64(8, 7, 9).unwrap(), 7);
        assert_eq!(r.load64(8).unwrap(), 9);
        // Failed CAS returns the observed value and leaves memory unchanged.
        assert_eq!(r.cas64(8, 7, 11).unwrap(), 9);
        assert_eq!(r.load64(8).unwrap(), 9);
    }

    #[test]
    fn faa_semantics() {
        let r = region(16);
        assert_eq!(r.faa64(0, 5).unwrap(), 0);
        assert_eq!(r.faa64(0, 5).unwrap(), 5);
        assert_eq!(r.load64(0).unwrap(), 10);
    }

    #[test]
    fn atomics_reject_unaligned() {
        let r = region(16);
        assert!(matches!(r.cas64(4, 0, 1), Err(RdmaError::Unaligned(4))));
        assert!(matches!(r.faa64(1, 1), Err(RdmaError::Unaligned(1))));
    }

    #[test]
    fn bounds_checked() {
        let r = region(16);
        assert!(r.read_vec(8, 16).is_err());
        assert!(r.write(16, &[1]).is_err());
        assert!(r.load64(16).is_err());
        // Offset overflow must not wrap.
        assert!(r.read_vec(u64::MAX, 1).is_err());
    }

    #[test]
    fn zero_clears_range() {
        let r = region(64);
        r.write(0, &[0xFF; 64]).unwrap();
        r.zero(5, 20).unwrap();
        let v = r.read_vec(0, 64).unwrap();
        assert!(v[5..25].iter().all(|&b| b == 0));
        assert_eq!(v[4], 0xFF);
        assert_eq!(v[25], 0xFF);
    }

    /// `read`, `write` and `zero` against a byte-array model for every
    /// offset 0..16 × length 0..80 on an 88-byte region, so ranges end
    /// inside, exactly at, and past the last word.
    #[test]
    fn byte_ops_match_reference_model() {
        const LEN: usize = 88;
        let fresh = || {
            let model: Vec<u8> = (0..LEN)
                .map(|i| (i as u8).wrapping_mul(37) ^ 0x5A)
                .collect();
            let r = region(LEN);
            for (w, bytes) in model.chunks_exact(8).enumerate() {
                r.store64(w as u64 * 8, u64::from_le_bytes(bytes.try_into().unwrap()))
                    .unwrap();
            }
            (r, model)
        };
        let contents = |r: &Region| -> Vec<u8> {
            (0..LEN as u64 / 8)
                .flat_map(|w| r.load64(w * 8).unwrap().to_le_bytes())
                .collect()
        };
        for off in 0..16usize {
            for len in 0..80usize {
                let in_bounds = off + len <= LEN;
                let check = |res: Result<()>| match res {
                    Ok(()) => assert!(in_bounds, "off {off} len {len} accepted"),
                    Err(RdmaError::OutOfBounds {
                        offset,
                        len: l,
                        region,
                        ..
                    }) => {
                        assert!(!in_bounds, "off {off} len {len} rejected");
                        assert_eq!((offset, l, region), (off as u64, len, LEN));
                    }
                    Err(e) => panic!("off {off} len {len}: {e}"),
                };
                let (r, mut model) = fresh();

                let mut dst = vec![0xEE; len];
                check(r.read(off as u64, &mut dst));
                if in_bounds {
                    assert_eq!(dst, model[off..off + len], "read off {off} len {len}");
                }

                let src: Vec<u8> = (0..len).map(|i| 0x80 | i as u8).collect();
                check(r.write(off as u64, &src));
                if in_bounds {
                    model[off..off + len].copy_from_slice(&src);
                }
                assert_eq!(contents(&r), model, "write off {off} len {len}");

                let (r, mut model) = fresh();
                check(r.zero(off as u64, len));
                if in_bounds {
                    model[off..off + len].fill(0);
                }
                assert_eq!(contents(&r), model, "zero off {off} len {len}");
            }
        }
    }

    #[test]
    fn concurrent_read_never_sees_a_torn_word() {
        const WORDS: usize = 64;
        const A: u64 = 0x0123_4567_89AB_CDEF;
        const B: u64 = !A;
        let r = region(WORDS * 8);
        let a = A.to_le_bytes().repeat(WORDS);
        let b = B.to_le_bytes().repeat(WORDS);
        r.write(0, &a).unwrap();
        let done = AtomicBool::new(false);
        let start = Barrier::new(2);
        let torn = std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for i in 0.. {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    r.write(0, if i % 2 == 0 { &b } else { &a }).unwrap();
                }
            });
            start.wait();
            let mut buf = vec![0u8; WORDS * 8];
            let mut torn = Vec::new();
            for _ in 0..20_000 {
                r.read(0, &mut buf).unwrap();
                torn.extend(
                    buf.chunks_exact(8)
                        .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
                        .filter(|&w| w != A && w != B),
                );
            }
            // Stop the writer before judging, so a failure cannot hang.
            done.store(true, Ordering::Release);
            torn
        });
        assert!(
            torn.is_empty(),
            "torn words observed: {:x?}",
            &torn[..torn.len().min(4)]
        );
    }

    #[test]
    fn concurrent_cas_is_exclusive() {
        let r = Arc::new(region(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let mut wins = 0u64;
                    for _ in 0..10_000 {
                        let cur = r.load64(0).unwrap();
                        if r.cas64(0, cur, cur + 1).unwrap() == cur {
                            wins += 1;
                        }
                    }
                    wins
                })
            })
            .collect();
        let total: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(r.load64(0).unwrap(), total);
    }

    #[test]
    fn concurrent_faa_counts_exactly() {
        let r = Arc::new(region(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        r.faa64(0, 1).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(r.load64(0).unwrap(), 80_000);
    }
}
