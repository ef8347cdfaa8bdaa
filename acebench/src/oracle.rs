//! The correctness oracle: each key's last acknowledged version.
//!
//! Every write stores `value_for(key, version, len)` with a version that
//! grows on every op, so a read can be judged exactly: it must return the
//! bytes of the key's last acknowledged version, or nothing if the last
//! acknowledged write was a DELETE.

use aceso_core::AcesoClient;
use aceso_workloads::value_for;
use std::collections::HashMap;

/// What the store must hold for one key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// The value written at this version (0 = the preload).
    Live(u64),
    /// Deleted by an acknowledged DELETE.
    Deleted,
    /// A write to it errored, so either outcome is allowed until the next
    /// acknowledged write.
    Unknown,
}

/// Outcome of one judged read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The read matched the oracle (or the key was [`Expect::Unknown`]).
    Ok,
    /// The read returned another value, or nothing, or a value where the
    /// key is deleted.
    Stale,
}

/// Per-key expectations plus the value length every write uses.
pub struct Oracle {
    keys: HashMap<Vec<u8>, Expect>,
    value_len: usize,
}

/// Counts from one sweep over every key the oracle knows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Reads made.
    pub reads: u64,
    /// Reads that errored or did not match.
    pub failed: u64,
    /// Failed reads of keys written after the preload (acknowledged
    /// writes that did not survive).
    pub lost_writes: u64,
    /// Keys written after the preload.
    pub written: u64,
}

impl Oracle {
    /// An empty oracle for values of `value_len` bytes.
    pub fn new(value_len: usize) -> Self {
        Oracle {
            keys: HashMap::new(),
            value_len,
        }
    }

    /// The value every write of `key` at `version` stores.
    pub fn value(&self, key: &[u8], version: u64) -> Vec<u8> {
        value_for(key, version, self.value_len)
    }

    /// Records an acknowledged write (`None` = DELETE) or an errored one.
    pub fn set(&mut self, key: &[u8], expect: Expect) {
        self.keys.insert(key.to_vec(), expect);
    }

    /// Whether the oracle holds `key` as live.
    pub fn is_live(&self, key: &[u8]) -> bool {
        matches!(self.keys.get(key), Some(Expect::Live(_)))
    }

    /// Whether an acknowledged DELETE's "existed" answer is consistent.
    pub fn judge_delete(&self, key: &[u8], existed: bool) -> Verdict {
        match self.keys.get(key) {
            Some(Expect::Unknown) => Verdict::Ok,
            _ if existed == self.is_live(key) => Verdict::Ok,
            _ => Verdict::Stale,
        }
    }

    /// Judges a SEARCH result for `key`.
    pub fn judge(&self, key: &[u8], got: Option<&[u8]>) -> Verdict {
        let ok = match (self.keys.get(key), got) {
            (Some(Expect::Unknown), _) => true,
            (Some(Expect::Live(v)), Some(bytes)) => bytes == self.value(key, *v).as_slice(),
            (Some(Expect::Deleted) | None, None) => true,
            _ => false,
        };
        if ok {
            Verdict::Ok
        } else {
            Verdict::Stale
        }
    }

    /// Reads every known key, in sorted order, through `client` and
    /// judges each read.
    pub fn sweep(&self, client: &mut AcesoClient) -> SweepReport {
        let mut keys: Vec<(&Vec<u8>, &Expect)> = self.keys.iter().collect();
        keys.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut rep = SweepReport::default();
        for (key, expect) in keys {
            let written = *expect != Expect::Live(0);
            rep.written += written as u64;
            rep.reads += 1;
            let verdict = match client.search(key) {
                Ok(got) => self.judge(key, got.as_deref()),
                Err(_) => Verdict::Stale,
            };
            if verdict == Verdict::Stale {
                rep.failed += 1;
                rep.lost_writes += written as u64;
            }
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_a_stale_value() {
        let mut o = Oracle::new(32);
        o.set(b"k", Expect::Live(7));
        assert_eq!(o.judge(b"k", Some(&o.value(b"k", 7))), Verdict::Ok);
        assert_eq!(o.judge(b"k", Some(&o.value(b"k", 6))), Verdict::Stale);
        assert_eq!(o.judge(b"k", None), Verdict::Stale);
        o.set(b"k", Expect::Deleted);
        assert_eq!(o.judge(b"k", None), Verdict::Ok);
        assert_eq!(o.judge(b"k", Some(&o.value(b"k", 7))), Verdict::Stale);
        assert_eq!(o.judge_delete(b"k", true), Verdict::Stale);
        o.set(b"k", Expect::Unknown);
        assert_eq!(o.judge(b"k", Some(b"anything")), Verdict::Ok);
    }

    #[test]
    fn sweep_flags_a_write_the_oracle_did_not_acknowledge() {
        let store = aceso_core::AcesoStore::launch(aceso_core::AcesoConfig::small()).unwrap();
        let mut client = store.client().unwrap();
        let mut o = Oracle::new(32);
        for (i, key) in [b"a".as_slice(), b"b", b"c"].into_iter().enumerate() {
            client.insert(key, &o.value(key, i as u64)).unwrap();
            o.set(key, Expect::Live(i as u64));
        }
        assert_eq!(o.sweep(&mut store.client().unwrap()).failed, 0);
        // Roll `b` back to an older version behind the oracle's back.
        client.update(b"b", &o.value(b"b", 0)).unwrap();
        let rep = o.sweep(&mut store.client().unwrap());
        assert_eq!((rep.reads, rep.failed, rep.lost_writes), (3, 1, 1));
        store.shutdown();
    }
}
