//! The setup and the post-recovery judge every Aceso axis shares.
//!
//! A `Fixture` is one live chaos store plus the bookkeeping a cell needs
//! to judge it afterwards: the seeded RNG the cell's schedule draws from,
//! the oracle of acknowledged writes, the commit ambiguity windows of
//! interrupted operations, and the Index Versions snapshotted after the
//! checkpoint rounds. `Fixture::judge` then checks the invariants the
//! paper's fault-tolerance argument rests on, after tiered recovery:
//!
//! 1. **Oracle agreement** — every key reads back exactly its oracle
//!    state, or either side of its ambiguity window (the commit
//!    protocol's allowed outcomes of an interrupted op), never anything
//!    else: no acknowledged write is lost.
//! 2. **Meta-lock liveness** — a probe INSERT on every interrupted key
//!    gets through (breaking any lock a crashed client abandoned) and
//!    reads back.
//! 3. **Index-Version monotonicity** — no column's Index Version moves
//!    backwards across kill + recovery.
//! 4. **Parity consistency** — after a bitmap flush, [`scrub()`] reports
//!    every parity equation and delta pair clean, and no degraded window
//!    is left open.

use aceso_core::{recover_cn, scrub, AcesoClient, AcesoConfig, AcesoStore, ClientTuning, FtClient, StoreError};
use aceso_rdma::{RdmaError, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Store configuration for chaos cells: the `small()` topology shrunk
/// (fewer/smaller blocks, fewer index groups) so a full launch → preload →
/// crash → recover → scrub cycle stays well under a second.
pub fn chaos_config() -> AcesoConfig {
    AcesoConfig {
        block_size: 16 << 10,
        num_arrays: 4,
        num_delta: 12,
        index_groups: 128,
        bitmap_flush_every: 16,
        ..AcesoConfig::small()
    }
}

/// The client tuning of every client that runs under a fault: it fails
/// fast when a column dies, so a blocked operation costs a cell
/// milliseconds, not the production 10 s grace window. Budgets multiply:
/// every commit retry re-enters the index wait, so a blocked op costs at
/// most ~`max_retries × index_wait_ms`.
pub fn fail_fast() -> ClientTuning {
    ClientTuning {
        max_retries: 40,
        index_wait_ms: 5,
        ..ClientTuning::default()
    }
}

/// Human-readable labels of the four invariant classes, indexed like the
/// timings `Fixture::judge` returns.
pub const INVARIANT_CLASSES: [&str; 4] = [
    "oracle-agreement",
    "meta-lock-liveness",
    "iv-monotonicity",
    "parity-scrub",
];

/// A commit ambiguity window: the pre-op and the intended post-op state
/// of an interrupted key (`None` = absent). Either may survive recovery.
pub type Window = (Option<Vec<u8>>, Option<Vec<u8>>);

/// Deterministic value generator: length and bytes come from the cell's
/// seeded RNG, the first byte tags the generation for readable mismatches.
pub(crate) fn gen_value(rng: &mut StdRng, tag: u8) -> Vec<u8> {
    let len = rng.gen_range(24usize..96);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v[0] = tag;
    v
}

pub(crate) fn fmt_key(k: &[u8]) -> String {
    String::from_utf8_lossy(k).into_owned()
}

pub(crate) fn fmt_state(s: &Option<Vec<u8>>) -> String {
    match s {
        None => "absent".into(),
        Some(v) => format!("{}…[{}]", fmt_key(&v[..v.len().min(8)]), v.len()),
    }
}

/// Milliseconds since `t`, resetting `t` to now (phase-clock helper).
pub(crate) fn take_ms(t: &mut Instant) -> f64 {
    let e = t.elapsed().as_secs_f64() * 1e3;
    *t = Instant::now();
    e
}

/// Whether `e` writes its client off as crashed mid-op: a crash point
/// fired (`Shutdown`), an injected verb failed, or — while an MN kill is
/// armed — the client's MN died under the op and nobody has recovered it
/// yet (crashed-while-blocked). Any other error is a finding.
pub(crate) fn written_off(e: &StoreError, kill_armed: bool) -> bool {
    match e {
        StoreError::Shutdown | StoreError::Rdma(RdmaError::Injected { .. }) => true,
        StoreError::Rdma(RdmaError::NodeUnreachable(_)) | StoreError::RetriesExhausted => kill_armed,
        _ => false,
    }
}

/// A client the oracle checks read and write through: the Aceso client
/// and every [`aceso_core::FtEngine`] client.
pub(crate) trait Kv {
    /// SEARCH.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String>;
    /// INSERT (an upsert on every engine).
    fn put(&mut self, key: &[u8], val: &[u8]) -> Result<(), String>;
}

impl Kv for AcesoClient {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.search(key).map_err(|e| e.to_string())
    }
    fn put(&mut self, key: &[u8], val: &[u8]) -> Result<(), String> {
        self.insert(key, val).map_err(|e| e.to_string())
    }
}

impl Kv for dyn FtClient {
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.search(key).map_err(|e| e.to_string())
    }
    fn put(&mut self, key: &[u8], val: &[u8]) -> Result<(), String> {
        self.insert(key, val).map_err(|e| e.to_string())
    }
}

/// The model of acknowledged writes a cell is judged against.
#[derive(Default)]
pub(crate) struct Oracle {
    /// Exact predicted store state outside the ambiguity windows.
    pub values: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Ambiguity windows of interrupted ops, by key.
    pub windows: BTreeMap<Vec<u8>, Window>,
}

impl Oracle {
    /// The predicted state of `key` outside any window.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.values.get(key).cloned()
    }

    /// An acknowledged op left `key` holding `val` (`None` = absent); any
    /// window on it closes.
    pub fn commit(&mut self, key: &[u8], val: Option<Vec<u8>>) {
        self.windows.remove(key);
        match val {
            Some(v) => self.values.insert(key.to_vec(), v),
            None => self.values.remove(key),
        };
    }

    /// An op that meant to leave `intended` under `key` was interrupted:
    /// either that or the current state may survive recovery.
    pub fn interrupt(&mut self, key: &[u8], intended: Option<Vec<u8>>) {
        self.windows.insert(key.to_vec(), (self.get(key), intended));
    }

    /// Checks one read of `key`: outside a window it must return the
    /// predicted state; inside one either side, and the read pins the
    /// state the window collapsed to.
    pub fn check_read(&mut self, key: &[u8], got: Option<Vec<u8>>) -> Result<(), String> {
        let res = match self.windows.get(key) {
            None if got == self.get(key) => Ok(()),
            None => Err(format!("got {} want {}", fmt_state(&got), fmt_state(&self.get(key)))),
            Some((pre, post)) if got == *pre || got == *post => Ok(()),
            Some((pre, post)) => Err(format!(
                "got {} allowed {} | {}",
                fmt_state(&got),
                fmt_state(pre),
                fmt_state(post)
            )),
        };
        if self.windows.contains_key(key) {
            self.commit(key, got);
        }
        res
    }

    /// Oracle agreement: reads `keys` in order through `kv`, checking each
    /// (see `Oracle::check_read`).
    pub fn check_all<'a>(
        &mut self,
        kv: &mut (impl Kv + ?Sized),
        keys: impl IntoIterator<Item = &'a [u8]>,
        violations: &mut Vec<String>,
    ) {
        for k in keys {
            match kv.get(k).map(|got| self.check_read(k, got)) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => violations.push(format!("oracle mismatch on {}: {e}", fmt_key(k))),
                Err(e) => violations.push(format!("oracle search {}: {e}", fmt_key(k))),
            }
        }
    }
}

/// Meta-lock liveness: a seeded probe write on each of `keys` must get
/// through (breaking any lock a crashed client abandoned) and read back.
pub(crate) fn probe(
    kv: &mut (impl Kv + ?Sized),
    rng: &mut StdRng,
    keys: &[Vec<u8>],
    violations: &mut Vec<String>,
) {
    for k in keys {
        let probe = gen_value(rng, b'P');
        match kv.put(k, &probe).and_then(|()| kv.get(k)) {
            Ok(Some(got)) if got == probe => {}
            Ok(got) => violations.push(format!(
                "probe readback mismatch on {}: got {}",
                fmt_key(k),
                fmt_state(&got)
            )),
            Err(e) => violations.push(format!(
                "probe on {} blocked (abandoned lock?): {e}",
                fmt_key(k)
            )),
        }
    }
}

/// One live chaos store and the state its judge needs. Dropping the
/// fixture shuts the store down.
pub(crate) struct Fixture {
    /// The store under test.
    pub store: Arc<AcesoStore>,
    /// The cell's seeded RNG (values, victims, probes).
    pub rng: StdRng,
    /// Acknowledged writes and ambiguity windows.
    pub oracle: Oracle,
    /// Per-column Index Versions after the checkpoint rounds.
    iv_pre: Vec<u64>,
}

impl Fixture {
    /// Launches the chaos store with `sink` (if any) installed; nothing
    /// is preloaded yet.
    pub fn launch(seed: u64, sink: Option<Arc<dyn TraceSink>>) -> Result<Self, String> {
        let store = AcesoStore::launch(chaos_config()).map_err(|e| format!("launch: {e}"))?;
        if let Some(s) = sink {
            store.cluster.install_trace_sink(s);
        }
        Ok(Fixture {
            store,
            rng: StdRng::seed_from_u64(seed),
            oracle: Oracle::default(),
            iv_pre: Vec::new(),
        })
    }

    /// The shared setup: `Fixture::launch`, preload `keys` through a
    /// loader client, close (= erasure-code) its open blocks so every
    /// column has coded stripes to lose, then `Fixture::checkpoint`.
    pub fn new(
        seed: u64,
        sink: Option<Arc<dyn TraceSink>>,
        keys: impl IntoIterator<Item = Vec<u8>>,
    ) -> Result<Self, String> {
        let mut fx = Fixture::launch(seed, sink)?;
        let mut loader = fx.store.client().map_err(|e| format!("loader: {e}"))?;
        fx.preload(&mut loader, keys)?;
        loader
            .close_open_blocks()
            .map_err(|e| format!("preload close: {e}"))?;
        drop(loader);
        fx.checkpoint()?;
        Ok(fx)
    }

    /// Inserts a seeded value under each of `keys` through `client` and
    /// records it in the oracle.
    pub fn preload(
        &mut self,
        client: &mut AcesoClient,
        keys: impl IntoIterator<Item = Vec<u8>>,
    ) -> Result<(), String> {
        for k in keys {
            let v = gen_value(&mut self.rng, b'A');
            client
                .insert(&k, &v)
                .map_err(|e| format!("preload {}: {e}", fmt_key(&k)))?;
            self.oracle.values.insert(k, v);
        }
        Ok(())
    }

    /// Two checkpoint rounds, so every column has a restorable checkpoint
    /// and a non-trivial Index Version to regress from, then the Index
    /// Version snapshot the judge compares against. Both ends are
    /// barrier edges in the verb trace.
    pub fn checkpoint(&mut self) -> Result<(), String> {
        self.store.cluster.trace_barrier();
        for _ in 0..2 {
            self.store
                .checkpoint_tick()
                .map_err(|e| format!("ckpt: {e}"))?;
        }
        self.store.cluster.trace_barrier();
        self.iv_pre = (0..self.store.cfg.num_mns).map(|c| self.iv(c)).collect();
        Ok(())
    }

    fn iv(&self, col: usize) -> u64 {
        let s = self.store.server(col);
        s.index.local_index_version(&s.node.region)
    }

    /// CN consistency recovery (§3.4) of the written-off client `cli_id`.
    pub fn recover_cn(&self, cli_id: u32) -> Result<(), String> {
        let mut revived = self.store.client_with_id(cli_id);
        recover_cn(&self.store, &mut revived)
            .map(|_| ())
            .map_err(|e| format!("recover_cn({cli_id}): {e}"))
    }

    /// Checks the four invariant classes (module docs) through a fresh
    /// client, pushing every violation. Oracle agreement reads every
    /// oracle and window key in key order, then the `extra` keys in the
    /// given order (a key the oracle does not know must read back
    /// absent); the liveness probe writes `probes` in order. Returns the
    /// wall time of each class, indexed like [`INVARIANT_CLASSES`].
    pub fn judge(
        &mut self,
        probes: &[Vec<u8>],
        extra: &[&[u8]],
        violations: &mut Vec<String>,
    ) -> Result<[f64; 4], String> {
        let mut clock = Instant::now();
        let mut ms = [0.0; 4];
        let mut sweep = self
            .store
            .client()
            .map_err(|e| format!("sweep client: {e}"))?;

        // 1. Oracle agreement, with the ambiguity windows.
        let mut keys: Vec<Vec<u8>> = self.oracle.values.keys().chain(self.oracle.windows.keys()).cloned().collect();
        keys.sort_unstable();
        keys.dedup();
        keys.retain(|k| !extra.contains(&k.as_slice()));
        let keys = keys.iter().map(Vec::as_slice).chain(extra.iter().copied());
        self.oracle.check_all(&mut sweep, keys, violations);
        ms[0] = take_ms(&mut clock);

        // 2. Meta-lock liveness on every interrupted key.
        probe(&mut sweep, &mut self.rng, probes, violations);
        ms[1] = take_ms(&mut clock);

        // 3. Index-Version monotonicity across kill + recovery. Columns
        //    are stable across migrations (the directory re-homes them),
        //    so the comparison is per column.
        for (col, pre) in self.iv_pre.iter().enumerate() {
            let post = self.iv(col);
            if post < *pre {
                violations.push(format!("index version regressed on col {col}: {pre} -> {post}"));
            }
        }
        ms[2] = take_ms(&mut clock);

        // 4. Parity-stripe consistency after full recovery, and no
        //    degraded window left open.
        if let Err(e) = sweep.flush_bitmaps() {
            violations.push(format!("final flush: {e}"));
        }
        self.store.cluster.trace_barrier();
        match scrub(&self.store) {
            Ok(r) if r.is_clean() => {}
            Ok(r) => violations.push(format!("scrub dirty: {r:?}")),
            Err(e) => violations.push(format!("scrub: {e}")),
        }
        let degraded = self.store.degraded_columns();
        if !degraded.is_empty() {
            violations.push(format!("degraded windows left open: {degraded:?}"));
        }
        ms[3] = take_ms(&mut clock);
        Ok(ms)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.store.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A killed column whose recovery stopped after the Index tier (its
    /// Block tier never ran) leaves its degraded window open, and the
    /// judge must say so: the crash matrix and the runtime axis did not
    /// check this before the judge was shared.
    #[test]
    fn judge_reports_unrecovered_column() {
        let keys = (0..8).map(|j| format!("jk-{j}").into_bytes());
        let mut fx = Fixture::new(3, None, keys).unwrap();
        assert!(fx.store.kill_mn(1));
        aceso_core::recover_mn_with(&fx.store, 1, false).unwrap();
        let mut violations = Vec::new();
        fx.judge(&[], &[], &mut violations).unwrap();
        assert!(
            violations.iter().any(|v| v.starts_with("degraded windows left open")),
            "{violations:?}"
        );
    }
}
