//! `chaos cache` — the stale-index-cache fault axis.
//!
//! The crash matrix arms its faults *inside* one operation; this axis
//! attacks the gap the client index cache opens *between* operations: a
//! cache entry is filled, the node it points at dies (or the client
//! itself crashes with a hot cache), recovery re-homes the data — and
//! only then is the entry used. Before PR 10 nothing exercised that
//! fill→kill→recover→use window end to end.
//!
//! Two kills × the cache-consulting operations:
//!
//! * [`CacheKill::Mn`] — the index column of a cached key is killed
//!   **between cache fill and use**. The victim client then runs one
//!   operation against the dead column through its stale entry (it may
//!   fail fast — that is written off like a blocked client in the
//!   matrix), CN consistency recovery runs if it was interrupted, and MN
//!   recovery rebuilds the column.
//! * [`CacheKill::Cn`] — a client **with a hot cache** crashes at
//!   [`CrashPoint::BeforeCommit`] mid-mutation and CN recovery repairs
//!   its in-flight op.
//!
//! Post-conditions are the shared judge's ([`crate::fixture`]: oracle
//! agreement with an ambiguity window on the interrupted key, meta-lock
//! liveness, Index-Version monotonicity, parity scrub, no degraded window
//! left open) plus the axis-defining one:
//!
//! * **No stale read after recovery** — a *second* client whose cache
//!   was filled before the kill and never touched again until recovery
//!   completed sweeps every key. Each cached slot address on the
//!   recovered column is now wrong or re-homed; every read must still
//!   return exactly the oracle value (the entry must revalidate or
//!   invalidate, never serve the pre-recovery image).

use crate::axis::{Axis, Outcome};
use crate::fixture::{fail_fast, fmt_key, fmt_state, gen_value, written_off, Fixture};
use aceso_core::client::CrashPoint;
use aceso_core::{recover_mn, StoreError};
use aceso_index::route_hash;
use aceso_rdma::TraceSink;
use rand::Rng;
use std::sync::Arc;

/// Preloaded keys (every one cached by both clients before the kill).
const KEYS: usize = 24;

/// Which participant dies between cache fill and use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheKill {
    /// Kill the index column of the target key after the caches are hot.
    Mn,
    /// Crash the hot-cache client at a protocol crash point mid-op.
    Cn,
}

impl CacheKill {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CacheKill::Mn => "kill-mn",
            CacheKill::Cn => "crash-cn",
        }
    }
}

/// The cache-consulting operation run through the stale entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOp {
    /// SEARCH through the cached slot address (the 1-RTT fast path).
    Search,
    /// UPDATE speculating on the cached Atomic/Meta words.
    Update,
    /// DELETE (tombstone commit) through the cached slot address.
    Delete,
}

impl CacheOp {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CacheOp::Search => "search",
            CacheOp::Update => "update",
            CacheOp::Delete => "delete",
        }
    }
}

/// One cell of the cache matrix: a kill in the fill→use window × the op
/// that then consumes the stale entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheCell {
    /// Which participant dies.
    pub kill: CacheKill,
    /// The operation run through the stale cache.
    pub op: CacheOp,
}

impl core::fmt::Display for CacheCell {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}@{}", self.kill.label(), self.op.label())
    }
}

/// The stale-index-cache axis.
#[derive(Clone, Copy, Debug)]
pub struct CacheAxis;

/// What one cache cell run observed beyond its violations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// The killed (MN cells) or target (CN cells) index column.
    pub col: usize,
    /// Entries the sweep client held when the kill landed.
    pub warm_entries: usize,
    /// Whether the victim client's op was interrupted by the fault.
    pub interrupted: bool,
}

impl Axis for CacheAxis {
    const NAME: &'static str = "cache";
    const CELLS: &'static str = "stale-cache cells";
    const CLEAN: &'static str = "no stale read survived any fill-kill-recover-use window";
    type Cell = CacheCell;
    type Stats = CacheStats;

    /// The full matrix (the same for `--ci`). CN crash points live in the
    /// commit path, so the CN kill pairs only with the mutating ops.
    fn cells(_seed: u64, _ci: bool) -> Vec<CacheCell> {
        let mn = [CacheOp::Search, CacheOp::Update, CacheOp::Delete].map(|op| CacheCell { kill: CacheKill::Mn, op });
        let cn = [CacheOp::Update, CacheOp::Delete].map(|op| CacheCell { kill: CacheKill::Cn, op });
        mn.into_iter().chain(cn).collect()
    }

    fn exec(
        cell: &CacheCell,
        seed: u64,
        sink: Option<Arc<dyn TraceSink>>,
        out: &mut Outcome<Self>,
    ) -> Result<(), String> {
        run_cache_cell_inner(cell, seed, out, sink)
    }

    fn summary(outcomes: &[Outcome<Self>]) -> String {
        let interrupted = outcomes.iter().filter(|o| o.stats.interrupted).count();
        let warm: usize = outcomes.iter().map(|o| o.stats.warm_entries).sum();
        format!("{interrupted} interrupted ops, {warm} warm entries at kill time")
    }

    fn detail(o: &Outcome<Self>) -> String {
        format!(
            "col {}, {} warm entries, interrupted={}",
            o.stats.col, o.stats.warm_entries, o.stats.interrupted
        )
    }

    /// The stale-cache SEARCH fast path, the stale-cache UPDATE
    /// speculation, and the hot-cache CN crash. The kill lands between
    /// cache fill and use, so the detector must order the sweeper's
    /// revalidating slot re-reads against the recovery stream that
    /// rebuilt (or repaired) the memory they land on.
    fn traced() -> Vec<CacheCell> {
        use {CacheKill as K, CacheOp as O};
        [(K::Mn, O::Search), (K::Mn, O::Update), (K::Cn, O::Update)]
            .map(|(kill, op)| CacheCell { kill, op })
            .to_vec()
    }

    fn trace_detail(o: &Outcome<Self>) -> String {
        format!("{} warm entries at kill, ", o.stats.warm_entries)
    }
}

fn traffic_key(j: usize) -> Vec<u8> {
    format!("ck-{j:02}").into_bytes()
}

#[allow(clippy::too_many_lines)]
fn run_cache_cell_inner(
    cell: &CacheCell,
    seed: u64,
    out: &mut Outcome<CacheAxis>,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<(), String> {
    let keys: Vec<Vec<u8>> = (0..KEYS).map(traffic_key).collect();
    let mut fx = Fixture::new(seed, sink, keys.clone())?;
    let store = Arc::clone(&fx.store);
    let n = store.cfg.num_mns;

    // ---- Cache fill ------------------------------------------------------
    // Two fail-fast hot-cache clients. `victim` runs the op through its
    // stale entry; `sweeper` stays idle across the kill and performs the
    // no-stale-read sweep after recovery.
    let mut victim = store
        .client_with(fail_fast())
        .map_err(|e| format!("victim client: {e}"))?;
    let mut sweeper = store
        .client_with(fail_fast())
        .map_err(|e| format!("sweeper client: {e}"))?;
    for k in &keys {
        for (who, cli) in [("victim", &mut victim), ("sweeper", &mut sweeper)] {
            match cli.search(k).map(|got| fx.oracle.check_read(k, got)) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => out.violations.push(format!("{who} fill search({}) {e}", fmt_key(k))),
                Err(e) => out.violations.push(format!("{who} fill search({}): {e}", fmt_key(k))),
            }
        }
    }
    out.stats.warm_entries = sweeper.cache_len();
    if out.stats.warm_entries == 0 {
        out.violations.push("sweeper cache never filled".into());
    }
    let victim_id = victim.id();

    // The target key's index column is the MN victim, so both clients
    // hold a cached slot address that dies under them.
    let target = keys[fx.rng.gen_range(0..KEYS)].clone();
    let col = (route_hash(&target) % n as u64) as usize;
    out.stats.col = col;

    // ---- Kill between fill and use ---------------------------------------
    store.cluster.trace_barrier();
    if cell.kill == CacheKill::Mn && !store.kill_mn(col) {
        out.violations.push(format!("kill of col {col} found it already dead"));
    }
    if cell.kill == CacheKill::Cn {
        victim.crash_point = Some(CrashPoint::BeforeCommit);
    }
    store.cluster.trace_barrier();

    // ---- The op through the stale entry ----------------------------------
    let prev = fx.oracle.get(&target);
    // The state a mutation means to leave (`Some(None)` = deleted).
    let intended: Option<Option<Vec<u8>>> = match cell.op {
        CacheOp::Search => None,
        CacheOp::Update => Some(Some(gen_value(&mut fx.rng, b'U'))),
        CacheOp::Delete => Some(None),
    };
    let res: Result<(), StoreError> = match (cell.op, &intended) {
        (CacheOp::Update, Some(Some(v))) => victim.update(&target, v),
        (CacheOp::Delete, _) => victim.delete(&target).map(|_| ()),
        _ => victim.search(&target).map(|got| {
            // A successful read against the dead column (degraded path)
            // must already be stale-free.
            if got != prev {
                out.violations.push(format!(
                    "degraded search({}) returned {} want {}",
                    fmt_key(&target),
                    fmt_state(&got),
                    fmt_state(&prev)
                ));
            }
        }),
    };
    match res {
        Ok(()) => {
            if let Some(post) = intended {
                fx.oracle.commit(&target, post);
            }
            if cell.kill == CacheKill::Cn {
                out.violations.push("CN crash point never fired".into());
            }
        }
        // The victim is written off mid-op; an interrupted mutation
        // leaves the target in its commit ambiguity window.
        Err(e) if written_off(&e, cell.kill == CacheKill::Mn) => {
            out.stats.interrupted = true;
            if let Some(post) = intended {
                fx.oracle.interrupt(&target, post);
            }
        }
        Err(e) => out.violations.push(format!(
            "op {} on {}: unexpected error: {e}",
            cell.op.label(),
            fmt_key(&target)
        )),
    }
    drop(victim);

    // ---- Tiered recovery -------------------------------------------------
    store.cluster.trace_barrier();
    if out.stats.interrupted {
        fx.recover_cn(victim_id)?;
        store.cluster.trace_barrier();
    }
    if store.cluster.node(store.directory().node_of(col)).is_err() {
        recover_mn(&store, col).map_err(|e| format!("recover_mn: {e}"))?;
        store.cluster.trace_barrier();
    }

    // ---- No stale read after recovery ------------------------------------
    // The axis-defining check: the sweeper's cache was filled before the
    // kill and is consulted for the first time now. Every entry on the
    // recovered column points at pre-recovery memory; each read must
    // revalidate or invalidate it — never serve the old image. A read of
    // the interrupted target pins the state its window collapsed to.
    for k in &keys {
        match sweeper.search(k).map(|got| fx.oracle.check_read(k, got)) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => out.violations.push(format!("stale read after recovery on {}: {e}", fmt_key(k))),
            Err(e) => out.violations.push(format!("post-recovery search {}: {e}", fmt_key(k))),
        }
    }
    if sweeper.cache_len() == 0 {
        out.violations
            .push("sweeper cache empty after the sweep (caching disabled?)".into());
    }

    // ---- Matrix invariants -----------------------------------------------
    // The judge's cold-cache client double-checks the sweep (the target
    // last: absent after a committed delete) and probes the interrupted
    // key.
    let probes = if out.stats.interrupted { vec![target.clone()] } else { Vec::new() };
    fx.judge(&probes, &[&target], &mut out.violations)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::{assert_deterministic, run_matrix};

    /// The index column of a cached key dies between fill and use: the
    /// hot-cache SEARCH either degrades correctly or fails fast, MN
    /// recovery rebuilds the column, and the idle hot-cache client reads
    /// nothing stale afterwards.
    #[test]
    fn mn_killed_between_fill_and_use_serves_no_stale_search() {
        let cell = CacheCell {
            kill: CacheKill::Mn,
            op: CacheOp::Search,
        };
        let out = CacheAxis::run(&cell, crate::DEFAULT_SEED, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(out.stats.warm_entries > 0, "cache was never hot");
    }

    /// Same window, but the stale entry feeds an UPDATE speculation: the
    /// interrupted mutation collapses inside its ambiguity window and the
    /// post-recovery sweep sees exactly one of its two allowed states.
    #[test]
    fn mn_killed_before_update_recovers_clean() {
        let cell = CacheCell {
            kill: CacheKill::Mn,
            op: CacheOp::Update,
        };
        let out = CacheAxis::run(&cell, crate::DEFAULT_SEED, None);
        assert!(out.ok(), "{:?}", out.violations);
    }

    /// A client with a hot cache crashes at the commit crash point; CN
    /// recovery repairs the in-flight op and the surviving hot-cache
    /// client reads nothing stale.
    #[test]
    fn cn_crash_with_hot_cache_recovers_clean() {
        let cell = CacheCell {
            kill: CacheKill::Cn,
            op: CacheOp::Update,
        };
        let out = CacheAxis::run(&cell, crate::DEFAULT_SEED, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(out.stats.interrupted, "the crash point must interrupt the op");
    }

    /// The whole matrix holds its invariants under the default seed (the
    /// profile `chaos sweep --ci` runs).
    #[test]
    fn cache_matrix_is_clean() {
        let cells = CacheAxis::cells(crate::DEFAULT_SEED, true);
        let report = run_matrix::<CacheAxis>(&cells, crate::DEFAULT_SEED, |_| {});
        assert!(report.clean(), "{}", report.render());
        assert_eq!(report.outcomes.len(), 5);
    }

    /// Same seed, same schedule, same outcome.
    #[test]
    fn cache_cell_is_deterministic() {
        let cell = CacheCell {
            kill: CacheKill::Mn,
            op: CacheOp::Delete,
        };
        assert_deterministic::<CacheAxis>(cell, 77);
    }
}
