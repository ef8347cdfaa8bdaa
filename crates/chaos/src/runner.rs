//! The crash-matrix axis: executes one [`Cell`] against a live store.
//!
//! Each cell runs the same script: launch a `Fixture` and preload it
//! (optionally ageing it into a reclamation-relevant state), arm the
//! cell's injection and kill, run the operation, drive tiered recovery,
//! then hand the store to `Fixture::judge`. The injected key may end in
//! either its pre-op or its intended post-op state (the commit protocol's
//! allowed ambiguity window), never anything else; it is always probed
//! for meta-lock liveness, and a never-inserted key must stay absent.

use crate::axis::{Axis, Outcome};
use crate::cell::{ci_matrix, full_matrix, Cell, InjectionSite, KillTiming, OpType, ReclaimState};
use crate::fixture::{fail_fast, fmt_key, gen_value, take_ms, written_off, Fixture};
use crate::sweep::Counterexample;
use crate::CI_CELLS;
use aceso_core::client::CrashPoint;
use aceso_core::config::unpack_col;
use aceso_core::{recover_mn, recover_mn_with, AcesoStore, StoreError};
use aceso_index::{fingerprint, route_hash, RemoteIndex};
use aceso_rdma::{FaultAction, FaultPlan, FaultRule, TraceSink};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The crash matrix: (operation × injection site × MN-kill timing ×
/// reclamation state), one [`Cell`] per combination.
#[derive(Clone, Copy, Debug)]
pub struct CrashMatrix;

/// What one crash-matrix cell run observed.
pub type CellOutcome = Outcome<CrashMatrix>;

/// Wall-clock breakdown of one cell run, summed by the sweep summary so
/// slow invariant checks are visible without profiling.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellPhases {
    /// Store launch, preload, and optional ageing.
    pub setup_ms: f64,
    /// The two checkpoint rounds.
    pub ckpt_ms: f64,
    /// Arming + running the operation (includes a pre-op kill/recovery
    /// when the cell's kill timing asks for one).
    pub op_ms: f64,
    /// Post-crash tiered recovery (CN consistency, then MN tiers).
    pub recovery_ms: f64,
    /// Per-invariant-class check time, indexed by
    /// [`crate::fixture::INVARIANT_CLASSES`].
    pub invariants_ms: [f64; 4],
}

/// What a crash-matrix cell observed beyond its violations.
#[derive(Clone, Debug, Default)]
pub struct CellStats {
    /// Whether the armed injection actually fired.
    pub injection_fired: bool,
    /// Whether the home MN actually died.
    pub mn_killed: bool,
    /// Whether the client crashed (or was written off as blocked) mid-op.
    pub client_crashed: bool,
    /// Where the wall-clock went.
    pub phases: CellPhases,
    /// The simplest still-failing variant of a violating cell, filled by
    /// [`crate::sweep()`] for the first few violating cells.
    pub minimized: Option<Counterexample>,
}

/// Equality ignores the wall-clock `phases`.
impl PartialEq for CellStats {
    fn eq(&self, other: &Self) -> bool {
        (self.injection_fired, self.mn_killed, self.client_crashed, &self.minimized)
            == (other.injection_fired, other.mn_killed, other.client_crashed, &other.minimized)
    }
}

impl Axis for CrashMatrix {
    const NAME: &'static str = "sweep";
    const CELLS: &'static str = "cells";
    const CLEAN: &'static str = "all invariants held in every explored cell";
    type Cell = Cell;
    type Stats = CellStats;

    fn cells(seed: u64, ci: bool) -> Vec<Cell> {
        if ci {
            ci_matrix(seed, CI_CELLS)
        } else {
            full_matrix()
        }
    }

    fn exec(
        cell: &Cell,
        seed: u64,
        sink: Option<Arc<dyn TraceSink>>,
        out: &mut CellOutcome,
    ) -> Result<(), String> {
        run_cell_inner(cell, seed, out, sink)
    }

    fn summary(outcomes: &[CellOutcome]) -> String {
        let count = |f: fn(&CellStats) -> bool| outcomes.iter().filter(|o| f(&o.stats)).count();
        format!(
            "injections fired: {}   MNs killed: {}   clients crashed: {}",
            count(|s| s.injection_fired),
            count(|s| s.mn_killed),
            count(|s| s.client_crashed)
        )
    }

    fn detail(o: &CellOutcome) -> String {
        format!("fired={}, killed={}", o.stats.injection_fired, o.stats.mn_killed)
    }

    /// `chaos analyze` traces the crash matrix itself (with the per-cell
    /// seeds of the sweep, see [`crate::axis::trace_matrix`]), not a slice.
    fn traced() -> Vec<Cell> {
        Vec::new()
    }

    fn render(report: &crate::axis::Report<Self>) -> String {
        crate::sweep::render(report)
    }
}

/// Brute-forces two keys with equal fingerprint, equal home column, and
/// equal primary bucket group, so a SEARCH of the second must step past
/// the first's slot in the candidate scan (a true fp collision, not a
/// synthetic one). Coordinates already taken by preload keys are skipped,
/// leaving the shared bucket holding exactly the two twins.
fn collision_twins(store: &Arc<AcesoStore>) -> Result<(Vec<u8>, Vec<u8>), String> {
    let layout = store.map.index;
    let n = store.cfg.num_mns as u64;
    let coord = |k: &[u8]| (fingerprint(k), route_hash(k) % n, layout.buckets_for(k)[0].0);
    let mut seen: BTreeMap<(u8, u64, u64), Vec<u8>> = BTreeMap::new();
    for i in 0..36 {
        seen.insert(coord(format!("key-{i:03}").as_bytes()), Vec::new());
    }
    for i in 0..12 {
        seen.insert(coord(format!("aged-{i:03}").as_bytes()), Vec::new());
    }
    for i in 0..100_000u32 {
        let k = format!("twin-{i:05}").into_bytes();
        if let Some(prev) = seen.get(&coord(&k)) {
            if !prev.is_empty() {
                return Ok((prev.clone(), k)); // Empty sentinel = preload coordinate.
            }
        } else {
            seen.insert(coord(&k), k);
        }
    }
    Err("no colliding twin pair in 100k candidates".into())
}

/// Column holding the KV block of twin `key`. The twin pair excludes
/// preload coordinates and the earlier twin is inserted first, so the
/// first fingerprint match in its bucket is the twin itself.
fn twin_kv_col(store: &Arc<AcesoStore>, key: &[u8]) -> Result<usize, String> {
    let col = (route_hash(key) % store.cfg.num_mns as u64) as usize;
    let index = RemoteIndex::new(store.directory().node_of(col), store.map.index);
    let dm = store.cluster.background_client();
    let scan = index
        .scan(&dm, key, fingerprint(key))
        .map_err(|e| format!("twin scan: {e}"))?;
    let slot = scan.matches.first().ok_or("twin slot missing from index")?;
    Ok(unpack_col(slot.atomic.addr48).0)
}

fn run_cell_inner(
    cell: &Cell,
    seed: u64,
    out: &mut CellOutcome,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<(), String> {
    let mut clock = Instant::now();
    let mut fx = Fixture::launch(seed, sink)?;
    let store = Arc::clone(&fx.store);
    let n = store.cfg.num_mns;
    let mut client = store
        .client_with(fail_fast())
        .map_err(|e| format!("client: {e}"))?;

    // ---- Preload ---------------------------------------------------------
    fn keys(prefix: &'static str, count: usize) -> impl Iterator<Item = Vec<u8>> {
        (0..count).map(move |i| format!("{prefix}-{i:03}").into_bytes())
    }
    match cell.reclaim {
        ReclaimState::Fresh => fx.preload(&mut client, keys("key", 24))?,
        ReclaimState::Aged => {
            fx.preload(&mut client, keys("key", 36))?;
            client
                .close_open_blocks()
                .map_err(|e| format!("preload close: {e}"))?;
            for k in keys("key", 36).step_by(3) {
                client
                    .delete(&k)
                    .map_err(|e| format!("preload delete {}: {e}", fmt_key(&k)))?;
                fx.oracle.values.remove(&k);
            }
            client
                .flush_bitmaps()
                .map_err(|e| format!("preload flush: {e}"))?;
            fx.preload(&mut client, keys("aged", 12))?;
        }
    }
    // Colliding-fingerprint cells plant the twin pair from a throwaway
    // client, so the op client runs cache-cold and must walk the candidate
    // scan past the earlier twin instead of short-circuiting on its cache.
    let twins = if cell.op == OpType::SearchCollide {
        let (a, b) = collision_twins(&store)?;
        let mut planter = store.client().map_err(|e| format!("planter: {e}"))?;
        fx.preload(&mut planter, [a.clone(), b.clone()])?;
        // Close (= erasure-code) every open block before the checkpoint
        // rounds: the index-tier-only window loses closed, checkpointed
        // blocks, while open blocks — and every closed block sharing a
        // stripe array with one — are reconstructed during the Index
        // tier, which would leave nothing degraded to read.
        planter
            .close_open_blocks()
            .map_err(|e| format!("plant close: {e}"))?;
        client
            .close_open_blocks()
            .map_err(|e| format!("preload close: {e}"))?;
        Some((a, b))
    } else {
        None
    };
    out.stats.phases.setup_ms = take_ms(&mut clock);
    fx.checkpoint()?;
    out.stats.phases.ckpt_ms = take_ms(&mut clock);

    // ---- Arm the cell ----------------------------------------------------
    let op_key: Vec<u8> = match (cell.op, &twins) {
        (OpType::Insert, _) => b"probe-new".to_vec(),
        (OpType::SearchCollide, Some((_, b))) => b.clone(),
        _ => {
            let keys: Vec<&Vec<u8>> = fx.oracle.values.keys().collect();
            keys[fx.rng.gen_range(0..keys.len())].clone()
        }
    };
    let new_val = gen_value(&mut fx.rng, b'N');
    // The kill axis normally aims at the op key's home column; for the
    // collision cells it aims at the column holding the *earlier* twin's
    // KV block, so degraded kills turn that candidate into a
    // reconstructed read that must classify as a collision, not a
    // tombstone.
    let home_col = match &twins {
        Some((a, _)) => twin_kv_col(&store, a)?,
        None => (route_hash(&op_key) % n as u64) as usize,
    };
    let home_node = store.directory().node_of(home_col);

    if matches!(cell.kill, KillTiming::BeforeOp | KillTiming::BeforeOpDegraded) {
        if !store.kill_mn(home_col) {
            out.violations.push("kill_mn reported node already dead".into());
        }
        out.stats.mn_killed = true;
        // The degraded timing recovers the Index tier only: the op runs
        // against a replacement whose old blocks are still lost.
        let full = cell.kill == KillTiming::BeforeOp;
        recover_mn_with(&store, home_col, full).map_err(|e| format!("recover_mn(pre): {e}"))?;
    }
    store.cluster.trace_barrier();

    let mut rules = Vec::new();
    if let InjectionSite::Verb { kind, skip } = cell.site {
        rules.push(FaultRule::new(FaultAction::Fail).on_kind(kind).after(skip));
    }
    if let KillTiming::AtVerb { skip } = cell.kill {
        rules.push(
            FaultRule::new(FaultAction::KillNode)
                .on_node(home_node)
                .after(skip),
        );
    }
    let plan = (!rules.is_empty()).then(|| FaultPlan::with_rules(rules));
    if let Some(p) = &plan {
        client.dm.install_fault_plan(Arc::clone(p));
    }
    if let InjectionSite::Client(cp) = cell.site {
        client.crash_point = Some(cp);
    }

    // ---- Run the operation -----------------------------------------------
    // WhileMetaLocked only triggers on a slot-version rollover, so those
    // cells repeat the mutation until the version wraps and the crash
    // fires (a SEARCH never takes the lock and legitimately survives).
    let needs_rollover = cell.site == InjectionSite::Client(CrashPoint::WhileMetaLocked)
        && matches!(cell.op, OpType::Insert | OpType::Update | OpType::Delete);
    let attempts = if needs_rollover { 300 } else { 1 };
    let kill_planned = cell.kill != KillTiming::None;
    let mut crashed_at_point = false;
    let mut crashed = false;

    for attempt in 0..attempts {
        let prev = fx.oracle.get(&op_key);
        let (res, intended): (Result<(), StoreError>, Option<Vec<u8>>) = match cell.op {
            OpType::Insert => (client.insert(&op_key, &new_val), Some(new_val.clone())),
            OpType::Update => (client.update(&op_key, &new_val), Some(new_val.clone())),
            OpType::Delete => {
                if needs_rollover && prev.is_none() {
                    // Alternate with re-inserts so every delete has a live
                    // target while the version climbs toward rollover.
                    (client.insert(&op_key, &new_val), Some(new_val.clone()))
                } else {
                    (client.delete(&op_key).map(|_| ()), None)
                }
            }
            OpType::Search | OpType::SearchCollide => {
                let res = client.search(&op_key).map(|got| {
                    if let Err(e) = fx.oracle.check_read(&op_key, got) {
                        out.violations.push(format!("search({}) {e}", fmt_key(&op_key)));
                    }
                });
                (res, prev)
            }
        };
        match res {
            Ok(()) => {
                fx.oracle.commit(&op_key, intended);
                if !needs_rollover && attempt + 1 == attempts {
                    break;
                }
            }
            // The client is written off as crashed mid-op, and the key is
            // left in its commit ambiguity window.
            Err(e) if written_off(&e, kill_planned) => {
                crashed_at_point = matches!(e, StoreError::Shutdown);
                crashed = true;
                fx.oracle.interrupt(&op_key, intended);
                break;
            }
            Err(e) => {
                out.violations
                    .push(format!("{} op: unexpected error: {e}", cell.op));
                break;
            }
        }
    }

    out.stats.client_crashed = crashed;
    let fired = |action| plan.as_ref().is_some_and(|p| p.fired().iter().any(|f| f.action == action));
    let kill_fired_at_verb = fired(FaultAction::KillNode);
    out.stats.mn_killed |= kill_fired_at_verb;
    out.stats.injection_fired = match cell.site {
        InjectionSite::None => false,
        InjectionSite::Client(_) => crashed_at_point,
        InjectionSite::Verb { .. } => fired(FaultAction::Fail),
    };
    out.stats.phases.op_ms = take_ms(&mut clock);

    // ---- Tiered recovery (§3.4: CN consistency first, then MN) -----------
    // The crash is quiesced before recovery begins (the membership service
    // fences the failed epoch), and recovery completes before the sweep:
    // both are barrier edges in the verb trace.
    let cli_id = client.id();
    drop(client);
    store.cluster.trace_barrier();
    if crashed {
        fx.recover_cn(cli_id)?;
    }
    if kill_fired_at_verb {
        recover_mn(&store, home_col).map_err(|e| format!("recover_mn: {e}"))?;
    }
    if cell.kill == KillTiming::BeforeOpDegraded {
        // The op ran against an index-only replacement; finish the Block
        // tier so the parity invariant is checkable.
        recover_mn_with(&store, home_col, true)
            .map_err(|e| format!("recover_mn(block tier): {e}"))?;
    }
    store.cluster.trace_barrier();
    out.stats.phases.recovery_ms = take_ms(&mut clock);

    // ---- Invariants -------------------------------------------------------
    // The op key is checked after every other key, then a key no schedule
    // ever writes (no phantom materializes); the op key is always probed.
    out.stats.phases.invariants_ms =
        fx.judge(std::slice::from_ref(&op_key), &[&op_key, b"never-inserted-key"], &mut out.violations)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::assert_deterministic;
    use aceso_rdma::VerbKind;

    fn cell(op: OpType, site: InjectionSite, kill: KillTiming, reclaim: ReclaimState) -> Cell {
        Cell { op, site, kill, reclaim }
    }

    #[test]
    fn quiet_cell_passes() {
        let c = cell(OpType::Update, InjectionSite::None, KillTiming::None, ReclaimState::Fresh);
        let out = CrashMatrix::run(&c, 11, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(!out.stats.injection_fired);
        assert!(!out.stats.mn_killed);
        assert!(!out.stats.client_crashed);
    }

    #[test]
    fn verb_fault_crashes_client_and_recovers() {
        let site = InjectionSite::Verb {
            kind: VerbKind::Write,
            skip: 0,
        };
        let c = cell(OpType::Update, site, KillTiming::None, ReclaimState::Fresh);
        let out = CrashMatrix::run(&c, 12, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(out.stats.injection_fired);
        assert!(out.stats.client_crashed);
    }

    /// The degraded colliding-fingerprint cell (§3.4.1): the earlier
    /// twin's block is lost (index-tier-only recovery), so its candidate
    /// is read via reconstruction and must classify as a collision the
    /// scan steps past — misreading it as a tombstone made the later
    /// twin's SEARCH return "absent".
    #[test]
    fn degraded_collision_cell_passes() {
        let c = cell(
            OpType::SearchCollide,
            InjectionSite::None,
            KillTiming::BeforeOpDegraded,
            ReclaimState::Fresh,
        );
        let out = CrashMatrix::run(&c, 5, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(out.stats.mn_killed);
    }

    /// The same twin pair with the column healthy: the collision is
    /// classified off the direct read path.
    #[test]
    fn healthy_collision_cell_passes() {
        let c = cell(OpType::SearchCollide, InjectionSite::None, KillTiming::None, ReclaimState::Aged);
        let out = CrashMatrix::run(&c, 6, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(!out.stats.mn_killed);
    }

    /// Same seed, same schedule, same outcome.
    #[test]
    fn same_seed_reproduces_identical_outcome() {
        let site = InjectionSite::Client(CrashPoint::BeforeCommit);
        let c = cell(OpType::Delete, site, KillTiming::AtVerb { skip: 1 }, ReclaimState::Aged);
        assert_deterministic::<CrashMatrix>(c, 99);
    }
}
