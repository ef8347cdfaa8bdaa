//! `chaos backends` — the per-engine crash matrix over the
//! [`aceso_core::FtEngine`] seam.
//!
//! The main crash matrix ([`crate::runner`]) speaks Aceso's native
//! protocol: its injection sites and invariants are phrased in terms of
//! delta appends, parity stripes, and checkpoint epochs. That makes it
//! useless as a harness for the *other* fault-tolerance strategies behind
//! the seam. This axis is the engine-agnostic counterpart: every cell
//! runs the identical script against a [`FtEngine`] trait object —
//! preload, arm one fault on one victim client, run one target operation,
//! recover, sweep — so Aceso, FUSEE-style full replication, and the
//! SWARM-style 1-RTT engine face the same crashes and answer to the same
//! oracle.
//!
//! A cell is (engine × op × fault × skip):
//!
//! * [`BackendFault::CrashCn`] — a [`FaultAction::Fail`] rule kills the
//!   victim's (skip+1)-th verb; the client is written off mid-op.
//! * [`BackendFault::KillMn`] — a [`FaultAction::KillNode`] rule kills
//!   the target key's home node on the victim's (skip+1)-th verb to it,
//!   so the node dies mid-operation; when the op legitimately never
//!   addresses the node (the skip exceeds the op's verb count), the
//!   harness falls back to a direct kill at the op boundary and the cell
//!   degenerates to pure column-loss recovery.
//!
//! Recovery runs through the seam's two entry points, in the order each
//! strategy's commit-point argument requires: Aceso repairs the
//! interrupted client first (`recover_client` is its CN consistency pass,
//! designed to run against the still-dead column — the order the native
//! matrix tests), then rebuilds dead columns; the replication engines
//! rebuild the column first (the restored primary becomes the agreement
//! baseline) and then reconcile, since their `recover_client` rolls
//! run-ahead backups onto the primary's commit state.
//!
//! Post-conditions are strategy-blind: oracle agreement with a commit
//! ambiguity window on the target key, no phantom keys, a probe write on
//! the interrupted key (liveness), the engine's own [`FtEngine::check`]
//! (parity scrub for Aceso, replica agreement for the replicated
//! engines), and a populated space report.

use crate::axis::{Axis, Outcome};
use crate::fixture::{chaos_config, fail_fast, fmt_key, gen_value, probe, Oracle};
use aceso_core::{AcesoEngine, AcesoStore, FtEngine, FtError};
use aceso_engines::{launch, EngineKind};
use aceso_rdma::{FaultAction, FaultPlan, FaultRule, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::iter::once;
use std::sync::Arc;

/// Preloaded keys per cell (small: one op is under test, not throughput).
const KEYS: usize = 24;

/// Verb-skip depths: the fault lands on the (skip+1)-th matching verb, so
/// the same op is interrupted at several protocol depths.
const SKIPS: [u64; 3] = [0, 2, 5];

/// Which fault interrupts the target operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendFault {
    /// Fail one victim verb: the client is written off mid-op.
    CrashCn,
    /// Kill the target key's home node on a victim verb to it.
    KillMn,
}

impl BackendFault {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            BackendFault::CrashCn => "crash-cn",
            BackendFault::KillMn => "kill-mn",
        }
    }
}

/// The operation under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendOp {
    /// Insert a fresh key.
    Insert,
    /// Update a preloaded key in place.
    Update,
    /// Delete a preloaded key.
    Delete,
}

impl BackendOp {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            BackendOp::Insert => "insert",
            BackendOp::Update => "update",
            BackendOp::Delete => "delete",
        }
    }
}

/// One cell of the backends matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendCell {
    /// The engine under test.
    pub engine: EngineKind,
    /// The operation interrupted by the fault.
    pub op: BackendOp,
    /// The fault armed on the victim client.
    pub fault: BackendFault,
    /// Matching verbs skipped before the fault fires.
    pub skip: u64,
}

impl core::fmt::Display for BackendCell {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}/{}/{}/after{}",
            self.engine,
            self.op.label(),
            self.fault.label(),
            self.skip
        )
    }
}

/// The per-engine crash axis. It keeps its own strategy-blind checks
/// (module docs) instead of the Aceso judge.
#[derive(Clone, Copy, Debug)]
pub struct BackendsAxis;

/// What one backends cell run observed beyond its violations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BackendStats {
    /// Whether the armed fault fired on a victim verb (mid-op).
    pub fired_at_verb: bool,
    /// Whether the MN kill fell back to a direct boundary kill.
    pub fallback_kill: bool,
    /// Whether the victim client was written off mid-op.
    pub written_off: bool,
    /// Columns rebuilt by [`FtEngine::recover_column`].
    pub recovered_cols: usize,
    /// Bytes moved by column recovery (modeled).
    pub recovery_bytes: u64,
}

impl Axis for BackendsAxis {
    const NAME: &'static str = "backends";
    const CELLS: &'static str = "per-engine crash cells";
    const CLEAN: &'static str = "every engine held its invariants across the shared crash matrix";
    type Cell = BackendCell;
    type Stats = BackendStats;

    /// The full matrix, engine-major: 3 engines × 3 ops × 2 faults × 3
    /// skips (the same for `--ci`).
    fn cells(_seed: u64, _ci: bool) -> Vec<BackendCell> {
        let mut cells = Vec::with_capacity(54);
        for engine in EngineKind::ALL {
            for op in [BackendOp::Insert, BackendOp::Update, BackendOp::Delete] {
                for fault in [BackendFault::CrashCn, BackendFault::KillMn] {
                    for skip in SKIPS {
                        cells.push(BackendCell {
                            engine,
                            op,
                            fault,
                            skip,
                        });
                    }
                }
            }
        }
        cells
    }

    fn exec(
        cell: &BackendCell,
        seed: u64,
        sink: Option<Arc<dyn TraceSink>>,
        out: &mut Outcome<Self>,
    ) -> Result<(), String> {
        run_backends_cell_inner(cell, seed, out, sink)
    }

    /// The count line, then one clean-cells line per engine.
    fn summary(outcomes: &[Outcome<Self>]) -> String {
        let count = |f: fn(&BackendStats) -> bool| outcomes.iter().filter(|o| f(&o.stats)).count();
        let recovered: usize = outcomes.iter().map(|o| o.stats.recovered_cols).sum();
        let mut s = format!(
            "{} mid-op faults, {} clients written off, {} fallback kills, {recovered} columns recovered",
            count(|s| s.fired_at_verb),
            count(|s| s.written_off),
            count(|s| s.fallback_kill)
        );
        for kind in EngineKind::ALL {
            let of_kind = outcomes.iter().filter(|o| o.cell.engine == kind);
            let (n, clean) = of_kind.fold((0, 0), |(n, c), o| (n + 1, c + usize::from(o.ok())));
            s.push_str(&format!("\n  {kind}: {clean}/{n} cells clean"));
        }
        s
    }

    fn detail(o: &Outcome<Self>) -> String {
        format!(
            "fired={}, written-off={}, recovered-cols={}",
            o.stats.fired_at_verb, o.stats.written_off, o.stats.recovered_cols
        )
    }

    /// One cell per engine kind, chosen so each strategy's commit
    /// protocol is exercised across a fault — Aceso through the seam (a
    /// home-node kill mid-update), FUSEE's write-then-CAS replication
    /// across a torn client write plus its reconcile pass, and SWARM's
    /// doorbell-batched commit across both fault kinds.
    fn traced() -> Vec<BackendCell> {
        let cell = |engine, op, fault, skip| BackendCell {
            engine,
            op,
            fault,
            skip,
        };
        vec![
            cell(EngineKind::Aceso, BackendOp::Update, BackendFault::KillMn, 0),
            cell(EngineKind::Fusee, BackendOp::Update, BackendFault::CrashCn, 0),
            cell(EngineKind::Swarm, BackendOp::Update, BackendFault::CrashCn, 2),
            cell(EngineKind::Swarm, BackendOp::Insert, BackendFault::KillMn, 0),
        ]
    }

    /// The replication engines have their own layouts, so their
    /// detectors run without the Aceso memory-map annotator.
    fn annotate(cell: &BackendCell) -> bool {
        cell.engine == EngineKind::Aceso
    }
}

fn backend_key(j: usize) -> Vec<u8> {
    format!("bk-{j:02}").into_bytes()
}

/// Launches the cell's engine. Aceso runs on the chaos geometry with the
/// fail-fast client tuning every chaos axis uses (a blocked op costs
/// milliseconds, not the default ten-second index wait); the replication
/// engines fail fast by construction (verb errors propagate immediately).
fn launch_backend(kind: EngineKind) -> Result<Box<dyn FtEngine>, String> {
    match kind {
        EngineKind::Aceso => {
            let store = AcesoStore::launch(chaos_config()).map_err(|e| format!("launch: {e}"))?;
            Ok(Box::new(AcesoEngine::with_tuning(store, fail_fast())))
        }
        _ => launch(kind).map_err(|e| format!("launch: {e}")),
    }
}

#[allow(clippy::too_many_lines)]
fn run_backends_cell_inner(
    cell: &BackendCell,
    seed: u64,
    out: &mut Outcome<BackendsAxis>,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let eng = launch_backend(cell.engine)?;
    if let Some(s) = sink {
        eng.cluster().install_trace_sink(s);
    }

    // ---- Preload ---------------------------------------------------------
    let mut oracle = Oracle::default();
    {
        let mut loader = eng.client().map_err(|e| format!("loader: {e}"))?;
        for j in 0..KEYS {
            let k = backend_key(j);
            let v = gen_value(&mut rng, b'A');
            loader
                .insert(&k, &v)
                .map_err(|e| format!("preload {}: {e}", fmt_key(&k)))?;
            oracle.values.insert(k, v);
        }
        loader.quiesce().map_err(|e| format!("preload quiesce: {e}"))?;
    }
    for _ in 0..2 {
        eng.tick().map_err(|e| format!("tick: {e}"))?;
    }
    eng.cluster().trace_barrier();

    // ---- Arm the fault and run the target op -----------------------------
    let target = match cell.op {
        BackendOp::Insert => b"bk-new".to_vec(),
        _ => backend_key(rng.gen_range(0..KEYS)),
    };
    let home = eng.home_col(&target);
    let victim_node = eng.node_of(home);

    let mut victim = eng.client().map_err(|e| format!("victim: {e}"))?;
    let rule = match cell.fault {
        BackendFault::CrashCn => FaultRule::new(FaultAction::Fail).after(cell.skip),
        BackendFault::KillMn => FaultRule::new(FaultAction::KillNode)
            .on_node(victim_node)
            .after(cell.skip),
    };
    let plan = FaultPlan::with_rules(vec![rule]);
    victim.install_fault_plan(Arc::clone(&plan));

    let val = gen_value(&mut rng, b'T');
    let intended = match cell.op {
        BackendOp::Delete => None,
        _ => Some(val.clone()),
    };
    let res: Result<(), FtError> = match cell.op {
        BackendOp::Insert => victim.insert(&target, &val),
        BackendOp::Update => victim.update(&target, &val),
        BackendOp::Delete => match victim.delete(&target) {
            Ok(existed) => {
                if !existed {
                    out.violations
                        .push(format!("delete of preloaded {} found nothing", fmt_key(&target)));
                }
                Ok(())
            }
            Err(e) => Err(e),
        },
    };
    out.stats.fired_at_verb = plan.fired_count() > 0;

    match res {
        Ok(()) => oracle.commit(&target, intended),
        // The victim crashed mid-op, or the home node died under the op
        // and nobody has recovered it yet (crashed-while-blocked): the
        // target is left in its commit ambiguity window.
        Err(FtError::Crashed(_)) if cell.fault == BackendFault::CrashCn => {
            oracle.interrupt(&target, intended);
            out.stats.written_off = true;
        }
        Err(FtError::Unreachable(_)) if cell.fault == BackendFault::KillMn => {
            oracle.interrupt(&target, intended);
            out.stats.written_off = true;
        }
        Err(e) => out
            .violations
            .push(format!("target op on {}: unexpected error: {e}", fmt_key(&target))),
    }

    // The skip can exceed the op's verb count to the victim node: fall
    // back to a direct kill at the op boundary so the cell still tests
    // column-loss recovery (now with no torn op).
    if cell.fault == BackendFault::KillMn && eng.cluster().node(victim_node).is_ok() {
        out.stats.fallback_kill = true;
        if !eng.kill_column(home) {
            out.violations
                .push(format!("fallback kill of col {home} reported node already dead"));
        }
    }
    let victim_id = victim.id();
    drop(victim);
    eng.cluster().trace_barrier();

    // ---- Recovery --------------------------------------------------------
    // Strategy-ordered, per the module docs: Aceso's CN consistency pass
    // runs against the still-dead column; the replication engines
    // reconcile after the rebuilt primary is back as agreement baseline.
    // Each recovery stage is barrier-delimited: the real system quiesces
    // between tiers, and the detector needs the handoff edge (the column
    // copy is plain unpublished writes the next stage then reads).
    let cn_first = cell.engine == EngineKind::Aceso;
    if out.stats.written_off && cn_first {
        eng.recover_client(victim_id)
            .map_err(|e| format!("recover_client: {e}"))?;
        eng.cluster().trace_barrier();
    }
    for col in 0..eng.columns() {
        if eng.cluster().node(eng.node_of(col)).is_err() {
            let s = eng
                .recover_column(col)
                .map_err(|e| format!("recover_column {col}: {e}"))?;
            out.stats.recovered_cols += 1;
            out.stats.recovery_bytes += s.bytes;
        }
    }
    if out.stats.recovered_cols > 0 {
        eng.cluster().trace_barrier();
    }
    if out.stats.written_off && !cn_first {
        eng.recover_client(victim_id)
            .map_err(|e| format!("recover_client: {e}"))?;
    }
    eng.cluster().trace_barrier();

    // ---- Invariants ------------------------------------------------------
    let mut sweep = eng.client().map_err(|e| format!("sweep client: {e}"))?;

    // 1. Oracle agreement (no lost acks: every acknowledged value reads
    //    back), the target first with its ambiguity window, then
    // 2. no phantom key materialized by the fault or the recovery.
    let others: Vec<Vec<u8>> = oracle.values.keys().filter(|k| **k != target).cloned().collect();
    let keys = once(&target[..]).chain(others.iter().map(Vec::as_slice));
    oracle.check_all(&mut *sweep, keys.chain(once(&b"bk-phantom"[..])), &mut out.violations);

    // 3. Liveness on the interrupted key: a probe write must get through
    //    (no abandoned lock, no wedged slot) and read back.
    probe(&mut *sweep, &mut rng, std::slice::from_ref(&target), &mut out.violations);

    // 4. The engine's own integrity check (parity scrub / replica
    //    agreement), after a quiesce so buffered client state is flushed.
    sweep.quiesce().map_err(|e| format!("sweep quiesce: {e}"))?;
    drop(sweep);
    eng.cluster().trace_barrier();
    match eng.check() {
        Ok(problems) => out.violations.extend(problems),
        Err(e) => out.violations.push(format!("check: {e}")),
    }

    // 5. Space accounting stays populated across the fault.
    let sp = eng.space();
    if sp.valid == 0 || sp.redundancy == 0 {
        out.violations
            .push(format!("space report degenerate after recovery: {sp:?}"));
    }

    // Accounting sanity on the injection machinery itself.
    if out.stats.fired_at_verb && plan.fired().is_empty() {
        out.violations.push("fired count and log disagree".into());
    }

    eng.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::assert_deterministic;

    #[test]
    fn matrix_shape_covers_every_engine() {
        let cells = BackendsAxis::cells(crate::DEFAULT_SEED, true);
        assert_eq!(cells.len(), 54);
        for kind in EngineKind::ALL {
            assert_eq!(cells.iter().filter(|c| c.engine == kind).count(), 18);
        }
    }

    /// Runs one (op, fault, skip) script on every engine behind the seam
    /// and asserts each held its invariants.
    fn on_every_engine(op: BackendOp, fault: BackendFault, skip: u64) -> Vec<Outcome<BackendsAxis>> {
        let run = |engine| {
            let cell = BackendCell { engine, op, fault, skip };
            let out = BackendsAxis::run(&cell, crate::DEFAULT_SEED, None);
            assert!(out.ok(), "{cell}: {:?}", out.violations);
            out
        };
        EngineKind::ALL.into_iter().map(run).collect()
    }

    /// A mid-op client crash on an update holds the invariants on every
    /// engine behind the seam.
    #[test]
    fn crash_cn_update_holds_on_every_engine() {
        for out in on_every_engine(BackendOp::Update, BackendFault::CrashCn, 0) {
            assert!(out.stats.fired_at_verb, "{}: fault never fired", out.cell);
            assert!(out.stats.written_off, "{}: victim not written off", out.cell);
        }
    }

    /// Killing the home node mid-insert forces degraded service and a
    /// column rebuild on every engine.
    #[test]
    fn kill_mn_insert_recovers_on_every_engine() {
        for out in on_every_engine(BackendOp::Insert, BackendFault::KillMn, 0) {
            assert_eq!(out.stats.recovered_cols, 1, "{}: column not rebuilt", out.cell);
            assert!(out.stats.recovery_bytes > 0, "{}: empty recovery", out.cell);
        }
    }

    /// A deep-skip delete crash still converges (the fault may or may not
    /// fire depending on the engine's verb count — both paths must hold).
    #[test]
    fn deep_skip_delete_holds_on_every_engine() {
        on_every_engine(BackendOp::Delete, BackendFault::CrashCn, 5);
    }

    /// Same seed, same schedule, same outcome.
    #[test]
    fn backends_cell_is_deterministic() {
        let cell = BackendCell {
            engine: EngineKind::Swarm,
            op: BackendOp::Update,
            fault: BackendFault::KillMn,
            skip: 2,
        };
        assert_deterministic::<BackendsAxis>(cell, 99);
    }
}
