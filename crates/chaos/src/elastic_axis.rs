//! `chaos elastic` — the kill-mid-rebalance fault axis.
//!
//! The crash matrix and the runtime axis kill nodes under a *static*
//! membership. This axis kills them while an elastic migration
//! ([`aceso_core::Migration`]) is re-homing a column onto a joining node
//! (or off a draining one): live client traffic interleaves with the
//! migrator, and at exactly one step boundary — announce, per-batch copy,
//! parity re-encode, epoch publish, or old-column free — a node dies.
//!
//! Three kills × five boundaries = fifteen cells:
//!
//! * [`ElasticKill::JoinMn`] — the *joining* node (the migration target)
//!   dies. Pre-publish the migration aborts (the dual-write mirror kept
//!   the source byte-fresh, so no recovery is needed); post-publish the
//!   target is the column's serving node and ordinary MN recovery runs.
//! * [`ElasticKill::DrainMn`] — the *draining* node (the source) dies.
//!   Pre-publish the migration aborts and the column is rebuilt by
//!   ordinary MN recovery; post-publish the source holds nothing and the
//!   kill must be a pure no-op — a client verb addressed to it is itself
//!   a violation.
//! * [`ElasticKill::Cn`] — the traffic client crashes at a protocol
//!   crash point while the migration is mid-flight; CN recovery runs with
//!   the dual-write mirror still armed, and the migration then completes.
//!
//! The MN kills are armed as a phase-gated [`FaultRule`]
//! ([`FaultRule::in_phase`]): the harness advances the plan's phase at
//! every migrator step boundary, so the kill fires on the traffic
//! client's first verb to the victim *inside* the chosen boundary's
//! window — landing mid-operation whenever the client addresses the
//! victim at all, and falling back to a direct kill when it legitimately
//! does not (a stale snapshot never writes the join target before its
//! first fence bounce; nothing addresses a retired source post-publish).
//!
//! Post-conditions are the shared judge's ([`crate::fixture`]: oracle
//! agreement with per-key ambiguity windows, meta-lock liveness,
//! Index-Version monotonicity, parity scrub, no degraded window left
//! open) plus two elastic ones:
//!
//! 1. **Placement-epoch monotonicity** — the placement epoch strictly
//!    increases at every migrator step and never decreases across aborts
//!    or recovery.
//! 2. **No KV readable only via a retired column** — every node on the
//!    placement snapshot's `retired` list is dead, no directory entry
//!    serves one, and a fresh client can still read the entire oracle.

use crate::axis::{Axis, Outcome};
use crate::fixture::{fail_fast, fmt_key, gen_value, written_off, Fixture};
use aceso_core::client::CrashPoint;
use aceso_core::{recover_mn, AcesoClient, ElasticStep, Migration};
use aceso_rdma::{FaultAction, FaultPlan, FaultRule, TraceSink};
use rand::Rng;
use std::sync::Arc;

/// Preloaded keys the traffic windows draw from.
const KEYS: usize = 24;
/// Client ops per boundary window (mutation-heavy so crash points and
/// verb-triggered kills fire early).
const OPS_PER_WINDOW: usize = 6;

/// Which participant dies mid-rebalance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElasticKill {
    /// Kill the joining node (the migration target).
    JoinMn,
    /// Kill the draining node (the migration source).
    DrainMn,
    /// Crash the traffic client at a protocol crash point.
    Cn,
}

impl ElasticKill {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ElasticKill::JoinMn => "kill-join-mn",
            ElasticKill::DrainMn => "kill-drain-mn",
            ElasticKill::Cn => "crash-cn",
        }
    }
}

/// The migrator step boundary the fault lands on. The fault fires in the
/// traffic window immediately *after* the named step completes (for
/// `Copy`, after the first copy batch — some placement groups moved,
/// some not).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElasticBoundary {
    /// After the target joined and dual-write was armed.
    Announce,
    /// After the first placement-group copy batch.
    Copy,
    /// After the parity re-encode.
    Reencode,
    /// After the column republished on the target.
    Publish,
    /// After the source node drained.
    Free,
}

impl ElasticBoundary {
    /// All five boundaries in step order.
    pub fn all() -> [ElasticBoundary; 5] {
        [
            ElasticBoundary::Announce,
            ElasticBoundary::Copy,
            ElasticBoundary::Reencode,
            ElasticBoundary::Publish,
            ElasticBoundary::Free,
        ]
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ElasticBoundary::Announce => "announce",
            ElasticBoundary::Copy => "copy",
            ElasticBoundary::Reencode => "reencode",
            ElasticBoundary::Publish => "publish",
            ElasticBoundary::Free => "free",
        }
    }

    /// The [`FaultPlan`] phase of this boundary's traffic window: its
    /// position in step order.
    fn phase(self) -> u32 {
        self as u32
    }
}

/// The boundary window a completed migrator step opens.
fn boundary_of(step: ElasticStep) -> ElasticBoundary {
    match step {
        ElasticStep::Announce => ElasticBoundary::Announce,
        ElasticStep::CopyBatch(_) => ElasticBoundary::Copy,
        ElasticStep::Reencode => ElasticBoundary::Reencode,
        ElasticStep::Publish => ElasticBoundary::Publish,
        ElasticStep::Free | ElasticStep::Done => ElasticBoundary::Free,
    }
}

/// One cell of the elastic matrix: a kill at a step boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElasticCell {
    /// Which participant dies.
    pub kill: ElasticKill,
    /// At which migrator step boundary.
    pub boundary: ElasticBoundary,
}

impl core::fmt::Display for ElasticCell {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}@{}", self.kill.label(), self.boundary.label())
    }
}

/// The kill-mid-rebalance axis: three kills × five migrator step
/// boundaries.
#[derive(Clone, Copy, Debug)]
pub struct ElasticAxis;

/// What one elastic cell run observed beyond its violations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ElasticStats {
    /// The column that was migrated.
    pub col: usize,
    /// Whether the MN kill fired on a traffic-client verb (mid-op) rather
    /// than by the direct fallback.
    pub kill_fired_at_verb: bool,
    /// Whether the migration was aborted (pre-publish MN kills).
    pub aborted: bool,
    /// Client ops that committed while the migration was in flight.
    pub committed_ops: usize,
    /// The placement epoch recorded after each migrator step.
    pub epochs: Vec<u64>,
}

impl Axis for ElasticAxis {
    const NAME: &'static str = "elastic";
    const CELLS: &'static str = "kill-mid-rebalance cells";
    const CLEAN: &'static str = "every kill-mid-rebalance cell held its invariants";
    type Cell = ElasticCell;
    type Stats = ElasticStats;

    /// The full 15-cell matrix, in kill-major order (the same for `--ci`).
    fn cells(_seed: u64, _ci: bool) -> Vec<ElasticCell> {
        let kills = [ElasticKill::JoinMn, ElasticKill::DrainMn, ElasticKill::Cn];
        let all = kills.into_iter().flat_map(|kill| ElasticBoundary::all().map(|boundary| ElasticCell { kill, boundary }));
        all.collect()
    }

    fn exec(
        cell: &ElasticCell,
        seed: u64,
        sink: Option<Arc<dyn TraceSink>>,
        out: &mut Outcome<Self>,
    ) -> Result<(), String> {
        run_elastic_cell_inner(cell, seed, out, sink)
    }

    fn summary(outcomes: &[Outcome<Self>]) -> String {
        let committed: usize = outcomes.iter().map(|o| o.stats.committed_ops).sum();
        let verb_kills = outcomes.iter().filter(|o| o.stats.kill_fired_at_verb).count();
        let aborts = outcomes.iter().filter(|o| o.stats.aborted).count();
        format!("{committed} committed ops under migration, {verb_kills} mid-op verb kills, {aborts} aborts")
    }

    fn detail(o: &Outcome<Self>) -> String {
        format!(
            "col {}, {} ops committed, verb-kill={}, aborted={}",
            o.stats.col, o.stats.committed_ops, o.stats.kill_fired_at_verb, o.stats.aborted
        )
    }

    /// The abort path (join target dies mid-copy), the rebuild path
    /// (drain source dies at announce), and a CN crash at the publish
    /// handover. Client verbs interleave with the migrator's fence
    /// installs and copy RPCs; the detector must order every stale-write
    /// → fence-bounce → refreshed-write handoff.
    fn traced() -> Vec<ElasticCell> {
        use {ElasticBoundary as B, ElasticKill as K};
        [(K::JoinMn, B::Copy), (K::DrainMn, B::Announce), (K::Cn, B::Publish)]
            .map(|(kill, boundary)| ElasticCell { kill, boundary })
            .to_vec()
    }

    fn trace_detail(o: &Outcome<Self>) -> String {
        format!("{} ops under migration, ", o.stats.committed_ops)
    }
}

/// Traffic bookkeeping across the boundary windows (the oracle and the
/// ambiguity windows live in the `Fixture`).
#[derive(Default)]
struct Live {
    /// Client ids written off as crashed or blocked mid-op.
    crashed: Vec<u32>,
    /// Ops that committed while the migration was in flight.
    committed: usize,
}

fn traffic_key(j: usize) -> Vec<u8> {
    format!("ek-{j:02}").into_bytes()
}

/// One traffic window: `OPS_PER_WINDOW` updates/searches against the
/// preloaded keys, with the cell's fault armed (`Some`) or not (`None`,
/// every op must succeed). Returns `true` when the window's op was
/// interrupted by the armed fault (the interrupted client is written off
/// in `live`).
fn run_window(
    client: &mut AcesoClient,
    fx: &mut Fixture,
    live: &mut Live,
    violations: &mut Vec<String>,
    armed: Option<ElasticKill>,
) -> bool {
    for opno in 0..OPS_PER_WINDOW {
        let key = traffic_key(fx.rng.gen_range(0..KEYS));
        // Mutation-heavy mix: reads every third op exercise the
        // mid-migration (possibly degraded/mirrored) read path. A read of
        // a key an earlier interrupted op left ambiguous pins its
        // collapsed state.
        let (res, intended) = if opno % 3 == 2 {
            let res = client.search(&key).map(|got| {
                if let Err(e) = fx.oracle.check_read(&key, got) {
                    violations.push(format!("search({}) {e}", fmt_key(&key)));
                }
            });
            (res, None)
        } else {
            let val = gen_value(&mut fx.rng, b'T');
            (client.update(&key, &val), Some(val))
        };
        match res {
            Ok(()) => {
                if intended.is_some() {
                    fx.oracle.commit(&key, intended);
                }
                live.committed += 1;
            }
            Err(e) if armed.is_some_and(|k| written_off(&e, k != ElasticKill::Cn)) => {
                fx.oracle.interrupt(&key, intended);
                live.crashed.push(client.id());
                return true;
            }
            Err(e) => {
                violations.push(format!("op {opno} on {}: unexpected error: {e}", fmt_key(&key)));
                return false;
            }
        }
    }
    false
}

#[allow(clippy::too_many_lines)]
fn run_elastic_cell_inner(
    cell: &ElasticCell,
    seed: u64,
    out: &mut Outcome<ElasticAxis>,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<(), String> {
    // The preload's blocks are closed (= erasure-coded) so the copy
    // batches and the parity re-encode have coded stripes to move.
    let mut fx = Fixture::new(seed, sink, (0..KEYS).map(traffic_key))?;
    let store = Arc::clone(&fx.store);
    let n = store.cfg.num_mns;
    let mut live = Live::default();

    // ---- Start the migration ---------------------------------------------
    let col = fx.rng.gen_range(0..n);
    out.stats.col = col;
    let mut mig = match cell.kill {
        ElasticKill::DrainMn => store.begin_drain(col),
        _ => store.begin_join(col),
    }
    .map_err(|e| format!("begin migration: {e}"))?;
    let from = mig.from_node();
    // The MN an MN-kill cell kills (the join target exists once announced).
    let victim = |mig: &Migration| match cell.kill {
        ElasticKill::JoinMn => mig.to_node().expect("announced"),
        _ => from,
    };

    // The client predates the announce, so it carries a pre-migration
    // placement snapshot into the first windows (the stale-client path).
    let mut client = store
        .client_with(fail_fast())
        .map_err(|e| format!("client: {e}"))?;

    let mut plan: Option<Arc<FaultPlan>> = None;
    let mut prev_epoch = store.placement().epoch();
    let mut handled = false;
    let mut copy_seen = false;

    loop {
        let step = match mig.step() {
            Ok(s) => s,
            Err(e) => {
                out.violations.push(format!("migrator step failed: {e}"));
                break;
            }
        };
        if step == ElasticStep::Done {
            break;
        }

        // Elastic invariant 1 (during): the placement epoch strictly
        // advances at every migrator step.
        let epoch = store.placement().epoch();
        if epoch <= prev_epoch {
            out.violations.push(format!(
                "placement epoch not monotone at {step}: {prev_epoch} -> {epoch}"
            ));
        }
        prev_epoch = epoch;
        out.stats.epochs.push(epoch);

        // The MN kill is armed right after the announce (the join target's
        // id exists from here on), phase-gated to the chosen boundary.
        if step == ElasticStep::Announce && cell.kill != ElasticKill::Cn {
            let p = FaultPlan::with_rules(vec![FaultRule::new(FaultAction::KillNode)
                .on_node(victim(&mig))
                .in_phase(cell.boundary.phase())]);
            client.dm.install_fault_plan(Arc::clone(&p));
            plan = Some(p);
        }
        let window = boundary_of(step);
        if let Some(p) = &plan {
            p.set_phase(window.phase());
        }

        // The kill lands in the first window of its boundary (for Copy:
        // after the first batch, with groups split between the sides).
        let first_of_window = window != ElasticBoundary::Copy || !copy_seen;
        if window == ElasticBoundary::Copy {
            copy_seen = true;
        }
        let at_kill = !handled && window == cell.boundary && first_of_window;
        let armed = at_kill.then_some(cell.kill);
        if armed == Some(ElasticKill::Cn) {
            client.crash_point = Some(CrashPoint::BeforeCommit);
        }

        let interrupted = run_window(&mut client, &mut fx, &mut live, &mut out.violations, armed);

        if !at_kill {
            continue;
        }
        handled = true;
        match cell.kill {
            ElasticKill::Cn => {
                if !interrupted {
                    out.violations.push("CN crash point never fired".into());
                } else {
                    // CN consistency recovery runs with the migration (and
                    // its dual-write mirror) still in flight.
                    store.cluster.trace_barrier();
                    fx.recover_cn(*live.crashed.last().expect("crashed recorded"))?;
                    store.cluster.trace_barrier();
                }
                client = store
                    .client_with(fail_fast())
                    .map_err(|e| format!("post-crash client: {e}"))?;
            }
            ElasticKill::JoinMn | ElasticKill::DrainMn => {
                let victim = victim(&mig);
                out.stats.kill_fired_at_verb = plan
                    .as_ref()
                    .is_some_and(|p| p.fired().iter().any(|f| f.action == FaultAction::KillNode));
                // Post-publish the source holds nothing: a traffic verb
                // addressed to it means a client resolved through a
                // retired column.
                let retired_source = cell.kill == ElasticKill::DrainMn
                    && matches!(cell.boundary, ElasticBoundary::Publish | ElasticBoundary::Free);
                if retired_source && out.stats.kill_fired_at_verb {
                    out.violations
                        .push("client verb reached the retired source post-publish".into());
                }
                if !out.stats.kill_fired_at_verb {
                    // The client never addressed the victim in this window
                    // (stale snapshot, or a retired source): kill directly
                    // at the boundary. Killing through the directory keeps
                    // the server's liveness flag in sync when the victim
                    // is the column's serving node.
                    let serves_col = store.directory().node_of(col) == victim;
                    let was_alive = if serves_col {
                        store.kill_mn(col)
                    } else {
                        store.cluster.kill_node(victim)
                    };
                    // Only an already-drained source may ignore the kill.
                    let drained_source = cell.kill == ElasticKill::DrainMn
                        && cell.boundary == ElasticBoundary::Free;
                    if !(was_alive || drained_source) {
                        out.violations
                            .push(format!("kill of {victim:?} reported node already dead"));
                    }
                }
                // ---- Tiered response ------------------------------------
                // Pre-publish: abort first (placement reverts to the
                // directory, the half-filled target retires, the fences
                // drop) so CN repair does not dual-write into a dead
                // mirror. Then CN consistency, then MN recovery.
                if !mig.published() {
                    mig.abort();
                    out.stats.aborted = true;
                }
                store.cluster.trace_barrier();
                if interrupted {
                    fx.recover_cn(*live.crashed.last().expect("crashed recorded"))?;
                    store.cluster.trace_barrier();
                }
                let col_dead = store
                    .cluster
                    .node(store.directory().node_of(col))
                    .is_err();
                if col_dead {
                    recover_mn(&store, col).map_err(|e| format!("recover_mn: {e}"))?;
                    store.cluster.trace_barrier();
                }
                client = store
                    .client_with(fail_fast())
                    .map_err(|e| format!("post-kill client: {e}"))?;
            }
        }
    }

    // ---- Post-fault liveness ---------------------------------------------
    // One quiet window after the migration completed (or aborted): every
    // op must succeed against the settled membership.
    run_window(&mut client, &mut fx, &mut live, &mut out.violations, None);
    drop(client);
    store.cluster.trace_barrier();

    out.stats.committed_ops = live.committed;
    if live.committed == 0 {
        out.violations
            .push("no client op committed during the migration".into());
    }

    // ---- Invariants ------------------------------------------------------
    // The judge's fresh client carries a snapshot that excludes retired
    // nodes, so its oracle sweep doubles as the readability half of
    // elastic invariant 2: a KV whose only copy sat on a retired column
    // cannot read back. Every interrupted key is probed.
    let probes: Vec<Vec<u8>> = fx.oracle.windows.keys().cloned().collect();
    fx.judge(&probes, &[], &mut out.violations)?;

    // Elastic invariant 1 (after): placement-epoch monotonicity across
    // the whole cell.
    let final_epoch = store.placement().epoch();
    if final_epoch < prev_epoch {
        out.violations.push(format!(
            "placement epoch regressed after recovery: {prev_epoch} -> {final_epoch}"
        ));
    }

    // Elastic invariant 2: no KV readable only via a retired column —
    // every retired node is dead, no directory entry serves one, and the
    // migration closed.
    let snap = store.placement().snapshot();
    if snap.migration.is_some() {
        out.violations.push("migration left open on the placement map".into());
    }
    for &r in &snap.retired {
        if store.cluster.node(r).is_ok() {
            out.violations.push(format!("retired node {r:?} still alive"));
        }
        for c in 0..n {
            if store.directory().node_of(c) == r {
                out.violations
                    .push(format!("directory serves col {c} from retired node {r:?}"));
            }
        }
    }
    if out.stats.aborted {
        if snap.retired.contains(&from) {
            out.violations
                .push("aborted migration retired its source".into());
        }
    } else if !snap.retired.contains(&from) {
        out.violations
            .push("completed migration did not retire its source".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::assert_deterministic;

    /// The joining node dies right after the first copy batch: the
    /// migration aborts, nothing needs recovery, and all invariants hold.
    #[test]
    fn join_target_killed_mid_copy_aborts_clean() {
        let cell = ElasticCell {
            kill: ElasticKill::JoinMn,
            boundary: ElasticBoundary::Copy,
        };
        let out = ElasticAxis::run(&cell, crate::DEFAULT_SEED, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(out.stats.aborted);
        assert!(out.stats.committed_ops > 0);
    }

    /// The draining source dies at the announce boundary: abort + ordinary
    /// MN recovery rebuild the column.
    #[test]
    fn drain_source_killed_at_announce_recovers() {
        let cell = ElasticCell {
            kill: ElasticKill::DrainMn,
            boundary: ElasticBoundary::Announce,
        };
        let out = ElasticAxis::run(&cell, crate::DEFAULT_SEED, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(out.stats.aborted);
    }

    /// A client crash at the publish boundary: CN recovery runs against
    /// the just-republished column and the migration still completes.
    #[test]
    fn cn_crash_at_publish_completes_migration() {
        let cell = ElasticCell {
            kill: ElasticKill::Cn,
            boundary: ElasticBoundary::Publish,
        };
        let out = ElasticAxis::run(&cell, crate::DEFAULT_SEED, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(!out.stats.aborted, "CN crashes never abort the migration");
    }

    /// Post-publish the drained source must receive no client verbs: the
    /// phase-gated kill rule stays silent and the direct kill is a no-op
    /// at the free boundary.
    #[test]
    fn retired_source_receives_no_client_verbs() {
        for boundary in [ElasticBoundary::Publish, ElasticBoundary::Free] {
            let cell = ElasticCell {
                kill: ElasticKill::DrainMn,
                boundary,
            };
            let out = ElasticAxis::run(&cell, crate::DEFAULT_SEED, None);
            assert!(out.ok(), "{}: {:?}", cell, out.violations);
            assert!(!out.stats.kill_fired_at_verb, "{cell}: verb reached retired source");
            assert!(!out.stats.aborted);
        }
    }

    /// Same seed, same schedule, same outcome.
    #[test]
    fn elastic_cell_is_deterministic() {
        let cell = ElasticCell {
            kill: ElasticKill::JoinMn,
            boundary: ElasticBoundary::Reencode,
        };
        assert_deterministic::<ElasticAxis>(cell, 77);
    }
}
