//! `chaos rt` — the coroutine-runtime fault axis.
//!
//! The crash matrix kills nodes under a *single* blocking client. This
//! axis kills them under an [`aceso_rt::Executor`] multiplexing several
//! resumable client ops on one OS thread: the fault fires while N > 1
//! tasks are suspended mid-op at a fabric round trip, so recovery has to
//! cope with several half-finished commits from the *same* thread at
//! once — the failure mode the paper's client coroutines (§4.1) add on
//! top of the plain crash matrix.
//!
//! Two kills:
//!
//! * [`RtKill::Mn`] — a memory node dies at a fixed completion-queue
//!   step (so the kill lands between polls, with every in-flight task
//!   suspended at a round trip); the suspended tasks wake into an
//!   unreachable fabric and are written off as crashed-while-blocked.
//! * [`RtKill::Cn`] — one task's client crashes at a protocol crash
//!   point ([`CrashPoint::BeforeCommit`]) while its sibling tasks keep
//!   running on the same executor thread.
//!
//! Every task owns a disjoint key range, so the shared oracle stays
//! exact under interleaving; tasks interrupted mid-op contribute a
//! per-key commit ambiguity window instead. Post-conditions are the
//! shared judge's (oracle agreement, meta-lock liveness on every
//! interrupted key, Index-Version monotonicity, parity scrub, no
//! degraded window left open) — see [`crate::fixture`].

use crate::axis::{Axis, Outcome};
use crate::fixture::{fail_fast, fmt_key, gen_value, written_off, Fixture, Oracle};
use aceso_core::client::CrashPoint;
use aceso_core::{recover_mn, StoreError};
use aceso_rdma::{SimCq, TraceSink};
use aceso_rt::Executor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Coroutine tasks multiplexed on the one executor thread.
pub const RT_TASKS: usize = 6;
/// Keys each task owns (disjoint ranges keep the oracle exact).
const KEYS_PER_TASK: usize = 4;
/// Ops each task issues (alternating update / search).
const OPS_PER_TASK: usize = 6;
/// CQ advance step at which [`RtKill::Mn`] fires. Early enough that all
/// tasks are still mid-stream, late enough that commits are in flight.
const MN_KILL_STEP: u64 = 48;

/// Which side of the fabric dies under the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtKill {
    /// Kill a memory node between executor polls.
    Mn,
    /// Crash one task's client at a protocol crash point.
    Cn,
}

impl fmt::Display for RtKill {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RtKill::Mn => "kill-mn",
            RtKill::Cn => "crash-cn",
        })
    }
}

/// The coroutine-runtime axis. Both cells run on the master seed
/// verbatim, in `chaos rt` as in `chaos analyze`.
#[derive(Clone, Copy, Debug)]
pub struct RtAxis;

/// What one runtime-axis run observed beyond its violations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RtStats {
    /// Tasks still mid-op when the fault fired (must be > 1).
    pub inflight_at_fault: usize,
    /// Tasks written off as crashed or blocked.
    pub crashed_tasks: usize,
}

impl Axis for RtAxis {
    const NAME: &'static str = "rt";
    const CELLS: &'static str = "coroutine-runtime cells";
    const CLEAN: &'static str = "every runtime cell held its invariants";
    const VERBATIM_SEED: bool = true;
    type Cell = RtKill;
    type Stats = RtStats;

    fn cells(_seed: u64, _ci: bool) -> Vec<RtKill> {
        vec![RtKill::Mn, RtKill::Cn]
    }

    fn exec(
        kill: &RtKill,
        seed: u64,
        sink: Option<Arc<dyn TraceSink>>,
        out: &mut Outcome<Self>,
    ) -> Result<(), String> {
        run_rt_cell_inner(*kill, seed, out, sink)
    }

    fn summary(outcomes: &[Outcome<Self>]) -> String {
        let crashed: usize = outcomes.iter().map(|o| o.stats.crashed_tasks).sum();
        format!("{crashed} tasks crashed")
    }

    fn detail(o: &Outcome<Self>) -> String {
        format!(
            "{} in flight at fault, {} tasks crashed",
            o.stats.inflight_at_fault, o.stats.crashed_tasks
        )
    }

    /// Both kills: the detector must order every cross-client handoff
    /// even though the clients interleave at round-trip granularity on
    /// one thread — the per-client trace ids have to survive it.
    fn traced() -> Vec<RtKill> {
        vec![RtKill::Mn, RtKill::Cn]
    }

    fn trace_detail(o: &Outcome<Self>) -> String {
        format!(
            "{RT_TASKS} tasks (one thread), {} in flight at fault, ",
            o.stats.inflight_at_fault
        )
    }
}

/// State the tasks share through the single-threaded executor.
#[derive(Default)]
struct SharedState {
    /// Acknowledged writes and ambiguity windows (tasks own disjoint
    /// keys, so the oracle stays exact under interleaving).
    oracle: Oracle,
    /// Keys of interrupted ops, in the order their tasks were written off.
    interrupted: Vec<Vec<u8>>,
    /// Client ids of tasks written off as crashed/blocked.
    crashed: Vec<u32>,
    /// Violations observed while the tasks ran.
    violations: Vec<String>,
    /// Tasks that ran to completion (or stopped) so far.
    finished: usize,
    /// `RT_TASKS - finished` sampled when the fault fired.
    inflight_at_fault: Option<usize>,
}

fn task_key(task: usize, j: usize) -> Vec<u8> {
    format!("rt-{task}-{j:02}").into_bytes()
}

fn run_rt_cell_inner(
    kill: RtKill,
    seed: u64,
    out: &mut Outcome<RtAxis>,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<(), String> {
    let keys = (0..RT_TASKS).flat_map(|t| (0..KEYS_PER_TASK).map(move |j| task_key(t, j)));
    let mut fx = Fixture::new(seed, sink, keys)?;
    let store = Arc::clone(&fx.store);
    let n = store.cfg.num_mns;
    let shared = Rc::new(RefCell::new(SharedState {
        oracle: std::mem::take(&mut fx.oracle),
        ..SharedState::default()
    }));

    // ---- Spawn the coroutine clients -------------------------------------
    // Fail-fast tuning matters twice here: the index-wait sleeps run
    // inline on the executor thread, so they must stay short.
    let kill_col = fx.rng.gen_range(0..n);
    let mn_kill_planned = kill == RtKill::Mn;

    let cq = Arc::new(SimCq::new());
    let mut exec = Executor::new();
    for t in 0..RT_TASKS {
        let mut client = store
            .client_with(fail_fast())
            .map_err(|e| format!("client {t}: {e}"))?;
        client.dm.attach_cq(Arc::clone(&cq));
        if kill == RtKill::Cn && t == 0 {
            client.crash_point = Some(CrashPoint::BeforeCommit);
        }
        let shared = Rc::clone(&shared);
        let mut task_rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9e37_79b9));
        exec.spawn(async move {
            let cli_id = client.id();
            for opno in 0..OPS_PER_TASK {
                let j = task_rng.gen_range(0..KEYS_PER_TASK);
                let key = task_key(t, j);
                // Even ops mutate (so the CN crash point fires early),
                // odd ops read back through the full search path.
                let (res, intended) = if opno % 2 == 0 {
                    let val = gen_value(&mut task_rng, b'0' + t as u8);
                    (client.update_async(&key, &val).await, Some(val))
                } else {
                    let prev = shared.borrow().oracle.get(&key);
                    let res = client.search_async(&key).await.map(|got| {
                        let checked = shared.borrow_mut().oracle.check_read(&key, got);
                        if let Err(e) = checked {
                            let msg = format!("task {t}: search({}) {e}", fmt_key(&key));
                            shared.borrow_mut().violations.push(msg);
                        }
                    });
                    (res, prev)
                };
                match res {
                    Ok(()) => {
                        if intended.is_some() {
                            shared.borrow_mut().oracle.commit(&key, intended);
                        }
                    }
                    // The armed crash point fired mid-commit, or the MN
                    // died under the op and nobody recovers it until the
                    // executor drains: written off as crashed-while-blocked.
                    Err(e) if written_off(&e, mn_kill_planned) => {
                        let mut st = shared.borrow_mut();
                        st.oracle.interrupt(&key, intended);
                        st.interrupted.push(key);
                        st.crashed.push(cli_id);
                        if matches!(e, StoreError::Shutdown) {
                            let inflight = RT_TASKS - st.finished;
                            st.inflight_at_fault.get_or_insert(inflight);
                        }
                        break;
                    }
                    Err(e) => {
                        shared
                            .borrow_mut()
                            .violations
                            .push(format!("task {t} op {opno}: unexpected error: {e}"));
                        break;
                    }
                }
            }
            client.dm.detach_cq();
            shared.borrow_mut().finished += 1;
        });
    }

    // ---- Drive to idle, killing mid-suspension ---------------------------
    // The drive closure only runs when the ready queue is empty, i.e.
    // every live task is suspended at a fabric round trip — exactly the
    // window the MN kill must land in.
    let mut steps = 0u64;
    let mut mn_killed = false;
    let stuck = {
        let store = Arc::clone(&store);
        let shared = Rc::clone(&shared);
        exec.run_until_idle(|| {
            let advanced = cq.advance_next();
            if advanced {
                steps += 1;
                if mn_kill_planned && steps == MN_KILL_STEP && !mn_killed {
                    mn_killed = store.kill_mn(kill_col);
                    let mut st = shared.borrow_mut();
                    let inflight = RT_TASKS - st.finished;
                    st.inflight_at_fault.get_or_insert(inflight);
                }
            }
            advanced
        })
    };
    if stuck != 0 {
        out.violations
            .push(format!("executor wedged with {stuck} tasks in flight"));
    }
    if mn_kill_planned && !mn_killed {
        out.violations.push(format!(
            "MN kill never fired (run drained in {steps} < {MN_KILL_STEP} CQ steps)"
        ));
    }
    store.cluster.trace_barrier();

    let (interrupted, crashed) = {
        let mut st = shared.borrow_mut();
        out.stats.inflight_at_fault = st.inflight_at_fault.unwrap_or(0);
        out.violations.append(&mut st.violations);
        fx.oracle = std::mem::take(&mut st.oracle);
        (std::mem::take(&mut st.interrupted), std::mem::take(&mut st.crashed))
    };
    out.stats.crashed_tasks = crashed.len();
    if out.stats.inflight_at_fault < 2 {
        out.violations.push(format!(
            "fault fired with {} tasks in flight (need > 1 suspended mid-op)",
            out.stats.inflight_at_fault
        ));
    }
    if kill == RtKill::Cn && crashed.is_empty() {
        out.violations
            .push("CN crash point never fired".to_string());
    }

    // ---- Tiered recovery (§3.4: CN consistency first, then MN) -----------
    for cli_id in &crashed {
        fx.recover_cn(*cli_id)?;
        // Each CN repair is its own membership-service epoch: the service
        // fences one crashed client's rollback before admitting the next,
        // so consecutive repairs (which share parity stripes) are
        // barrier-ordered in the verb trace.
        store.cluster.trace_barrier();
    }
    if mn_killed {
        recover_mn(&store, kill_col).map_err(|e| format!("recover_mn: {e}"))?;
    }
    store.cluster.trace_barrier();

    // ---- Invariants ------------------------------------------------------
    // Every interrupted key has its per-task ambiguity window and is
    // probed, in the order the tasks were written off.
    fx.judge(&interrupted, &[], &mut out.violations)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::assert_deterministic;

    /// The MN dies between polls with several tasks suspended mid-op;
    /// every invariant holds after tiered recovery.
    #[test]
    fn mn_kill_under_runtime_passes() {
        let out = RtAxis::run(&RtKill::Mn, crate::DEFAULT_SEED, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert!(out.stats.inflight_at_fault >= 2, "{:?}", out.stats);
    }

    /// One task's client crashes at a protocol crash point while its
    /// siblings keep running on the same executor thread.
    #[test]
    fn cn_crash_under_runtime_passes() {
        let out = RtAxis::run(&RtKill::Cn, crate::DEFAULT_SEED, None);
        assert!(out.ok(), "{:?}", out.violations);
        assert_eq!(out.stats.crashed_tasks, 1);
        assert!(out.stats.inflight_at_fault >= 2, "{:?}", out.stats);
    }

    /// Same seed, same schedule, same outcome.
    #[test]
    fn rt_cell_is_deterministic() {
        assert_deterministic::<RtAxis>(RtKill::Mn, 77);
    }
}
