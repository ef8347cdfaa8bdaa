//! `chaos analyze` — the happens-before race detector driven over the
//! executions the harness already produces.
//!
//! Seven stages, all seeded from one master seed:
//!
//! 1. **Traced sweep** — every cell of the (CI or full) crash matrix runs
//!    under a fresh [`aceso_san::Detector`], with the identical per-cell
//!    seeds the plain `sweep` would use, so a reported race replays with
//!    `chaos cell <id> --seed <cell seed>`.
//! 2. **Multi-client YCSB-A trace** — four clients share one store and
//!    interleave a Zipfian 50/50 read/update mix; the detector checks that
//!    every cross-client handoff is ordered by a commit CAS, lock CAS,
//!    FAA, RPC, or barrier edge.
//!
//! Stages 3–6 trace each axis's [`crate::Axis::traced`] slice on the
//! master seed *verbatim* (not a per-cell seed), so a finding there
//! replays by rerunning `chaos analyze` with the same seed — `chaos cell`
//! replays crash-matrix cells only.
//!
//! 3. **Runtime axis** ([`crate::rt_axis`]) — coroutine clients
//!    interleave at *round-trip* granularity on one OS thread, so
//!    per-client trace ids must survive the interleaving for the
//!    happens-before graph to stay sound.
//! 4. **Elastic axis** ([`crate::elastic_axis`]) — client verbs
//!    interleave with the migrator's fence installs and copy RPCs, so
//!    every cross-epoch handoff (stale write → fence bounce → refreshed
//!    write) must be RPC- or barrier-ordered.
//! 5. **Backends axis** ([`crate::backends_axis`]) — one cell per
//!    [`aceso_engines::EngineKind`]: the replication engines' commit
//!    protocols (write-then-CAS publication, doorbell-batched 1-RTT
//!    commits) must order every cross-client handoff just as Aceso's do,
//!    including across a torn write and its reconcile pass.
//! 6. **Cache axis** ([`crate::cache_axis`]) — a node (or the client)
//!    dies between cache fill and use, so the hot-cache fast path's
//!    revalidating slot re-reads must be ordered against the recovery
//!    stream that rebuilt the memory they land on.
//! 7. **Liveness + lints** — the mutation self-tests
//!    ([`aceso_san::selftest`]) prove each ordering edge is actually
//!    checked (a weakened edge must produce a report), and the static
//!    protocol lints ([`aceso_san::lint`]) check layout constants and
//!    `CrashPoint` wiring.
//!
//! The run is clean only when all seven stages are: zero races, zero
//! detector violations, every self-test live, zero lint findings — and the
//! traced cells still hold their invariants.

use crate::axis::{annotator, render_slice, trace_matrix, trace_slice, Traced};
use crate::backends_axis::BackendsAxis;
use crate::cache_axis::CacheAxis;
use crate::cell::Cell;
use crate::elastic_axis::ElasticAxis;
use crate::fixture::Fixture;
use crate::rt_axis::RtAxis;
use crate::runner::CrashMatrix;
use aceso_rdma::TraceSink;
use aceso_san::{lint, selftest, Detector, SelftestOutcome};
use aceso_workloads::ycsb::YcsbKind;
use aceso_workloads::{value_for, Op, YcsbWorkload};
use std::sync::Arc;

/// Detector findings for the multi-client YCSB trace.
#[derive(Clone, Debug)]
pub struct YcsbTrace {
    /// Logical clients interleaved.
    pub clients: usize,
    /// Operations executed.
    pub ops: usize,
    /// Events the detector processed.
    pub events: u64,
    /// Rendered races the detector reported.
    pub races: Vec<String>,
    /// Store errors the trace hit (a clean trace has none).
    pub errors: Vec<String>,
}

/// Everything one `chaos analyze` run produced.
#[derive(Clone, Debug)]
pub struct AnalyzeReport {
    /// The master seed.
    pub seed: u64,
    /// Per-cell detector findings, in sweep order.
    pub cells: Vec<Traced<CrashMatrix>>,
    /// The YCSB-A trace findings.
    pub ycsb: YcsbTrace,
    /// The runtime-axis slice (one per [`crate::RtKill`]).
    pub rt: Vec<Traced<RtAxis>>,
    /// The elastic-axis slice.
    pub elastic: Vec<Traced<ElasticAxis>>,
    /// The backends-axis slice.
    pub backends: Vec<Traced<BackendsAxis>>,
    /// The cache-axis slice.
    pub cache: Vec<Traced<CacheAxis>>,
    /// Mutation self-test outcomes (detector liveness proof).
    pub selftests: Vec<SelftestOutcome>,
    /// Static protocol lint findings.
    pub lint_violations: Vec<String>,
}

impl AnalyzeReport {
    /// `true` when every stage came back clean.
    pub fn clean(&self) -> bool {
        self.cells.iter().all(Traced::ok)
            && self.ycsb.races.is_empty()
            && self.ycsb.errors.is_empty()
            && self.rt.iter().all(Traced::ok)
            && self.elastic.iter().all(Traced::ok)
            && self.backends.iter().all(Traced::ok)
            && self.cache.iter().all(Traced::ok)
            && self.selftests.iter().all(SelftestOutcome::ok)
            && self.lint_violations.is_empty()
    }

    /// Renders the analyze report.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let cell_events: u64 = self.cells.iter().map(|c| c.events).sum();
        let racy = self.cells.iter().filter(|c| !c.races.is_empty()).count();
        let broken = self
            .cells
            .iter()
            .filter(|c| !c.out.ok() || !c.detector_violations.is_empty())
            .count();
        s.push_str(&format!(
            "analyze report: seed {:#x}\n  sweep: {} cells traced, {} events, {} racy cells, {} otherwise-violating cells\n",
            self.seed,
            self.cells.len(),
            cell_events,
            racy,
            broken
        ));
        for c in self.cells.iter().filter(|c| !c.ok()) {
            s.push_str(&format!("    cell {} (seed {:#x}):\n", c.out.cell, c.out.seed));
            s.push_str(&c.findings("      "));
        }
        s.push_str(&format!(
            "  {}: {} clients, {} ops, {} events, {} races\n",
            YcsbKind::A.name(),
            self.ycsb.clients,
            self.ycsb.ops,
            self.ycsb.events,
            self.ycsb.races.len()
        ));
        for r in &self.ycsb.races {
            s.push_str(&format!("    race: {r}\n"));
        }
        for e in &self.ycsb.errors {
            s.push_str(&format!("    error: {e}\n"));
        }
        s.push_str(&render_slice(&self.rt));
        s.push_str(&render_slice(&self.elastic));
        s.push_str(&render_slice(&self.backends));
        s.push_str(&render_slice(&self.cache));
        s.push_str("  detector liveness (mutation self-tests):\n");
        for t in &self.selftests {
            if t.ok() {
                s.push_str(&format!("    {:<24} detected: {}\n", t.name, t.report));
            } else if !t.baseline_clean {
                s.push_str(&format!(
                    "    {:<24} FALSE POSITIVE in baseline: {}\n",
                    t.name, t.report
                ));
            } else {
                s.push_str(&format!("    {:<24} MUTATION UNDETECTED\n", t.name));
            }
        }
        if self.lint_violations.is_empty() {
            s.push_str("  protocol lints: clean\n");
        } else {
            s.push_str(&format!(
                "  protocol lints: {} violations\n",
                self.lint_violations.len()
            ));
            for v in &self.lint_violations {
                s.push_str(&format!("    - {v}\n"));
            }
        }
        s.push_str(if self.clean() {
            "  no unordered conflicting accesses in any traced execution\n"
        } else {
            "  ANALYSIS FOUND PROBLEMS (see above)\n"
        });
        s
    }
}

/// Four logical clients interleaving YCSB-A over one store, traced.
///
/// The interleaving is round-robin in a single thread so the schedule is
/// deterministic under the seed; each logical client is a distinct
/// [`aceso_core::AcesoClient`] (own DM client, own trace id), so every
/// cross-client handoff still has to be justified by a happens-before
/// edge. The keyspace and op count are sized to stay well inside fresh
/// blocks (no reclamation) and inside the CI time budget.
pub fn analyze_ycsb(seed: u64) -> YcsbTrace {
    let det = Arc::new(Detector::with_annotator(annotator()));
    let mut trace = YcsbTrace {
        clients: YCSB_CLIENTS,
        ops: 0,
        events: 0,
        races: Vec::new(),
        errors: Vec::new(),
    };
    if let Err(e) = run_ycsb(seed, det.clone(), &mut trace) {
        trace.errors.push(e);
    }
    trace.races = det.races().iter().map(|r| r.to_string()).collect();
    trace
        .errors
        .extend(det.violations().iter().map(|v| format!("detector: {v}")));
    trace.events = det.events();
    trace
}

const YCSB_CLIENTS: usize = 4;

/// The traced YCSB-A run itself; `Err` is a setup failure.
fn run_ycsb(seed: u64, sink: Arc<dyn TraceSink>, trace: &mut YcsbTrace) -> Result<(), String> {
    const KEYS: u64 = 200;
    const OPS: usize = 2000;
    const VALUE_LEN: usize = 64;

    let fx = Fixture::launch(seed, Some(sink))?;
    let mut clients = (0..YCSB_CLIENTS)
        .map(|_| fx.store.client())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("client: {e}"))?;
    for key in YcsbWorkload::preload_keys(KEYS) {
        clients[0]
            .insert(&key, &value_for(&key, 0, VALUE_LEN))
            .map_err(|e| format!("preload: {e}"))?;
    }
    fx.store.cluster.trace_barrier();

    let mut streams: Vec<YcsbWorkload> = (0..YCSB_CLIENTS)
        .map(|i| YcsbWorkload::new(YcsbKind::A, KEYS, 0.99, VALUE_LEN, i as u32, seed))
        .collect();
    for opno in 0..OPS {
        let i = opno % YCSB_CLIENTS;
        let req = streams[i].next().expect("ycsb streams are infinite");
        let val = value_for(&req.key, opno as u64, req.value_len);
        let res = match req.op {
            Op::Search => clients[i].search(&req.key).map(|_| ()),
            Op::Update => clients[i].update(&req.key, &val),
            Op::Insert => clients[i].insert(&req.key, &val),
            Op::Delete => clients[i].delete(&req.key).map(|_| ()),
        };
        if let Err(e) = res {
            trace.errors.push(format!("op {opno} ({:?}): {e}", req.op));
            if trace.errors.len() >= 8 {
                break;
            }
        }
        trace.ops += 1;
    }
    fx.store.cluster.trace_barrier();
    Ok(())
}

/// Runs all seven stages. The crash-matrix cells run with the sweep's
/// per-cell seeds; every axis slice runs on `seed` verbatim (see
/// [`crate::axis`]).
pub fn analyze(
    cells: &[Cell],
    seed: u64,
    progress: impl FnMut(&Traced<CrashMatrix>),
) -> AnalyzeReport {
    AnalyzeReport {
        seed,
        cells: trace_matrix(cells, seed, progress),
        ycsb: analyze_ycsb(seed),
        rt: trace_slice(seed),
        elastic: trace_slice(seed),
        backends: trace_slice(seed),
        cache: trace_slice(seed),
        selftests: selftest::run_all(),
        lint_violations: lint::run_all(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::Axis;
    use crate::cell::{InjectionSite, KillTiming, OpType, ReclaimState};
    use aceso_core::client::CrashPoint;

    /// Every cell of the axis's traced slice is race-free, held its
    /// invariants, and actually produced a trace.
    fn assert_slice_clean<A: Axis>(traces: &[Traced<A>]) {
        assert_eq!(traces.len(), A::traced().len());
        for t in traces {
            assert!(t.ok(), "{} {}:\n{}", A::NAME, t.out.cell, t.findings("  "));
            assert!(t.events > 100, "{} {}: only {} events", A::NAME, t.out.cell, t.events);
        }
    }

    /// One quiet cell and one crashing cell, both traced: no races, and
    /// the detector actually saw the execution.
    #[test]
    fn traced_cells_are_race_free_and_nonempty() {
        let cells = [
            Cell {
                op: OpType::Update,
                site: InjectionSite::None,
                kill: KillTiming::None,
                reclaim: ReclaimState::Fresh,
            },
            Cell {
                op: OpType::Insert,
                site: InjectionSite::Client(CrashPoint::BeforeCommit),
                kill: KillTiming::None,
                reclaim: ReclaimState::Fresh,
            },
        ];
        for t in trace_matrix::<CrashMatrix>(&cells, 41, |_| {}) {
            assert!(t.ok(), "cell {}:\n{}", t.out.cell, t.findings("  "));
            assert!(t.events > 100, "cell {}: only {} events traced", t.out.cell, t.events);
        }
    }

    /// Both runtime-axis kills trace race-free: the detector orders
    /// every handoff even though the clients interleave at round-trip
    /// granularity on one thread, and the cell invariants hold.
    #[test]
    fn rt_traces_are_race_free() {
        let traces = trace_slice::<RtAxis>(crate::DEFAULT_SEED);
        assert_slice_clean(&traces);
        assert!(traces.iter().all(|t| t.out.stats.inflight_at_fault >= 2));
    }

    /// The traced elastic slice is race-free: the migrator's fence/copy
    /// stream interleaved with client verbs produces no unordered
    /// conflicting accesses, and the cells hold their invariants.
    #[test]
    fn elastic_traces_are_race_free() {
        let traces = trace_slice::<ElasticAxis>(crate::DEFAULT_SEED);
        assert_slice_clean(&traces);
        assert!(traces.iter().all(|t| t.out.stats.committed_ops > 0));
    }

    /// The traced backends slice is race-free on every engine: FUSEE's
    /// write-then-CAS replication and SWARM's doorbell-batched commit
    /// order every cross-client handoff across torn writes and node
    /// kills, just like Aceso's native protocol.
    #[test]
    fn backends_traces_are_race_free() {
        assert_slice_clean(&trace_slice::<BackendsAxis>(crate::DEFAULT_SEED));
    }

    /// The traced cache slice is race-free: the kill between cache fill
    /// and use, the recovery stream, and the hot-cache revalidation reads
    /// produce no unordered conflicting accesses, and every cell holds
    /// the no-stale-read-after-recovery invariant.
    #[test]
    fn cache_traces_are_race_free() {
        let traces = trace_slice::<CacheAxis>(crate::DEFAULT_SEED);
        assert_slice_clean(&traces);
        assert!(traces.iter().all(|t| t.out.stats.warm_entries > 0));
    }

    /// The multi-client YCSB-A interleaving is race-free and replays
    /// identically under the same seed.
    #[test]
    fn ycsb_trace_is_race_free_and_deterministic() {
        let a = analyze_ycsb(7);
        assert!(a.races.is_empty(), "{:?}", a.races);
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!(a.ops, 2000);
        assert!(a.events > 1000, "only {} events traced", a.events);
        let b = analyze_ycsb(7);
        assert_eq!(a.events, b.events);
    }
}
