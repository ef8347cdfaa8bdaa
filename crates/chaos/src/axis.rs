//! The one skeleton every chaos axis runs on.
//!
//! An axis is a fixed vocabulary of cells plus one script that runs a
//! cell against a live store and records what it observed. The [`Axis`]
//! trait captures exactly that, and the generic code in this module does
//! everything else once: the wall-clock and harness-error bookkeeping of
//! a cell run ([`Axis::run`]), the matrix run with per-cell seeds
//! ([`run_matrix`]), the report ([`Report::clean`] / [`Report::render`]),
//! and the traced run under a fresh [`aceso_san::Detector`] ([`trace`],
//! [`trace_matrix`], [`trace_slice`]).
//!
//! **Seeds.** A matrix run draws one seed per cell from the master seed's
//! stream ([`cell_seeds`]), so a whole matrix replays from one number and
//! a crash-matrix finding replays verbatim with `chaos cell <id> --seed
//! <cell seed>`. The slices `chaos analyze` traces ([`Axis::traced`]) run
//! on the master seed *verbatim*, not on a per-cell seed: that keeps the
//! analyze report byte-identical to the one the per-axis analysis always
//! produced. A slice finding therefore replays by rerunning `chaos
//! analyze` with the same master seed, not with `chaos cell`.

use crate::fixture::chaos_config;
use aceso_index::IndexWord;
use aceso_rdma::TraceSink;
use aceso_san::{Annotator, Detector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// One fault axis: its cells, its per-cell script, and how its reports
/// read. Implementors are unit structs; every method is an associated
/// function.
pub trait Axis: Sized + Clone + fmt::Debug {
    /// CLI mode and report name (`sweep`, `rt`, `elastic`, …).
    const NAME: &'static str;
    /// What the CLI banner calls the cells, e.g. `"stale-cache cells"`.
    const CELLS: &'static str;
    /// Verdict line of a clean report.
    const CLEAN: &'static str;
    /// Whether every cell runs on the master seed verbatim instead of a
    /// per-cell seed from [`cell_seeds`] (the runtime axis: its cells are
    /// one schedule under two different faults).
    const VERBATIM_SEED: bool = false;
    /// One cell of the axis.
    type Cell: Copy + PartialEq + fmt::Debug + fmt::Display;
    /// What one cell run observed beyond its violations. Equality must
    /// ignore wall-clock fields, so two runs of one cell compare equal.
    type Stats: Clone + Default + PartialEq + fmt::Debug;

    /// The cells a `chaos <NAME>` run explores; `ci` selects the tier-1
    /// profile (the same cells for every fixed-size axis).
    fn cells(seed: u64, ci: bool) -> Vec<Self::Cell>;

    /// The axis script: runs `cell` with `seed` (the sink, if any, is
    /// installed on the cluster for the duration), pushing invariant
    /// violations and filling stats into `out`. `Err` is an
    /// infrastructure failure, which [`Axis::run`] reports as a violation
    /// too: a cell that cannot even set up is a finding, not a skip.
    fn exec(
        cell: &Self::Cell,
        seed: u64,
        sink: Option<Arc<dyn TraceSink>>,
        out: &mut Outcome<Self>,
    ) -> Result<(), String>;

    /// The report's one summary line, after `{n} cells, {f} failed, `.
    fn summary(outcomes: &[Outcome<Self>]) -> String;

    /// The CLI progress detail of one outcome, after its duration.
    fn detail(out: &Outcome<Self>) -> String;

    /// The slice `chaos analyze` traces, on the master seed verbatim
    /// (see the module docs).
    fn traced() -> Vec<Self::Cell>;

    /// The analyze line's detail for one traced cell, before the event
    /// count (empty or ending in `", "`).
    fn trace_detail(_out: &Outcome<Self>) -> String {
        String::new()
    }

    /// Whether the detector annotates addresses with the Aceso memory
    /// map (engines with their own layouts run unannotated).
    fn annotate(_cell: &Self::Cell) -> bool {
        true
    }

    /// Runs one cell: [`Axis::exec`] plus wall-clock and harness-error
    /// bookkeeping.
    fn run(cell: &Self::Cell, seed: u64, sink: Option<Arc<dyn TraceSink>>) -> Outcome<Self> {
        let start = Instant::now();
        let mut out = Outcome {
            cell: *cell,
            seed,
            violations: Vec::new(),
            stats: Self::Stats::default(),
            duration_ms: 0,
        };
        if let Err(e) = Self::exec(cell, seed, sink, &mut out) {
            out.violations.push(format!("harness: {e}"));
        }
        out.duration_ms = start.elapsed().as_millis();
        out
    }

    /// Renders a report. The default is the shared layout: a header, the
    /// summary line, every violating cell, and the verdict.
    fn render(report: &Report<Self>) -> String {
        let failed = report.outcomes.iter().filter(|o| !o.ok()).count();
        let mut s = format!(
            "{} report: seed {:#x}\n  {} cells, {failed} failed, {}\n",
            Self::NAME,
            report.seed,
            report.outcomes.len(),
            Self::summary(&report.outcomes)
        );
        for o in report.outcomes.iter().filter(|o| !o.ok()) {
            s.push_str(&format!("  cell {} (seed {:#x}):\n", o.cell, o.seed));
            for v in &o.violations {
                s.push_str(&format!("    - {v}\n"));
            }
        }
        if report.clean() {
            s.push_str(&format!("  {}\n", Self::CLEAN));
        } else {
            s.push_str(&format!(
                "  {} AXIS FOUND PROBLEMS (see above)\n",
                Self::NAME.to_uppercase()
            ));
        }
        s
    }
}

/// What one cell run observed.
#[derive(Clone, Debug)]
pub struct Outcome<A: Axis> {
    /// The cell that ran.
    pub cell: A::Cell,
    /// The seed its schedule was derived from.
    pub seed: u64,
    /// Invariant violations (empty = the cell passed).
    pub violations: Vec<String>,
    /// Axis-specific observations.
    pub stats: A::Stats,
    /// Wall-clock cost of the cell.
    pub duration_ms: u128,
}

impl<A: Axis> Outcome<A> {
    /// `true` when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Equality ignores `duration_ms`: two runs of one cell with one seed
/// must agree on everything else.
impl<A: Axis> PartialEq for Outcome<A> {
    fn eq(&self, other: &Self) -> bool {
        self.cell == other.cell
            && self.seed == other.seed
            && self.violations == other.violations
            && self.stats == other.stats
    }
}

/// Everything one matrix run produced.
#[derive(Clone, Debug)]
pub struct Report<A: Axis> {
    /// The master seed (per-cell seeds derive from it).
    pub seed: u64,
    /// Per-cell outcomes, in execution order.
    pub outcomes: Vec<Outcome<A>>,
}

impl<A: Axis> Report<A> {
    /// `true` when every cell held every invariant.
    pub fn clean(&self) -> bool {
        self.outcomes.iter().all(Outcome::ok)
    }

    /// Renders the deterministic report (see [`Axis::render`]).
    pub fn render(&self) -> String {
        A::render(self)
    }
}

/// Per-cell seeds are drawn from one master stream so the whole schedule
/// replays from a single number; `chaos analyze` traces the crash matrix
/// with the very same seeds.
pub fn cell_seeds(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.next_u64()).collect()
}

/// The seed of each of `count` cells of axis `A` under master `seed`.
fn seeds<A: Axis>(seed: u64, count: usize) -> Vec<u64> {
    if A::VERBATIM_SEED {
        vec![seed; count]
    } else {
        cell_seeds(seed, count)
    }
}

/// Runs `cells` in order, each with its seed from [`cell_seeds`] (or the
/// master seed, see [`Axis::VERBATIM_SEED`]). `progress` is called after
/// every cell (CLI verbosity hook).
pub fn run_matrix<A: Axis>(
    cells: &[A::Cell],
    seed: u64,
    mut progress: impl FnMut(&Outcome<A>),
) -> Report<A> {
    let outcomes = cells
        .iter()
        .zip(seeds::<A>(seed, cells.len()))
        .map(|(cell, cell_seed)| {
            let out = A::run(cell, cell_seed, None);
            progress(&out);
            out
        })
        .collect();
    Report { seed, outcomes }
}

/// A cell run under the happens-before race detector.
#[derive(Clone, Debug)]
pub struct Traced<A: Axis> {
    /// The cell's own outcome (its invariants must hold too).
    pub out: Outcome<A>,
    /// Events the detector processed.
    pub events: u64,
    /// Rendered races the detector reported.
    pub races: Vec<String>,
    /// Detector violations (misaligned atomics seen in the trace).
    pub detector_violations: Vec<String>,
}

impl<A: Axis> Traced<A> {
    /// `true` when the cell raced nowhere and held its invariants.
    pub fn ok(&self) -> bool {
        self.races.is_empty() && self.detector_violations.is_empty() && self.out.ok()
    }

    /// The race, detector, and invariant lines, each under `indent`.
    pub fn findings(&self, indent: &str) -> String {
        let mut s = String::new();
        for r in &self.races {
            s.push_str(&format!("{indent}race: {r}\n"));
        }
        for v in &self.detector_violations {
            s.push_str(&format!("{indent}detector: {v}\n"));
        }
        for v in &self.out.violations {
            s.push_str(&format!("{indent}invariant: {v}\n"));
        }
        s
    }
}

/// Maps a traced address to its protocol role, so race reports read as
/// "index slot Meta word g3/s12", not bare offsets. All chaos-store nodes
/// share one memory map.
pub(crate) fn annotator() -> Annotator {
    let map = chaos_config().memory_map();
    Box::new(move |_node, off| match map.index.classify_word(off) {
        IndexWord::Atomic { group, slot } => Some(format!("index slot Atomic word g{group}/s{slot}")),
        IndexWord::Meta { group, slot } => Some(format!("index slot Meta word g{group}/s{slot}")),
        IndexWord::IndexVersion => Some("Index Version word".into()),
        IndexWord::OutsideIndex => {
            if let Some((id, rel)) = map.blocks.locate(off) {
                Some(format!("block {id} +{rel:#x} ({:?})", map.blocks.kind_of(id)))
            } else if off >= map.blocks.meta_base
                && off < map.blocks.meta_base + map.blocks.meta_size()
            {
                Some("alloc-table record area".into())
            } else {
                None
            }
        }
    })
}

/// Runs one cell under a fresh detector.
pub fn trace<A: Axis>(cell: &A::Cell, seed: u64) -> Traced<A> {
    let det = Arc::new(if A::annotate(cell) {
        Detector::with_annotator(annotator())
    } else {
        Detector::new()
    });
    let sink: Arc<dyn TraceSink> = det.clone();
    let out = A::run(cell, seed, Some(sink));
    Traced {
        out,
        events: det.events(),
        races: det.races().iter().map(|r| r.to_string()).collect(),
        detector_violations: det.violations(),
    }
}

/// Traces `cells` with the per-cell seeds a [`run_matrix`] of them uses.
/// `progress` is called after each cell (CLI verbosity hook).
pub fn trace_matrix<A: Axis>(
    cells: &[A::Cell],
    seed: u64,
    mut progress: impl FnMut(&Traced<A>),
) -> Vec<Traced<A>> {
    cells
        .iter()
        .zip(seeds::<A>(seed, cells.len()))
        .map(|(cell, cell_seed)| {
            let t = trace(cell, cell_seed);
            progress(&t);
            t
        })
        .collect()
}

/// Traces the axis's [`Axis::traced`] slice on the master seed verbatim.
pub fn trace_slice<A: Axis>(seed: u64) -> Vec<Traced<A>> {
    A::traced().iter().map(|cell| trace(cell, seed)).collect()
}

/// Renders a traced slice: one line per cell, then its findings.
pub(crate) fn render_slice<A: Axis>(traces: &[Traced<A>]) -> String {
    let mut s = String::new();
    for t in traces {
        s.push_str(&format!(
            "  {} {}: {}{} events, {} races\n",
            A::NAME,
            t.out.cell,
            A::trace_detail(&t.out),
            t.events,
            t.races.len()
        ));
        s.push_str(&t.findings("    "));
    }
    s
}

/// Test helper: runs `cell` twice with `seed` and asserts the two
/// outcomes agree on everything but wall-clock time.
#[cfg(test)]
pub(crate) fn assert_deterministic<A: Axis>(cell: A::Cell, seed: u64) {
    let a = A::run(&cell, seed, None);
    let b = A::run(&cell, seed, None);
    assert_eq!(a, b, "{cell} with seed {seed:#x} did not replay identically");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seeds_are_stable() {
        assert_eq!(cell_seeds(5, 4), cell_seeds(5, 4));
        assert_ne!(cell_seeds(5, 4), cell_seeds(6, 4));
        // A prefix of the stream is the stream of the prefix, so `--limit`
        // truncation keeps every surviving cell's seed.
        assert_eq!(cell_seeds(5, 2), cell_seeds(5, 4)[..2]);
    }
}
