//! Crash-matrix sweeps, seeded soak schedules, counterexample
//! minimization, and the coverage report. Minimization and the
//! per-invariant-class timings belong to the crash matrix alone.

use crate::axis::{run_matrix, Axis, Report};
use crate::cell::{full_matrix, Cell, InjectionSite, KillTiming, ReclaimState};
use crate::fixture::INVARIANT_CLASSES;
use crate::runner::{CellOutcome, CrashMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Everything a sweep or soak produced.
pub type SweepReport = Report<CrashMatrix>;

/// The smallest still-failing simplification of a violating cell, and
/// that simplification's violations (same seed as the original).
#[derive(Clone, Debug, PartialEq)]
pub struct Counterexample {
    /// The simplest variant that still violates an invariant.
    pub minimized: Cell,
    /// The minimized variant's violations.
    pub violations: Vec<String>,
}

impl SweepReport {
    /// Renders the wall-clock lines: the report header with the elapsed
    /// seconds, the per-phase wall time, and the per-invariant-class check
    /// time. They differ from run to run, so the CLI prints them on stderr
    /// and keeps [`Report::render`] byte-stable.
    pub fn render_wall_clock(&self) -> String {
        let ms: u128 = self.outcomes.iter().map(|o| o.duration_ms).sum();
        let mut s = format!(
            "chaos report: {} cells, seed {:#x}, {:.1}s\n",
            self.outcomes.len(),
            self.seed,
            ms as f64 / 1000.0
        );
        let sum = |f: &dyn Fn(&CellOutcome) -> f64| -> f64 { self.outcomes.iter().map(f).sum() };
        s.push_str(&format!(
            "  phase wall-time: setup {:.1}s  ckpt {:.1}s  op {:.1}s  recovery {:.1}s\n",
            sum(&|o| o.stats.phases.setup_ms) / 1e3,
            sum(&|o| o.stats.phases.ckpt_ms) / 1e3,
            sum(&|o| o.stats.phases.op_ms) / 1e3,
            sum(&|o| o.stats.phases.recovery_ms) / 1e3,
        ));
        s.push_str("  invariant check wall-time:\n");
        for (i, name) in INVARIANT_CLASSES.iter().enumerate() {
            s.push_str(&format!(
                "    {name:<24} {:>8.1} ms\n",
                sum(&|o| o.stats.phases.invariants_ms[i])
            ));
        }
        s
    }
}

/// Renders the deterministic coverage report: how often armed faults
/// actually fired, per-axis explored-cell counts, violations, and
/// minimized counterexamples.
pub(crate) fn render(report: &SweepReport) -> String {
    let mut s = format!("  {}\n", CrashMatrix::summary(&report.outcomes));
    let mut axis = |title: &str, key: &dyn Fn(&Cell) -> String| {
        let mut counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for o in &report.outcomes {
            let e = counts.entry(key(&o.cell)).or_default();
            e.0 += 1;
            if !o.ok() {
                e.1 += 1;
            }
        }
        s.push_str(&format!("  coverage by {title}:\n"));
        for (k, (run, bad)) in counts {
            if bad == 0 {
                s.push_str(&format!("    {k:<24} {run:>4} cells\n"));
            } else {
                s.push_str(&format!("    {k:<24} {run:>4} cells  {bad} VIOLATING\n"));
            }
        }
    };
    axis("operation", &|c| c.op.to_string());
    axis("injection site", &|c| c.site.to_string());
    axis("kill timing", &|c| c.kill.to_string());
    axis("reclaim state", &|c| c.reclaim.to_string());

    let bad: Vec<&CellOutcome> = report.outcomes.iter().filter(|o| !o.ok()).collect();
    if bad.is_empty() {
        s.push_str(&format!("  {}\n", CrashMatrix::CLEAN));
        return s;
    }
    s.push_str(&format!("  INVARIANT VIOLATIONS in {} cells:\n", bad.len()));
    for o in &bad {
        s.push_str(&format!("    cell {} (seed {:#x}):\n", o.cell, o.seed));
        for v in &o.violations {
            s.push_str(&format!("      - {v}\n"));
        }
    }
    for o in &bad {
        if let Some(cx) = &o.stats.minimized {
            s.push_str(&format!(
                "  minimized counterexample: {} (from {}, seed {:#x}):\n",
                cx.minimized, o.cell, o.seed
            ));
            for v in &cx.violations {
                s.push_str(&format!("      - {v}\n"));
            }
        }
    }
    s
}

/// Runs `cells` in order, each with a seed derived from `seed`, then
/// minimizes the first few violating cells. `progress` is called after
/// every cell (CLI verbosity hook).
pub fn sweep(cells: &[Cell], seed: u64, progress: impl FnMut(&CellOutcome)) -> SweepReport {
    let mut report = run_matrix(cells, seed, progress);
    minimize_failures(&mut report.outcomes);
    report
}

/// Runs seeded random cells from the full matrix until `duration` elapses
/// (at least one cell always runs).
pub fn soak(
    seed: u64,
    duration: Duration,
    mut progress: impl FnMut(&CellOutcome),
) -> SweepReport {
    let matrix = full_matrix();
    let mut rng = StdRng::seed_from_u64(seed);
    let deadline = Instant::now() + duration;
    let mut outcomes = Vec::new();
    loop {
        let cell = matrix[rng.gen_range(0..matrix.len())];
        let out = CrashMatrix::run(&cell, rng.next_u64(), None);
        progress(&out);
        outcomes.push(out);
        if Instant::now() >= deadline {
            break;
        }
    }
    minimize_failures(&mut outcomes);
    SweepReport { seed, outcomes }
}

/// Greedily simplifies the first few violating cells: drop the ageing,
/// then the injection, then the kill — keeping each simplification only
/// if the cell still fails. The result is the smallest schedule a
/// developer has to reason about.
fn minimize_failures(outcomes: &mut [CellOutcome]) {
    const MAX_MINIMIZED: usize = 3;
    for o in outcomes.iter_mut().filter(|o| !o.ok()).take(MAX_MINIMIZED) {
        let mut current = o.cell;
        let mut violations = o.violations.clone();
        loop {
            let candidates = [
                Cell {
                    reclaim: ReclaimState::Fresh,
                    ..current
                },
                Cell {
                    site: InjectionSite::None,
                    ..current
                },
                Cell {
                    kill: KillTiming::None,
                    ..current
                },
            ];
            let mut progressed = false;
            for cand in candidates {
                if cand == current {
                    continue;
                }
                let rerun = CrashMatrix::run(&cand, o.seed, None);
                if !rerun.ok() {
                    current = cand;
                    violations = rerun.violations;
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                break;
            }
        }
        o.stats.minimized = Some(Counterexample {
            minimized: current,
            violations,
        });
    }
}
