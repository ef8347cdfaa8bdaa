//! End-to-end smoke of the chaos harness: a small deterministic slice of
//! the CI matrix must run clean, reproduce identically, and actually
//! exercise the fault machinery (kills, injections, client crashes).

use aceso_chaos::{ci_matrix, sweep, Cell, KillTiming, DEFAULT_SEED};

#[test]
fn ci_slice_is_clean_and_deterministic() {
    // A slice of the real CI profile, padded with a kill cell so the
    // smoke is guaranteed to cross the recovery path.
    let mut cells: Vec<Cell> = ci_matrix(DEFAULT_SEED, 6);
    if !cells.iter().any(|c| c.kill != KillTiming::None) {
        cells.extend(
            ci_matrix(DEFAULT_SEED, 120)
                .into_iter()
                .find(|c| c.kill != KillTiming::None),
        );
    }

    let a = sweep(&cells, DEFAULT_SEED, |_| {});
    assert!(
        a.clean(),
        "smoke slice violated invariants:\n{}",
        a.render()
    );

    // Same seed, same cells: identical outcomes apart from wall-clock
    // time (outcome equality ignores timings).
    let b = sweep(&cells, DEFAULT_SEED, |_| {});
    assert_eq!(a.outcomes, b.outcomes);

    // The slice must exercise the machinery, not just quiet cells.
    assert!(a.outcomes.iter().any(|o| o.stats.mn_killed), "no MN ever killed");

    // The report renders a coverage section, and its header (printed
    // with the other wall-clock lines) carries the explored-cell count.
    assert!(a.render().contains("coverage by operation"));
    let header = a.render_wall_clock();
    assert!(header.starts_with("chaos report"));
    assert!(header.contains(&format!("{} cells", cells.len())));
}
