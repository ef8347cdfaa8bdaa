//! `chaos` — crash-matrix sweeps and soak runs for the Aceso store.
//!
//! ```text
//! chaos sweep   [--ci] [--seed N] [--limit N] [--verbose]
//! chaos soak    [--seed N] [--seconds N] [--verbose]
//! chaos rt      [--seed N]
//! chaos elastic [--ci] [--seed N] [--verbose]
//! chaos cache   [--ci] [--seed N] [--verbose]
//! chaos backends [--ci] [--seed N] [--verbose]
//! chaos analyze [--ci] [--seed N] [--limit N] [--verbose]
//! chaos explore [--ci] [--seed N] [--verbose]
//! ```
//!
//! Exits 0 when every explored cell held its invariants (and, for
//! `analyze`, the race detector stayed silent, every mutation self-test
//! fired, and the protocol lints passed; for `explore`, every baseline
//! interleaving+crash was clean and every model mutation was caught), 1
//! on any violation, 2 on usage errors.

use aceso_chaos::{
    analyze, ci_matrix, run_explore, run_matrix, soak, sweep, Axis, BackendsAxis, CacheAxis, Cell,
    CrashMatrix, ElasticAxis, Outcome, Report, RtAxis, SweepReport, CI_CELLS, DEFAULT_SEED,
};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: chaos sweep   [--ci] [--seed N] [--limit N] [--verbose]\n\
                chaos soak    [--seed N] [--seconds N] [--verbose]\n\
                chaos rt      [--seed N]\n\
                chaos elastic [--ci] [--seed N] [--verbose]\n\
                chaos cache   [--ci] [--seed N] [--verbose]\n\
                chaos backends [--ci] [--seed N] [--verbose]\n\
                chaos analyze [--ci] [--seed N] [--limit N] [--verbose]\n\
                chaos explore [--ci] [--seed N] [--verbose]\n\
                chaos cell <op/site/kill/reclaim> [--seed N]\n\
         \n\
         sweep    run the crash matrix (full 600 cells; --ci = deterministic\n\
         \x20        {CI_CELLS}-cell profile plus the cache axis) and print\n\
         \x20        a coverage report\n\
         soak     run seeded random cells until --seconds elapse\n\
         rt       kill a memory node / crash a client while several\n\
         \x20        coroutine ops sit suspended on one executor thread\n\
         elastic  kill the joining MN, the draining MN, or a CN at every\n\
         \x20        migrator step boundary of an online column migration\n\
         \x20        (15 cells; --ci is the same deterministic profile)\n\
         cache    kill the index column of a cached key (or crash the\n\
         \x20        hot-cache client) between cache fill and use, recover,\n\
         \x20        and demand no stale read through the surviving cache\n\
         \x20        (5 cells; --ci is the same deterministic profile)\n\
         backends run the shared (op x fault x skip) crash script against\n\
         \x20        every FtEngine — aceso, fusee, swarm — through the\n\
         \x20        seam's strategy-blind invariants (54 cells; --ci is\n\
         \x20        the same deterministic profile)\n\
         analyze  rerun the sweep schedules, a 4-client YCSB-A trace, the\n\
         \x20        rt cells, and elastic/backends/cache slices under the\n\
         \x20        happens-before race detector, plus the detector\n\
         \x20        self-tests and lints\n\
         explore  bounded model checking: enumerate every interleaving of\n\
         \x20        2-3 coroutine clients to a depth bound, crash every\n\
         \x20        scheduling point, and judge linearizability; mutation\n\
         \x20        self-tests must each yield a minimized counterexample\n\
         cell     replay one cell by id (as printed in counterexamples)\n\
         --seed   master seed (default {DEFAULT_SEED:#x}); same seed, same schedule"
    );
    std::process::exit(2);
}

fn parse_u64(args: &mut std::slice::Iter<'_, String>, flag: &str) -> u64 {
    let Some(v) = args.next() else {
        eprintln!("chaos: {flag} needs a value");
        usage();
    };
    // Accept both decimal and 0x-prefixed seeds (the report prints hex).
    let parsed = if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("chaos: bad value for {flag}: {v}");
        usage();
    })
}

/// The CLI progress hook: one line per cell when `verbose`, and one line
/// plus its violations for every violating cell.
fn progress<A: Axis>(verbose: bool) -> impl FnMut(&Outcome<A>) {
    let mut ran = 0usize;
    move |o: &Outcome<A>| {
        ran += 1;
        if verbose || !o.ok() {
            let status = if o.ok() { "ok" } else { "VIOLATION" };
            println!(
                "[{ran:>4}] {status:<9} {} ({} ms, {})",
                o.cell,
                o.duration_ms,
                A::detail(o)
            );
            for v in &o.violations {
                println!("    {v}");
            }
        }
    }
}

/// The crash-matrix cells of `sweep` and `analyze`: `--limit` sizes the
/// CI profile's shuffle and truncates either profile.
fn matrix_cells(seed: u64, ci: bool, limit: Option<usize>) -> Vec<Cell> {
    let mut cells = match (ci, limit) {
        (true, Some(l)) => ci_matrix(seed, l),
        _ => CrashMatrix::cells(seed, ci),
    };
    cells.truncate(limit.unwrap_or(cells.len()));
    cells
}

fn banner<A: Axis>(cells: usize, seed: u64) {
    println!("chaos {}: {cells} {}, seed {seed:#x}", A::NAME, A::CELLS);
}

/// Prints a report's deterministic body on stdout; returns whether it was
/// clean.
fn print_report<A: Axis>(report: &Report<A>) -> bool {
    print!("{}", report.render());
    report.clean()
}

/// [`print_report`] for the crash matrix, whose wall-clock lines go to
/// stderr so stdout stays byte-stable.
fn print_sweep(report: &SweepReport) -> bool {
    eprint!("{}", report.render_wall_clock());
    print_report(report)
}

/// Runs axis `A`'s whole matrix (`chaos <A::NAME>`).
fn run_axis<A: Axis>(seed: u64, ci: bool, verbose: bool, with_banner: bool) -> bool {
    let cells = A::cells(seed, ci);
    if with_banner {
        banner::<A>(cells.len(), seed);
    }
    print_report(&run_matrix::<A>(&cells, seed, progress(verbose)))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = argv.first().map(String::as_str) else {
        usage();
    };
    let mut seed = DEFAULT_SEED;
    let mut limit: Option<usize> = None;
    let mut seconds = 60u64;
    let mut ci = false;
    let mut verbose = false;
    let mut cell_id: Option<String> = None;
    let mut it = argv[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            id if mode == "cell" && cell_id.is_none() && !id.starts_with('-') => {
                cell_id = Some(id.to_string());
            }
            "--ci" => ci = true,
            "--seed" => seed = parse_u64(&mut it, "--seed"),
            "--limit" => limit = Some(parse_u64(&mut it, "--limit") as usize),
            "--seconds" => seconds = parse_u64(&mut it, "--seconds"),
            "--verbose" | "-v" => verbose = true,
            other => {
                eprintln!("chaos: unknown flag {other}");
                usage();
            }
        }
    }

    let clean = match mode {
        "sweep" => {
            let cells = matrix_cells(seed, ci, limit);
            banner::<CrashMatrix>(cells.len(), seed);
            let clean = print_sweep(&sweep(&cells, seed, progress(verbose)));
            // The CI profile appends the stale-index-cache axis: its five
            // fill-kill-recover-use cells ride the same tier-1 invocation
            // as the crash matrix.
            let cache_clean = !ci || run_axis::<CacheAxis>(seed, ci, verbose, false);
            clean && cache_clean
        }
        "soak" => {
            println!("chaos soak: {seconds}s, seed {seed:#x}");
            print_sweep(&soak(seed, Duration::from_secs(seconds), progress(verbose)))
        }
        "cell" => {
            let Some(cell) = cell_id.as_deref().and_then(Cell::parse) else {
                eprintln!("chaos: cell needs a valid op/site/kill/reclaim id");
                usage();
            };
            // The seed is used verbatim (not drawn from a master stream) so
            // a counterexample's printed cell seed replays exactly.
            println!("chaos cell: {cell}, seed {seed:#x}");
            let out = CrashMatrix::run(&cell, seed, None);
            progress(true)(&out);
            print_sweep(&SweepReport {
                seed,
                outcomes: vec![out],
            })
        }
        "rt" => run_axis::<RtAxis>(seed, ci, verbose, true),
        "elastic" => run_axis::<ElasticAxis>(seed, ci, verbose, true),
        "cache" => run_axis::<CacheAxis>(seed, ci, verbose, true),
        "backends" => run_axis::<BackendsAxis>(seed, ci, verbose, true),
        "analyze" => {
            let cells = matrix_cells(seed, ci, limit);
            println!(
                "chaos analyze: {} cells + 4-client YCSB-A, seed {seed:#x}",
                cells.len()
            );
            let mut ran = 0usize;
            let report = analyze::analyze(&cells, seed, |t| {
                ran += 1;
                if verbose || !t.ok() {
                    let status = if t.ok() { "ok" } else { "FINDING" };
                    println!("[{ran:>4}] {status:<9} {} ({} events)", t.out.cell, t.events);
                }
            });
            print!("{}", report.render());
            report.clean()
        }
        "explore" => {
            // The model scenarios are a fixed deterministic set: `--ci`
            // selects the identical profile.
            println!("chaos explore: bounded model checking, seed {seed:#x}");
            let mut ran = 0usize;
            let report = run_explore(seed, |r| {
                ran += 1;
                if verbose {
                    println!(
                        "[{ran:>4}] {:<22} states={} executions={}",
                        r.name, r.stats.nodes, r.stats.executions
                    );
                }
            });
            print!("{}", report.render());
            report.clean()
        }
        _ => usage(),
    };
    std::process::exit(if clean { 0 } else { 1 });
}
