//! `bench` — the deterministic benchmark slices.
//!
//! ```text
//! bench <slice> [--seed <hex>] [--out <path>]
//! ```
//!
//! Every slice is a pure function of its seed (modeled and counted values
//! only), prints its table, and writes it to its default path under the
//! repo root (or `--out`); CI diffs the committed copies. Usage, default
//! paths and the write step all come from the [`SLICES`] table.

use aceso_bench::{clients_sweep, elastic_slice, quick_slice, skew_sweep, table3_slice};

const DEFAULT_SEED: u64 = 0xace50;

/// One `bench` subcommand.
struct Slice {
    name: &'static str,
    /// Default `--out` path.
    out: &'static str,
    /// The flag that asks the slice to write its file; `None` writes
    /// always.
    write_flag: Option<&'static str>,
    /// What the slice does (usage text).
    about: &'static str,
    /// Runs the slice: (the printed table, the file body).
    run: fn(u64) -> (String, String),
}

const SLICES: [Slice; 5] = [
    Slice {
        name: "quick",
        out: "BENCH_PR4.json",
        write_flag: Some("--json"),
        about: "Runs the deterministic YCSB-A slice + one MN-crash recovery.\n\
                --json writes BENCH_PR4.json (byte-identical across runs of the\n\
                same seed); --out overrides the output path.",
        run: |seed| {
            let q = quick_slice(seed);
            (q.render(), q.to_json())
        },
    },
    Slice {
        name: "clients",
        out: "results/clients.txt",
        write_flag: None,
        about: "Sweeps coroutine clients per OS thread (doubling from 1) until\n\
                the modeled NIC binds.",
        run: |seed| both(clients_sweep(seed).render()),
    },
    Slice {
        name: "elastic",
        out: "results/elastic.txt",
        write_flag: None,
        about: "Measures client throughput between every step of an online\n\
                join and drain migration.",
        run: |seed| both(elastic_slice(seed).render()),
    },
    Slice {
        name: "skew",
        out: "results/skew.txt",
        write_flag: None,
        about: "Sweeps the Zipfian skew of a read-only slice over the bounded\n\
                client index cache (hit rate, modeled SEARCH p50).",
        run: |seed| both(skew_sweep(seed).render()),
    },
    Slice {
        name: "table3",
        out: "results/table3.txt",
        write_flag: None,
        about: "Runs the three-way fault-tolerance head-to-head (aceso vs\n\
                fusee vs swarm, plus r=2 budget rows) through the FtEngine\n\
                seam.",
        run: |seed| both(table3_slice(seed).render()),
    },
];

/// A table that is both printed and written.
fn both(table: String) -> (String, String) {
    (table.clone(), table)
}

/// A parsed command line.
struct Args {
    slice: &'static Slice,
    seed: u64,
    out: String,
    write: bool,
}

fn parse(args: &[String]) -> Option<Args> {
    let slice = SLICES
        .iter()
        .find(|s| Some(s.name) == args.first().map(String::as_str))?;
    let mut a = Args {
        slice,
        seed: DEFAULT_SEED,
        out: slice.out.to_string(),
        write: slice.write_flag.is_none(),
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                let v = it.next()?;
                a.seed = u64::from_str_radix(v.trim_start_matches("0x"), 16).ok()?;
            }
            "--out" => a.out = it.next()?.clone(),
            f if Some(f) == slice.write_flag => a.write = true,
            _ => return None,
        }
    }
    Some(a)
}

fn usage() -> String {
    let mut s = String::new();
    for slice in &SLICES {
        let flag = slice
            .write_flag
            .map(|f| format!(" [{f}]"))
            .unwrap_or_default();
        let writes = match slice.write_flag {
            Some(_) => String::new(),
            None => format!("\nWrites the table to {} (or --out).", slice.out),
        };
        s.push_str(&format!(
            "usage: bench {}{flag} [--seed <hex>] [--out <path>]\n\n{}{writes}\n\n",
            slice.name, slice.about
        ));
    }
    s.push_str("Every output is a pure function of the seed — CI diffs them.");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(a) = parse(&args) else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let (table, file) = (a.slice.run)(a.seed);
    print!("{table}");
    if a.write {
        std::fs::write(&a.out, file).expect("write output");
        println!("wrote {}", a.out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Every table entry parses with its defaults and accepts every
    /// `--seed`/`--out` form; usage lists every slice.
    #[test]
    fn every_slice_parses() {
        for slice in &SLICES {
            let a = parse(&argv(slice.name)).expect(slice.name);
            assert_eq!((a.seed, a.out.as_str()), (DEFAULT_SEED, slice.out));
            assert_eq!(a.write, slice.write_flag.is_none());
            for seed in ["0x1f", "1f"] {
                let line = format!("{} --seed {seed} --out x.txt", slice.name);
                let a = parse(&argv(&line)).expect(&line);
                assert_eq!((a.seed, a.out.as_str()), (0x1f, "x.txt"));
            }
            let a = parse(&argv(&format!("{} --out y --seed 0x2", slice.name))).unwrap();
            assert_eq!((a.seed, a.out.as_str()), (2, "y"));
            if let Some(f) = slice.write_flag {
                assert!(parse(&argv(&format!("{} {f}", slice.name))).unwrap().write);
            }
            for bad in ["--seed", "--out", "--seed zz", "--bogus"] {
                assert!(
                    parse(&argv(&format!("{} {bad}", slice.name))).is_none(),
                    "{bad}"
                );
            }
            assert!(usage().contains(&format!("usage: bench {}", slice.name)));
        }
        assert!(parse(&argv("clients --json")).is_none());
        assert!(parse(&argv("nope")).is_none() && parse(&[]).is_none());
    }
}
