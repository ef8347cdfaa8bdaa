//! `acebench` — the repository's end-to-end benchmark.
//!
//! ```text
//! acebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against an `AcesoStore` and prints, as the last line
//! of standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` reports the end-to-end metrics of an untraced run;
//! `--trace 1` measures untraced and traced stores alternately and
//! reports the per-layer ledger. See `README.md` beside this crate.

mod machine;
mod metrics;
mod oracle;
mod probes;
mod runner;

use metrics::Metric;
use runner::{Bench, Outcome, Spec};
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = Some(parse_u64(v)?),
            "--seconds" => seconds = Some(parse_u64(v).filter(|&s| (1..=600).contains(&s))?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    Some(Args {
        workload: workload?,
        seed: seed?,
        seconds: seconds?,
        trace: trace.unwrap_or(false),
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: acebench --workload <ycsb-c-cold|ycsb-d|ycsb-a-hot|transient|transient-crash> \
         --seed <n> --seconds <1..600> --trace <0|1>"
    );
    std::process::exit(2);
}

/// One JSON number: Rust's shortest round-trip form, all digits kept
/// (`+ 0.0` turns the `-0.0` of an empty float sum into `0.0`).
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{:?}", v + 0.0)
}

fn render_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Human-readable lines about the run's checks, printed before the JSON.
fn describe(spec: &Spec, out: &Outcome) {
    let ops: u64 = out.windows.iter().map(|w| w.ops).sum();
    println!(
        "{}: {} measured ops in {} windows, {} keys known to the oracle",
        spec.name,
        ops,
        out.windows.len(),
        out.final_sweep.reads
    );
    let row = |label: &str, f: &dyn Fn(&runner::Window) -> f64| {
        let v: Vec<String> = out.windows.iter().map(|w| format!("{:.2}", f(w))).collect();
        println!("window {label}: {}", v.join(" "));
    };
    row("kops/s", &|w| w.ops as f64 / w.wall.as_secs_f64() / 1e3);
    row("cpu us/op", &metrics::window_cpu_us);
    row("steal %", &|w| w.steal_pct);
    row("reference op ns", &|w| w.ref_op_ns);
    row("search p50 us", &|w| metrics::window_pct_us(w, false, 0.50));
    row("search p99 us", &|w| metrics::window_pct_us(w, false, 0.99));
    if let Some(c) = &out.crash {
        println!(
            "crash of column {}: pre-crash sweep {} stale of {} reads ({} written keys); \
             post-recovery sweep {} stale, {} lost acknowledged writes; recover_mn {:.1} ms",
            runner::KILL_COL,
            c.pre.failed,
            c.pre.reads,
            c.pre.written,
            c.post.failed,
            c.post.lost_writes,
            c.wall.as_secs_f64() * 1e3
        );
    }
    println!(
        "final sweep {} stale of {} reads; scrub {} mismatches; checks {} failed of {} attempted",
        out.final_sweep.failed,
        out.final_sweep.reads,
        out.scrub.0,
        out.checks.failed,
        out.checks.attempted
    );
    for m in &out.scrub.1 {
        println!("  scrub: {m}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|| usage());
    let spec = Spec::named(&args.workload).unwrap_or_else(|| usage());
    let windows = spec.windows(args.seconds);
    let cpu0 = machine::CpuSample::now();

    // One Outcome per measured store; each is checked in full.
    let (outs, metrics) = if args.trace {
        // Untraced and traced stores alternate, so a drift of the host's
        // speed reaches both groups alike.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut probes = probes::Probes::default();
        for i in 0..runner::STORES {
            let trace = i % 2 == 1;
            let (out, store) = Bench::setup(&spec, args.seed, trace).run(windows);
            if i + 1 == runner::STORES {
                probes = probes::run(&store);
            }
            store.shutdown();
            if trace {
                traced.push(out)
            } else {
                plain.push(out)
            }
        }
        let metrics = metrics::per_layer(&traced, &probes, &plain);
        plain.append(&mut traced);
        (plain, metrics)
    } else {
        let (mut wall_s, mut cpu_s, mut ref_ns) = (Vec::new(), Vec::new(), Vec::new());
        let mut outs = Vec::new();
        for _ in 0..runner::STORES {
            let ref0 = machine::reference_op_ns();
            let (t, c) = (Instant::now(), machine::CpuSample::now());
            let bench = Bench::setup(&spec, args.seed, false);
            wall_s.push(t.elapsed().as_secs_f64());
            cpu_s.push(machine::CpuSample::now().proc_secs_since(&c));
            ref_ns.push((ref0 + machine::reference_op_ns()) / 2.0);
            let (out, store) = bench.run(windows);
            store.shutdown();
            outs.push(out);
        }
        let fmt = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "set-up wall s: {}; cpu s: {}; reference op ns: {}",
            fmt(&wall_s),
            fmt(&cpu_s),
            fmt(&ref_ns)
        );
        println!(
            "as measured (window medians): cpu {:.3} us/op, search p50 {:.3} us; \
             reference op {:.1} ns",
            metrics::cpu_us_per_op(&outs),
            metrics::wall_pct_us(&outs, false, 0.50),
            metrics::ref_op_ns(&outs)
        );
        let setup_s = cpu_s
            .iter()
            .zip(&ref_ns)
            .map(|(&c, &r)| metrics::at_ref_speed(c, r))
            .collect();
        let metrics = metrics::end_to_end(&outs, metrics::median(setup_s));
        (outs, metrics)
    };
    for out in &outs {
        describe(&spec, out);
    }
    let cpu1 = machine::CpuSample::now();
    println!(
        "machine: nproc {}, steal {} ticks ({:.2}% of machine ticks), process cpu {:.2} s",
        machine::nproc(),
        cpu1.steal_ticks.saturating_sub(cpu0.steal_ticks),
        cpu1.steal_pct_since(&cpu0),
        cpu1.proc_secs_since(&cpu0)
    );
    for m in &metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    // `correct` covers every check: op results and sweep reads against the
    // oracle, and the scrub's parity equations and delta copies.
    let attempted = outs.iter().map(|o| o.checks.attempted).sum();
    let failed: u64 = outs.iter().map(|o| o.checks.failed).sum();
    println!("{}", render_json(failed == 0, attempted, failed, &metrics));
}

#[cfg(test)]
mod tests;
