//! Tests of the benchmark itself: argument parsing, run-to-run
//! determinism of the counted and modeled metrics, and agreement of the
//! printed metric names with `BENCHMARK.json`.

use super::*;
use crate::metrics::Metric;
use crate::probes::Probes;
use crate::runner::{Checks, Mix};
use aceso_core::ScrubReport;

/// A small `transient-crash`-shaped workload on the laptop-scale store:
/// inserts, deletes, checkpoint rounds and an MN crash in two windows.
fn tiny(mix: Mix) -> Spec {
    Spec {
        name: "tiny",
        mix,
        theta: 0.99,
        keys: 400,
        warmup_ops: 400,
        ops_per_sec: 1_000,
        window_ops: 1_000,
        ckpt_every: Some(500),
        crash_at: Some(1),
        cfg: aceso_core::AcesoConfig::small(),
    }
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn parses_the_command_line() {
    let argv: Vec<String> = "--workload ycsb-a-hot --seed 7 --seconds 20 --trace 1"
        .split(' ')
        .map(String::from)
        .collect();
    let a = parse_args(&argv).unwrap();
    assert_eq!(
        a,
        Args {
            workload: "ycsb-a-hot".into(),
            seed: 7,
            seconds: 20,
            trace: true,
        }
    );
    assert_eq!(parse_u64("0xace50"), Some(0xace50));
    let bad: Vec<String> = vec!["--seed".into()];
    assert!(parse_args(&bad).is_none());
}

#[test]
fn one_seed_gives_identical_counted_and_modeled_metrics() {
    let spec = tiny(Mix::Transient);
    let run = || {
        let (out, store) = Bench::setup(&spec, 0xace50, false).run(2);
        store.shutdown();
        let out = [out];
        let ledger = metrics::per_layer(&out, &Probes::default(), &out);
        let e2e = metrics::end_to_end(&out, 1.0);
        let pick = |ms: &[Metric], names: &[&str]| -> Vec<u64> {
            names.iter().map(|n| value(ms, n).to_bits()).collect()
        };
        (
            pick(
                &e2e,
                &[
                    "model_mops",
                    "model_search_p50_us",
                    "mem_bytes_per_live_byte",
                ],
            ),
            pick(
                &ledger,
                &[
                    "check.lost_writes",
                    "check.failed_op_ratio",
                    "model.write_p50_us",
                    "recovery.index_tier_net_ms",
                    "rdma.verbs_per_op",
                ],
            ),
            (out[0].checks.attempted, out[0].checks.failed),
        )
    };
    let a = run();
    assert!(a.2 .0 > 2_000, "the run judged too few reads: {:?}", a.2);
    assert_eq!(a, run());
}

#[test]
fn scrub_mismatches_are_failed_checks() {
    let mut checks = Checks::default();
    checks.add_scrub(&ScrubReport {
        parity_ok: 10,
        parity_mismatch: 2,
        delta_copy_mismatch: 1,
        ..ScrubReport::default()
    });
    assert_eq!((checks.attempted, checks.failed), (13, 3));

    let (out, store) = Bench::setup(&tiny(Mix::YcsbA), 3, false).run(2);
    store.shutdown();
    let sweep_failed = out.final_sweep.failed;
    assert!(
        out.checks.failed >= sweep_failed + out.scrub.0 as u64,
        "scrub mismatches missing from the failed checks: {:?}, scrub {}",
        out.checks,
        out.scrub.0
    );
}

/// The `name`/`unit` pairs of one list of `BENCHMARK.json` (the unit is
/// empty for workloads).
fn listed(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list ends")];
    let field = |obj: &str, key: &str| -> String {
        obj.find(&format!("\"{key}\""))
            .map(|at| {
                obj[at..]
                    .split('"')
                    .nth(3)
                    .expect("string value")
                    .to_string()
            })
            .unwrap_or_default()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn printed_metrics_are_exactly_those_benchmark_json_lists() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = tiny(Mix::YcsbA);
    let (out, store) = Bench::setup(&spec, 1, false).run(2);
    store.shutdown();
    let printed = |ms: Vec<Metric>| -> Vec<(String, String)> {
        ms.into_iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    let out = [out];
    let ledger = printed(metrics::per_layer(&out, &Probes::default(), &out));
    let e2e = printed(metrics::end_to_end(&out, 1.0));
    assert_eq!(e2e, listed(&json, "end_to_end"));
    assert_eq!(ledger, listed(&json, "per_layer"));
    for (name, _) in listed(&json, "workloads") {
        assert!(Spec::named(&name).is_some(), "unknown workload {name}");
    }
}
