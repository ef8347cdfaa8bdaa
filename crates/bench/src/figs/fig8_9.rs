//! Figures 8 & 9 — microbenchmark throughput and P50/P99 latency,
//! Aceso vs FUSEE, for INSERT / UPDATE / SEARCH / DELETE (paper §4.2).

use crate::figs::FigureOutput;
use crate::harness::{self, BenchScale, Phase};
use aceso_core::AcesoStore;
use aceso_fusee::FuseeStore;
use aceso_rdma::OpKind;
use aceso_workloads::Op;

fn op_kind(op: Op) -> OpKind {
    match op {
        Op::Insert => OpKind::Insert,
        Op::Update => OpKind::Update,
        Op::Search => OpKind::Search,
        Op::Delete => OpKind::Delete,
    }
}

/// Runs one micro phase per op type for both systems; returns
/// `(aceso, fusee)` phases per op.
pub fn micro_phases(scale: BenchScale) -> Vec<(Op, Phase, Phase)> {
    let mut out = Vec::new();
    for op in [Op::Insert, Op::Update, Op::Search, Op::Delete] {
        let scale = scale.for_op(op);
        // Aceso, with live checkpoint interference at the default 500 ms.
        let store = AcesoStore::launch(harness::bench_aceso_config()).unwrap();
        harness::preload_micro_aceso(&store, scale, op);
        let bg = harness::ckpt_bg_rate(&store, store.cfg.ckpt_interval_ms);
        let aceso =
            harness::aceso_phase(&store, scale, scale.tuning(), bg, harness::micro(scale, op));
        store.shutdown();

        let fstore = FuseeStore::launch(harness::bench_fusee_config());
        harness::preload_micro_fusee(&fstore, scale, op);
        let fusee = harness::fusee_phase(&fstore, scale, harness::micro(scale, op));
        out.push((op, aceso, fusee));
    }
    out
}

/// Figure 8: throughput with coefficients normalized to FUSEE.
pub fn fig8(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "Microbenchmark throughput (Mops)\nop      |   Aceso |   FUSEE | Aceso/FUSEE\n",
    );
    for (op, a, f) in micro_phases(scale) {
        let (ar, fr) = (a.report(), f.report());
        let prof = |p: &Phase| {
            let mean = |f: fn(&aceso_rdma::OpRecord) -> u32| harness::mean(&p.m.records, None, f);
            format!(
                "verbs {:.1} cas {:.1} bytes {:.0} rtts {:.1}",
                mean(|x| x.verbs),
                mean(|x| x.cas),
                mean(|x| x.read_bytes + x.write_bytes),
                mean(|x| x.rtts)
            )
        };
        text.push_str(&format!(
            "{:7} | {:7.2} | {:7.2} | {:10.2}x   [aceso {} @{} | fusee {} @{}]\n",
            op_kind(op).name(),
            ar.mops,
            fr.mops,
            ar.mops / fr.mops,
            prof(&a),
            ar.bottleneck.label(),
            prof(&f),
            fr.bottleneck.label(),
        ));
    }
    FigureOutput {
        id: "Figure 8",
        text,
    }
}

/// Figure 9: P50/P99 latencies.
pub fn fig9(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "Microbenchmark latency (µs)\nop      | Aceso P50 | Aceso P99 | FUSEE P50 | FUSEE P99\n",
    );
    for (op, a, f) in micro_phases(scale) {
        let (al, fl) = (a.latency_for(op_kind(op)), f.latency_for(op_kind(op)));
        text.push_str(&format!(
            "{:7} | {:9.1} | {:9.1} | {:9.1} | {:9.1}\n",
            op_kind(op).name(),
            al.p50_us,
            al.p99_us,
            fl.p50_us,
            fl.p99_us
        ));
    }
    FigureOutput {
        id: "Figure 9",
        text,
    }
}
