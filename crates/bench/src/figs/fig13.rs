//! Figure 13 — factor analysis (paper §4.4): the step-by-step evolution
//! from FUSEE to Aceso.
//!
//! * `ORIGIN`  — the FUSEE baseline (8 B slots, replicated index, value
//!   cache).
//! * `+SLOT`   — index slots widened 8 B → 16 B: bucket reads double, which
//!   hurts the bandwidth-bound SEARCH and barely moves IOPS-bound writes.
//! * `+CKPT`   — index replication replaced by checkpointing: one CAS per
//!   write instead of `r`; reads pay a little bandwidth to checkpoint
//!   transmission. Modeled as Aceso with the value-only cache.
//! * `+CACHE`  — the full Aceso: the cache also stores slot addresses, so a
//!   cached read validates with a 16 B slot re-read instead of re-scanning
//!   buckets.

use crate::figs::FigureOutput;
use crate::harness::{self, BenchScale};
use aceso_core::{AcesoStore, ClientTuning};
use aceso_fusee::{FuseeConfig, FuseeStore};
use aceso_workloads::Op;

fn aceso_variant(scale: BenchScale, tuning: ClientTuning, op: Op) -> f64 {
    let store = AcesoStore::launch(harness::bench_aceso_config()).unwrap();
    harness::preload_micro_aceso(&store, scale, op);
    let bg = harness::ckpt_bg_rate(&store, store.cfg.ckpt_interval_ms);
    let mops = harness::aceso_phase(&store, scale, tuning, bg, harness::micro(scale, op))
        .report()
        .mops;
    store.shutdown();
    mops
}

fn fusee_variant(scale: BenchScale, wide_slots: bool, op: Op) -> f64 {
    let cfg = FuseeConfig {
        wide_slots,
        ..harness::bench_fusee_config()
    };
    let store = FuseeStore::launch(cfg);
    harness::preload_micro_fusee(&store, scale, op);
    harness::fusee_phase(&store, scale, harness::micro(scale, op))
        .report()
        .mops
}

/// Runs the four factor steps for UPDATE and SEARCH.
pub fn fig13(scale: BenchScale) -> FigureOutput {
    let mut text = String::from(
        "Factor analysis (Mops): ORIGIN → +SLOT → +CKPT → +CACHE\nstep    |  UPDATE |  SEARCH\n",
    );
    // Both Aceso steps size the cache to the working set, so `+CACHE`
    // isolates slot-address caching.
    let full = scale.tuning();
    let value_cache = ClientTuning {
        cache_slot_addr: false,
        ..full
    };
    type Step<'a> = (&'a str, Box<dyn Fn(Op) -> f64>);
    let steps: Vec<Step> = vec![
        (
            "ORIGIN",
            Box::new(move |op| fusee_variant(scale, false, op)),
        ),
        ("+SLOT", Box::new(move |op| fusee_variant(scale, true, op))),
        (
            "+CKPT",
            Box::new(move |op| aceso_variant(scale, value_cache, op)),
        ),
        ("+CACHE", Box::new(move |op| aceso_variant(scale, full, op))),
    ];
    for (name, f) in steps {
        text.push_str(&format!(
            "{name:7} | {:7.2} | {:7.2}\n",
            f(Op::Update),
            f(Op::Search)
        ));
    }
    FigureOutput {
        id: "Figure 13",
        text,
    }
}
