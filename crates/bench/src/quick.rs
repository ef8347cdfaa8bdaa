//! `bench quick` — the CI-sized benchmark slice.
//!
//! Runs a deterministic YCSB-A slice (four logical clients, round-robin
//! in one thread, like `chaos analyze`'s traced workload) followed by one
//! MN crash + tiered recovery, with an [`aceso_obs::Registry`] recorder
//! installed so the run doubles as an end-to-end test of the
//! observability layer. Prints the metrics snapshot as a table; with
//! `--json`, additionally writes `BENCH_PR4.json`.
//!
//! Everything in the JSON file is *modeled or counted*, never wall-clock:
//! op latency percentiles come from [`aceso_rdma::CostModel`] over the
//! measured verb records, throughput from the same model over per-node
//! demand, and recovery phase times are the `*_net_ms` columns of
//! [`aceso_core::RecoveryReport`]. Two runs with the same seed therefore
//! produce byte-identical files — CI diffs them.

use crate::harness::{self, drive_rt, measure, round_robin};
use aceso_core::{recover_mn, AcesoConfig, AcesoStore};
use aceso_obs::{JsonWriter, Obs, Registry, Snapshot};
use aceso_rdma::OpKind;
use aceso_rt::Executor;
use aceso_workloads::ycsb::YcsbKind;
use aceso_workloads::YcsbWorkload;
use std::sync::Arc;

const CLIENTS: usize = 4;
const KEYS: u64 = 200;
const OPS: usize = 2000;
const VALUE_LEN: usize = 64;
/// Simulated closed-loop client count fed to the cost model (the paper
/// runs 184 clients on 23 CNs).
const SIM_CLIENTS: usize = 184;
/// Column whose MN is crashed and recovered.
const KILL_COL: usize = 1;
/// Coroutine tasks in the quick run's pipelined slice.
const RT_TASKS: usize = 8;
/// Ops each of those tasks issues.
const RT_OPS_PER_TASK: usize = 50;

/// Everything one `bench quick` run measured.
pub struct Quick {
    seed: u64,
    mops: f64,
    bottleneck: String,
    /// (kind label, p50, p99, p999) — modeled, µs.
    latency: Vec<(&'static str, f64, f64, f64)>,
    /// (kind label, mean rtts, mean batches, mean batched verbs) per op —
    /// the shape of the doorbell-batched pipeline, straight from the
    /// measured [`aceso_rdma::OpRecord`]s.
    pipeline: Vec<(&'static str, f64, f64, f64)>,
    /// Measured coroutine overlap of the RT slice: (depth, virtual µs,
    /// peak in-flight ops on the one executor thread).
    rt_depth: (f64, f64, usize),
    recovery: aceso_core::RecoveryReport,
    snapshot: Snapshot,
}

/// YCSB-A stream `i` of the slice.
fn stream(i: usize, seed: u64) -> YcsbWorkload {
    YcsbWorkload::new(YcsbKind::A, KEYS, 0.99, VALUE_LEN, i as u32, seed)
}

/// Runs the quick slice at `seed`.
pub fn quick_slice(seed: u64) -> Quick {
    let cfg = AcesoConfig::small();
    let cost = cfg.cost;
    let store = AcesoStore::launch(cfg).expect("launch");

    // Preload from an uninstrumented client so the recorded counters
    // cover exactly the measured slice.
    harness::preload_aceso(&store, YcsbWorkload::preload_keys(KEYS), VALUE_LEN);

    let registry = Registry::new();
    store.install_recorder(Arc::clone(&registry));
    let mut clients: Vec<_> = (0..CLIENTS)
        .map(|_| store.client().expect("client"))
        .collect();
    // One synchronized checkpoint round so recovery reads a real
    // (compressed, non-empty) checkpoint and ckpt.* counters light up.
    store.checkpoint_tick().expect("ckpt");

    // The measured slice: single-threaded round-robin.
    let mut streams: Vec<_> = (0..CLIENTS).map(|i| stream(i, seed)).collect();
    let records = round_robin(
        &store.cluster,
        &mut clients,
        &mut streams,
        0..OPS,
        |req, r| {
            r.unwrap_or_else(|e| panic!("op ({:?}): {e}", req.op));
        },
    );
    for c in &mut clients {
        c.flush_bitmaps().expect("flush");
    }
    let m = measure(&store.cluster, records, SIM_CLIENTS, vec![], None);
    let rep = cost.report(&m);
    let latency = [
        ("all", None),
        ("search", Some(OpKind::Search)),
        ("update", Some(OpKind::Update)),
    ]
    .into_iter()
    .map(|(label, filter)| {
        let s = cost.latency_samples(&m, filter);
        (label, pct(&s, 0.50), pct(&s, 0.99), pct(&s, 0.999))
    })
    .collect();
    let pipeline = [
        ("search", OpKind::Search),
        ("update", OpKind::Update),
        ("insert", OpKind::Insert),
    ]
    .into_iter()
    .map(|(label, kind)| {
        let mean = |f: fn(&aceso_rdma::OpRecord) -> u32| harness::mean(&m.records, Some(kind), f);
        (
            label,
            mean(|r| r.rtts),
            mean(|r| r.batches),
            mean(|r| r.batched_verbs),
        )
    })
    .collect();

    // A short coroutine-pipelined slice: RT_TASKS resumable clients on
    // one executor thread over a shared virtual CQ. Measures the overlap
    // depth the runtime actually achieves and exercises the rt.* metrics
    // end to end (both land in the JSON below).
    let rt = drive_rt(
        &store,
        Executor::with_obs(Obs::on(Arc::clone(&registry))),
        (0..RT_TASKS).map(|t| stream(CLIENTS + t, seed)),
        RT_OPS_PER_TASK,
        |req, r| {
            r.unwrap_or_else(|e| panic!("rt op ({:?}): {e}", req.op));
        },
    );

    // One MN crash + full tiered recovery (Meta → Index → Block →
    // parity); phase spans land in the registry via the store recorder.
    assert!(store.kill_mn(KILL_COL), "node already dead");
    let recovery = recover_mn(&store, KILL_COL).expect("recovery");

    let snapshot = registry.snapshot();
    store.shutdown();
    Quick {
        seed,
        mops: rep.mops,
        bottleneck: rep.bottleneck.label(),
        latency,
        pipeline,
        rt_depth: (rt.depth, rt.virtual_us, rt.peak_inflight),
        recovery,
        snapshot,
    }
}

/// Percentile by the cost model's deterministic pick rule: the sample at
/// index `⌊(len−1)·q⌋` of the ascending-sorted distribution.
fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q) as usize]
}

impl Quick {
    /// The printed report: modeled header lines, then the metrics
    /// snapshot table (whose histograms are wall-clock).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "bench quick: seed {:#x}, {} ycsb-a ops over {} clients, {} keys\n",
            self.seed, OPS, CLIENTS, KEYS
        ));
        s.push_str(&format!(
            "  modeled throughput {:.2} Mops (bottleneck {})\n",
            self.mops, self.bottleneck
        ));
        for (label, p50, p99, p999) in &self.latency {
            s.push_str(&format!(
                "  latency[{label}] p50 {p50:.1} µs, p99 {p99:.1} µs, p999 {p999:.1} µs\n"
            ));
        }
        for (label, rtts, batches, bverbs) in &self.pipeline {
            s.push_str(&format!(
                "  pipeline[{label}] mean rtts {rtts:.2}, batches {batches:.2}, \
                 batched verbs {bverbs:.2}\n"
            ));
        }
        let (depth, vus, peak) = self.rt_depth;
        s.push_str(&format!(
            "  rt slice: {RT_TASKS} tasks × {RT_OPS_PER_TASK} ops on one thread, \
             measured depth {depth:.2} over {vus:.0} virtual µs (peak inflight {peak})\n"
        ));
        let r = &self.recovery;
        s.push_str(&format!(
            "  recovery of col {KILL_COL}: meta {:.3} ms, index {:.3} ms, parity {:.3} ms \
             (modeled net; {} KVs scanned, {} local + {} remote new blocks)\n",
            r.meta_net_ms,
            r.index_tier_net_ms() - r.meta_net_ms,
            r.parity_net_ms,
            r.kv_count,
            r.lblock_count,
            r.rblock_count,
        ));
        s.push_str("\nmetrics snapshot:\n");
        s.push_str(&self.snapshot.render_table());
        s
    }

    /// `BENCH_PR4.json` — modeled/counted values only, so the file is a
    /// pure function of the seed (schema `aceso.bench.quick.v1`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.str_field("schema", "aceso.bench.quick.v1");
        w.u64_field("seed", self.seed);
        w.begin_object_key("workload");
        w.str_field("kind", "ycsb-a");
        w.u64_field("clients", CLIENTS as u64);
        w.u64_field("keys", KEYS);
        w.u64_field("ops", OPS as u64);
        w.u64_field("value_len", VALUE_LEN as u64);
        w.end_object();
        w.begin_object_key("throughput");
        w.f64_field("mops", self.mops);
        w.str_field("bottleneck", &self.bottleneck);
        w.end_object();
        w.begin_object_key("latency_us");
        for (label, p50, p99, p999) in &self.latency {
            w.begin_object_key(label);
            w.f64_field("p50", *p50);
            w.f64_field("p99", *p99);
            w.f64_field("p999", *p999);
            w.end_object();
        }
        w.end_object();
        w.begin_object_key("pipeline");
        for (label, rtts, batches, bverbs) in &self.pipeline {
            w.begin_object_key(label);
            w.f64_field("mean_rtts", *rtts);
            w.f64_field("mean_batches", *batches);
            w.f64_field("mean_batched_verbs", *bverbs);
            w.end_object();
        }
        w.end_object();
        // The coroutine slice: virtual-clock values only, so still a pure
        // function of the seed.
        w.begin_object_key("pipeline_depth");
        w.u64_field("tasks", RT_TASKS as u64);
        w.u64_field("ops_per_task", RT_OPS_PER_TASK as u64);
        w.f64_field("depth", self.rt_depth.0);
        w.f64_field("virtual_us", self.rt_depth.1);
        w.u64_field("peak_inflight", self.rt_depth.2 as u64);
        w.end_object();
        let r = &self.recovery;
        w.begin_object_key("recovery");
        w.f64_field("meta_net_ms", r.meta_net_ms);
        w.f64_field("ckpt_net_ms", r.ckpt_net_ms);
        w.f64_field("lblock_net_ms", r.lblock_net_ms);
        w.f64_field("rblock_net_ms", r.rblock_net_ms);
        w.f64_field("index_tier_net_ms", r.index_tier_net_ms());
        w.f64_field("parity_net_ms", r.parity_net_ms);
        w.u64_field("kv_scanned", r.kv_count as u64);
        w.u64_field("lblock_count", r.lblock_count as u64);
        w.u64_field("rblock_count", r.rblock_count as u64);
        w.u64_field(
            "net_bytes",
            r.meta_bytes
                + r.ckpt_bytes
                + r.lblock_net_bytes
                + r.rblock_net_bytes
                + r.parity_net_bytes,
        );
        w.end_object();
        // Counters are exact event counts (never timings), so the whole
        // section is reproducible; histograms are wall-clock and stay out.
        w.begin_object_key("counters");
        for (name, v) in &self.snapshot.counters {
            w.u64_field(name, *v);
        }
        w.end_object();
        w.end_object();
        let mut s = w.finish();
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same seed reproduces the same JSON and the same modeled report
    /// bit for bit (CI diffs `BENCH_PR4.json`). The snapshot's histogram
    /// rows are wall-clock, so the report is compared up to them.
    #[test]
    fn quick_slice_is_deterministic() {
        let (a, b) = (quick_slice(0xace50), quick_slice(0xace50));
        assert_eq!(a.to_json(), b.to_json());
        let modeled = |q: &Quick| q.render().split("histograms (µs)").next().map(String::from);
        assert_eq!(modeled(&a), modeled(&b));
    }
}
