//! The one drive-and-measure path every bench slice and figure phase
//! runs through: preload, dispatch a [`Request`] to a client, drive
//! clients (round-robin in one thread, as coroutines on an
//! [`Executor`], or on real threads), and build the cost model's
//! [`PhaseMeasurement`] from the cluster's traffic.

use aceso_core::{AcesoClient, AcesoConfig, AcesoStore, ClientTuning, StoreError};
use aceso_fusee::{FuseeClient, FuseeConfig, FuseeStore};
use aceso_rdma::{Cluster, CostModel, DmClient, OpKind, OpRecord, PhaseMeasurement, SimCq};
use aceso_rt::Executor;
use aceso_workloads::{value_for, MicroWorkload, Op, Request, YcsbWorkload};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Barrier};

/// Sizing knobs for a benchmark phase.
#[derive(Clone, Copy, Debug)]
pub struct BenchScale {
    /// Real driver threads (the 1-core CI default keeps this small; the
    /// verb *profile* per op is what matters, not wall-clock parallelism).
    pub threads: usize,
    /// Simulated client count fed to the cost model's closed-loop bound
    /// (the paper runs 184 clients on 23 CNs).
    pub sim_clients: usize,
    /// Preloaded key count.
    pub keys: u64,
    /// Total measured operations across all threads.
    pub ops: usize,
    /// Per-thread warm-up operations executed (and discarded) before
    /// measurement, so caches and open blocks reach steady state — the
    /// paper measures steady-state throughput. Set to 0 for INSERT/DELETE
    /// phases, whose semantics are one-shot per key.
    pub warmup: usize,
    /// Value length; the default yields the paper's 1024 B KV pairs
    /// (16 B header + 16 B key + value + trailer).
    pub value_len: usize,
}

impl Default for BenchScale {
    fn default() -> Self {
        BenchScale {
            threads: 2,
            sim_clients: 184,
            keys: 20_000,
            ops: 20_000,
            warmup: 20_000,
            value_len: 991,
        }
    }
}

impl BenchScale {
    /// A minimal scale for smoke tests.
    pub fn tiny() -> Self {
        BenchScale {
            threads: 2,
            sim_clients: 32,
            keys: 500,
            ops: 1_000,
            warmup: 500,
            value_len: 200,
        }
    }

    /// This scale for a micro phase of `op`: one-shot INSERT (of fresh
    /// keys) and DELETE phases measure cold, UPDATE and SEARCH warm.
    pub fn for_op(self, op: Op) -> Self {
        let warmup = if matches!(op, Op::Insert | Op::Delete) {
            0
        } else {
            self.warmup
        };
        BenchScale { warmup, ..self }
    }

    /// The client tuning figure phases mint clients with: the defaults,
    /// with the index cache sized to one client's working set (`keys`)
    /// — the paper's warm-cache setup. A smaller bound would turn each
    /// phase's cyclic key sweep into a cache that never hits.
    pub fn tuning(&self) -> ClientTuning {
        ClientTuning {
            cache_capacity: self.keys as usize,
            ..ClientTuning::default()
        }
    }
}

/// The measured outcome of a phase, ready for the cost model.
pub struct Phase {
    /// Cost-model input.
    pub m: PhaseMeasurement,
    /// The model that produced the cluster.
    pub cost: CostModel,
}

impl Phase {
    /// Full report.
    pub fn report(&self) -> aceso_rdma::PhaseReport {
        self.cost.report(&self.m)
    }

    /// Replaces per-node demand with the across-node average.
    ///
    /// The paper's 184 clients place their open blocks i.i.d. across MNs,
    /// so per-node block-write load is near-uniform; a handful of driver
    /// threads parks each open block on one node for thousands of ops,
    /// which would misattribute that lumpiness to the system. Used by the
    /// block-size sweep (Figure 20), where the artifact is largest.
    pub fn uniformize(&mut self) {
        let n = self.m.node_fg.len().max(1) as u64;
        let sum = self
            .m
            .node_fg
            .iter()
            .fold(aceso_rdma::stats::VerbSnapshot::default(), |acc, s| {
                acc.plus(s)
            });
        let avg = aceso_rdma::stats::VerbSnapshot {
            reads: sum.reads / n,
            writes: sum.writes / n,
            cas: sum.cas / n,
            faa: sum.faa / n,
            rpcs: sum.rpcs / n,
            read_bytes: sum.read_bytes / n,
            write_bytes: sum.write_bytes / n,
            batched: sum.batched / n,
        };
        for s in &mut self.m.node_fg {
            *s = avg;
        }
    }

    /// Throughput restricted to one op kind: the phase's overall operating
    /// point scaled by the kind's share of operations.
    pub fn latency_for(&self, kind: OpKind) -> aceso_rdma::LatencyReport {
        self.cost.latency(&self.m, Some(kind))
    }
}

/// Default store configuration used by figures (bigger than
/// [`AcesoConfig::small`], still laptop-friendly).
pub fn bench_aceso_config() -> AcesoConfig {
    AcesoConfig {
        num_arrays: 96,
        num_delta: 96,
        index_groups: 4096,
        block_size: 256 << 10,
        ..AcesoConfig::small()
    }
}

/// FUSEE configuration of matching capacity.
pub fn bench_fusee_config() -> FuseeConfig {
    FuseeConfig {
        index_groups: 4096,
        block_size: 256 << 10,
        blocks_per_mn: 1600,
        ..FuseeConfig::small()
    }
}

/// Sends `req` to `client`, writing `value_for(key, version, len)` for
/// INSERT and UPDATE. `Ok(false)` means a SEARCH or DELETE found no key;
/// the caller applies its own error policy.
pub fn apply(client: &mut AcesoClient, req: &Request, version: u64) -> Result<bool, StoreError> {
    let val = || value_for(&req.key, version, req.value_len);
    match req.op {
        Op::Search => client.search(&req.key).map(|v| v.is_some()),
        Op::Update => client.update(&req.key, &val()).map(|()| true),
        Op::Insert => client.insert(&req.key, &val()).map(|()| true),
        Op::Delete => client.delete(&req.key),
    }
}

/// [`apply`] on the coroutine client: the same dispatch through the
/// resumable `*_async` ops.
pub async fn apply_async(
    client: &mut AcesoClient,
    req: &Request,
    version: u64,
) -> Result<bool, StoreError> {
    let val = || value_for(&req.key, version, req.value_len);
    match req.op {
        Op::Search => client.search_async(&req.key).await.map(|v| v.is_some()),
        Op::Update => client.update_async(&req.key, &val()).await.map(|()| true),
        Op::Insert => client.insert_async(&req.key, &val()).await.map(|()| true),
        Op::Delete => client.delete_async(&req.key).await,
    }
}

/// Builds the cost-model input from `cluster`'s per-node traffic since
/// its last reset plus the clients' op `records`. `bg` is the per-node
/// background byte rate, zero-padded to the cluster size.
pub fn measure(
    cluster: &Cluster,
    records: Vec<OpRecord>,
    n_clients: usize,
    mut bg: Vec<f64>,
    pipeline_depth: Option<f64>,
) -> PhaseMeasurement {
    let node_fg: Vec<_> = cluster
        .nodes()
        .iter()
        .map(|n| n.traffic.snapshot())
        .collect();
    bg.resize(node_fg.len(), 0.0);
    PhaseMeasurement {
        n_clients,
        node_fg,
        bg_bytes_per_sec: bg,
        records,
        pipeline_depth,
    }
}

/// Mean of `f` over the records of `kind` (all records for `None`); 0
/// when there are none.
pub fn mean(records: &[OpRecord], kind: Option<OpKind>, f: impl Fn(&OpRecord) -> u32) -> f64 {
    let (mut n, mut sum) = (0u64, 0u64);
    for r in records.iter().filter(|r| kind.is_none_or(|k| r.kind == k)) {
        n += 1;
        sum += f(r) as u64;
    }
    sum as f64 / n.max(1) as f64
}

/// Drives the ops numbered `opnos` round-robin in this thread: op `n`
/// goes to client `n % clients.len()`, drawn from that client's stream
/// and valued at version `n`, and `judge` sees each result. Traffic and
/// client stats are reset first, so the returned records and the
/// cluster's traffic cover exactly these ops — the schedule, and with it
/// every verb count, is a pure function of the streams.
pub fn round_robin<W: Iterator<Item = Request>>(
    cluster: &Cluster,
    clients: &mut [AcesoClient],
    streams: &mut [W],
    opnos: std::ops::Range<usize>,
    mut judge: impl FnMut(&Request, Result<bool, StoreError>),
) -> Vec<OpRecord> {
    cluster.reset_traffic();
    for c in clients.iter() {
        c.dm.reset_stats();
    }
    for opno in opnos {
        let i = opno % clients.len();
        let req = streams[i].next().expect("workload streams are infinite");
        judge(&req, apply(&mut clients[i], &req, opno as u64));
    }
    clients
        .iter()
        .flat_map(|c| c.dm.take_ops().records)
        .collect()
}

/// What one coroutine run measured on its shared virtual CQ.
pub struct RtRun {
    /// Overlap depth `busy_us / now_us` (0 for an empty run).
    pub depth: f64,
    /// Virtual microseconds the run spanned.
    pub virtual_us: f64,
    /// Peak simultaneously in-flight tasks on the executor.
    pub peak_inflight: usize,
    /// Every task's op records, in task-completion order.
    pub records: Vec<OpRecord>,
}

/// Spawns one coroutine client task per stream on `exec`, all sharing
/// one simulated CQ; each issues `ops_per_task` ops (op `n` valued at
/// version `n`) and `judge` sees each result. Runs the executor to idle
/// and asserts no task wedged.
pub fn drive_rt<W: Iterator<Item = Request> + 'static>(
    store: &Arc<AcesoStore>,
    mut exec: Executor,
    streams: impl IntoIterator<Item = W>,
    ops_per_task: usize,
    judge: fn(&Request, Result<bool, StoreError>),
) -> RtRun {
    let cq = Arc::new(SimCq::new());
    let sink: Rc<RefCell<Vec<OpRecord>>> = Rc::default();
    for mut stream in streams {
        let mut client = store.client().expect("client");
        client.dm.attach_cq(Arc::clone(&cq));
        let sink = Rc::clone(&sink);
        exec.spawn(async move {
            for opno in 0..ops_per_task {
                let req = stream.next().expect("workload streams are infinite");
                judge(&req, apply_async(&mut client, &req, opno as u64).await);
            }
            client.dm.detach_cq();
            sink.borrow_mut().extend(client.dm.take_ops().records);
        });
    }
    let stuck = exec.run_until_idle(|| cq.advance_next());
    assert_eq!(stuck, 0, "rt run wedged with {stuck} tasks in flight");
    let records = sink.take();
    RtRun {
        depth: if cq.now_us() > 0.0 {
            cq.busy_us() / cq.now_us()
        } else {
            0.0
        },
        virtual_us: cq.now_us(),
        peak_inflight: exec.peak_inflight(),
        records,
    }
}

/// Preloads keys into Aceso from one client.
pub fn preload_aceso(
    store: &Arc<AcesoStore>,
    keys: impl Iterator<Item = Vec<u8>>,
    value_len: usize,
) {
    let mut client = store.client().expect("client");
    for key in keys {
        client
            .insert(&key, &value_for(&key, 0, value_len))
            .expect("preload");
    }
    client.close_open_blocks().expect("close");
}

/// Preloads keys into FUSEE.
pub fn preload_fusee(
    store: &Arc<FuseeStore>,
    keys: impl Iterator<Item = Vec<u8>>,
    value_len: usize,
) {
    let mut client = store.client();
    for key in keys {
        client
            .insert(&key, &value_for(&key, 0, value_len))
            .expect("preload");
    }
}

/// The per-thread streams of a micro phase of `op`: thread `t` sweeps
/// its own keys, INSERT threads shifted past the preloaded ids to fresh
/// keys.
pub fn micro(scale: BenchScale, op: Op) -> impl Fn(u32) -> MicroWorkload {
    move |t| {
        let base = if op == Op::Insert { t + 100 } else { t };
        MicroWorkload::new(base, op, scale.keys, scale.value_len)
    }
}

/// Preloads every phase thread's [`micro`] keys (INSERT phases start
/// empty).
pub fn preload_micro_aceso(store: &Arc<AcesoStore>, scale: BenchScale, op: Op) {
    if op != Op::Insert {
        for t in 0..scale.threads as u32 {
            let keys = MicroWorkload::new(t, op, scale.keys, scale.value_len);
            preload_aceso(store, keys.preload_keys(), scale.value_len);
        }
    }
}

/// [`preload_micro_aceso`] for FUSEE.
pub fn preload_micro_fusee(store: &Arc<FuseeStore>, scale: BenchScale, op: Op) {
    if op != Op::Insert {
        for t in 0..scale.threads as u32 {
            let keys = MicroWorkload::new(t, op, scale.keys, scale.value_len);
            preload_fusee(store, keys.preload_keys(), scale.value_len);
        }
    }
}

/// A client the multi-thread phase can drive.
trait PhaseClient {
    /// Applies one workload op. An UPDATE of a missing key (a deleted or
    /// never-loaded key under a synthetic mix) counts as an upsert, like
    /// YCSB's read-modify-write; any other error panics.
    fn run(&mut self, req: Request);
    /// The fabric endpoint whose op records the phase collects.
    fn dm(&self) -> &DmClient;
    /// Flushes what the client batches before its records are taken.
    fn finish(&mut self) {}
}

impl PhaseClient for AcesoClient {
    fn run(&mut self, mut req: Request) {
        let mut r = apply(self, &req, 1);
        if req.op == Op::Update && matches!(r, Err(StoreError::NotFound)) {
            req.op = Op::Insert;
            r = apply(self, &req, 1);
        }
        r.expect("workload op failed");
    }
    fn dm(&self) -> &DmClient {
        &self.dm
    }
    fn finish(&mut self) {
        let _ = self.flush_bitmaps();
    }
}

impl PhaseClient for FuseeClient {
    fn run(&mut self, req: Request) {
        let val = value_for(&req.key, 1, req.value_len);
        let r = match req.op {
            Op::Insert => self.insert(&req.key, &val),
            Op::Update => match self.update(&req.key, &val) {
                Err(aceso_fusee::FuseeError::NotFound) => self.insert(&req.key, &val),
                other => other,
            },
            Op::Search => self.search(&req.key).map(|_| ()),
            Op::Delete => self.delete(&req.key).map(|_| ()),
        };
        r.expect("workload op failed");
    }
    fn dm(&self) -> &DmClient {
        &self.dm
    }
}

/// The one multi-thread phase body: `scale.threads` threads each mint a
/// client, run `scale.warmup` unmeasured ops, meet at a barrier that
/// resets the cluster's traffic, then run their share of `scale.ops`.
fn threaded_phase<C, W, F>(
    cluster: &Cluster,
    cost: CostModel,
    scale: BenchScale,
    bg: Vec<f64>,
    mint: impl Fn() -> C + Sync,
    make_stream: F,
) -> Phase
where
    C: PhaseClient,
    W: Iterator<Item = Request> + Send,
    F: Fn(u32) -> W,
{
    let per_thread = scale.ops / scale.threads;
    let barrier = Barrier::new(scale.threads);
    let records = std::thread::scope(|s| {
        let handles: Vec<_> = (0..scale.threads as u32)
            .map(|t| {
                let mut stream = make_stream(t);
                let (mint, barrier) = (&mint, &barrier);
                s.spawn(move || {
                    let mut client = mint();
                    for req in (&mut stream).take(scale.warmup) {
                        client.run(req);
                    }
                    if barrier.wait().is_leader() {
                        cluster.reset_traffic();
                    }
                    barrier.wait();
                    client.dm().reset_stats();
                    for req in stream.take(per_thread) {
                        client.run(req);
                    }
                    client.finish();
                    client.dm().take_ops().records
                })
            })
            .collect();
        let joined = handles.into_iter().map(|h| h.join().expect("phase thread"));
        joined.flatten().collect()
    });
    Phase {
        m: measure(cluster, records, scale.sim_clients, bg, None),
        cost,
    }
}

/// Runs a measured phase against Aceso with clients minted from
/// `tuning`.
///
/// `make_stream(thread_id)` builds each thread's request stream;
/// `bg_bytes_per_sec` is the per-node background traffic rate (checkpoint
/// transmission) to charge against NIC bandwidth.
pub fn aceso_phase<W, F>(
    store: &Arc<AcesoStore>,
    scale: BenchScale,
    tuning: ClientTuning,
    bg_bytes_per_sec: Vec<f64>,
    make_stream: F,
) -> Phase
where
    W: Iterator<Item = Request> + Send,
    F: Fn(u32) -> W,
{
    let mint = || store.client_with(tuning).expect("client");
    threaded_phase(
        &store.cluster,
        store.cfg.cost,
        scale,
        bg_bytes_per_sec,
        mint,
        make_stream,
    )
}

/// Runs a measured phase against the FUSEE baseline.
pub fn fusee_phase<W, F>(store: &Arc<FuseeStore>, scale: BenchScale, make_stream: F) -> Phase
where
    W: Iterator<Item = Request> + Send,
    F: Fn(u32) -> W,
{
    threaded_phase(
        &store.cluster,
        store.cfg.cost,
        scale,
        vec![],
        || store.client(),
        make_stream,
    )
}

/// Modeled (Aceso, FUSEE) Mops of one phase over `scale.keys` preloaded
/// YCSB keys; Aceso pays live checkpoint traffic at its default interval.
pub fn aceso_vs_fusee<W, F>(scale: BenchScale, make_stream: F) -> (f64, f64)
where
    W: Iterator<Item = Request> + Send,
    F: Fn(u32) -> W,
{
    let store = AcesoStore::launch(bench_aceso_config()).expect("launch");
    preload_aceso(
        &store,
        YcsbWorkload::preload_keys(scale.keys),
        scale.value_len,
    );
    let bg = ckpt_bg_rate(&store, store.cfg.ckpt_interval_ms);
    let a = aceso_phase(&store, scale, scale.tuning(), bg, &make_stream);
    store.shutdown();

    let fstore = FuseeStore::launch(bench_fusee_config());
    preload_fusee(
        &fstore,
        YcsbWorkload::preload_keys(scale.keys),
        scale.value_len,
    );
    let f = fusee_phase(&fstore, scale, make_stream);
    (a.report().mops, f.report().mops)
}

/// Measures the sustained checkpoint traffic rate per node under the
/// current index state: one synchronized round's compressed deltas divided
/// by the interval. Node `c` pays for sending its delta and receiving its
/// left neighbour's.
pub fn ckpt_bg_rate(store: &Arc<AcesoStore>, interval_ms: u64) -> Vec<f64> {
    let n = store.cfg.num_mns;
    let reports = store.checkpoint_tick().expect("tick");
    let mut bg = vec![0.0f64; store.cluster.len()];
    let secs = interval_ms as f64 / 1e3;
    for (col, rep) in reports.iter().enumerate() {
        let rate = rep.compressed_len as f64 / secs;
        bg[col] += rate; // Sender's NIC.
        bg[(col + 1) % n] += rate; // Receiver's NIC.
    }
    bg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aceso_phase_produces_profile() {
        let mut cfg = AcesoConfig::small();
        cfg.index_groups = 1024;
        let store = AcesoStore::launch(cfg).unwrap();
        let scale = BenchScale::tiny();
        preload_micro_aceso(&store, scale, Op::Update);
        let phase = aceso_phase(
            &store,
            scale,
            scale.tuning(),
            vec![],
            micro(scale, Op::Update),
        );
        assert_eq!(
            phase.m.records.len(),
            scale.ops / scale.threads * scale.threads
        );
        let rep = phase.report();
        assert!(rep.mops > 0.0);
        // Updates must cost exactly one CAS each in Aceso.
        let avg_cas = mean(&phase.m.records, None, |r| r.cas);
        assert!((1.0..1.2).contains(&avg_cas), "avg cas {avg_cas}");
        store.shutdown();
    }

    #[test]
    fn fusee_phase_costs_more_cas() {
        let store = FuseeStore::launch(FuseeConfig::small());
        let scale = BenchScale::tiny();
        preload_micro_fusee(&store, scale, Op::Update);
        let phase = fusee_phase(&store, scale, micro(scale, Op::Update));
        let avg_cas = mean(&phase.m.records, None, |r| r.cas);
        assert!(avg_cas >= 3.0, "r=3 needs ≥3 CAS, got {avg_cas}");
    }

    #[test]
    fn ckpt_rate_reflects_delta_size() {
        let store = AcesoStore::launch(AcesoConfig::small()).unwrap();
        let mut c = store.client().unwrap();
        for i in 0..500u32 {
            c.insert(format!("bg-{i}").as_bytes(), b"value").unwrap();
        }
        let bg = ckpt_bg_rate(&store, 500);
        assert!(bg.iter().any(|&b| b > 0.0));
        store.shutdown();
    }
}
