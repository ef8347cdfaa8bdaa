//! Workload specs and the closed-loop load generator.
//!
//! One thread drives [`CLIENTS`] logical clients round-robin: each client
//! sends its next op only after its last one returned, so the schedule —
//! and with it every verb count — is a function of the seed. The request
//! and the value to write are made before the op's timer starts; the
//! result is judged against the [`Oracle`] after it stops.

use crate::machine::{reference_op_ns, CpuSample};
use crate::oracle::{Expect, Oracle, SweepReport, Verdict};
use aceso_core::ckpt::CkptReport;
use aceso_core::{
    recover_mn, scrub, AcesoClient, AcesoConfig, AcesoStore, RecoveryReport, ScrubReport,
};
use aceso_obs::Registry;
use aceso_rdma::stats::VerbSnapshot;
use aceso_rdma::{OpRecord, PhaseMeasurement, PhaseReport};
use aceso_workloads::twitter::TwitterWorkload;
use aceso_workloads::ycsb::YcsbKind;
use aceso_workloads::{Op, Request, TwitterCluster, YcsbWorkload};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Logical clients, round-robin on the one load-driving thread.
pub const CLIENTS: usize = 4;
/// Value length giving the paper's 1 KB KV pairs.
pub const VALUE_LEN: usize = 991;
/// Simulated closed-loop clients fed to the cost model (the paper runs
/// 184 clients on 23 CNs).
pub const SIM_CLIENTS: usize = 184;
/// Column whose MN `transient-crash` kills and recovers.
pub const KILL_COL: usize = 1;
/// Stores an untraced run sets up and measures, one after another. Each
/// is a fresh launch with fresh memory; wall-clock metrics pool their
/// windows, so neither one unlucky memory layout nor one slow stretch of
/// the host decides a run.
pub const STORES: usize = 6;

/// The op mix of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// YCSB-A: 50% SEARCH, 50% UPDATE.
    YcsbA,
    /// YCSB-C: 100% SEARCH.
    YcsbC,
    /// YCSB-D: 95% SEARCH, 5% INSERT of fresh keys.
    YcsbD,
    /// Twitter TRANSIENT: 30/30/20/20 SEARCH/UPDATE/INSERT/DELETE.
    Transient,
}

/// One workload: mix, key space, run size and fault schedule.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Op mix.
    pub mix: Mix,
    /// Zipf exponent (0 = uniform).
    pub theta: f64,
    /// Preloaded keys.
    pub keys: u64,
    /// Ops run (and checked) during set-up, before measurement, so the
    /// clients' index caches and open blocks reach steady state.
    pub warmup_ops: usize,
    /// Measured ops per `--seconds` second: the run's work is fixed by
    /// its arguments, never by how fast this machine happens to be.
    pub ops_per_sec: usize,
    /// Ops per measurement window; wall-clock metrics are medians over
    /// windows.
    pub window_ops: usize,
    /// Measured ops between synchronized checkpoint rounds.
    pub ckpt_every: Option<usize>,
    /// Kill and recover [`KILL_COL`] before this measured window, that is
    /// after a fixed `crash_at × window_ops` measured ops, however long
    /// the run.
    pub crash_at: Option<usize>,
    /// Store configuration.
    pub cfg: AcesoConfig,
}

impl Spec {
    /// The named workload, at the benchmark's full scale.
    pub fn named(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "",
            mix: Mix::YcsbA,
            theta: 0.99,
            keys: 0,
            warmup_ops: 20_000,
            ops_per_sec: 0,
            window_ops: 0,
            ckpt_every: None,
            crash_at: None,
            cfg: aceso_bench::harness::bench_aceso_config(),
        };
        Some(match name {
            // Fits each client's 4,096-entry index cache.
            "ycsb-a-hot" => Spec {
                name: "ycsb-a-hot",
                keys: 4_000,
                ops_per_sec: 50_000,
                window_ops: 25_000,
                ..base
            },
            // 16× the cache: about 6% of SEARCHes hit.
            "ycsb-c-cold" => Spec {
                name: "ycsb-c-cold",
                mix: Mix::YcsbC,
                theta: 0.0,
                keys: 64_000,
                ops_per_sec: 100_000,
                window_ops: 50_000,
                ..base
            },
            // Inserts of fresh keys and checkpoint rounds, one per window.
            "ycsb-d" => Spec {
                name: "ycsb-d",
                mix: Mix::YcsbD,
                keys: 20_000,
                ops_per_sec: 100_000,
                window_ops: 25_000,
                ckpt_every: Some(25_000),
                ..base
            },
            // `transient-crash` without the crash.
            "transient" => Spec {
                name: "transient",
                mix: Mix::Transient,
                keys: 20_000,
                ops_per_sec: 20_000,
                window_ops: 20_000,
                ckpt_every: Some(20_000),
                ..base
            },
            "transient-crash" => Spec {
                name: "transient-crash",
                mix: Mix::Transient,
                keys: 20_000,
                ops_per_sec: 20_000,
                window_ops: 20_000,
                ckpt_every: Some(20_000),
                crash_at: Some(3),
                ..base
            },
            _ => return None,
        })
    }

    /// Measurement windows per store for a run of `seconds`: the run's
    /// `seconds × ops_per_sec` ops are split over [`STORES`] stores, with
    /// at least one window after the crash.
    pub fn windows(&self, seconds: u64) -> usize {
        let n = (seconds as usize * self.ops_per_sec / self.window_ops / STORES).max(2);
        self.crash_at.map_or(n, |c| n.max(c + 1))
    }

    fn stream(&self, client: usize, seed: u64) -> Box<dyn Iterator<Item = Request>> {
        let c = client as u32;
        match self.mix {
            Mix::YcsbA => Box::new(YcsbWorkload::new(
                YcsbKind::A,
                self.keys,
                self.theta,
                VALUE_LEN,
                c,
                seed,
            )),
            Mix::YcsbC => Box::new(YcsbWorkload::new(
                YcsbKind::C,
                self.keys,
                self.theta,
                VALUE_LEN,
                c,
                seed,
            )),
            Mix::YcsbD => Box::new(YcsbWorkload::new(
                YcsbKind::D,
                self.keys,
                self.theta,
                VALUE_LEN,
                c,
                seed,
            )),
            Mix::Transient => Box::new(TwitterWorkload::new(
                TwitterCluster::Transient,
                self.keys,
                self.theta,
                VALUE_LEN,
                c,
                seed,
            )),
        }
    }
}

/// Correctness counts: ops, sweep reads and scrub checks attempted and
/// failed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Checks {
    /// Ops, sweep reads, and parity equations and delta-copy pairs
    /// scrubbed.
    pub attempted: u64,
    /// Ops that errored or disagreed with the oracle, failed sweep reads,
    /// and scrub mismatches.
    pub failed: u64,
}

impl Checks {
    fn add_sweep(&mut self, s: &SweepReport) {
        self.attempted += s.reads;
        self.failed += s.failed;
    }

    /// Counts every failing parity equation and every disagreeing pair of
    /// delta copies as a failed check: a decode through either would
    /// return wrong bytes. The report counts the equations that held, but
    /// not the delta-copy pairs that agreed.
    pub fn add_scrub(&mut self, r: &ScrubReport) {
        let failed = (r.parity_mismatch + r.delta_copy_mismatch) as u64;
        self.attempted += r.parity_ok as u64 + failed;
        self.failed += failed;
    }
}

/// One op as the load generator saw it.
struct Step {
    client: usize,
    op: Op,
    ns: u64,
    /// The op's verb profile, taken right after it (traced runs only).
    rec: Option<OpRecord>,
    /// The op moved the cache-miss counter (traced runs only).
    cache_miss: bool,
}

/// Wall-clock samples of one measurement window.
#[derive(Default)]
pub struct Window {
    /// Ops in the window.
    pub ops: u64,
    /// Wall time, checkpoint rounds included, recovery excluded.
    pub wall: Duration,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Share of machine ticks stolen by the hypervisor, %.
    pub steal_pct: f64,
    /// SEARCH latencies, ns.
    pub search_ns: Vec<u64>,
    /// UPDATE/INSERT/DELETE latencies, ns.
    pub write_ns: Vec<u64>,
    /// Reference op time just before and just after the window, mean,
    /// ns ([`crate::machine::reference_op_ns`]).
    pub ref_op_ns: f64,
}

/// One synchronized checkpoint round.
pub struct CkptRound {
    /// Wall time of `checkpoint_tick`.
    pub wall: Duration,
    /// Per-column reports.
    pub reports: Vec<CkptReport>,
}

/// The MN crash of `transient-crash`.
pub struct Crash {
    /// Sweep of every key just before the kill.
    pub pre: SweepReport,
    /// Sweep of every key, from a fresh client, right after recovery.
    pub post: SweepReport,
    /// Wall time of the `recover_mn` call.
    pub wall: Duration,
    /// The recovery's own tier breakdown.
    pub report: RecoveryReport,
}

/// The per-op join of wall latency and verb profile (traced runs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Join {
    /// Writes (UPDATE/INSERT/DELETE).
    pub writes: u64,
    /// Writes that made at least one RPC to an MN server thread.
    pub rpc_writes: u64,
    /// Ops of any kind that made an RPC.
    pub rpc_ops: u64,
    /// Summed wall time of those ops, ns.
    pub rpc_ops_ns: u64,
    /// Summed wall time of writes without an RPC, ns.
    pub norpc_write_ns: u64,
    /// SEARCHes that missed the index cache.
    pub miss_searches: u64,
    /// Their summed round trips.
    pub miss_search_rtts: u64,
    /// Their summed READ bytes.
    pub miss_search_read_bytes: u64,
}

/// Everything one measured phase produced.
pub struct Outcome {
    /// Wall-clock windows.
    pub windows: Vec<Window>,
    /// Modeled throughput and bottleneck.
    pub model: PhaseReport,
    /// Cost-model input (per-op verb records, per-node demand).
    pub measurement: PhaseMeasurement,
    /// Block Area usage after a final bitmap flush.
    pub memory: aceso_core::MemoryUsage,
    /// Correctness counts, set-up warm-up included.
    pub checks: Checks,
    /// The crash, if the workload has one.
    pub crash: Option<Crash>,
    /// Sweep of every key at the end of the run.
    pub final_sweep: SweepReport,
    /// Scrub mismatches (count, first few locations) and its wall time.
    pub scrub: (usize, Vec<String>, Duration),
    /// Checkpoint rounds.
    pub ckpt: Vec<CkptRound>,
    /// Server busy meters summed over columns: rpc, ec, send, recv (ns).
    pub server_ns: [u64; 4],
    /// Background (MN-thread) verb bytes over the phase.
    pub bg_bytes: u64,
    /// Per-op join (traced runs).
    pub join: Join,
    /// Registry counters over the phase (traced runs).
    pub counters: BTreeMap<String, u64>,
    /// Process CPU and steal over the phase.
    pub cpu: (CpuSample, CpuSample),
    /// The store's configuration.
    pub cfg: AcesoConfig,
}

/// A store set up for one workload: preloaded, warmed up, ready to
/// measure.
pub struct Bench {
    spec: Spec,
    store: Arc<AcesoStore>,
    clients: Vec<AcesoClient>,
    streams: Vec<Box<dyn Iterator<Item = Request>>>,
    oracle: Oracle,
    /// Version of the next write; grows on every op.
    version: u64,
    checks: Checks,
    registry: Option<Arc<Registry>>,
    /// `client.cache.misses`, read around each traced SEARCH.
    misses: Option<aceso_obs::Counter>,
}

impl Bench {
    /// Launches the store, preloads `spec.keys` keys and runs the
    /// warm-up. `traced` installs an `aceso-obs` recorder for the
    /// measured clients.
    pub fn setup(spec: &Spec, seed: u64, traced: bool) -> Bench {
        let store = AcesoStore::launch(spec.cfg.clone()).expect("launch");
        let mut oracle = Oracle::new(VALUE_LEN);
        let mut loader = store.client().expect("client");
        for key in YcsbWorkload::preload_keys(spec.keys) {
            loader
                .insert(&key, &oracle.value(&key, 0))
                .expect("preload insert");
            oracle.set(&key, Expect::Live(0));
        }
        loader.close_open_blocks().expect("close preload blocks");
        let registry = traced.then(Registry::new);
        if let Some(r) = &registry {
            store.install_recorder(Arc::clone(r));
        }
        let clients = (0..CLIENTS)
            .map(|_| store.client().expect("client"))
            .collect();
        let streams = (0..CLIENTS).map(|i| spec.stream(i, seed)).collect();
        let misses = registry.as_ref().map(|r| r.counter("client.cache.misses"));
        let mut b = Bench {
            spec: spec.clone(),
            store,
            clients,
            streams,
            oracle,
            version: 0,
            checks: Checks::default(),
            registry,
            misses,
        };
        for opno in 0..spec.warmup_ops {
            b.step(opno);
        }
        b
    }

    /// Sends the next op of client `opno % CLIENTS` and judges it.
    fn step(&mut self, opno: usize) -> Step {
        let i = opno % CLIENTS;
        let req = self.streams[i].next().expect("streams are infinite");
        self.version += 1;
        let v = self.version;
        let value = match req.op {
            Op::Update | Op::Insert => self.oracle.value(&req.key, v),
            Op::Search | Op::Delete => Vec::new(),
        };
        let misses0 = self.misses.as_ref().map_or(0, |c| c.get());
        let client = &mut self.clients[i];
        let t0 = Instant::now();
        let res = match req.op {
            Op::Search => client.search(&req.key).map(Found::Value),
            Op::Update => client.update(&req.key, &value).map(|()| Found::Ack),
            Op::Insert => client.insert(&req.key, &value).map(|()| Found::Ack),
            Op::Delete => client.delete(&req.key).map(Found::Existed),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        let traced = self.registry.is_some();
        let rec = if traced {
            client.dm.take_ops().records.pop()
        } else {
            None
        };
        let cache_miss = self.misses.as_ref().is_some_and(|c| c.get() > misses0);
        let verdict = match res {
            Ok(Found::Value(got)) => self.oracle.judge(&req.key, got.as_deref()),
            Ok(Found::Ack) => {
                self.oracle.set(&req.key, Expect::Live(v));
                Verdict::Ok
            }
            Ok(Found::Existed(existed)) => {
                let verdict = self.oracle.judge_delete(&req.key, existed);
                self.oracle.set(&req.key, Expect::Deleted);
                verdict
            }
            Err(_) => {
                if req.op != Op::Search {
                    self.oracle.set(&req.key, Expect::Unknown);
                }
                Verdict::Stale
            }
        };
        self.checks.attempted += 1;
        self.checks.failed += (verdict == Verdict::Stale) as u64;
        Step {
            client: i,
            op: req.op,
            ns,
            rec,
            cache_miss,
        }
    }

    /// Sweeps every key the oracle knows from a fresh client.
    fn sweep(&mut self) -> SweepReport {
        let mut client = self.store.client().expect("client");
        let rep = self.oracle.sweep(&mut client);
        self.checks.add_sweep(&rep);
        rep
    }

    fn crash(&mut self) -> Crash {
        let pre = self.sweep();
        assert!(self.store.kill_mn(KILL_COL), "column already dead");
        let t0 = Instant::now();
        let report = recover_mn(&self.store, KILL_COL).expect("recover_mn");
        let wall = t0.elapsed();
        let post = self.sweep();
        Crash {
            pre,
            post,
            wall,
            report,
        }
    }

    /// Reads every meter a phase is charged with.
    fn tally(&self) -> Tally {
        let nodes = self.store.cluster.nodes();
        let mut server = [0u64; 4];
        for col in 0..self.store.directory().len() {
            for (s, v) in server
                .iter_mut()
                .zip(self.store.server(col).meters.snapshot())
            {
                *s += v;
            }
        }
        Tally {
            fg: nodes.iter().map(|n| n.traffic.snapshot()).collect(),
            bg_bytes: nodes.iter().map(|n| n.background.snapshot().bytes()).sum(),
            server,
            counters: self
                .registry
                .as_ref()
                .map(|r| r.snapshot().counters)
                .unwrap_or_default(),
        }
    }

    /// Runs the measured phase of `windows` windows, then the end-of-run
    /// checks (memory usage, final sweep, scrub). Meters are charged per
    /// window, so the crash, the recovery and the sweeps between windows
    /// stay out of the phase's counts. Returns the store still running.
    pub fn run(mut self, windows: usize) -> (Outcome, Arc<AcesoStore>) {
        let spec = self.spec.clone();
        // Traced runs take each op's record as it ends; they are kept per
        // client so the cost model sees them in the same client-major
        // order as an untraced run's end-of-phase `take_ops`.
        let mut per_client: Vec<Vec<OpRecord>> = vec![Vec::new(); CLIENTS];
        for c in &self.clients {
            c.dm.reset_stats();
        }
        let crash_window = spec.crash_at;
        assert!(
            crash_window.is_none_or(|c| (1..windows).contains(&c)),
            "the crash must fall between measured windows"
        );
        let mut crash = None;
        let mut ckpt = Vec::new();
        let mut join = Join::default();
        let mut wins = Vec::with_capacity(windows);
        let mut phase = Tally::default();
        let cpu_start = CpuSample::now();
        for w in 0..windows {
            if crash_window == Some(w) {
                crash = Some(self.crash());
            }
            let before = self.tally();
            let mut win = Window::default();
            let ref0 = reference_op_ns();
            let cpu0 = CpuSample::now();
            let t0 = Instant::now();
            for k in 0..spec.window_ops {
                let opno = spec.warmup_ops + w * spec.window_ops + k;
                if let Some(every) = spec.ckpt_every {
                    if (w * spec.window_ops + k) % every == every / 2 {
                        let t = Instant::now();
                        let reports = self.store.checkpoint_tick().expect("checkpoint round");
                        ckpt.push(CkptRound {
                            wall: t.elapsed(),
                            reports,
                        });
                    }
                }
                let s = self.step(opno);
                let is_write = s.op != Op::Search;
                if is_write {
                    win.write_ns.push(s.ns);
                } else {
                    win.search_ns.push(s.ns);
                }
                if let Some(rec) = s.rec {
                    if rec.rpcs > 0 {
                        join.rpc_ops += 1;
                        join.rpc_ops_ns += s.ns;
                        join.rpc_writes += is_write as u64;
                    } else if is_write {
                        join.norpc_write_ns += s.ns;
                    }
                    join.writes += is_write as u64;
                    if !is_write && s.cache_miss {
                        join.miss_searches += 1;
                        join.miss_search_rtts += rec.rtts as u64;
                        join.miss_search_read_bytes += rec.read_bytes as u64;
                    }
                    per_client[s.client].push(rec);
                }
            }
            win.wall = t0.elapsed();
            let cpu1 = CpuSample::now();
            win.cpu_s = cpu1.proc_secs_since(&cpu0);
            win.steal_pct = cpu1.steal_pct_since(&cpu0);
            win.ops = spec.window_ops as u64;
            win.ref_op_ns = (ref0 + reference_op_ns()) / 2.0;
            wins.push(win);
            if w + 1 == windows {
                // The bitmap bits the phase's writes still owe.
                for c in &mut self.clients {
                    c.flush_bitmaps().expect("bitmap flush");
                }
            }
            phase.charge(&before, &self.tally());
        }
        let cpu_end = CpuSample::now();
        let mut records = Vec::new();
        for (c, recs) in self.clients.iter().zip(per_client) {
            records.extend(recs);
            records.extend(c.dm.take_ops().records);
        }
        let nodes = phase.fg.len();
        let measurement = PhaseMeasurement {
            n_clients: SIM_CLIENTS,
            node_fg: phase.fg,
            bg_bytes_per_sec: vec![0.0; nodes],
            records,
            pipeline_depth: None,
        };
        let model = self.store.cfg.cost.report(&measurement);
        let memory = self.store.memory_usage();
        let final_sweep = self.sweep();
        let t = Instant::now();
        let scrub_rep = scrub(&self.store).expect("scrub");
        self.checks.add_scrub(&scrub_rep);
        let shown = scrub_rep.mismatches.iter().take(3).cloned().collect();
        let scrub = (scrub_rep.mismatches.len(), shown, t.elapsed());
        let out = Outcome {
            windows: wins,
            model,
            measurement,
            memory,
            checks: self.checks,
            crash,
            final_sweep,
            scrub,
            ckpt,
            server_ns: phase.server,
            bg_bytes: phase.bg_bytes,
            join,
            counters: phase.counters,
            cpu: (cpu_start, cpu_end),
            cfg: self.spec.cfg,
        };
        (out, self.store)
    }
}

/// Meter readings: per-node foreground verbs, background bytes, server
/// busy meters, registry counters. As a phase total, the sum of window
/// deltas.
#[derive(Default)]
struct Tally {
    fg: Vec<VerbSnapshot>,
    bg_bytes: u64,
    server: [u64; 4],
    counters: BTreeMap<String, u64>,
}

impl Tally {
    /// Adds the span from `a` to `b` (one window) to this total. Nodes
    /// keep their index; a node that recovery added extends the list.
    fn charge(&mut self, a: &Tally, b: &Tally) {
        self.fg.resize(b.fg.len(), VerbSnapshot::default());
        for (i, end) in b.fg.iter().enumerate() {
            let start = a.fg.get(i).copied().unwrap_or_default();
            self.fg[i] = self.fg[i].plus(&end.since(&start));
        }
        self.bg_bytes += b.bg_bytes - a.bg_bytes;
        for (t, (x, y)) in self.server.iter_mut().zip(a.server.iter().zip(b.server)) {
            *t += y - x;
        }
        for (k, v) in &b.counters {
            *self.counters.entry(k.clone()).or_default() +=
                v - a.counters.get(k).copied().unwrap_or(0);
        }
    }
}

/// A successful op's result, before judging.
enum Found {
    Value(Option<Vec<u8>>),
    Ack,
    Existed(bool),
}
