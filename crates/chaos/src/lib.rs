//! Fault-injection harness for the Aceso reproduction.
//!
//! Every fault axis is an [`Axis`]: a fixed vocabulary of cells plus one
//! script that runs a cell against a live store. The generic code in
//! [`axis`] does the rest once for all of them — per-cell seeds, the
//! report, the traced run under the [`aceso_san`] race detector, and the
//! CLI progress line. The Aceso axes share one setup and one
//! post-recovery judge ([`fixture`]): launch the chaos store, preload,
//! checkpoint, snapshot the Index Versions, run the cell's fault and
//! tiered recovery, then check the invariants the paper's fault-tolerance
//! argument rests on — acknowledged writes survive (oracle agreement
//! with ambiguity windows), abandoned meta locks can be broken, Index
//! Versions never go backwards, and parity stripes stay consistent with
//! no degraded window left open.
//!
//! The axes:
//!
//! * [`CrashMatrix`] (`chaos sweep [--ci]`, `soak`, `cell`) — (operation
//!   × injection site × MN-kill timing × reclamation state), arming
//!   [`aceso_rdma::FaultPlan`] verb faults and
//!   [`aceso_core::client::CrashPoint`] client crashes (see [`cell`] and
//!   [`runner`]). Only this axis keeps per-invariant-class timings and
//!   greedy counterexample minimization ([`mod@sweep`]); `--ci` is the
//!   fixed-seed profile wired into tier-1 verification.
//! * [`RtAxis`] (`chaos rt`) — kill a memory node (or crash one client)
//!   while several resumable ops are suspended mid round-trip on one
//!   [`aceso_rt::Executor`] thread (see [`rt_axis`]).
//! * [`ElasticAxis`] (`chaos elastic [--ci]`) — an elastic migration
//!   re-homes a column under live traffic and the joining MN, the
//!   draining MN, or a CN dies at every migrator step boundary (see
//!   [`elastic_axis`]).
//! * [`CacheAxis`] (`chaos cache [--ci]`) — the index column of a cached
//!   key (or the client itself) dies *between cache fill and use*, and a
//!   hot-cache client that slept through the kill must read nothing stale
//!   afterwards (see [`cache_axis`]). `chaos sweep --ci` appends it.
//! * [`BackendsAxis`] (`chaos backends [--ci]`) — the same (op × fault ×
//!   skip) crash script against every [`aceso_core::FtEngine`] — Aceso,
//!   FUSEE-style full replication, and the SWARM-style 1-RTT engine —
//!   judged by the seam's strategy-blind checks instead of the Aceso
//!   judge (see [`backends_axis`]).
//!
//! Two modes sit beside the axes:
//!
//! * `chaos analyze [--ci]` — traces the crash matrix with the sweep's
//!   per-cell seeds, a multi-client YCSB-A interleaving, and every other
//!   axis's [`Axis::traced`] slice on the master seed verbatim under the
//!   happens-before race detector, then runs the detector's mutation
//!   self-tests and the static protocol lints (see [`analyze`]).
//! * `chaos explore [--ci]` — bounded model checking: the
//!   [`aceso_model`] explorer enumerates every interleaving of 2–3
//!   coroutine clients to a depth bound, crashes every scheduling point,
//!   and judges each terminal state with the matrix invariants plus a
//!   linearizability oracle (see [`explore`]).
//!
//! Every schedule derives from one `u64` seed; the same seed replays the
//! identical schedule. Every report line on stdout is a pure function of
//! the seed (wall-clock lines go to stderr), so tier-1 pins the five CI
//! reports byte for byte in `results/chaos_ci.txt`.

pub mod analyze;
pub mod axis;
pub mod backends_axis;
pub mod cache_axis;
pub mod cell;
pub mod elastic_axis;
pub mod explore;
pub mod fixture;
pub mod rt_axis;
pub mod runner;
pub mod sweep;

pub use analyze::{AnalyzeReport, YcsbTrace};
pub use axis::{run_matrix, trace, Axis, Outcome, Report, Traced};
pub use backends_axis::{BackendCell, BackendFault, BackendOp, BackendsAxis};
pub use cache_axis::{CacheAxis, CacheCell, CacheKill, CacheOp};
pub use cell::{
    ci_matrix, full_matrix, injection_sites, kill_timings, Cell, InjectionSite, KillTiming,
    OpType, ReclaimState,
};
pub use elastic_axis::{ElasticAxis, ElasticBoundary, ElasticCell, ElasticKill};
pub use explore::{run_explore, wgl_selftests, ExploreCliReport};
pub use fixture::chaos_config;
pub use rt_axis::{RtAxis, RtKill, RT_TASKS};
pub use runner::{CellOutcome, CrashMatrix};
pub use sweep::{soak, sweep, Counterexample, SweepReport};

/// Default master seed (sweep and soak) so bare CLI invocations are
/// reproducible without any flags.
pub const DEFAULT_SEED: u64 = 0xACE50;

/// Cell budget of the `--ci` profile: large enough to touch every axis
/// value many times, small enough to finish within the tier-1 minute.
pub const CI_CELLS: usize = 120;
