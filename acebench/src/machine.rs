//! Per-run machine record: core count, CPU steal from `/proc/stat` and
//! process CPU time, so a slow wall-clock run can be told apart from a
//! slow program.

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread
/// of the process, exited ones included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time, ns. `/proc/self/stat` holds the same sum in 10 ms
/// ticks, which is 5–7% of a measurement window; this clock counts
/// nanoseconds.
fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One reading of the process and machine CPU counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSample {
    /// Process user + system time, all threads, ns.
    pub proc_ns: u64,
    /// Machine-wide steal ticks (`/proc/stat`, `cpu` line).
    pub steal_ticks: u64,
    /// Machine-wide ticks of every state up to and including steal.
    pub total_ticks: u64,
}

impl CpuSample {
    /// Reads the counters now; the steal fields read as 0 where `/proc`
    /// is absent.
    pub fn now() -> Self {
        let (steal_ticks, total_ticks) = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(parse_cpu_line))
            .unwrap_or_default();
        CpuSample {
            proc_ns: process_cpu_ns(),
            steal_ticks,
            total_ticks,
        }
    }

    /// Process CPU seconds between `earlier` and `self`.
    pub fn proc_secs_since(&self, earlier: &CpuSample) -> f64 {
        self.proc_ns.saturating_sub(earlier.proc_ns) as f64 / 1e9
    }

    /// Share of machine ticks stolen by the hypervisor since `earlier`, %.
    pub fn steal_pct_since(&self, earlier: &CpuSample) -> f64 {
        let total = self.total_ticks.saturating_sub(earlier.total_ticks);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal_ticks.saturating_sub(earlier.steal_ticks) as f64 / total as f64
    }
}

/// `(steal, user+nice+system+idle+iowait+irq+softirq+steal)` from the
/// aggregate `cpu` line of `/proc/stat`.
fn parse_cpu_line(line: &str) -> (u64, u64) {
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|x| x.parse().ok())
        .collect();
    if v.len() < 8 {
        return (0, 0);
    }
    (v[7], v.iter().sum())
}

/// Words of the table the copy loop reads and writes (16 MiB).
const REF_TABLE_WORDS: usize = 2 << 20;
/// Words of one record: 1 KiB, the benchmark's KV size.
const REF_RECORD_WORDS: usize = 128;
/// Iterations of the copy loop in one sample.
const REF_COPIES: usize = 4_000;
/// Iterations of the map loop in one sample.
const REF_INSERTS: usize = 8_000;
/// Entries the map loop keeps, like a client's index cache.
const REF_MAP_ENTRIES: usize = 4_096;

/// Best of three samples of `f`, ns per iteration of `iters`.
fn best_of_3(iters: usize, mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::MAX, f64::min)
        / iters as f64
}

/// Steps a xorshift64 generator and returns its new state.
pub fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Time of one *reference op*, ns: the geometric mean of the per-iteration
/// times of two fixed loops that share no code with the store.
///
/// - The copy loop copies a random 1 KiB record of a 16 MiB table,
///   hashes it, and writes it back elsewhere in the table.
/// - The map loop files a freshly allocated 1 KiB record under a random
///   key of a `BTreeMap` bounded to 4,096 entries, evicting the smallest.
///
/// The host's speed moves this number with the program's: on the shared
/// VM the benchmark was tuned on, whole runs went 20–40% slower for tens
/// of seconds with little CPU steal. Each loop followed part of that
/// drift, the map loop more than the copy loop; their geometric mean
/// followed most of it.
pub fn reference_op_ns() -> f64 {
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u64>> =
            std::cell::RefCell::new((0..REF_TABLE_WORDS as u64).collect());
    }
    let span = REF_TABLE_WORDS - REF_RECORD_WORDS;
    let copy = TABLE.with_borrow_mut(|table| {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        best_of_3(REF_COPIES, || {
            let mut rec = [0u64; REF_RECORD_WORDS];
            for _ in 0..REF_COPIES {
                let src = xorshift(&mut x) as usize % span;
                rec.copy_from_slice(&table[src..src + REF_RECORD_WORDS]);
                let hash = rec.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
                    (h ^ w).wrapping_mul(0x100_0000_01b3)
                });
                let dst = (x >> 20) as usize % span;
                table[dst..dst + REF_RECORD_WORDS].copy_from_slice(&rec);
                table[dst] = hash;
            }
        })
    });
    let mut x = 0x2545_f491_4f6c_dd1d;
    let map = best_of_3(REF_INSERTS, || {
        let mut map = std::collections::BTreeMap::new();
        for i in 0..REF_INSERTS {
            map.insert(xorshift(&mut x) % 65_536, vec![i as u8; 1024]);
            if map.len() > REF_MAP_ENTRIES {
                map.pop_first();
            }
        }
        std::hint::black_box(&map);
    });
    (copy * map).sqrt()
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_counts_work() {
        let a = CpuSample::now();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        let spent = CpuSample::now().proc_secs_since(&a);
        assert!(spent > 0.0 && spent < 10.0, "{spent} s");
    }

    #[test]
    fn reference_op_takes_time() {
        let ns = reference_op_ns();
        assert!(ns.is_finite() && ns > 0.0, "reference op {ns} ns");
    }

    #[test]
    fn parses_cpu_line() {
        let line = "cpu  10 1 5 100 2 0 1 7 0 0";
        assert_eq!(parse_cpu_line(line), (7, 126));
    }
}
