//! Table 2 — impact of the erasure code on MN recovery (paper §4.5).
//!
//! The XOR row is the real recovery breakdown of this implementation
//! (X-Code). The RS row re-runs the compute-bound decode stages with the
//! Reed-Solomon kernels' measured throughput — the same data volumes, a
//! slower code — mirroring how the paper isolates the code's effect. The
//! `Test Tpt` column benchmarks both codes generating one parity block
//! from six source blocks, like the paper's ISA-L test.

use crate::figs::FigureOutput;
use crate::harness::BenchScale;
use aceso_core::RecoveryReport;
use aceso_erasure::{ReedSolomon, XCode};
use std::time::Instant;

/// Measures both codes' encode throughput (GB/s): one parity block from
/// six 2 MB source blocks (the paper's ISA-L test shape).
pub fn codec_throughput() -> (f64, f64) {
    const BLOCK: usize = 2 << 20;
    const SOURCES: usize = 6;
    let data: Vec<Vec<u8>> = (0..SOURCES)
        .map(|i| {
            (0..BLOCK)
                .map(|b| ((b * 31 + i * 7) & 0xFF) as u8)
                .collect()
        })
        .collect();
    let bytes = (BLOCK * SOURCES) as f64;

    // XOR (X-Code's kernel): parity = ⊕ sources.
    let mut parity = vec![0u8; BLOCK];
    let t = Instant::now();
    let reps = 8;
    for _ in 0..reps {
        parity.fill(0);
        for d in &data {
            aceso_erasure::xor_into(&mut parity, d);
        }
    }
    let xor_gbs = bytes * reps as f64 / t.elapsed().as_secs_f64() / 1e9;

    // RS: parity = Σ c_j · d_j over GF(2^8).
    let rs = ReedSolomon::new(SOURCES, 1).unwrap();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let t = Instant::now();
    let reps = 2;
    for _ in 0..reps {
        let _ = rs.encode(&refs).unwrap();
    }
    let rs_gbs = bytes * reps as f64 / t.elapsed().as_secs_f64() / 1e9;
    let _ = XCode::new(5).unwrap();
    (xor_gbs, rs_gbs)
}

fn row(name: &str, r: &RecoveryReport, tpt: f64) -> String {
    format!(
        "{name:4} | {:5.1} | {:5.1} | {:7.1} ({:4}) | {:7.1} ({:4}) | {:6.1} ({:7}) | {:8.1} ({:4}) | {:7.1} | {:5.1} GB/s\n",
        r.read_meta_ms,
        r.read_ckpt_ms,
        r.recover_lblock_ms,
        r.lblock_count,
        r.read_rblock_ms,
        r.rblock_count,
        r.scan_kv_ms,
        r.kv_count,
        r.recover_old_lblock_ms,
        r.old_lblock_count,
        r.total_ms(),
        tpt,
    )
}

/// Runs the recovery breakdown.
pub fn table2(scale: BenchScale) -> FigureOutput {
    // Build up state and crash one MN (mirrors the Degraded Search setup
    // but recovering all three areas).
    let report = super::fig16_18::crash_and_recover(scale.keys, scale.keys / 10, scale.value_len);

    let (xor_gbs, rs_gbs) = codec_throughput();
    // The RS variant scales the decode-compute stages by the kernels'
    // measured throughput ratio (the network part is identical).
    let slow = xor_gbs / rs_gbs;
    let rs_report = RecoveryReport {
        recover_lblock_ms: report.recover_lblock_ms * slow,
        recover_old_lblock_ms: report.recover_old_lblock_ms * slow,
        ..report
    };

    let mut text = String::from(
        "MN recovery breakdown (ms; counts in parentheses)\n\
         code | Meta  | Ckpt  | Recover LBlock | Read RBlock    | Scan KV         | Recover OldLBlk | Total   | Test Tpt\n",
    );
    text.push_str(&row("XOR", &report, xor_gbs));
    text.push_str(&row("RS", &rs_report, rs_gbs));
    text.push_str(&format!(
        "XOR vs RS: decode kernel {:.1}x faster; total recovery {:.0}% shorter\n",
        xor_gbs / rs_gbs,
        (1.0 - report.total_ms() / rs_report.total_ms()) * 100.0
    ));
    FigureOutput {
        id: "Table 2",
        text,
    }
}
