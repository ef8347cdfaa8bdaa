//! Layer probes for the traced run: time single calls into the fabric
//! verbs, the erasure kernels and the checkpoint codec, after the
//! workload has finished, so the workload's own numbers are untouched.

use crate::machine::xorshift;
use aceso_core::AcesoStore;
use aceso_erasure::{xor_into, XCode};
use aceso_rdma::GlobalAddr;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// X-Code cell size of the kernel probes (the store's block size).
const CELL: usize = 256 << 10;
/// Bytes moved by each fabric verb probe.
const VERB_BYTES: usize = 1024;
/// Upper bound on the Index Area bytes the codec probe compresses.
const CODEC_MAX: usize = 4 << 20;

/// Per-call time and throughput of one probe.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probe {
    /// Median wall time of one call, µs.
    pub call_us: f64,
    /// Bytes one call moves.
    pub bytes: usize,
}

impl Probe {
    /// Bytes per nanosecond, i.e. GB/s.
    pub fn gbps(&self) -> f64 {
        if self.call_us > 0.0 {
            self.bytes as f64 / (self.call_us * 1e3)
        } else {
            0.0
        }
    }
}

/// Every probe of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    /// `DmClient::read` of 1 KiB from the live store.
    pub read: Probe,
    /// `DmClient::write` of 1 KiB to the live store.
    pub write: Probe,
    /// `DmClient::cas` on the live store.
    pub cas: Probe,
    /// `XCode::encode` of one 5-column array of 256 KiB cells.
    pub encode: Probe,
    /// `XCode::reconstruct_cell` of one 256 KiB cell.
    pub reconstruct: Probe,
    /// `xor_into` of one 256 KiB cell.
    pub xor: Probe,
    /// `aceso_codec::compress` of column 0's Index Area.
    pub compress: Probe,
    /// `aceso_codec::decompress` of the same.
    pub decompress: Probe,
}

/// Median of `reps` timed batches of `per` calls of `f`, per call, µs.
fn time_calls(reps: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / per as f64
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us[us.len() / 2]
}

/// Deterministic filler bytes for the kernel probes.
fn filler(len: usize, salt: u64) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    (0..len).map(|_| xorshift(&mut x) as u8).collect()
}

/// Runs every probe. The verb probes touch column 0's Index Area only
/// with writes of the bytes already there and CASes of a word to its own
/// value, so the store's contents do not change; no client is running.
pub fn run(store: &Arc<AcesoStore>) -> Probes {
    let dm = store.cluster.client();
    let addr = GlobalAddr::new(store.directory().node_of(0), 0);
    let mut buf = vec![0u8; VERB_BYTES];
    dm.read(addr, &mut buf).expect("probe read");
    let read = Probe {
        call_us: time_calls(7, 5_000, || {
            dm.read(addr, black_box(&mut buf)).expect("read")
        }),
        bytes: VERB_BYTES,
    };
    let write = Probe {
        call_us: time_calls(7, 5_000, || dm.write(addr, black_box(&buf)).expect("write")),
        bytes: VERB_BYTES,
    };
    let word = dm.read_u64(addr).expect("probe read word");
    let cas = Probe {
        call_us: time_calls(7, 5_000, || {
            black_box(dm.cas(addr, word, word).expect("cas"));
        }),
        bytes: 8,
    };

    let code = XCode::new(store.cfg.num_mns).expect("x-code geometry");
    let n = code.n();
    let data: Vec<Vec<Vec<u8>>> = (0..code.data_rows())
        .map(|r| (0..n).map(|c| filler(CELL, (r * n + c) as u64)).collect())
        .collect();
    let encode = Probe {
        call_us: time_calls(5, 4, || {
            black_box(code.encode(black_box(&data)).expect("encode"));
        }),
        bytes: code.data_rows() * n * CELL,
    };
    let (diag, anti) = code.encode(&data).expect("encode");
    let cell_at = |r: usize, c: usize| -> Option<Vec<u8>> {
        if r < code.data_rows() {
            Some(data[r][c].clone())
        } else if r == code.diag_row() {
            Some(diag[c].clone())
        } else {
            Some(anti[c].clone())
        }
    };
    let reconstruct = Probe {
        call_us: time_calls(5, 8, || {
            black_box(code.reconstruct_cell(0, 0, cell_at).expect("reconstruct"));
        }),
        bytes: (n - 1) * CELL,
    };
    let mut dst = filler(CELL, 1 << 32);
    let src = filler(CELL, 2 << 32);
    let xor = Probe {
        call_us: time_calls(5, 64, || xor_into(black_box(&mut dst), black_box(&src))),
        bytes: CELL,
    };

    let index_len = (store.map.index.size_bytes() as usize).min(CODEC_MAX);
    let index = dm.read_vec(addr, index_len).expect("probe index read");
    let packed = aceso_codec::compress(&index);
    let compress = Probe {
        call_us: time_calls(5, 4, || {
            black_box(aceso_codec::compress(black_box(&index)));
        }),
        bytes: index_len,
    };
    let decompress = Probe {
        call_us: time_calls(5, 4, || {
            black_box(aceso_codec::decompress(black_box(&packed), index_len).expect("decompress"));
        }),
        bytes: index_len,
    };
    Probes {
        read,
        write,
        cas,
        encode,
        reconstruct,
        xor,
        compress,
        decompress,
    }
}
