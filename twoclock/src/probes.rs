//! Per-layer host probes on a shadow copy of the workload's seeded
//! stream: each public layer function is called on its own, after a
//! warm-up, and timed from outside. The measured deployment is never
//! touched, so probing cannot disturb the workload's figures.

use std::hint::black_box;
use std::time::Instant;

use pushtap_chbench::RemoteMix;
use pushtap_core::Pushtap;
use pushtap_mvcc::TsOracle;
use pushtap_shard::coordinator::schedule::{build_waves, WaveScheduler};
use pushtap_shard::{RoutedTxn, ShardConfig, ShardedHtap, WalBytes};
use pushtap_trace::Histogram;

use crate::host::{median, Tracer};

/// Transactions in the probe stream.
const PROBE_TXNS: usize = 4_000;
/// Timed repetitions of each cheap probe (the median is reported).
const REPS: usize = 5;
/// Sliding window of the scheduler probe (the open loop's).
const WINDOW: usize = 32;
/// Values recorded by the histogram probe.
const HIST_RECORDS: u64 = 1_000_000;

/// Host nanoseconds per call of each probed layer function, with the
/// base counts the ratios are taken over.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `TxnGen::batch`, per transaction.
    pub gen_ns: f64,
    /// `TxnRouter::route_stream` on a private oracle, per transaction.
    pub route_ns: f64,
    /// `TpccDb::keyset` on the home shard, per transaction.
    pub keyset_ns: f64,
    /// `TpccDb::decompose` on the home shard, per transaction.
    pub decompose_ns: f64,
    /// `schedule::build_waves`, per transaction.
    pub build_waves_ns: f64,
    /// `WaveScheduler::admit`, per call.
    pub admit_ns: f64,
    /// `WaveScheduler::pop_wave`, per call.
    pub pop_wave_ns: f64,
    /// `Pushtap::execute_txn_at` on an unpartitioned reference, per
    /// transaction.
    pub execute_ns: f64,
    /// `Histogram::record`, per value.
    pub hist_record_ns: f64,
    /// Transactions each per-transaction ratio is over.
    pub txns: u64,
    /// `admit` calls in one scheduler pass.
    pub admits: u64,
    /// `pop_wave` calls in one scheduler pass.
    pub pops: u64,
    /// Values each histogram pass records.
    pub hist_records: u64,
}

fn ns_per(secs: f64, n: u64) -> f64 {
    secs * 1e9 / n.max(1) as f64
}

/// Median over [`REPS`] timed runs of `f` (after one untimed warm-up).
fn timed(mut f: impl FnMut() -> f64) -> f64 {
    f();
    let v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&v)
}

fn seconds(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Runs every probe on the `seed`/`mix` stream of a fresh deployment
/// built from `cfg`.
pub fn run(cfg: &ShardConfig, seed: u64, mix: RemoteMix) -> Probes {
    let shadow = ShardedHtap::new(cfg.clone()).expect("build shadow deployment");
    let warehouses = shadow.map().warehouses();
    let fresh_gen = || shadow.global_txn_gen(seed).with_remote_mix(mix, warehouses);
    let n = PROBE_TXNS;
    let mut p = Probes {
        txns: n as u64,
        ..Probes::default()
    };

    p.gen_ns = ns_per(
        timed(|| {
            let mut gen = fresh_gen();
            seconds(|| {
                black_box(gen.batch(n));
            })
        }),
        n as u64,
    );
    let batch = fresh_gen().batch(n);

    let router = *shadow.router();
    p.route_ns = ns_per(
        timed(|| {
            let (input, oracle) = (batch.clone(), TsOracle::new());
            seconds(|| {
                black_box(router.route_stream(input, &oracle));
            })
        }),
        n as u64,
    );
    let (mut stream, _) = router.route_stream(batch, &TsOracle::new());

    let home_db = |r: &RoutedTxn| shadow.shard(r.shard).db();
    p.decompose_ns = ns_per(
        timed(|| {
            seconds(|| {
                for r in &stream {
                    black_box(home_db(r).decompose(&r.txn, r.ts));
                }
            })
        }),
        n as u64,
    );
    p.keyset_ns = ns_per(
        timed(|| {
            seconds(|| {
                for r in &stream {
                    black_box(home_db(r).keyset(&r.txn, r.ts));
                }
            })
        }),
        n as u64,
    );
    for r in &mut stream {
        r.keys = shadow.shard(r.shard).db().keyset(&r.txn, r.ts);
    }

    p.build_waves_ns = ns_per(
        timed(|| {
            let input = stream.clone();
            seconds(|| {
                black_box(build_waves(input));
            })
        }),
        n as u64,
    );

    let mut admit = Vec::new();
    let mut pop = Vec::new();
    for rep in 0..=REPS {
        let (a, b, admits, pops) = scheduler_pass(stream.clone());
        if rep > 0 {
            admit.push(ns_per(a, admits));
            pop.push(ns_per(b, pops));
        }
        p.admits = admits;
        p.pops = pops;
    }
    p.admit_ns = median(&admit);
    p.pop_wave_ns = median(&pop);

    // The reference executes (and so changes) state: warm up on the
    // first eighth of the stream and time the rest once.
    let mut reference = Pushtap::new(cfg.base.clone()).expect("build reference");
    let warm = n / 8;
    for r in &stream[..warm] {
        reference.execute_txn_at(&r.txn, r.ts);
    }
    let s = seconds(|| {
        for r in &stream[warm..] {
            black_box(reference.execute_txn_at(&r.txn, r.ts));
        }
    });
    p.execute_ns = ns_per(s, (n - warm) as u64);

    p.hist_records = HIST_RECORDS;
    p.hist_record_ns = ns_per(
        timed(|| {
            let mut h = Histogram::new();
            let mut x = seed | 1;
            seconds(|| {
                for _ in 0..HIST_RECORDS {
                    // xorshift64: a cheap spread of magnitudes.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    h.record(x >> (x & 31));
                }
                black_box(&h);
            })
        }),
        HIST_RECORDS,
    );
    p
}

/// One incremental scheduling pass over `stream`, timing every call:
/// returns (admit seconds, pop seconds, admits, pops).
fn scheduler_pass(stream: Vec<RoutedTxn>) -> (f64, f64, u64, u64) {
    let mut sched = WaveScheduler::new(WINDOW);
    let (mut admit_s, mut pop_s, mut admits, mut pops) = (0.0, 0.0, 0u64, 0u64);
    let mut pop = |sched: &mut WaveScheduler| {
        let t = Instant::now();
        black_box(sched.pop_wave());
        pop_s += t.elapsed().as_secs_f64();
        pops += 1;
    };
    for r in stream {
        let t = Instant::now();
        sched.admit(r);
        admit_s += t.elapsed().as_secs_f64();
        admits += 1;
        while sched.window_full() {
            pop(&mut sched);
        }
    }
    while !sched.is_empty() {
        pop(&mut sched);
    }
    (admit_s, pop_s, admits, pops)
}

/// Times `pushtap_wal::scan` over harvested log images (after one
/// warm-up scan): returns (megabytes scanned, median seconds).
pub fn wal_scan(wal: &WalBytes, tracer: &mut Tracer) -> (f64, f64) {
    let images: Vec<&Vec<u8>> = wal.shards.iter().chain([&wal.decisions]).collect();
    let bytes: usize = images.iter().map(|b| b.len()).sum();
    let s = timed(|| {
        tracer
            .time("wal_scan", || {
                for img in &images {
                    black_box(pushtap_wal::scan(img));
                }
            })
            .1
            .wall
    });
    (bytes as f64 / 1e6, s)
}
