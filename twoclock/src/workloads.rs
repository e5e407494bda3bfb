//! The three workloads, their answer checks, and the metrics they
//! report. `README.md` beside this crate explains why each exists.
//!
//! A run repeats whole *passes* (at least three) until `--seconds` of
//! wall time has been spent in timed calls. Every pass rebuilds the
//! deployment and replays the same seeded input, so the simulated
//! figures of every pass are identical: the run reports pass 1's and
//! fails if a later pass differs. Host figures come from the median, per
//! position within a pass, across passes. Answer checks run after the
//! measured window and after peak memory is read.

use pushtap_chbench::{RemoteMix, TxnGen};
use pushtap_core::{qphh, tpmc, GcStats, Pushtap};
use pushtap_mvcc::Ts;
use pushtap_olap::{Query, QueryResult};
use pushtap_pim::Ps;
use pushtap_shard::{
    ArrivalConfig, ArrivalGen, OpenLoopConfig, ShardConfig, ShardOltpReport, ShardQueryReport,
    ShardedHtap, WalBytes,
};
use pushtap_trace::Histogram;

use crate::host::{self, median, quantile, Cost, LayerTime, Metric, Open, Tracer};
use crate::probes::{self, Probes};

/// Shards in every deployment: two keep the coordinator's and the
/// query scatter's per-shard threads at or below two busy cores.
const SHARDS: u32 = 2;
/// Driving threads per shard in the tpmC conversion (as the soak and
/// scale-out benches use).
const CORES: u32 = 16;
const QUERIES: [Query; 3] = Query::ALL;
/// Passes every run measures at least, so each per-position median has
/// three samples.
const MIN_PASSES: u64 = 3;
/// Deployments built and dropped before the first pass, so `setup_s`
/// is a median over enough builds on every workload.
const SETUP_SAMPLES: usize = 5;

/// `oltp_wal`: transactions per `run_txns` batch.
const WAL_BATCH: u64 = 1_000;
/// `oltp_wal`: batches between checkpoints.
const WAL_SEGMENT_BATCHES: u64 = 4;
/// `oltp_wal`: checkpoint intervals per pass.
const WAL_SEGMENTS: u64 = 3;
/// `oltp_wal`: Q1/Q6/Q9 sweeps over the final state of a pass (at
/// least 100 query positions, so ten lie beyond the p90).
const WAL_SWEEPS: u64 = 34;

/// `htap_scan`: transactions between two queries.
const SCAN_BATCH: u64 = 25;
/// `htap_scan`: batches (and queries) per pass.
const SCAN_BATCHES: u64 = 240;

/// `open_knee`: the closed-loop capacity the ladder is a fraction of,
/// transactions per simulated second (2 shards, TPC-C mix).
const CAPACITY_TPS: f64 = 195_000.0;
/// `open_knee`: offered rates as fractions of [`CAPACITY_TPS`]; the
/// first is the sub-knee rung the sojourn metrics are read at.
const LADDER: [f64; 3] = [0.6, 0.9, 1.3];
/// `open_knee`: Poisson arrivals offered per rung.
const OPEN_ARRIVALS: u64 = 2_000;
/// `open_knee`: per-shard inbox bound and scheduling window.
const INBOX_DEPTH: usize = 128;
const WINDOW: usize = 32;
/// `open_knee`: the p99 sojourn limit of `open.sim_slo_tps`.
const SLO_P99_US: f64 = 500.0;
/// `open_knee`: Q1/Q6/Q9 sweeps over each rung's final state (108
/// query positions per pass).
const OPEN_SWEEPS: u64 = 12;

/// The benchmark's workloads (names are stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, TPC-C remote mix, WAL on with periodic checkpoints.
    OltpWal,
    /// Closed loop, warehouse-local mix, a global-cut query after every
    /// small batch.
    HtapScan,
    /// Open loop: Poisson arrivals at a ladder of rates across the knee.
    OpenKnee,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::OltpWal, Workload::HtapScan, Workload::OpenKnee];

    /// The workload's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpWal => "oltp_wal",
            Workload::HtapScan => "htap_scan",
            Workload::OpenKnee => "open_knee",
        }
    }

    /// Parses a stable name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Operations attempted: transactions offered, queries issued and
    /// answers checked.
    pub attempted: u64,
    /// Failed operations: uncommitted transactions, arrivals rejected
    /// below the knee, and wrong answers.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Whole passes measured.
    pub passes: u64,
    /// The gated, user-visible metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (probes, counts, per-call host times).
    pub per_layer: Vec<Metric>,
    /// Host self time per span name (traced runs only).
    pub layer_times: Vec<LayerTime>,
    /// The Chrome-trace document of the recorded spans (traced runs).
    pub chrome: Option<String>,
}

impl Outcome {
    /// True when every answer check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The deployment every workload builds.
fn config() -> ShardConfig {
    ShardConfig::small(SHARDS)
}

/// Host samples indexed by their position within a pass. Every pass
/// replays the same input, so one position measures the same work in
/// every pass, and its median across passes discards interference that
/// hit a single pass.
#[derive(Debug, Default)]
struct Positional {
    by_pos: Vec<Vec<f64>>,
    next: usize,
}

impl Positional {
    fn restart(&mut self) {
        self.next = 0;
    }

    /// Records the next position's sample and returns the position.
    fn push(&mut self, v: f64) -> usize {
        if self.next == self.by_pos.len() {
            self.by_pos.push(Vec::new());
        }
        self.by_pos[self.next].push(v);
        self.next += 1;
        self.next - 1
    }

    fn medians(&self) -> Vec<f64> {
        self.by_pos.iter().map(|v| median(v)).collect()
    }
}

/// Host-side bookkeeping shared by the workloads.
struct Run {
    tracer: Tracer,
    trace: bool,
    budget_s: f64,
    setup_s: Vec<f64>,
    /// CPU and wall seconds of each timed piece of transaction work.
    txn_cpu: Positional,
    txn_wall: Positional,
    /// Transactions in one pass's timed transaction work.
    txns_per_pass: u64,
    /// Per pass: CPU seconds of its transaction work, and whether spans
    /// were recorded during it.
    pass_txn_cpu: Vec<(f64, bool)>,
    /// CPU and wall milliseconds of each query, and each position's
    /// query kind.
    query_cpu_ms: Positional,
    query_wall_ms: Positional,
    query_kinds: Vec<usize>,
    /// The open span of the current pass.
    pass_span: Option<Open>,
    /// CPU and wall seconds summed over every timed call.
    cpu_s: f64,
    wall_s: f64,
    peak_rss_mb: f64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Run {
    fn new(seconds: f64, trace: bool) -> Run {
        Run {
            tracer: Tracer::new(),
            trace,
            budget_s: seconds,
            setup_s: Vec::new(),
            txn_cpu: Positional::default(),
            txn_wall: Positional::default(),
            txns_per_pass: 0,
            pass_txn_cpu: Vec::new(),
            query_cpu_ms: Positional::default(),
            query_wall_ms: Positional::default(),
            query_kinds: Vec::new(),
            pass_span: None,
            cpu_s: 0.0,
            wall_s: 0.0,
            peak_rss_mb: 0.0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Whether the run has spent its wall-time budget in timed calls.
    fn exhausted(&self) -> bool {
        self.wall_s >= self.budget_s
    }

    /// Charges a timed call to the measured window.
    fn spend(&mut self, c: Cost) {
        self.cpu_s += c.cpu;
        self.wall_s += c.wall;
    }

    /// Starts a pass: a traced run records spans on every other pass, so
    /// the unrecorded passes price the recording.
    fn start_pass(&mut self) {
        let recording = self.trace && self.pass_txn_cpu.len().is_multiple_of(2);
        self.tracer.set_recording(recording);
        self.pass_span = Some(self.tracer.begin());
        self.pass_txn_cpu.push((0.0, recording));
        for p in [
            &mut self.txn_cpu,
            &mut self.txn_wall,
            &mut self.query_cpu_ms,
            &mut self.query_wall_ms,
        ] {
            p.restart();
        }
    }

    /// Closes the current pass's span: its self time is the harness's
    /// own bookkeeping between timed calls.
    fn end_pass(&mut self) {
        if let Some(open) = self.pass_span.take() {
            self.tracer.end("pass", open);
        }
    }

    /// Records one timed piece of transaction work committing `txns` (0
    /// for work done on the transactions' behalf, like a checkpoint).
    fn txns(&mut self, txns: u64, c: Cost) {
        self.txn_cpu.push(c.cpu);
        self.txn_wall.push(c.wall);
        let pass = self.pass_txn_cpu.last_mut().expect("pass started");
        pass.0 += c.cpu;
        if self.pass_txn_cpu.len() == 1 {
            self.txns_per_pass += txns;
        }
    }

    fn setup(&mut self) -> ShardedHtap {
        let (svc, c) = self.tracer.time("setup", || {
            ShardedHtap::new(config()).expect("build deployment")
        });
        self.setup_s.push(c.cpu);
        self.spend(c);
        svc
    }

    fn fail(&mut self, ops: u64, msg: String) {
        self.failed += ops;
        self.failures.push(msg);
    }

    /// Issues one timed global-cut query.
    fn query(&mut self, svc: &mut ShardedHtap, q: Query, tally: &mut QueryTally) {
        let (r, c) = self.tracer.time("run_query", || svc.run_query(q));
        self.spend(c);
        let pos = self.query_cpu_ms.push(c.cpu * 1e3);
        self.query_wall_ms.push(c.wall * 1e3);
        if pos == self.query_kinds.len() {
            self.query_kinds.push(kind(q));
        }
        self.attempted += 1;
        tally.absorb(q, &r);
    }

    /// `sweeps` rounds of Q1, Q6, Q9 over the deployment's current state.
    fn sweep(&mut self, svc: &mut ShardedHtap, sweeps: u64, tally: &mut QueryTally) {
        for _ in 0..sweeps {
            self.tracer.next_batch();
            for q in QUERIES {
                self.query(svc, q, tally);
            }
        }
    }

    /// Ends the measured window: reads peak memory before any answer
    /// check allocates, and returns the transaction rate per CPU second
    /// and per wall second — one pass's transactions over the sum of
    /// the per-position median times.
    fn close_window(&mut self) -> (f64, f64) {
        self.peak_rss_mb = host::peak_rss_mb();
        let rate = |p: &Positional| self.txns_per_pass as f64 / p.medians().iter().sum::<f64>();
        (rate(&self.txn_cpu), rate(&self.txn_wall))
    }

    /// Per-position median query CPU milliseconds of one kind (all kinds
    /// for `None`).
    fn query_ms(&self, of: Option<usize>) -> Vec<f64> {
        self.query_cpu_ms
            .medians()
            .into_iter()
            .zip(&self.query_kinds)
            .filter(|(_, &k)| of.is_none_or(|of| of == k))
            .map(|(ms, _)| ms)
            .collect()
    }

    /// Relative loss of transaction rate on recorded passes against
    /// unrecorded ones (0 when either kind is missing).
    fn trace_overhead(&self) -> f64 {
        let pick = |on: bool| {
            let v: Vec<f64> = self
                .pass_txn_cpu
                .iter()
                .filter(|p| p.1 == on)
                .map(|p| p.0)
                .collect();
            median(&v)
        };
        let (on, off) = (pick(true), pick(false));
        if on == 0.0 || off == 0.0 {
            0.0
        } else {
            1.0 - off / on
        }
    }
}

fn kind(q: Query) -> usize {
    QUERIES.iter().position(|&k| k == q).expect("known query")
}

fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Simulated accounting over a pass's closed-loop batches.
#[derive(Debug, Default)]
struct OltpTally {
    offered: u64,
    committed: u64,
    aborts: u64,
    makespan: Ps,
    busy: Ps,
    gc_time: Ps,
    latency: Histogram,
    gc: GcStats,
    live_final: u64,
    waves: u64,
    routed: u64,
    cross: u64,
    commit_rounds: u64,
    participant_aborts: u64,
    wal_appends: u64,
    wal_forces: u64,
    wal_bytes: u64,
    host_s: f64,
}

impl OltpTally {
    fn absorb(&mut self, offered: u64, r: &ShardOltpReport, host: Cost) {
        self.offered += offered;
        self.committed += r.committed();
        self.aborts += r.aborts();
        self.makespan += r.makespan();
        self.busy += r
            .per_shard
            .iter()
            .map(|s| s.report.total_time())
            .sum::<Ps>();
        self.gc_time += r.gc_time();
        self.latency.merge(&r.commit_latency());
        let gc = r.gc();
        self.gc.merge(&gc);
        self.live_final = gc.live_versions;
        self.waves += r.coord.waves;
        self.routed += r.remote.routed;
        self.cross += r.remote.cross_shard_txns;
        self.commit_rounds += r.commit_rounds();
        self.participant_aborts += r.participant_aborts();
        self.wal_appends += r.wal_appends();
        self.wal_forces += r.wal_forces();
        self.wal_bytes += r.wal_bytes();
        self.host_s += host.cpu;
    }

    fn tpmc(&self) -> f64 {
        tpmc(self.committed, self.makespan, CORES)
    }

    fn commit_us(&self, q: f64) -> f64 {
        us(self.latency.quantile(q))
    }

    fn fill(&self, l: &mut Layers) {
        l.waves = self.waves as f64;
        l.txns_per_wave = ratio(self.committed, self.waves);
        l.cross_share = ratio(self.cross, self.routed);
        l.commit_rounds = self.commit_rounds as f64;
        l.participant_aborts = self.participant_aborts as f64;
        l.commit_ratio = ratio(self.committed, self.committed + self.aborts);
        l.host_us_per_wave = if self.waves == 0 {
            0.0
        } else {
            self.host_s * 1e6 / self.waves as f64
        };
        l.gc_passes = self.gc.passes as f64;
        l.gc_reclaimed = self.gc.versions_reclaimed as f64;
        l.gc_live_final = self.live_final as f64;
        l.gc_time_share = ratio(self.gc_time.ps(), self.busy.ps());
        l.wal_appends = self.wal_appends as f64;
        l.wal_forces = self.wal_forces as f64;
        l.wal_bytes_per_txn = ratio(self.wal_bytes, self.committed);
    }

    /// The pass's simulated figures and counts (bit-identical per seed).
    fn fingerprint(&self) -> Vec<u64> {
        vec![
            self.offered,
            self.committed,
            self.aborts,
            self.makespan.ps(),
            self.busy.ps(),
            self.gc_time.ps(),
            self.latency.count(),
            self.latency.quantile(0.5),
            self.latency.quantile(0.99),
            self.gc.passes,
            self.gc.versions_reclaimed,
            self.live_final,
            self.waves,
            self.cross,
            self.commit_rounds,
            self.participant_aborts,
            self.wal_appends,
            self.wal_forces,
            self.wal_bytes,
        ]
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Simulated accounting over a pass's queries, plus their answers.
#[derive(Debug, Default)]
struct QueryTally {
    total: Ps,
    consistency: Ps,
    shard_time: Ps,
    gathered: u64,
    answers: Vec<(Query, Ts, QueryResult)>,
}

impl QueryTally {
    fn absorb(&mut self, q: Query, r: &ShardQueryReport) {
        self.total += r.total();
        self.consistency += r.consistency();
        self.shard_time += r.per_shard.iter().map(|p| p.total()).sum::<Ps>();
        self.gathered += r.gathered_rows();
        self.answers.push((q, r.cut, r.result.clone()));
    }

    fn n(&self) -> u64 {
        self.answers.len() as u64
    }

    fn qphh(&self) -> f64 {
        qphh(self.n(), self.total)
    }

    /// Snapshot (freshness) time as a share of summed per-shard query
    /// time.
    fn consistency_share(&self) -> f64 {
        ratio(self.consistency.ps(), self.shard_time.ps())
    }

    fn fill(&self, l: &mut Layers) {
        let n = self.n().max(1) as f64;
        l.sim_consistency_share = self.consistency_share();
        l.gathered_rows = self.gathered as f64 / n;
        l.sim_consistency_us = us(self.consistency.ps()) / SHARDS as f64 / n;
        l.sim_scan_us =
            us(self.shard_time.saturating_sub(self.consistency).ps()) / SHARDS as f64 / n;
    }

    fn fingerprint(&self) -> Vec<u64> {
        vec![
            self.n(),
            self.total.ps(),
            self.consistency.ps(),
            self.shard_time.ps(),
            self.gathered,
        ]
    }
}

/// Per-layer metrics; every workload reports every field (zero where
/// the workload does not exercise the layer).
#[derive(Debug, Default)]
struct Layers {
    probes: Probes,
    waves: f64,
    txns_per_wave: f64,
    cross_share: f64,
    commit_rounds: f64,
    participant_aborts: f64,
    commit_ratio: f64,
    host_us_per_wave: f64,
    q_ms: [f64; 3],
    gathered_rows: f64,
    sim_scan_us: f64,
    sim_consistency_us: f64,
    sim_consistency_share: f64,
    gc_passes: f64,
    gc_reclaimed: f64,
    gc_live_final: f64,
    gc_time_share: f64,
    wal_appends: f64,
    wal_forces: f64,
    wal_bytes_per_txn: f64,
    wal_checkpoint_ms: f64,
    wal_scan_ms_per_mb: f64,
    wal_scan_mb: f64,
    wal_recover_ms: f64,
    open_waves: f64,
    open_queue_depth_max: f64,
    open_rejected: f64,
    open_sojourn_p50: f64,
    open_sojourn_p99: f64,
    open_sojourn_p99_mid: f64,
    open_sojourn_p99_top: f64,
    open_slo_tps: f64,
    trace_overhead: f64,
    trace_spans: f64,
    wall_txn_per_s: f64,
    wall_query_ms_p50: f64,
    cpu_per_wall: f64,
    passes: f64,
    query_positions: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        let p = &self.probes;
        vec![
            Metric::host("chbench.gen_ns_per_txn", "ns", p.gen_ns),
            Metric::host("router.route_ns_per_txn", "ns", p.route_ns),
            Metric::host("oltp.keyset_ns_per_txn", "ns", p.keyset_ns),
            Metric::host("oltp.decompose_ns_per_txn", "ns", p.decompose_ns),
            Metric::host("schedule.build_waves_ns_per_txn", "ns", p.build_waves_ns),
            Metric::host("schedule.admit_ns", "ns", p.admit_ns),
            Metric::host("schedule.pop_wave_ns", "ns", p.pop_wave_ns),
            Metric::host("core.execute_ns_per_txn", "ns", p.execute_ns),
            Metric::host("trace.hist_record_ns", "ns", p.hist_record_ns),
            Metric::exact("probe.txns", "count", p.txns as f64),
            Metric::exact("schedule.admits", "count", p.admits as f64),
            Metric::exact("schedule.pops", "count", p.pops as f64),
            Metric::exact("trace.hist_records", "count", p.hist_records as f64),
            Metric::exact("coord.waves", "count", self.waves),
            Metric::exact("coord.txns_per_wave", "txn", self.txns_per_wave),
            Metric::exact("coord.cross_shard_share", "share", self.cross_share),
            Metric::exact("coord.commit_rounds", "count", self.commit_rounds),
            Metric::exact("coord.participant_aborts", "count", self.participant_aborts),
            Metric::exact("coord.commit_ratio", "share", self.commit_ratio),
            Metric::host("coord.host_us_per_wave", "cpu-us", self.host_us_per_wave),
            Metric::host("olap.q1_ms", "cpu-ms", self.q_ms[0]),
            Metric::host("olap.q6_ms", "cpu-ms", self.q_ms[1]),
            Metric::host("olap.q9_ms", "cpu-ms", self.q_ms[2]),
            Metric::exact("olap.gathered_rows", "rows", self.gathered_rows),
            Metric::exact("olap.sim_scan_us", "us", self.sim_scan_us),
            Metric::exact("olap.sim_consistency_us", "us", self.sim_consistency_us),
            Metric::exact(
                "olap.sim_consistency_share",
                "share",
                self.sim_consistency_share,
            ),
            Metric::exact("gc.passes", "count", self.gc_passes),
            Metric::exact("gc.versions_reclaimed", "count", self.gc_reclaimed),
            Metric::exact("gc.live_versions_final", "count", self.gc_live_final),
            Metric::exact("gc.sim_time_share", "share", self.gc_time_share),
            Metric::exact("wal.appends", "count", self.wal_appends),
            Metric::exact("wal.forces", "count", self.wal_forces),
            Metric::exact("wal.bytes_per_txn", "B", self.wal_bytes_per_txn),
            Metric::host("wal.checkpoint_ms", "cpu-ms", self.wal_checkpoint_ms),
            Metric::host("wal.scan_ms_per_mb", "ms/MB", self.wal_scan_ms_per_mb),
            Metric::exact("wal.scan_mb", "MB", self.wal_scan_mb),
            Metric::host("wal.recover_ms", "cpu-ms", self.wal_recover_ms),
            Metric::exact("open.waves", "count", self.open_waves),
            Metric::exact("open.queue_depth_max", "count", self.open_queue_depth_max),
            Metric::exact("open.rejected", "count", self.open_rejected),
            Metric::exact("open.sim_sojourn_us_p50", "us", self.open_sojourn_p50),
            Metric::exact("open.sim_sojourn_us_p99", "us", self.open_sojourn_p99),
            Metric::exact(
                "open.sim_sojourn_us_p99_at_0.9x",
                "us",
                self.open_sojourn_p99_mid,
            ),
            Metric::exact(
                "open.sim_sojourn_us_p99_at_1.3x",
                "us",
                self.open_sojourn_p99_top,
            ),
            Metric::exact("open.sim_slo_tps", "txn/s", self.open_slo_tps),
            Metric::host("trace.overhead_share", "share", self.trace_overhead),
            Metric::host("trace.spans", "count", self.trace_spans),
            Metric::host("host.wall_txn_per_s", "txn/s", self.wall_txn_per_s),
            Metric::host("host.wall_query_ms_p50", "ms", self.wall_query_ms_p50),
            Metric::host("host.cpu_per_wall", "share", self.cpu_per_wall),
            Metric::host("host.passes", "count", self.passes),
            Metric::exact("host.query_positions", "count", self.query_positions),
            Metric::host(
                "host.cores",
                "count",
                std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
            ),
        ]
    }
}

/// The simulated end-to-end figures of pass 1.
struct SimE2e {
    tpmc: f64,
    commit_us_p50: f64,
    commit_us_p99: f64,
    queries: QueryTally,
}

/// Runs `workload` at `seed` for `seconds` of measured host time;
/// `trace` adds span recording, the per-layer probes and the per-layer
/// metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut run = Run::new(seconds, trace);
    let mut layers = Layers::default();
    for _ in 0..SETUP_SAMPLES {
        drop(run.setup());
    }
    let (sim, (host_txn_per_s, wall_txn_per_s), mix, passes) = match workload {
        Workload::OltpWal => oltp_wal(&mut run, seed, &mut layers),
        Workload::HtapScan => htap_scan(&mut run, seed, &mut layers),
        Workload::OpenKnee => open_knee(&mut run, seed, &mut layers),
    };
    if trace {
        layers.probes = probes::run(&config(), seed, mix);
    }
    let all_ms = run.query_ms(None);
    for (i, ms) in layers.q_ms.iter_mut().enumerate() {
        *ms = median(&run.query_ms(Some(i)));
    }
    layers.trace_overhead = run.trace_overhead();
    layers.wall_txn_per_s = wall_txn_per_s;
    layers.wall_query_ms_p50 = median(&run.query_wall_ms.medians());
    layers.cpu_per_wall = run.cpu_s / run.wall_s;
    layers.passes = passes as f64;
    layers.query_positions = all_ms.len() as f64;
    layers.trace_spans = run.tracer.spans().len() as f64;
    let end_to_end = vec![
        Metric::host("host_txn_per_s", "txn/cpu-s", host_txn_per_s),
        Metric::host("host_query_ms_p50", "cpu-ms", quantile(&all_ms, 0.5)),
        Metric::host("host_query_ms_p90", "cpu-ms", quantile(&all_ms, 0.9)),
        Metric::host("setup_s", "s", median(&run.setup_s)),
        Metric::host("peak_rss_mb", "MB", run.peak_rss_mb),
        Metric::exact("sim_tpmc", "tpmC", sim.tpmc),
        Metric::exact("sim_commit_us_p50", "us", sim.commit_us_p50),
        Metric::exact("sim_commit_us_p99", "us", sim.commit_us_p99),
        Metric::exact("sim_qphh", "QphH", sim.queries.qphh()),
    ];
    sim.queries.fill(&mut layers);
    let (layer_times, chrome) = if trace {
        let spans = run.tracer.spans();
        (host::self_times(spans), Some(host::chrome_json(spans)))
    } else {
        (Vec::new(), None)
    };
    Outcome {
        workload,
        attempted: run.attempted,
        failed: run.failed,
        failures: run.failures,
        passes,
        end_to_end,
        per_layer: layers.metrics(),
        layer_times,
        chrome,
    }
}

/// What every pass yields for the repetition check.
trait Pass {
    /// The pass's simulated figures and counts (bit-identical per seed).
    fn fingerprint(&self) -> Vec<u64>;
    /// The pass's queries and their answers.
    fn queries(&self) -> &QueryTally;
}

/// Runs `pass` until the wall budget is spent (at least [`MIN_PASSES`]
/// times), checking every later pass against the first. Returns the
/// first pass and the number of passes run.
fn repeat<P: Pass>(run: &mut Run, mut pass: impl FnMut(&mut Run, u64) -> P) -> (P, u64) {
    let first = pass(run, 0);
    let mut passes = 1;
    while passes < MIN_PASSES || !run.exhausted() {
        let p = pass(run, passes);
        passes += 1;
        if p.fingerprint() != first.fingerprint() {
            run.fail(
                1,
                format!("pass {passes} simulated figures differ from pass 1"),
            );
        }
        let answers = first.queries().answers.iter().zip(&p.queries().answers);
        for (i, (a, b)) in answers.enumerate() {
            run.attempted += 1;
            if a != b {
                run.fail(
                    1,
                    format!(
                        "pass {passes} query {i} ({}) answered differently",
                        a.0.name()
                    ),
                );
            }
        }
    }
    (first, passes)
}

/// One timed `run_txns` batch of `n`, which must commit whole; its cost
/// is transaction work.
fn batch(
    run: &mut Run,
    svc: &mut ShardedHtap,
    gen: &mut TxnGen,
    n: u64,
    pass: u64,
) -> (ShardOltpReport, Cost) {
    run.tracer.next_batch();
    let (rep, c) = run.tracer.time("run_txns", || svc.run_txns(gen, n));
    run.spend(c);
    run.txns(n, c);
    run.attempted += n;
    if rep.committed() != n {
        run.fail(
            n - rep.committed(),
            format!("pass {}: {} of {n} committed", pass + 1, rep.committed()),
        );
    }
    (rep, c)
}

/// What one `oltp_wal` pass leaves for the checks.
struct WalPass {
    tally: OltpTally,
    queries: QueryTally,
    wal: WalBytes,
}

impl Pass for WalPass {
    fn fingerprint(&self) -> Vec<u64> {
        [self.tally.fingerprint(), self.queries.fingerprint()].concat()
    }

    fn queries(&self) -> &QueryTally {
        &self.queries
    }
}

fn oltp_wal_pass(run: &mut Run, seed: u64, pass: u64, ckpt_ms: &mut Vec<f64>) -> WalPass {
    run.start_pass();
    let mut svc = run.setup();
    let handles = svc.enable_wal();
    let warehouses = svc.map().warehouses();
    let mut gen = svc
        .global_txn_gen(seed)
        .with_remote_mix(RemoteMix::TPCC, warehouses);
    let mut tally = OltpTally::default();
    for _ in 0..WAL_SEGMENTS {
        for _ in 0..WAL_SEGMENT_BATCHES {
            let (rep, c) = batch(run, &mut svc, &mut gen, WAL_BATCH, pass);
            tally.absorb(WAL_BATCH, &rep, c);
        }
        let (_, c) = run.tracer.time("checkpoint", || svc.checkpoint());
        ckpt_ms.push(c.cpu * 1e3);
        run.spend(c);
        run.txns(0, c);
    }
    let mut queries = QueryTally::default();
    run.sweep(&mut svc, WAL_SWEEPS, &mut queries);
    run.end_pass();
    WalPass {
        tally,
        queries,
        wal: handles.harvest(),
    }
}

fn oltp_wal(run: &mut Run, seed: u64, layers: &mut Layers) -> (SimE2e, (f64, f64), RemoteMix, u64) {
    let mut ckpt_ms = Vec::new();
    let (first, passes) = repeat(run, |run, pass| {
        oltp_wal_pass(run, seed, pass, &mut ckpt_ms)
    });
    let host_txn_per_s = run.close_window();
    // Outside the measured window: recover a deployment from pass 1's
    // harvested WAL bytes and compare its answers with the live ones.
    run.tracer.next_batch();
    let (recovered, c) = run
        .tracer
        .time("recover", || ShardedHtap::recover(config(), &first.wal));
    layers.wal_recover_ms = c.cpu * 1e3;
    let (mut recovered, _) = recovered.expect("rebuild deployment for recovery");
    for (q, cut, live) in first.queries.answers.iter().take(QUERIES.len()) {
        let r = recovered.run_query(*q);
        run.attempted += 1;
        if r.cut != *cut || r.result != *live {
            run.fail(
                1,
                format!(
                    "recovered deployment answers {} differently (cut {:?} vs live {:?})",
                    q.name(),
                    r.cut,
                    cut
                ),
            );
        }
    }
    drop(recovered);
    let (mb, scan_s) = probes::wal_scan(&first.wal, &mut run.tracer);
    layers.wal_scan_mb = mb;
    layers.wal_scan_ms_per_mb = if mb > 0.0 { scan_s * 1e3 / mb } else { 0.0 };
    layers.wal_checkpoint_ms = median(&ckpt_ms);
    first.tally.fill(layers);
    let sim = SimE2e {
        tpmc: first.tally.tpmc(),
        commit_us_p50: first.tally.commit_us(0.5),
        commit_us_p99: first.tally.commit_us(0.99),
        queries: first.queries,
    };
    (sim, host_txn_per_s, RemoteMix::TPCC, passes)
}

/// What one `htap_scan` pass leaves for the checks.
struct ScanPass {
    tally: OltpTally,
    queries: QueryTally,
}

impl Pass for ScanPass {
    fn fingerprint(&self) -> Vec<u64> {
        [self.tally.fingerprint(), self.queries.fingerprint()].concat()
    }

    fn queries(&self) -> &QueryTally {
        &self.queries
    }
}

fn htap_scan_pass(run: &mut Run, seed: u64, pass: u64) -> ScanPass {
    run.start_pass();
    let mut svc = run.setup();
    let warehouses = svc.map().warehouses();
    let mut gen = svc
        .global_txn_gen(seed)
        .with_remote_mix(RemoteMix::LOCAL, warehouses);
    let mut tally = OltpTally::default();
    let mut queries = QueryTally::default();
    for b in 0..SCAN_BATCHES {
        let (rep, c) = batch(run, &mut svc, &mut gen, SCAN_BATCH, pass);
        tally.absorb(SCAN_BATCH, &rep, c);
        run.query(&mut svc, QUERIES[(b % 3) as usize], &mut queries);
    }
    run.end_pass();
    ScanPass { tally, queries }
}

fn htap_scan(
    run: &mut Run,
    seed: u64,
    layers: &mut Layers,
) -> (SimE2e, (f64, f64), RemoteMix, u64) {
    let (first, passes) = repeat(run, |run, pass| htap_scan_pass(run, seed, pass));
    let host_txn_per_s = run.close_window();
    check_against_reference(run, seed, &first.queries.answers);
    first.tally.fill(layers);
    let sim = SimE2e {
        tpmc: first.tally.tpmc(),
        commit_us_p50: first.tally.commit_us(0.5),
        commit_us_p99: first.tally.commit_us(0.99),
        queries: first.queries,
    };
    (sim, host_txn_per_s, RemoteMix::LOCAL, passes)
}

/// Replays pass 1's committed stream on an unpartitioned reference
/// engine and checks every recorded answer at its cut.
fn check_against_reference(run: &mut Run, seed: u64, answers: &[(Query, Ts, QueryResult)]) {
    let mut reference = Pushtap::new(config().base).expect("build reference");
    let warehouses = reference.db().warehouses_global();
    let mut gen = reference
        .txn_gen(seed)
        .with_remote_mix(RemoteMix::LOCAL, warehouses);
    let mut next = 1u64;
    for (i, (q, cut, answer)) in answers.iter().enumerate() {
        while next <= cut.0 {
            let txn = gen.batch(1).pop().expect("one transaction");
            reference.execute_txn_at(&txn, Ts(next));
            next += 1;
        }
        let r = reference.run_query_at(*q, *cut);
        run.attempted += 1;
        if r.result != *answer {
            run.fail(
                1,
                format!(
                    "query {i} ({}) at cut {} differs from the reference",
                    q.name(),
                    cut.0
                ),
            );
        }
    }
}

/// One rung of the `open_knee` ladder.
struct Rung {
    admitted: u64,
    rejected: u64,
    throughput_tps: f64,
    tpmc: f64,
    sojourn_p50: u64,
    sojourn_p99: u64,
    queue_max: u64,
}

/// What one `open_knee` pass leaves for the checks.
struct OpenPass {
    rungs: Vec<Rung>,
    /// Execution accounting summed over the rungs.
    exec: OltpTally,
    queries: QueryTally,
}

impl Pass for OpenPass {
    fn fingerprint(&self) -> Vec<u64> {
        let rungs = self.rungs.iter().flat_map(|r| {
            [
                r.admitted,
                r.rejected,
                r.throughput_tps.to_bits(),
                r.sojourn_p50,
                r.sojourn_p99,
                r.queue_max,
            ]
        });
        rungs
            .chain(self.exec.fingerprint())
            .chain(self.queries.fingerprint())
            .collect()
    }

    fn queries(&self) -> &QueryTally {
        &self.queries
    }
}

fn arrival_seed(seed: u64, rung: usize) -> u64 {
    // SplitMix64 finaliser: distinct, well-mixed streams per rung.
    let mut z = seed ^ (rung as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn open_knee_pass(run: &mut Run, seed: u64) -> OpenPass {
    run.start_pass();
    let open = OpenLoopConfig::new(INBOX_DEPTH, WINDOW);
    let mut rungs = Vec::new();
    let mut exec = OltpTally::default();
    let mut queries = QueryTally::default();
    for (i, &fraction) in LADDER.iter().enumerate() {
        let mut svc = run.setup();
        let warehouses = svc.map().warehouses();
        let mut gen = svc
            .global_txn_gen(seed)
            .with_remote_mix(RemoteMix::TPCC, warehouses);
        let mut arrivals = ArrivalGen::new(
            arrival_seed(seed, i),
            ArrivalConfig::poisson(fraction * CAPACITY_TPS),
        );
        run.tracer.next_batch();
        let (rep, c) = run.tracer.time("run_open_loop", || {
            svc.run_open_loop(&mut gen, &mut arrivals, OPEN_ARRIVALS, &open)
        });
        run.spend(c);
        run.attempted += OPEN_ARRIVALS;
        run.txns(rep.admitted(), c);
        if rep.arrivals != OPEN_ARRIVALS || rep.admitted() + rep.rejected() != rep.arrivals {
            run.fail(
                OPEN_ARRIVALS,
                format!(
                    "rung {fraction}: offered {} but admitted {} + rejected {}",
                    rep.arrivals,
                    rep.admitted(),
                    rep.rejected()
                ),
            );
        }
        if rep.exec.committed() != rep.admitted() {
            run.fail(
                rep.admitted() - rep.exec.committed(),
                format!("rung {fraction}: admitted transactions left uncommitted"),
            );
        }
        // Below the knee an admission rejection is a failure; above it
        // the bounded inbox shedding load is the designed response.
        if fraction < 1.0 && rep.rejected() > 0 {
            run.fail(
                rep.rejected(),
                format!("rung {fraction}: rejected below the knee"),
            );
        }
        exec.absorb(rep.admitted(), &rep.exec, c);
        rungs.push(Rung {
            admitted: rep.admitted(),
            rejected: rep.rejected(),
            throughput_tps: rep.throughput_tps(),
            tpmc: rep.exec.tpmc(CORES),
            sojourn_p50: rep.sojourn_quantile(0.5),
            sojourn_p99: rep.sojourn_quantile(0.99),
            queue_max: rep.inbox_depth.max(),
        });
        run.sweep(&mut svc, OPEN_SWEEPS, &mut queries);
    }
    run.end_pass();
    OpenPass {
        rungs,
        exec,
        queries,
    }
}

fn open_knee(
    run: &mut Run,
    seed: u64,
    layers: &mut Layers,
) -> (SimE2e, (f64, f64), RemoteMix, u64) {
    let (first, passes) = repeat(run, |run, _| open_knee_pass(run, seed));
    let host_txn_per_s = run.close_window();
    let [sub_knee, mid, top] = &first.rungs[..] else {
        unreachable!("the ladder has three rungs")
    };
    first.exec.fill(layers);
    layers.open_waves = first.exec.waves as f64;
    layers.open_queue_depth_max = first.rungs.iter().map(|r| r.queue_max).max().unwrap_or(0) as f64;
    layers.open_rejected = first.rungs.iter().map(|r| r.rejected).sum::<u64>() as f64;
    layers.open_sojourn_p50 = us(sub_knee.sojourn_p50);
    layers.open_sojourn_p99 = us(sub_knee.sojourn_p99);
    layers.open_sojourn_p99_mid = us(mid.sojourn_p99);
    layers.open_sojourn_p99_top = us(top.sojourn_p99);
    layers.open_slo_tps = first
        .rungs
        .iter()
        .filter(|r| r.rejected == 0 && us(r.sojourn_p99) <= SLO_P99_US)
        .map(|r| r.throughput_tps)
        .next_back()
        .unwrap_or(0.0);
    let sim = SimE2e {
        tpmc: top.tpmc,
        commit_us_p50: first.exec.commit_us(0.5),
        commit_us_p99: first.exec.commit_us(0.99),
        queries: first.queries,
    };
    (sim, host_txn_per_s, RemoteMix::TPCC, passes)
}
