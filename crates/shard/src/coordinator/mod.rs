//! The transaction coordinator: stream-order execution over the shard
//! engines by conflict-aware wave scheduling, with a simulated
//! two-phase commit for transactions whose effects span shards.
//!
//! # Wave scheduling
//!
//! [`TpccDb::decompose`](pushtap_oltp::TpccDb::decompose) is read-only
//! and retry-stable, so every transaction's keyset — rows read, rows
//! written, insert rings consumed — is known *before* execution
//! ([`pushtap_oltp::KeySet`]). The [`schedule`] module cuts the
//! timestamp-ordered stream into **waves** of mutually non-conflicting
//! transactions; conflicting pairs always land in timestamp order
//! across waves, so per-row commit order (and therefore every committed
//! byte) matches the unpartitioned reference. One wave executes as:
//!
//! 1. **Decompose** every wave member at its home engine and split the
//!    effects by owning shard (read-only; wave members touch disjoint
//!    rings, so the split is independent of intra-wave order).
//! 2. **Prepare phase** — all shards concurrently
//!    (`std::thread::scope`): each shard prepares its wave items in
//!    timestamp order, holding one prepared undo scope per transaction
//!    (the multi-scope machinery in `pushtap-mvcc`). Forwarded effect
//!    sets pay their prepare-hop *delivery*: a wave's messages are all
//!    in flight together, so a delivery only stalls the engine until
//!    its arrival time — overlapped, not summed.
//! 3. **Vote barrier** — a transaction commits iff every involved shard
//!    prepared it; any `DeltaFull` vote aborts it everywhere.
//! 4. **Decision phase** — all shards concurrently deliver commit/abort
//!    decisions in timestamp order (again overlapped deliveries);
//!    committed scopes resolve, aborted scopes replay their pinned undo
//!    records in reverse.
//! 5. **Retries** — aborted transactions defragment their no-voting
//!    shards and re-run alone at the *same* pinned timestamps before
//!    the next wave starts, feeding the engine-level atomic-retry
//!    machinery. Committed bytes therefore never depend on where or
//!    when arenas filled up.
//!
//! # Timing
//!
//! Message rounds are charged per [`CommitConfig`]. The *ledger*
//! (`two_pc_time`, `commit_rounds`) holds one entry per delivered
//! message. A wave's concurrent deliveries overlap, so the clock
//! advance they actually cause is recorded separately as
//! `critical_path_time` (see [`OltpReport`]); a casualty's retry runs
//! alone and delivers its rounds one at a time, each hop landing fully
//! on the receiving shard's clock.
//!
//! Decision latency uses the **laggard vote-barrier model**: the
//! coordinator cannot act before the *slowest* participant's vote
//! arrives. A participant's vote leaves its shard the instant that
//! *transaction's* prepare finished on its clock (early vote — the
//! wave's group-commit force overlaps the decision round; the decision
//! *apply* still lands after the force because the participant's clock
//! crossed it at the phase barrier), travels one
//! `prepare_hop`, and is delayed by a deterministic per-(participant,
//! transaction) skew drawn from `[0, vote_jitter]`
//! ([`CommitConfig::vote_jitter`]). The home's own
//! `phase clock + prepare_hop` floors the wait, so coupling clocks
//! never makes a decision *cheaper* than the old uncoupled model; the
//! extra stall lands on `critical_path_time` (and the vote-barrier
//! stall histogram) while the `two_pc_time` hop ledger — one hop per
//! delivered message — is unchanged, which is why the stall can exceed
//! the ledger under a slow participant.
//!
//! [`OltpReport`]: pushtap_core::OltpReport

pub mod schedule;

use std::collections::BTreeMap;
use std::thread;

use pushtap_core::{MaintPause, Pushtap};
use pushtap_mvcc::Ts;
use pushtap_oltp::{codec, Breakdown, TaggedEffect, TxnResult, TxnRole};
use pushtap_pim::Ps;
use pushtap_trace::{Phase, Span};
use pushtap_wal::{Wal, HEADER_LEN};

use crate::config::CommitConfig;
use crate::durability::{encode_decision, CrashSite, DurabilityCtx};
use crate::partition::WarehouseMap;
use crate::report::{CoordStats, ShardLoad};
use crate::router::RoutedTxn;

/// Flags the durability context crashed. An armed crash site implies
/// the context exists (`armed_at` just read it), so a missing context
/// here is a coordinator bug, not an input condition.
fn mark_crashed(dur: &mut Option<&mut DurabilityCtx>) {
    match dur.as_deref_mut() {
        Some(d) => d.crashed = true,
        None => unreachable!("an armed crash site implies a durability ctx"),
    }
}

/// Joins a scoped shard worker, re-raising any panic on the caller's
/// thread with its original payload intact.
pub(crate) fn join_worker<T>(h: thread::ScopedJoinHandle<'_, T>) -> T {
    h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
}

/// Executes one globally-ordered routed stream across the shard
/// engines, one conflict-free wave at a time, returning each shard's
/// accumulated load plus the coordinator's scheduling stats. With a
/// durability context the coordinator logs every prepared effect set
/// (group-commit forced before votes), writes the decision log, and
/// honors an armed crash point — a fired crash stops the stream dead
/// and is reported in [`CoordStats::crashed`].
pub(crate) fn execute_stream(
    shards: &mut [Pushtap],
    map: &WarehouseMap,
    stream: Vec<RoutedTxn>,
    commit: CommitConfig,
    mut dur: Option<&mut DurabilityCtx>,
) -> (Vec<ShardLoad>, CoordStats) {
    let starts: Vec<Ps> = shards.iter().map(Pushtap::now).collect();
    let mut loads: Vec<ShardLoad> = (0..shards.len()).map(|_| ShardLoad::default()).collect();
    let mut stats = CoordStats::default();
    let decisions_before = dur.as_deref().map(|d| d.decision_log.stats());
    for (w, wave) in schedule::build_waves(stream).into_iter().enumerate() {
        stats.record_wave(&wave);
        // Wave ids in spans are 1-based: wave 0 is reserved for 2PCs
        // that ran alone (a wave casualty's retry).
        if run_wave(
            shards,
            map,
            wave,
            commit,
            &mut loads,
            w as u64 + 1,
            dur.as_deref_mut(),
        ) {
            break; // the armed crash fired mid-wave
        }
    }
    if let (Some(d), Some(before)) = (dur.as_deref(), decisions_before) {
        let after = d.decision_log.stats();
        stats.decision_appends = after.appends - before.appends;
        stats.decision_forces = after.forces - before.forces;
        stats.crashed = d.crashed;
    }
    close_batch(shards, &starts, &mut loads, stats.crashed);
    (loads, stats)
}

/// Closes a batch: stamps each shard's elapsed clock since `starts`,
/// drains the engine's GC tally (pass counters plus end-of-batch
/// live-version / commit-log gauges) into its load, and marks the
/// shadow tracker's batch boundary — every scope decided, zero prepared
/// versions lingering. A crashed batch legitimately leaves prepared
/// scopes behind (recovery resolves them by presumed abort), so the
/// boundary check is skipped there.
pub(crate) fn close_batch(
    shards: &mut [Pushtap],
    starts: &[Ps],
    loads: &mut [ShardLoad],
    crashed: bool,
) {
    for ((load, shard), &start) in loads.iter_mut().zip(shards.iter_mut()).zip(starts) {
        load.elapsed = shard.now().saturating_sub(start);
        load.report.gc.merge(&shard.take_gc_stats());
    }
    let san = shards[0].db().sanitizer();
    if !crashed && san.enabled() {
        let pending: u64 = shards.iter().map(|s| s.db().prepared_versions()).sum();
        san.batch_end(pending);
    }
}

// ---------------------------------------------------------------------
// Durability plumbing.
// ---------------------------------------------------------------------

/// Appends one prepared effect set to a shard's effect log (volatile
/// until the next force barrier) and accounts it.
#[allow(clippy::too_many_arguments)]
fn wal_append(
    wal: &mut Wal,
    load: &mut ShardLoad,
    shard: &Pushtap,
    ts: Ts,
    role: TxnRole,
    cross: bool,
    effects: &[TaggedEffect],
    wave: u64,
) {
    let payload = codec::encode_parts(ts, role, cross, effects);
    wal.append(&payload);
    load.report.wal_appends += 1;
    load.report.wal_bytes += (payload.len() + HEADER_LEN) as u64;
    if shard.trace_enabled() {
        shard.trace_record(
            Span::instant(
                shard.trace_track(),
                Phase::WalAppend,
                ts.0,
                shard.now().ps(),
            )
            .in_wave(wave),
        );
    }
}

/// The group-commit force barrier: pushes a shard's pending records to
/// durable media, charging the configured force latency to the shard's
/// clock and critical path once for everything pending. A no-op (free)
/// when nothing is pending.
fn wal_force(wal: &mut Wal, load: &mut ShardLoad, shard: &mut Pushtap, latency: Ps, wave: u64) {
    if !wal.has_pending() {
        return;
    }
    let start = shard.now();
    if latency > Ps::ZERO {
        shard.advance(latency);
    }
    wal.force();
    load.report.wal_forces += 1;
    load.report.wal_force_time += latency;
    load.report.critical_path_time += latency;
    if shard.trace_enabled() {
        shard.trace_record(
            Span::new(
                shard.trace_track(),
                Phase::GroupCommit,
                0,
                start.ps(),
                shard.now().ps(),
            )
            .in_wave(wave),
        );
    }
}

/// How a wave's prepare-phase force barriers run under an armed crash.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ForceMode {
    /// No crash at this wave's flush: every involved shard forces.
    Normal,
    /// Crash before any force ([`CrashSite::AfterPrepare`]): pending
    /// records die with the process.
    Skip,
    /// Crash mid-flush ([`CrashSite::MidEffectFlush`]): every shard
    /// forces except the given one, whose force tears halfway through
    /// its pending bytes.
    TornAt(usize),
}

/// Folds one thread's partial load into a shard's batch load.
fn merge_load(into: &mut ShardLoad, partial: ShardLoad) {
    into.routed += partial.routed;
    into.remote_touches += partial.remote_touches;
    into.remote_time += partial.remote_time;
    into.report.merge(&partial.report);
}

/// Charges one 2PC message round delivered alone (exactly one hop of
/// latency) to a shard's clock and its load accounting, so
/// `commit_rounds` counts message deliveries in uniform units on every
/// shard. Nothing overlaps a lone delivery, so the full hop lands on
/// the critical path.
fn charge_hop(load: &mut ShardLoad, shard: &mut Pushtap, hop: Ps) {
    if hop > Ps::ZERO {
        shard.advance(hop);
    }
    load.remote_time += hop;
    load.report.two_pc_time += hop;
    load.report.critical_path_time += hop;
    load.report.commit_rounds += 1;
    load.report.two_pc_stall.record(hop.ps());
}

/// Charges one *overlapped* 2PC message delivery: the message was
/// dispatched together with the rest of its wave, so the engine stalls
/// only until the arrival time (zero if it is still busy with earlier
/// wave work). The ledger (`two_pc_time`, `commit_rounds`) counts the
/// full hop like [`charge_hop`]; the clock and `critical_path_time`
/// record only the stall actually caused.
fn deliver(load: &mut ShardLoad, shard: &mut Pushtap, hop: Ps, arrive_at: Ps) {
    let wait = arrive_at.saturating_sub(shard.now());
    if wait > Ps::ZERO {
        shard.advance(wait);
    }
    load.remote_time += wait;
    load.report.two_pc_time += hop;
    load.report.critical_path_time += wait;
    load.report.commit_rounds += 1;
    load.report.two_pc_stall.record(wait.ps());
}

/// The deterministic per-(participant, transaction) vote-processing
/// skew of the laggard vote-barrier model: uniform over `[0, bound]`,
/// derived by a splitmix64-style bit mix of the timestamp and the
/// participant id so every replay of the stream sees the same laggard.
/// [`Ps::ZERO`] bound short-circuits to zero skew.
fn vote_skew(bound: Ps, participant: u32, ts: Ts) -> Ps {
    if bound == Ps::ZERO {
        return Ps::ZERO;
    }
    let mut x = ts.0 ^ ((u64::from(participant) + 1) << 32);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    Ps::new(x % (bound.ps() + 1))
}

/// Records a defragmentation pause in a shard's load accounting.
fn charge_defrag(load: &mut ShardLoad, pause: Ps) {
    if pause > Ps::ZERO {
        load.report.defrag_passes += 1;
        load.report.defrag_time += pause;
        load.report.defrag_stall.record(pause.ps());
    }
}

/// Records an execute call's maintenance pauses in a shard's load
/// accounting, split by mechanism: the defragmentation share keeps its
/// historical counters, the GC share lands in `gc_time`/`gc_stall`
/// (pass counts come from the engine's drained
/// [`pushtap_core::GcStats`] tally at batch end).
fn charge_maintenance(load: &mut ShardLoad, pauses: MaintPause) {
    charge_defrag(load, pauses.defrag);
    if pauses.gc > Ps::ZERO {
        load.report.gc_time += pauses.gc;
        load.report.gc_stall.record(pauses.gc.ps());
    }
}

/// Runs one engine call under delta-capture accounting: any clock
/// movement lands in the shard's transaction time, and any wasted-time
/// accrual (a failed prepare, a coordinator-aborted prepared scope) in
/// its wasted-retry counter — keeping the report reconciled with the
/// engine's own counters at every call site.
fn charge_engine<T>(
    load: &mut ShardLoad,
    shard: &mut Pushtap,
    f: impl FnOnce(&mut Pushtap) -> T,
) -> T {
    let before = shard.now();
    let wasted_before = shard.db().wasted_retry_time();
    let r = f(shard);
    load.report.txn_time += shard.now().saturating_sub(before);
    load.report.wasted_retry_time += shard.db().wasted_retry_time().saturating_sub(wasted_before);
    r
}

/// Decomposes `routed` at its home engine and splits the effect set by
/// owning shard: the home's own effects plus one forwarded subset per
/// participant. Decomposition is read-only (cursors and chains
/// untouched), so retries reuse the identical effect set.
fn decompose_split(
    shards: &[Pushtap],
    map: &WarehouseMap,
    routed: &RoutedTxn,
) -> (Vec<TaggedEffect>, BTreeMap<usize, Vec<TaggedEffect>>) {
    let home = routed.shard as usize;
    let effects = shards[home].db().decompose(&routed.txn, routed.ts);
    let mut local: Vec<TaggedEffect> = Vec::new();
    let mut forwarded: BTreeMap<usize, Vec<TaggedEffect>> = BTreeMap::new();
    for e in effects {
        let owner = map.shard_of_warehouse(e.warehouse) as usize;
        if owner == home {
            local.push(e);
        } else {
            forwarded.entry(owner).or_default().push(e);
        }
    }
    debug_assert_eq!(
        forwarded.keys().map(|&s| s as u32).collect::<Vec<_>>(),
        routed.participants,
        "router participant set must match effect ownership"
    );
    (local, forwarded)
}

// ---------------------------------------------------------------------
// Wave execution: conflict-free waves with overlapped 2PC rounds.
// ---------------------------------------------------------------------

/// One shard's share of a wave: an effect set to prepare at a pinned
/// timestamp, as the transaction's home half or a forwarded
/// participant.
struct WaveItem {
    /// Index of the owning transaction within the wave.
    txn: usize,
    /// The pinned commit timestamp.
    ts: Ts,
    /// Home half or forwarded participant.
    role: TxnRole,
    /// Whether the owning transaction crosses shards (its home pays the
    /// decision round-trip).
    cross: bool,
    /// The effects this shard owns.
    effects: Vec<TaggedEffect>,
}

/// Executes one wave dispatched by the open-loop front-end
/// ([`crate::ShardedHtap::run_open_loop`]). Before the wave runs, every
/// shard's clock is gated to the wave's latest member arrival — a wave
/// cannot close before all its members exist, and gating *all* engines
/// keeps the deployment on one open-loop timeline (participants and
/// retry passes included, which is what the sanitizer's
/// no-execution-before-arrival invariant checks). Each member's real
/// inbox wait (arrival → gated home clock) lands in its home shard's
/// queue-wait histogram and, when positive, a [`Phase::Queued`] span;
/// after the wave commits, each member's *sojourn* (arrival →
/// home-shard wave completion) is recorded into `sojourn`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_open_wave(
    shards: &mut [Pushtap],
    map: &WarehouseMap,
    wave: Vec<RoutedTxn>,
    commit: CommitConfig,
    loads: &mut [ShardLoad],
    stats: &mut CoordStats,
    wave_id: u64,
    sojourn: &mut pushtap_trace::Histogram,
) {
    stats.record_wave(&wave);
    let gate = wave.iter().map(|t| t.arrival).max().unwrap_or(Ps::ZERO);
    for shard in shards.iter_mut() {
        let wait = gate.saturating_sub(shard.now());
        if wait > Ps::ZERO {
            shard.advance(wait);
        }
    }
    for routed in &wave {
        let home = routed.shard as usize;
        let wait = shards[home].now().saturating_sub(routed.arrival);
        loads[home].report.queue_wait.record(wait.ps());
        if wait > Ps::ZERO && shards[home].trace_enabled() {
            let s = &shards[home];
            s.trace_record(
                Span::new(
                    s.trace_track(),
                    Phase::Queued,
                    routed.ts.0,
                    routed.arrival.ps(),
                    s.now().ps(),
                )
                .in_wave(wave_id),
            );
        }
    }
    let members: Vec<(usize, Ps)> = wave.iter().map(|t| (t.shard as usize, t.arrival)).collect();
    let crashed = run_wave(shards, map, wave, commit, loads, wave_id, None);
    debug_assert!(!crashed, "open-loop waves run without a durability ctx");
    for (home, arrival) in members {
        sojourn.record(shards[home].now().saturating_sub(arrival).ps());
    }
}

/// Executes one conflict-free wave (see the module docs for the five
/// steps). With a durability context, every shard appends its prepared
/// records during the prepare phase and forces once — the wave's group
/// commit — before returning its votes; committed cross-shard
/// transactions land in the decision log (forced) between the vote
/// barrier and the decision phase. Returns `true` if an armed crash
/// fired in this wave (the caller must stop the stream dead).
fn run_wave(
    shards: &mut [Pushtap],
    map: &WarehouseMap,
    wave: Vec<RoutedTxn>,
    commit: CommitConfig,
    loads: &mut [ShardLoad],
    wave_id: u64,
    mut dur: Option<&mut DurabilityCtx>,
) -> bool {
    let crash = dur.as_deref().and_then(|d| d.armed_at(wave_id));
    if crash == Some(CrashSite::BeforePrepare) {
        // The kill lands before the wave starts: nothing of it was
        // logged or applied.
        mark_crashed(&mut dur);
        return true;
    }
    // Report the wave's membership to the shadow tracker (every engine
    // shares one sanitizer): members of the same wave overlap, so the
    // tracker can lockset-check that the scheduler really kept their
    // key footprints disjoint. Wave ids are 1-based here; 0 is the
    // tracker's "solo" wave, which is never cross-checked.
    {
        let san = shards[0].db().sanitizer();
        if san.enabled() {
            for routed in &wave {
                san.assign_wave(routed.ts.0, wave_id);
            }
        }
    }
    // Step 1: decompose every member at its home engine and build each
    // shard's timestamp-ordered item list. Wave members touch disjoint
    // rows and rings, so decomposition order is irrelevant.
    let mut items: Vec<Vec<WaveItem>> = (0..shards.len()).map(|_| Vec::new()).collect();
    for (i, routed) in wave.iter().enumerate() {
        let (local, forwarded) = decompose_split(shards, map, routed);
        let cross = !routed.participants.is_empty();
        items[routed.shard as usize].push(WaveItem {
            txn: i,
            ts: routed.ts,
            role: TxnRole::Coordinator,
            cross,
            effects: local,
        });
        for (p, effects) in forwarded {
            items[p].push(WaveItem {
                txn: i,
                ts: routed.ts,
                role: TxnRole::Participant,
                cross,
                effects,
            });
        }
    }
    // Wave members arrive in stream order, but a forwarded subset can
    // land behind a later transaction's home item: restore timestamp
    // order per shard (prepares must apply in pinned-timestamp order).
    for list in &mut items {
        list.sort_by_key(|it| it.ts);
    }

    // Step 2: the prepare phase — all shards concurrently. Each shard
    // prepares its items in timestamp order (appending each prepared
    // record to its effect log) and ends with its group-commit force
    // barrier — one force for the whole wave, before its votes return;
    // forwarded sets pay their (overlapped) prepare-hop delivery.
    let force_latency = dur.as_deref().map_or(Ps::ZERO, |d| d.force_latency);
    let force_mode = match crash {
        Some(CrashSite::AfterPrepare) => ForceMode::Skip,
        Some(CrashSite::MidEffectFlush) => items
            .iter()
            .rposition(|list| !list.is_empty())
            .map_or(ForceMode::Skip, ForceMode::TornAt),
        _ => ForceMode::Normal,
    };
    let mut wals: Vec<Option<&mut Wal>> = match dur.as_deref_mut() {
        Some(d) => d.logs.iter_mut().map(Some).collect(),
        None => shards.iter().map(|_| None).collect(),
    };
    type PrepareOutcome = (usize, ShardLoad, Vec<Option<TxnResult>>, Vec<Ps>, Vec<Ps>);
    let results: Vec<PrepareOutcome> = thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter_mut()
            .zip(items.iter())
            .zip(wals.iter_mut())
            .enumerate()
            .filter(|(_, ((_, list), _))| !list.is_empty())
            .map(|(i, ((shard, list), wal))| {
                let mut wal = wal.as_deref_mut();
                scope.spawn(move || {
                    let mut load = ShardLoad::default();
                    // Periodic maintenance between waves — no scope is
                    // open on this shard here.
                    charge_maintenance(&mut load, shard.defrag_if_due());
                    let phase_start = shard.now();
                    let mut votes: Vec<Option<TxnResult>> = Vec::with_capacity(list.len());
                    // Per-item prepare-start clocks, threaded to the
                    // decision phase for commit-latency attribution.
                    let mut starts: Vec<Ps> = Vec::with_capacity(list.len());
                    // Per-item prepare-end clocks: the instant this
                    // shard's vote for the item leaves (laggard model).
                    let mut ends: Vec<Ps> = Vec::with_capacity(list.len());
                    for item in list {
                        let item_start = shard.now();
                        starts.push(item_start);
                        if item.role == TxnRole::Participant {
                            deliver(
                                &mut load,
                                shard,
                                commit.prepare_hop,
                                phase_start + commit.prepare_hop,
                            );
                        }
                        {
                            let san = shard.db().sanitizer();
                            if san.enabled() {
                                san.begin_execution(i as u32, item.ts.0, shard.now().ps());
                            }
                        }
                        let r = charge_engine(&mut load, shard, |s| {
                            s.prepare_effects_at(&item.effects, item.ts)
                        });
                        match r {
                            Ok(r) => {
                                // `prepared_txns` keeps its 2PC-only
                                // semantics: a warehouse-local wave item
                                // rides the same prepare machinery but is
                                // a one-phase commit, not a 2PC prepare.
                                if item.cross {
                                    load.report.prepared_txns += 1;
                                }
                                if item.role == TxnRole::Participant {
                                    load.report.forwarded_effects += item.effects.len() as u64;
                                }
                                if let Some(w) = wal.as_deref_mut() {
                                    wal_append(
                                        w,
                                        &mut load,
                                        shard,
                                        item.ts,
                                        item.role,
                                        item.cross,
                                        &item.effects,
                                        wave_id,
                                    );
                                }
                                votes.push(Some(r));
                            }
                            Err(_full) => {
                                load.report.aborts += 1;
                                votes.push(None);
                            }
                        }
                        if item.cross && shard.trace_enabled() {
                            shard.trace_record(
                                Span::new(
                                    shard.trace_track(),
                                    Phase::TwoPc,
                                    item.ts.0,
                                    item_start.ps(),
                                    shard.now().ps(),
                                )
                                .in_wave(wave_id),
                            );
                        }
                        ends.push(shard.now());
                    }
                    // The wave's group commit: one force barrier covers every
                    // record this shard appended for the wave. An armed
                    // crash skips it (AfterPrepare) or tears the last
                    // involved shard's force halfway (MidEffectFlush).
                    if let Some(w) = wal {
                        match force_mode {
                            ForceMode::Normal => {
                                wal_force(w, &mut load, shard, force_latency, wave_id);
                            }
                            ForceMode::Skip => {}
                            ForceMode::TornAt(k) if k == i => {
                                let half = w.pending_len() / 2;
                                w.force_torn(half);
                            }
                            ForceMode::TornAt(_) => {
                                wal_force(w, &mut load, shard, force_latency, wave_id);
                            }
                        }
                    }
                    if shard.trace_enabled() && shard.now() > phase_start {
                        shard.trace_record(
                            Span::new(
                                shard.trace_track(),
                                Phase::WavePrepare,
                                0,
                                phase_start.ps(),
                                shard.now().ps(),
                            )
                            .in_wave(wave_id),
                        );
                    }
                    (i, load, votes, starts, ends)
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });
    let mut votes: Vec<Vec<Option<TxnResult>>> = (0..shards.len()).map(|_| Vec::new()).collect();
    let mut starts: Vec<Vec<Ps>> = (0..shards.len()).map(|_| Vec::new()).collect();
    let mut ends: Vec<Vec<Ps>> = (0..shards.len()).map(|_| Vec::new()).collect();
    for (i, partial, v, s, e) in results {
        merge_load(&mut loads[i], partial);
        votes[i] = v;
        starts[i] = s;
        ends[i] = e;
    }

    // The kill at (or during) the wave's group commit: the prepare
    // phase ran, but the wave's records are lost (AfterPrepare) or
    // durable only up to one shard's torn force (MidEffectFlush).
    if matches!(
        crash,
        Some(CrashSite::AfterPrepare | CrashSite::MidEffectFlush)
    ) {
        mark_crashed(&mut dur);
        return true;
    }

    // Step 3: the vote barrier — a transaction commits iff every
    // involved shard prepared it; record who voted no for the retry
    // pass's defragmentation.
    let mut committed = vec![true; wave.len()];
    let mut no_voters: Vec<Vec<usize>> = vec![Vec::new(); wave.len()];
    for (i, shard_votes) in votes.iter().enumerate() {
        for (item, vote) in items[i].iter().zip(shard_votes) {
            if vote.is_none() {
                committed[item.txn] = false;
                no_voters[item.txn].push(i);
            }
        }
    }

    // Between the vote barrier and the decision phase, the commit
    // decisions become durable: one `Commit(ts)` entry per committed
    // cross-shard transaction, forced before any decision is delivered.
    // Recovery presumes abort for cross-shard scopes the decision log
    // does not vouch for.
    if let Some(d) = dur.as_deref_mut() {
        if crash == Some(CrashSite::BetweenVoteAndDecision) {
            d.crashed = true;
            return true;
        }
        for (i, routed) in wave.iter().enumerate() {
            if committed[i] && !routed.participants.is_empty() {
                d.decision_log.append(&encode_decision(routed.ts));
            }
        }
        if crash == Some(CrashSite::MidDecisionLogWrite) {
            let half = d.decision_log.pending_len() / 2;
            d.decision_log.force_torn(half);
            d.crashed = true;
            return true;
        }
        d.decision_log.force();
        if crash == Some(CrashSite::AfterDecision) {
            d.crashed = true;
            return true;
        }
    }

    // Step 4: the decision phase — all shards concurrently, decisions
    // delivered in timestamp order with overlapped hops. Commits
    // resolve scopes (metadata-only); aborts replay pinned undo
    // records.
    //
    // Laggard vote clocks: participant `p`'s vote for wave member `t`
    // leaves at `vote_ready[p][t.txn]` — `p`'s clock right after `t`'s
    // prepare applied (early vote; the group-commit force overlaps the
    // decision round, and the decision *apply* on `p` still lands after
    // the force because `p`'s clock crossed it at the phase barrier).
    // A shard with no item for `t` (never happens for a real
    // participant) falls back to its prepare-pass end.
    let prepare_done: Vec<Ps> = shards.iter().map(Pushtap::now).collect();
    let mut vote_ready: Vec<Vec<Ps>> = prepare_done.iter().map(|&d| vec![d; wave.len()]).collect();
    for (i, (list, shard_ends)) in items.iter().zip(&ends).enumerate() {
        for (item, &end) in list.iter().zip(shard_ends) {
            vote_ready[i][item.txn] = end;
        }
    }
    let vote_ready_ref = &vote_ready;
    let committed_ref = &committed;
    let wave_ref = &wave;
    let results: Vec<(usize, ShardLoad)> = thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter_mut()
            .zip(items.iter().zip(votes.iter().zip(starts.iter())))
            .enumerate()
            .filter(|(_, (_, (list, _)))| !list.is_empty())
            .map(|(i, (shard, (list, (shard_votes, shard_starts))))| {
                scope.spawn(move || {
                    let mut load = ShardLoad::default();
                    let phase_start = shard.now();
                    for ((item, vote), &prepare_start) in
                        list.iter().zip(shard_votes).zip(shard_starts)
                    {
                        let Some(result) = vote else {
                            // This shard voted no: nothing is held here
                            // (the failed prepare already rolled back and
                            // charged its wasted latency).
                            continue;
                        };
                        let decision = committed_ref[item.txn];
                        let item_start = shard.now();
                        match item.role {
                            TxnRole::Coordinator => {
                                // The home half pays the decision
                                // round-trip for a cross-shard
                                // transaction, gated by the laggard
                                // vote barrier: the last vote arrives
                                // from the slowest participant — its
                                // prepare-pass end plus one prepare-hop
                                // and its deterministic skew, floored
                                // by the home's own round-trip — and
                                // the decision goes out one commit-hop
                                // later, overlapped with the rest of
                                // the wave's rounds.
                                if item.cross {
                                    let mut vote_at = phase_start + commit.prepare_hop;
                                    for &p in &wave_ref[item.txn].participants {
                                        vote_at = vote_at.max(
                                            vote_ready_ref[p as usize][item.txn]
                                                + commit.prepare_hop
                                                + vote_skew(commit.vote_jitter, p, item.ts),
                                        );
                                    }
                                    deliver(&mut load, shard, commit.prepare_hop, vote_at);
                                    deliver(
                                        &mut load,
                                        shard,
                                        commit.commit_hop,
                                        vote_at + commit.commit_hop,
                                    );
                                    if shard.trace_enabled() {
                                        shard.trace_record(
                                            Span::new(
                                                shard.trace_track(),
                                                Phase::VoteBarrier,
                                                item.ts.0,
                                                item_start.ps(),
                                                shard.now().ps(),
                                            )
                                            .in_wave(wave_id),
                                        );
                                    }
                                }
                                if decision {
                                    shard.commit_prepared(item.ts, TxnRole::Coordinator);
                                    load.routed += 1;
                                    load.report.committed += 1;
                                    load.report.breakdown.merge(&result.breakdown);
                                    load.remote_touches += wave_ref[item.txn].remote;
                                    load.report
                                        .commit_latency
                                        .record(shard.now().saturating_sub(prepare_start).ps());
                                } else {
                                    charge_engine(&mut load, shard, |s| s.abort_prepared(item.ts));
                                    load.report.aborts += 1;
                                    load.report.participant_aborts += 1;
                                }
                            }
                            TxnRole::Participant => {
                                deliver(
                                    &mut load,
                                    shard,
                                    commit.commit_hop,
                                    phase_start + commit.commit_hop,
                                );
                                if decision {
                                    shard.commit_prepared(item.ts, TxnRole::Participant);
                                    load.report.breakdown.merge(&result.breakdown);
                                } else {
                                    charge_engine(&mut load, shard, |s| s.abort_prepared(item.ts));
                                    load.report.aborts += 1;
                                    load.report.participant_aborts += 1;
                                }
                            }
                        }
                        if item.cross && shard.trace_enabled() {
                            shard.trace_record(
                                Span::new(
                                    shard.trace_track(),
                                    Phase::TwoPc,
                                    item.ts.0,
                                    item_start.ps(),
                                    shard.now().ps(),
                                )
                                .in_wave(wave_id),
                            );
                        }
                    }
                    if shard.trace_enabled() && shard.now() > phase_start {
                        shard.trace_record(
                            Span::new(
                                shard.trace_track(),
                                Phase::WaveDecide,
                                0,
                                phase_start.ps(),
                                shard.now().ps(),
                            )
                            .in_wave(wave_id),
                        );
                    }
                    (i, load)
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });
    for (i, partial) in results {
        merge_load(&mut loads[i], partial);
    }

    // Step 5: retries — aborted transactions re-run alone at their
    // pinned timestamps before the next wave. Every scope of this wave
    // is resolved by now, so reclaiming the no-voting shards' arenas
    // (GC first, defragmentation as the fallback) is safe; the retried
    // transactions conflict with nothing still in flight (their wave
    // was conflict-free and later waves have not started).
    for (i, routed) in wave.iter().enumerate() {
        if committed[i] {
            continue;
        }
        for &v in &no_voters[i] {
            charge_maintenance(&mut loads[v], shards[v].reclaim_now());
        }
        if routed.participants.is_empty() {
            let home = routed.shard as usize;
            let wal = dur.as_deref_mut().map(|d| &mut d.logs[home]);
            retry_local_txn(
                &mut shards[home],
                routed,
                &mut loads[home],
                wal,
                force_latency,
                wave_id,
            );
        } else {
            retry_two_phase_commit(shards, map, routed, commit, loads, dur.as_deref_mut());
        }
    }
    false
}

// ---------------------------------------------------------------------
// Wave casualties, retried alone after their wave (step 5).
// ---------------------------------------------------------------------

/// Re-runs one warehouse-local wave casualty alone through the engine's
/// defragment-and-retry loop, folding the outcome into `load`. It
/// counts as retried even if this run commits cleanly: its wave attempt
/// already aborted.
///
/// With a log, the transaction's effect record is appended and then
/// forced alone — a retry has no wave to amortize the barrier over.
/// `decompose` is retry-stable, so the record logged up front equals
/// what the engine commits even if it had to defragment and retry in
/// between.
fn retry_local_txn(
    shard: &mut Pushtap,
    routed: &RoutedTxn,
    load: &mut ShardLoad,
    mut wal: Option<&mut Wal>,
    force_latency: Ps,
    wave_id: u64,
) {
    let before = shard.now();
    if let Some(w) = wal.as_deref_mut() {
        let effects = shard.db().decompose(&routed.txn, routed.ts);
        wal_append(
            w,
            load,
            shard,
            routed.ts,
            TxnRole::Coordinator,
            false,
            &effects,
            0,
        );
    }
    if shard.trace_enabled() {
        shard.trace_record(Span::instant(
            shard.trace_track(),
            Phase::Retry,
            routed.ts.0,
            before.ps(),
        ));
    }
    {
        let san = shard.db().sanitizer();
        if san.enabled() {
            san.begin_execution(routed.shard, routed.ts.0, shard.now().ps());
        }
    }
    let aborts_before = shard.db().aborts();
    let wasted_before = shard.db().wasted_retry_time();
    let (result, pauses) = shard.execute_txn_at(&routed.txn, routed.ts);
    load.routed += 1;
    load.report.committed += 1;
    load.report.aborts += shard.db().aborts() - aborts_before;
    load.report.retried_txns += 1;
    charge_maintenance(load, pauses);
    load.report.wasted_retry_time += shard.db().wasted_retry_time().saturating_sub(wasted_before);
    load.report.txn_time += shard
        .now()
        .saturating_sub(before)
        .saturating_sub(pauses.total());
    load.report.breakdown.merge(&result.breakdown);
    load.report
        .commit_latency
        .record(shard.now().saturating_sub(before).ps());
    if let Some(w) = wal {
        wal_force(w, load, shard, force_latency, wave_id);
    }
}

/// Re-runs one cross-shard wave casualty alone as a two-phase commit
/// whose rounds are delivered one at a time, retrying (under the same
/// pinned timestamp) until every participant votes yes. Every attempt
/// is a retry — the wave attempt already aborted — so the transaction
/// counts as retried even when this run commits on its first try.
///
/// With a durability context, every successful prepare appends its
/// effect record, the involved logs force (home first, participants
/// ascending) once all votes are yes — *before* the decision round —
/// and the commit decision is appended to the decision log and forced
/// before any engine commits. A crash point arms whole waves only, so
/// no kill fires here.
fn retry_two_phase_commit(
    shards: &mut [Pushtap],
    map: &WarehouseMap,
    routed: &RoutedTxn,
    commit: CommitConfig,
    loads: &mut [ShardLoad],
    mut dur: Option<&mut DurabilityCtx>,
) {
    let home = routed.shard as usize;
    let ts = routed.ts;

    // Periodic maintenance (GC first, defragmentation as the fallback)
    // runs between transactions — never while any scope is open.
    charge_maintenance(&mut loads[home], shards[home].defrag_if_due());

    let (local, forwarded) = decompose_split(shards, map, routed);

    // Submitter-perceived latency starts here: every retry loop below
    // (and its defragmentation) is part of what this transaction waited.
    let start = shards[home].now();
    loop {
        if shards[home].trace_enabled() {
            let s = &shards[home];
            s.trace_record(Span::instant(
                s.trace_track(),
                Phase::Retry,
                ts.0,
                s.now().ps(),
            ));
        }
        {
            let san = shards[home].db().sanitizer();
            if san.enabled() {
                san.begin_execution(routed.shard, ts.0, shards[home].now().ps());
            }
        }
        // Phase 1a: the home half prepares its owned effects.
        let home_result = charge_engine(&mut loads[home], &mut shards[home], |s| {
            s.prepare_effects_at(&local, ts)
        });
        let home_result = match home_result {
            Ok(r) => {
                loads[home].report.prepared_txns += 1;
                if let Some(d) = dur.as_deref_mut() {
                    wal_append(
                        &mut d.logs[home],
                        &mut loads[home],
                        &shards[home],
                        ts,
                        TxnRole::Coordinator,
                        true,
                        &local,
                        0,
                    );
                }
                r
            }
            Err(_full) => {
                // Home voted no before anything was forwarded: its
                // partial effects are already rolled back; reclaim its
                // arenas and retry the whole transaction.
                loads[home].report.aborts += 1;
                charge_maintenance(&mut loads[home], shards[home].reclaim_now());
                continue;
            }
        };

        // Phase 1b: forward each participant its owned effect subset (a
        // prepare round delivers it) and collect votes.
        let mut prepared: Vec<(usize, Breakdown)> = Vec::new();
        let mut vote_no: Option<usize> = None;
        for (&p, effs) in &forwarded {
            charge_hop(&mut loads[p], &mut shards[p], commit.prepare_hop);
            {
                let san = shards[p].db().sanitizer();
                if san.enabled() {
                    san.begin_execution(p as u32, ts.0, shards[p].now().ps());
                }
            }
            let r = charge_engine(&mut loads[p], &mut shards[p], |s| {
                s.prepare_effects_at(effs, ts)
            });
            match r {
                Ok(r) => {
                    loads[p].report.prepared_txns += 1;
                    loads[p].report.forwarded_effects += effs.len() as u64;
                    if let Some(d) = dur.as_deref_mut() {
                        wal_append(
                            &mut d.logs[p],
                            &mut loads[p],
                            &shards[p],
                            ts,
                            TxnRole::Participant,
                            true,
                            effs,
                            0,
                        );
                    }
                    prepared.push((p, r.breakdown));
                }
                Err(_full) => {
                    loads[p].report.aborts += 1;
                    vote_no = Some(p);
                    break;
                }
            }
        }

        if let Some(no_shard) = vote_no {
            // Phase 2, abort decision: the home half and every prepared
            // participant roll their pinned effects back (the decision
            // round is charged like a commit would be), and the
            // coordinator pays the same message round-trip it would on
            // a commit — the prepares went out and the "no" vote had to
            // come back, failed rounds are not free. The prepare's
            // latency lands in wasted retry time — the clock already
            // covered the work, now thrown away. The voting shard's
            // arenas are reclaimed, then the whole transaction retries
            // under the same timestamp.
            if let Some(d) = dur.as_deref_mut() {
                // Withdraw the attempt's never-forced records: the
                // involved logs hold nothing else pending (the wave's
                // group commit and every earlier retry forced theirs),
                // so the discard is exact.
                d.logs[home].discard_pending();
                for &p in forwarded.keys() {
                    d.logs[p].discard_pending();
                }
            }
            // Laggard vote barrier: the abort decision waits for the
            // slowest vote — each voter's shard clock plus one
            // prepare-hop and its deterministic skew (the "no" voter's
            // vote included). The home's own round-trip floors the
            // wait, so the stall is never cheaper than the uncoupled
            // model's fixed round-trip.
            let vb_start = shards[home].now();
            let mut vote_at = vb_start + commit.prepare_hop;
            for &(q, _) in &prepared {
                vote_at = vote_at.max(
                    shards[q].now()
                        + commit.prepare_hop
                        + vote_skew(commit.vote_jitter, q as u32, ts),
                );
            }
            vote_at = vote_at.max(
                shards[no_shard].now()
                    + commit.prepare_hop
                    + vote_skew(commit.vote_jitter, no_shard as u32, ts),
            );
            deliver(
                &mut loads[home],
                &mut shards[home],
                commit.prepare_hop,
                vote_at,
            );
            charge_hop(&mut loads[home], &mut shards[home], commit.commit_hop);
            if shards[home].trace_enabled() {
                let s = &shards[home];
                s.trace_record(Span::new(
                    s.trace_track(),
                    Phase::VoteBarrier,
                    ts.0,
                    vb_start.ps(),
                    s.now().ps(),
                ));
            }
            charge_engine(&mut loads[home], &mut shards[home], |s| {
                s.abort_prepared(ts)
            });
            loads[home].report.aborts += 1;
            loads[home].report.participant_aborts += 1;
            for &(q, _) in &prepared {
                charge_hop(&mut loads[q], &mut shards[q], commit.commit_hop);
                charge_engine(&mut loads[q], &mut shards[q], |s| s.abort_prepared(ts));
                loads[q].report.aborts += 1;
                loads[q].report.participant_aborts += 1;
            }
            charge_maintenance(&mut loads[no_shard], shards[no_shard].reclaim_now());
            continue;
        }

        // Every vote is yes: each involved shard forces its effect log
        // (home first, then participants ascending) before its vote may
        // reach the coordinator — a shard never votes yes on records a
        // crash could still lose.
        if let Some(d) = dur.as_deref_mut() {
            let latency = d.force_latency;
            for i in std::iter::once(home).chain(forwarded.keys().copied()) {
                wal_force(&mut d.logs[i], &mut loads[i], &mut shards[i], latency, 0);
            }
        }

        // Phase 2, commit decision: the coordinator waits out the
        // laggard vote barrier — the decision round-trip still counts
        // as two ledger rounds (one prepare-delivery out, one
        // vote/decision back), but the stall waits for the *slowest*
        // participant's vote: its shard clock (prepare work and WAL
        // force included) plus one prepare-hop and its deterministic
        // skew, floored by the home's own round-trip. Then every
        // engine commits at the pinned timestamp (metadata-only —
        // prepare already flushed).
        let vb_start = shards[home].now();
        let mut vote_at = vb_start + commit.prepare_hop;
        for &(q, _) in &prepared {
            vote_at = vote_at.max(
                shards[q].now() + commit.prepare_hop + vote_skew(commit.vote_jitter, q as u32, ts),
            );
        }
        deliver(
            &mut loads[home],
            &mut shards[home],
            commit.prepare_hop,
            vote_at,
        );
        charge_hop(&mut loads[home], &mut shards[home], commit.commit_hop);
        if shards[home].trace_enabled() {
            let s = &shards[home];
            s.trace_record(Span::new(
                s.trace_track(),
                Phase::VoteBarrier,
                ts.0,
                vb_start.ps(),
                s.now().ps(),
            ));
        }
        // The commit decision becomes durable before any engine acts on
        // it: append `Commit(ts)` and force the decision log. Recovery
        // presumes abort for any prepared cross-shard scope the decision
        // log does not vouch for.
        if let Some(d) = dur.as_deref_mut() {
            d.decision_log.append(&encode_decision(ts));
            d.decision_log.force();
        }
        shards[home].commit_prepared(ts, TxnRole::Coordinator);
        loads[home].routed += 1;
        loads[home].report.committed += 1;
        loads[home].report.breakdown.merge(&home_result.breakdown);
        loads[home].remote_touches += routed.remote;
        loads[home]
            .report
            .commit_latency
            .record(shards[home].now().saturating_sub(start).ps());
        if shards[home].trace_enabled() {
            // The whole retried 2PC as one span: wave 0 marks a 2PC
            // that ran alone, so overlap analysis never counts it.
            let s = &shards[home];
            s.trace_record(Span::new(
                s.trace_track(),
                Phase::TwoPc,
                ts.0,
                start.ps(),
                s.now().ps(),
            ));
        }
        loads[home].report.retried_txns += 1;
        for (q, breakdown) in prepared {
            charge_hop(&mut loads[q], &mut shards[q], commit.commit_hop);
            shards[q].commit_prepared(ts, TxnRole::Participant);
            loads[q].report.breakdown.merge(&breakdown);
        }
        return;
    }
}
