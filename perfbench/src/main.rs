//! MDCC benchmark: host cost and sim-time outcomes, end to end and per
//! layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpcw --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` repeats the untraced run until `--seconds` have passed and
//! reports the end-to-end metrics (host medians over the repeats; the
//! sim-time metrics repeat exactly for a seed, which every repeat checks).
//! Host times are normalized to a nominal host speed (`reference.rs`).
//! `--trace 1` runs with every process wrapped in a timing decorator,
//! checks the outcome against `mdcc_cluster::run_mdcc`, probes the final
//! stores and reports the per-layer metrics. Both print one JSON object
//! as the last line of standard output; lines before it are a readable
//! summary. The correctness gates (stock, pending options, stuck clients,
//! lease overlap, determinism, equivalence) set `"correct"`; aborted
//! writes and commits left unresolved at a client count as `"failed"`.

mod harness;
mod probes;
mod reference;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use mdcc_cluster::{run_mdcc, FaultPlan, NetReport, Report};
use mdcc_common::{DcId, SimTime};

use crate::harness::Outcome;
use crate::reference::{median, slowdown};
use crate::trace::{variant_name, VARIANTS};
use crate::workloads::Def;

/// Set-up repetitions per run (the median is reported).
const SETUPS: usize = 60;

/// Reference samples taken right before and right after each set-up to
/// normalize it.
const SETUP_SAMPLES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics of one run, in print order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s + "}"
    }
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The sim-time results of a run. Deterministic for a seed.
#[derive(Debug, Clone, PartialEq)]
struct SimResult {
    events: u64,
    committed: u64,
    aborted: u64,
    digests: Vec<u64>,
    p50_ms: f64,
    p99_ms: f64,
    samples: usize,
    tps: f64,
    attempted: usize,
    failed: usize,
    bytes_per_commit: f64,
    msgs_per_commit: f64,
    coalesce_ratio: f64,
    fsyncs_per_commit: f64,
    wal_bytes_per_commit: f64,
    divergent_keys: u64,
    outage_ms: f64,
}

impl SimResult {
    fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn commit_ratio(&self) -> f64 {
        self.samples as f64 / self.attempted.max(1) as f64
    }
}

/// Longest time any client goes without a committed write, from `from`
/// (the crash, or the window start without one) to the window end.
fn outage_ms(o: &Outcome, from: SimTime, to: SimTime) -> f64 {
    let mut longest = 0u64;
    for records in &o.records {
        let mut commits: Vec<SimTime> = records
            .iter()
            .filter(|r| r.committed && r.is_write && r.finished > from && r.finished < to)
            .map(|r| r.finished)
            .collect();
        commits.sort();
        let mut last = from;
        for t in commits.into_iter().chain(std::iter::once(to)) {
            longest = longest.max((t - last).as_micros());
            last = t;
        }
    }
    longest as f64 / 1e3
}

fn sim_result(def: &Def, o: &Outcome) -> SimResult {
    let spec = &def.spec;
    let stats = o.world.stats();
    let mut report = Report::new(
        o.records.iter().flatten().copied().collect(),
        spec.warmup,
        spec.duration,
    );
    report.net = NetReport::from_world(stats);
    let commits = report.committed_count().max(1) as f64;
    let wal_bytes: u64 = o
        .matrix
        .iter()
        .flatten()
        .map(|&n| o.world.disk(n).stats().wal_bytes_written)
        .sum();
    let write_commits = report.write_commits();
    let window_start = report.window_start;
    let from = o.restart.map_or(window_start, |r| r.crashed_at);
    SimResult {
        events: stats.events_handled,
        committed: o.tm.committed,
        aborted: o.tm.aborted,
        digests: harness::committed_digests(o),
        p50_ms: report.median_write_ms().unwrap_or(0.0),
        p99_ms: report.write_percentile_ms(99.0).unwrap_or(0.0),
        samples: write_commits,
        tps: write_commits as f64 / spec.duration.as_secs_f64(),
        attempted: write_commits + report.write_aborts() + o.stuck_clients,
        failed: report.write_aborts() + o.stuck_clients,
        bytes_per_commit: report.bytes_per_commit().unwrap_or(0.0),
        msgs_per_commit: report.msgs_per_commit().unwrap_or(0.0),
        coalesce_ratio: stats.payload_msgs as f64 / stats.sent.max(1) as f64,
        fsyncs_per_commit: stats.fsyncs as f64 / commits,
        wal_bytes_per_commit: wal_bytes as f64 / commits,
        divergent_keys: harness::divergence(o).len() as u64,
        outage_ms: outage_ms(o, from, report.window_end),
    }
}

/// Gates every result must pass; returns the failures.
fn gates(o: &Outcome, sim: &SimResult) -> Vec<String> {
    let mut failures = harness::gate_failures(o);
    if sim.samples < 2_800 {
        failures.push(format!(
            "only {} committed writes in the window",
            sim.samples
        ));
    }
    failures
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
}

fn summary(def: &Def, sim: &SimResult) {
    println!(
        "# {} seed {}: {} events, {} commits / {} aborts (TM), window: {} write commits, \
         p50 {:.1} ms, p99 {:.1} ms over {} samples, {:.1} writes/s, failed {}/{}, \
         {:.0} bytes/commit, {:.2} msgs/commit, divergent keys {}, outage {:.1} ms",
        def.name,
        def.spec.seed,
        sim.events,
        sim.committed,
        sim.aborted,
        sim.samples,
        sim.p50_ms,
        sim.p99_ms,
        sim.samples,
        sim.tps,
        sim.failed,
        sim.attempted,
        sim.bytes_per_commit,
        sim.msgs_per_commit,
        sim.divergent_keys,
        sim.outage_ms,
    );
}

/// Prints the failover, if any, and up to three divergent keys with
/// every replica's state.
fn print_notes(o: &Outcome) {
    if let Some(r) = o.restart {
        println!(
            "# failover: lease holder {} crashed at {:.3} s, restarted from a checkpoint of {} \
             records + {} WAL records",
            r.node,
            r.crashed_at.as_secs_f64(),
            r.info.snapshot_records,
            r.info.wal_records_replayed
        );
    }
    for (key, states) in harness::divergence(o).iter().take(3) {
        println!("# divergent {key}: {states:?}");
    }
}

/// Set-up: data generation, world build, initial load and checkpoint.
/// Returns the built world and the host seconds it took.
fn set_up(def: &Def, traced: bool) -> (harness::Built, f64) {
    let t = Instant::now();
    let data = def.data();
    let built = harness::build(def, &data, traced);
    (built, t.elapsed().as_secs_f64())
}

/// `--trace 0`: the end-to-end metrics. Host times are normalized to the
/// nominal host speed (see `reference.rs`); the raw ones are printed.
fn untraced(def: &Def, seconds: f64) -> (bool, SimResult, Metrics) {
    let started = Instant::now();
    // Set-ups are timed back to back before any run, so that what a run
    // leaves in the heap does not change them.
    let (raw_setups, setups): (Vec<f64>, Vec<f64>) = (0..SETUPS)
        .map(|_| {
            let mut samples: Vec<f64> = (0..SETUP_SAMPLES).map(|_| reference::sample()).collect();
            let (built, setup) = set_up(def, false);
            drop(built);
            samples.extend((0..SETUP_SAMPLES).map(|_| reference::sample()));
            (setup, setup / slowdown(&samples))
        })
        .unzip();
    let (mut walls, mut raw_walls) = (Vec::new(), Vec::new());
    let mut first: Option<SimResult> = None;
    let mut failures = Vec::new();
    while walls.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let (built, _) = set_up(def, false);
        let outcome = harness::run(def, built);
        walls.push(outcome.normalized_run_s());
        raw_walls.push(outcome.run_s());
        let sim = sim_result(def, &outcome);
        match &first {
            None => {
                failures = gates(&outcome, &sim);
                print_notes(&outcome);
                first = Some(sim);
            }
            Some(f) if *f != sim => failures.push("a repeat of the same seed diverged".into()),
            Some(_) => {}
        }
    }
    let sim = first.expect("at least one repeat ran");
    summary(def, &sim);
    println!(
        "# run_wall_s raw over {} repeats: {raw_walls:.3?}",
        raw_walls.len()
    );
    println!("# run_wall_s normalized: {walls:.3?}");
    println!(
        "# setup_s over {} set-ups: raw median {:.5}, normalized {setups:.4?}",
        setups.len(),
        median(raw_setups)
    );
    for f in &failures {
        println!("# GATE FAILED: {f}");
    }
    let mut m = Metrics::default();
    m.put("run_wall_s", median(walls), "s");
    m.put("setup_s", median(setups), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m.put("commit_p50_ms", sim.p50_ms, "ms");
    m.put("commit_p99_ms", sim.p99_ms, "ms");
    m.put("commit_tps", sim.tps, "txn/s");
    m.put("commit_ratio", sim.commit_ratio(), "ratio");
    m.put("wan_bytes_per_commit", sim.bytes_per_commit, "bytes");
    (failures.is_empty(), sim, m)
}

/// The layer a handler call belongs to, by role and `Msg` variant.
fn group(index: usize) -> &'static str {
    if index < VARIANTS {
        return "core.tm";
    }
    match variant_name(index - VARIANTS) {
        "Propose" | "StartRecovery" | "CstructPull" => "paxos.fast",
        "P1a" | "P1b" | "P2a" | "P2aNack" | "P2aStale" | "ProposeToMaster" | "ProposeMastered"
        | "Vote" | "VoteDelta" => "paxos.classic",
        "Visibility" | "QueryStatus" | "StatusResp" | "AlreadyResolved" | "DanglingSweep"
        | "RecoveryRetry" | "MissedPull" => "paxos.learn",
        "ReadReq" => "storage.read",
        "SyncReq" | "SyncKey" | "SyncDigestReq" | "SyncDigest" | "SyncRangePull" | "SyncChunk"
        | "SyncSweep" => "storage.sync",
        "CheckpointTick" => "recovery.checkpoint",
        "Mastership" | "MsTick" | "MasterHint" | "RecordHint" => "mastership",
        // Node start-up and TM-bound replies a node ignores.
        _ => "core.node",
    }
}

const GROUPS: [&str; 9] = [
    "core.tm",
    "paxos.fast",
    "paxos.classic",
    "paxos.learn",
    "storage.read",
    "storage.sync",
    "recovery.checkpoint",
    "mastership",
    "core.node",
];

/// One traced run: the outcome, the recording and, per span name, the
/// handler seconds normalized to the nominal host speed.
fn traced_once(def: &Def) -> (Outcome, trace::Recording, Vec<f64>) {
    trace::start();
    let (built, _) = set_up(def, true);
    let outcome = harness::run(def, built);
    let rec = trace::finish();
    let secs = rec.seconds(&outcome.slowdowns());
    (outcome, rec, secs)
}

/// Compares the traced outcome with `run_mdcc` on the same inputs.
fn equivalence(def: &Def, o: &Outcome, sim: &SimResult) -> Vec<String> {
    let mut spec = def.spec.clone();
    if let (Some(f), Some(r)) = (def.failover, o.restart) {
        let shards = spec.shards_per_dc as u32;
        spec.faults = FaultPlan::new().crash_restart(
            DcId((r.node.0 / shards) as u8),
            (r.node.0 % shards) as usize,
            f.crash_at,
            f.down_for,
        );
    }
    let data = def.data();
    let mut factory = def.factory();
    let (report, stats) = run_mdcc(&spec, def.catalog.clone(), &data, &mut *factory, def.mode);
    let mut failures = Vec::new();
    let digests = report
        .audit
        .map(|a| a.committed_digests)
        .unwrap_or_default();
    let theirs = (report.perf.events, stats.committed, stats.aborted, digests);
    let ours = (sim.events, sim.committed, sim.aborted, sim.digests.clone());
    if theirs != ours {
        failures.push(format!(
            "traced run differs from run_mdcc: events/commits/aborts {:?} vs {:?}, digests equal: {}",
            (ours.0, ours.1, ours.2),
            (theirs.0, theirs.1, theirs.2),
            ours.3 == theirs.3
        ));
    }
    failures
}

/// `--trace 1`: the per-layer metrics.
fn traced(def: &Def, seconds: f64) -> (bool, SimResult, Metrics) {
    let started = Instant::now();
    let (outcome, rec, secs) = traced_once(def);
    let sim = sim_result(def, &outcome);
    let mut failures = gates(&outcome, &sim);
    print_notes(&outcome);
    failures.extend(equivalence(def, &outcome, &sim));
    let probes = probes::run(
        &outcome,
        &def.spec.protocol,
        &def.catalog,
        def.spec.durability,
    );
    let spans = PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{}.csv",
        def.name, def.spec.seed
    ));
    if let Err(e) = rec.write(&spans) {
        failures.push(format!("writing {}: {e}", spans.display()));
    }
    // Untraced and traced repeats alternate while time remains (at least
    // one untraced, for the overhead ratio); host times are medians.
    let mut runs = vec![outcome.normalized_run_s()];
    let (mut untraced_runs, mut raw_runs, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let mut secs = vec![secs];
    loop {
        let (built, _) = set_up(def, false);
        let o = harness::run(def, built);
        if sim_result(def, &o) != sim {
            failures.push("the untraced run differs from the traced one".into());
        }
        untraced_runs.push(o.normalized_run_s());
        raw_runs.push(o.run_s());
        slowdowns.push(slowdown(&o.reference_s));
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (o, _, s) = traced_once(def);
        if sim_result(def, &o) != sim {
            failures.push("a traced repeat of the same seed diverged".into());
        }
        runs.push(o.normalized_run_s());
        secs.push(s);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let cell_s = |i: usize| median(secs.iter().map(|v| v[i]).collect());
    let handler_s = median(secs.iter().map(|v| v.iter().sum()).collect());

    summary(def, &sim);
    println!(
        "# traced repeats {}, host slowdown {:.3}, {} spans written to {}; \
         handler times below are normalized to the nominal host speed",
        runs.len(),
        slowdown(&outcome.reference_s),
        rec.span_count(),
        spans.display()
    );
    let mut rows: Vec<(f64, usize)> = (0..2 * VARIANTS)
        .filter(|&i| rec.calls[i] > 0)
        .map(|i| (cell_s(i), i))
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    println!(
        "# {:<28} {:>10} {:>10} {:>12} {:>7}",
        "handler", "calls", "self_s", "us_per_call", "share"
    );
    for (s, i) in rows {
        let role = if i < VARIANTS { "tm" } else { "node" };
        println!(
            "# {:<28} {:>10} {:>10.4} {:>12.2} {:>6.1}%",
            format!("{role}.{}", variant_name(i % VARIANTS)),
            rec.calls[i],
            s,
            s * 1e6 / rec.calls[i] as f64,
            100.0 * s / handler_s.max(1e-12)
        );
    }
    for f in &failures {
        println!("# GATE FAILED: {f}");
    }

    let mut m = Metrics::default();
    let sim_self = median(runs.clone()) - handler_s;
    m.put("sim.events", sim.events as f64, "count");
    m.put("sim.self_s", sim_self, "s");
    m.put(
        "sim.ns_per_event",
        sim_self * 1e9 / sim.events.max(1) as f64,
        "ns",
    );
    m.put("sim.msgs_per_commit", sim.msgs_per_commit, "msgs");
    m.put("sim.coalesce_ratio", sim.coalesce_ratio, "ratio");
    for g in GROUPS {
        let members: Vec<usize> = (0..2 * VARIANTS).filter(|&i| group(i) == g).collect();
        let calls: u64 = members.iter().map(|&i| rec.calls[i]).sum();
        let self_s = median(
            secs.iter()
                .map(|v| members.iter().map(|&i| v[i]).sum())
                .collect(),
        );
        m.put(format!("{g}.self_s"), self_s, "s");
        m.put(format!("{g}.calls"), calls as f64, "count");
        let per_call = if calls == 0 {
            0.0
        } else {
            self_s * 1e6 / calls as f64
        };
        m.put(format!("{g}.us_per_call"), per_call, "us");
    }
    let commits = sim.committed.max(1) as f64;
    let node_calls = |name: &str| {
        (0..VARIANTS)
            .find(|&v| variant_name(v) == name)
            .map_or(0, |v| rec.calls[VARIANTS + v])
    };
    m.put("core.tm.timeouts", outcome.tm.timeouts as f64, "count");
    m.put(
        "paxos.fast_commit_ratio",
        outcome.tm.fast_commits as f64 / commits,
        "ratio",
    );
    m.put(
        "paxos.collisions_per_1k",
        outcome.tm.collisions as f64 * 1e3 / commits,
        "per_1k",
    );
    m.put(
        "paxos.repair_pulls",
        outcome.tm.repair_pulls as f64,
        "count",
    );
    m.put(
        "paxos.phase1_per_commit",
        node_calls("P1a") as f64 / def.spec.dcs as f64 / commits,
        "rounds",
    );
    let pulls = node_calls("SyncRangePull");
    m.put(
        "storage.sync_items_per_pull",
        rec.sync_items as f64 / pulls.max(1) as f64,
        "items",
    );
    m.put("storage.keys_per_node", probes.keys_per_node, "keys");
    m.put("storage.ranges_per_node", probes.ranges_per_node, "ranges");
    m.put("storage.sync_ranges_ms", probes.sync_ranges_ms, "ms");
    m.put("storage.range_digest_us", probes.range_digest_us, "us");
    m.put("storage.range_items_us", probes.range_items_us, "us");
    m.put(
        "storage.divergent_ranges_ms",
        probes.divergent_ranges_ms,
        "ms",
    );
    m.put(
        "recovery.fsyncs_per_commit",
        sim.fsyncs_per_commit,
        "fsyncs",
    );
    m.put(
        "recovery.wal_bytes_per_commit",
        sim.wal_bytes_per_commit,
        "bytes",
    );
    let (replay_ms, replay_records) = outcome.restart.map_or((0.0, 0.0), |r| {
        let ms = r.replay_s * 1e3 / slowdown(&outcome.reference_s);
        (ms, r.info.wal_records_replayed as f64)
    });
    m.put("recovery.replay_ms", replay_ms, "ms");
    m.put("recovery.replay_records", replay_records, "count");
    m.put("recovery.export_ms", probes.export_ms, "ms");
    m.put("recovery.export_bytes", probes.export_bytes, "bytes");
    m.put("recovery.recover_ms", probes.recover_ms, "ms");
    m.put("recovery.recover_records", probes.recover_records, "count");
    let ms = &outcome.mastership;
    m.put("mastership.elections", ms.elections as f64, "count");
    m.put("mastership.handoffs", ms.handoffs as f64, "count");
    m.put(
        "mastership.forward_ratio",
        ms.forwarded as f64 / (ms.served + ms.forwarded).max(1) as f64,
        "ratio",
    );
    m.put(
        "mastership.phase1_skipped",
        ms.phase1_skipped as f64,
        "count",
    );
    m.put(
        "trace.overhead_ratio",
        median(runs) / median(untraced_runs),
        "ratio",
    );
    m.put("run_wall_raw_s", median(raw_runs), "s");
    m.put("host_slowdown", median(slowdowns), "ratio");
    m.put("commit_samples", sim.samples as f64, "count");
    m.put("failed_ratio", sim.failed_ratio(), "ratio");
    m.put("stuck_clients", outcome.stuck_clients as f64, "count");
    m.put("outage_ms", sim.outage_ms, "ms");
    m.put("divergent_keys", sim.divergent_keys as f64, "count");
    (failures.is_empty(), sim, m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(def) = Def::new(&args.workload, args.seed) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let (correct, sim, metrics) = if args.trace {
        traced(&def, args.seconds)
    } else {
        untraced(&def, args.seconds)
    };
    print_result(correct, sim.attempted, sim.failed, &metrics);
}
