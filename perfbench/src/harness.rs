//! The benchmark's own assembly of `run_mdcc`'s world.
//!
//! `mdcc_cluster::run_mdcc` builds, runs and reduces a world in one call,
//! so it can neither report set-up apart from the run nor let the
//! benchmark wrap processes. This module rebuilds the same world step by
//! step from the harness's public parts, with set-up and run timed apart
//! and, in a traced run, every process wrapped in [`Timed`]. The traced
//! run checks its outcome against `run_mdcc` (see `main.rs`), so the copy
//! cannot drift from the original unnoticed.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mdcc_cluster::clients::MdccClient;
use mdcc_cluster::{ClientPlacement, ClusterSpec, MdccMode, NetKind, TxnRecord};
use mdcc_common::{
    DcId, Key, NodeId, Placement, Row, SimDuration, SimTime, StaticPlacement, Version,
};
use mdcc_core::{Msg, StorageNodeProcess, TmConfig, TransactionManager, TxnStats};
use mdcc_mastership::{LeaseAudit, LeaseSpan, MastershipStats};
use mdcc_recovery::RecoveryInfo;
use mdcc_sim::{presets, NetworkModel, Process, World, WorldConfig};

use mdcc_workloads::micro::STOCK;

use crate::reference;
use crate::trace::{self, Role, Timed};
use crate::workloads::Def;

/// A world ready to run: built, loaded and (when durable) checkpointed.
pub struct Built {
    world: World<Msg>,
    matrix: Vec<Vec<NodeId>>,
    placement: Arc<StaticPlacement>,
    clients: Vec<NodeId>,
    lease_audit: Option<LeaseAudit>,
    traced: bool,
}

/// The storage-node restart of a failover run.
#[derive(Debug, Clone, Copy)]
pub struct Restart {
    /// The crashed lease holder.
    pub node: NodeId,
    /// Sim time of the crash.
    pub crashed_at: SimTime,
    /// What the replay restored.
    pub info: RecoveryInfo,
    /// Host seconds in `recover_store` + `recovered_leases`.
    pub replay_s: f64,
}

impl Outcome {
    /// Raw host seconds of the run.
    pub fn run_s(&self) -> f64 {
        self.slice_s.iter().sum()
    }

    /// The host's slowdown against nominal speed around each slice.
    pub fn slowdowns(&self) -> Vec<f64> {
        reference::local_slowdowns(&self.reference_s)
    }

    /// Host seconds of the run at nominal host speed.
    pub fn normalized_run_s(&self) -> f64 {
        self.slice_s
            .iter()
            .zip(self.slowdowns())
            .map(|(s, f)| s / f)
            .sum()
    }
}

/// Everything a finished run leaves behind.
pub struct Outcome {
    /// The world after the drain (kept for end-of-run probes).
    pub world: World<Msg>,
    /// Storage-node ids, `[dc][shard]`.
    pub matrix: Vec<Vec<NodeId>>,
    /// Every client's finished transactions, one vector per client.
    pub records: Vec<Vec<TxnRecord>>,
    /// Summed TM counters.
    pub tm: TxnStats,
    /// Unresolved commit attempts left at live clients.
    pub stuck_clients: usize,
    /// Each client with an unresolved commit, and when it last finished
    /// a transaction.
    pub stuck: Vec<(NodeId, SimTime)>,
    /// Mastership counters the benchmark reports, summed over nodes.
    pub mastership: MastershipStats,
    /// Every lease tenure (empty without dynamic mastership).
    pub lease_spans: Vec<LeaseSpan>,
    /// The failover restart, if the workload has one.
    pub restart: Option<Restart>,
    /// Host seconds of each run slice, first event to end of drain.
    pub slice_s: Vec<f64>,
    /// Host-speed reference sample taken after each slice, seconds.
    pub reference_s: Vec<f64>,
}

fn network(spec: &ClusterSpec) -> NetworkModel {
    let model = match spec.net {
        NetKind::Ec2Five => presets::ec2_five_dc(),
        NetKind::Uniform { rtt_ms } => NetworkModel::uniform(spec.dcs as usize, rtt_ms, 1.0),
    };
    let model = match spec.inter_dc_bandwidth {
        Some(bytes_per_sec) => model.with_inter_dc_bandwidth(bytes_per_sec),
        None => model,
    };
    model
        .with_jitter(spec.jitter)
        .with_drop_prob(spec.drop_prob)
}

fn spawn<P: Process<Msg>>(
    world: &mut World<Msg>,
    dc: DcId,
    p: P,
    role: Role,
    traced: bool,
) -> NodeId {
    if traced {
        world.spawn(dc, Box::new(Timed::new(p, role)))
    } else {
        world.spawn(dc, Box::new(p))
    }
}

/// A storage node, wrapped or not.
pub fn node(world: &World<Msg>, id: NodeId) -> &StorageNodeProcess {
    world
        .get::<StorageNodeProcess>(id)
        .or_else(|| world.get::<Timed<StorageNodeProcess>>(id).map(|t| &t.inner))
        .expect("storage node")
}

fn node_mut(world: &mut World<Msg>, id: NodeId) -> &mut StorageNodeProcess {
    if world.get::<StorageNodeProcess>(id).is_some() {
        return world
            .get_mut::<StorageNodeProcess>(id)
            .expect("storage node");
    }
    &mut world
        .get_mut::<Timed<StorageNodeProcess>>(id)
        .expect("storage node")
        .inner
}

fn client(world: &World<Msg>, id: NodeId) -> &MdccClient {
    world
        .get::<MdccClient>(id)
        .or_else(|| world.get::<Timed<MdccClient>>(id).map(|t| &t.inner))
        .expect("client")
}

/// Set-up: world build, initial replica load and, when durable, the
/// initial checkpoint install. Mirrors `run_mdcc` step for step.
pub fn build(def: &Def, data: &[(Key, Row)], traced: bool) -> Built {
    let spec = &def.spec;
    let mut world: World<Msg> = World::new(
        network(spec),
        WorldConfig {
            seed: spec.seed,
            service_time: spec.service_time,
            service_ns_per_byte: spec.service_ns_per_byte,
            coalesce: spec.protocol.coalesce,
            coalesce_window: spec.protocol.coalesce_window,
            fsync_latency: spec.wal_fsync,
            group_commit: spec.protocol.group_commit,
            group_commit_window: spec.protocol.group_commit_window,
            group_commit_bytes: spec.protocol.group_commit_bytes,
            parallel: false,
        },
    );
    let matrix: Vec<Vec<NodeId>> = (0..spec.dcs as u32)
        .map(|dc| {
            (0..spec.shards_per_dc as u32)
                .map(|s| NodeId(dc * spec.shards_per_dc as u32 + s))
                .collect()
        })
        .collect();
    let placement = StaticPlacement::new(matrix.clone(), spec.master_policy);
    let allow_fast = !matches!(def.mode, MdccMode::Multi);
    let lease_audit = spec.protocol.mastership.enabled.then(LeaseAudit::new);
    for dc in 0..spec.dcs {
        for &expected in &matrix[dc as usize] {
            let store =
                mdcc_storage::RecordStore::new(spec.protocol.clone(), Arc::clone(&def.catalog));
            let mut n = StorageNodeProcess::new(
                spec.protocol.clone(),
                store,
                placement.clone() as Arc<dyn Placement>,
                allow_fast,
            );
            if spec.durability {
                n.enable_durability();
            }
            if let Some(audit) = &lease_audit {
                n.set_lease_audit(audit.clone());
            }
            let id = spawn(&mut world, DcId(dc), n, Role::Node, traced);
            assert_eq!(id, expected);
        }
    }
    for (key, row) in data {
        let shard = placement.shard_of(key);
        for dc_nodes in &matrix {
            node_mut(&mut world, dc_nodes[shard])
                .store_mut()
                .load(key.clone(), row.clone());
        }
    }
    if spec.durability {
        for &n in matrix.iter().flatten() {
            let state = node(&world, n).store().export_state();
            world
                .disk_mut(n)
                .install_snapshot(mdcc_recovery::to_bytes(&state));
        }
    }
    let stop_issuing_at =
        (spec.drain > SimDuration::ZERO).then_some(SimTime::ZERO + spec.warmup + spec.duration);
    let mut factory = def.factory();
    let mut clients = Vec::with_capacity(spec.clients);
    for i in 0..spec.clients {
        let dc = match spec.client_placement {
            ClientPlacement::Even => DcId((i % spec.dcs as usize) as u8),
            ClientPlacement::AllIn(dc) => dc,
        };
        let tm = TransactionManager::new(
            TmConfig {
                protocol: spec.protocol.clone(),
                my_dc: dc,
                assume_classic: matches!(def.mode, MdccMode::Multi),
            },
            placement.clone() as Arc<dyn Placement>,
        );
        let mut c = MdccClient::new(tm, factory(i, dc, &placement));
        if let Some(stop) = stop_issuing_at {
            c.stop_issuing_at(stop);
        }
        clients.push(spawn(&mut world, dc, c, Role::Client, traced));
    }
    Built {
        world,
        matrix,
        placement,
        clients,
        lease_audit,
        traced,
    }
}

/// The storage node to crash at `now`: the holder of the lowest-numbered
/// shard whose lease is live at that instant.
fn lease_holder_at(audit: &LeaseAudit, now: SimTime) -> NodeId {
    audit
        .spans()
        .into_iter()
        .find(|s| s.from <= now && now < s.until)
        .map(|s| s.node)
        .expect("some shard has a live lease at the crash instant")
}

/// Sim time per run slice; the host-speed reference runs after each.
const SLICE: SimDuration = SimDuration::from_millis(500);

/// Host time of a run, split into slices with a host-speed reference
/// sample after each.
#[derive(Default)]
struct Clock {
    slice_s: Vec<f64>,
    reference_s: Vec<f64>,
}

impl Clock {
    /// Runs `world` to `until` slice by slice (each a parent span when
    /// tracing), timing each slice and sampling the reference after it.
    fn advance(&mut self, world: &mut World<Msg>, until: SimTime, traced: bool) {
        while world.now() < until {
            let next = (world.now() + SLICE).min(until);
            self.slice_s.push(if traced {
                trace::slice(|| world.run_until(next))
            } else {
                let t = Instant::now();
                world.run_until(next);
                t.elapsed().as_secs_f64()
            });
            self.reference_s.push(reference::sample());
        }
    }
}

/// Runs a built world through warm-up, window, the failover (if any) and
/// the drain, then harvests it.
pub fn run(def: &Def, b: Built) -> Outcome {
    let Built {
        mut world,
        matrix,
        placement,
        clients,
        lease_audit,
        traced,
    } = b;
    let spec = &def.spec;
    let end = SimTime::ZERO + spec.warmup + spec.duration + spec.drain;
    let mut clock = Clock::default();
    let mut restart = None;
    if let Some(f) = def.failover {
        let crash_at = SimTime::ZERO + f.crash_at;
        clock.advance(&mut world, crash_at, traced);
        let victim = lease_holder_at(lease_audit.as_ref().expect("mastership on"), world.now());
        world.crash_node(victim);
        let crashed_at = world.now();
        clock.advance(&mut world, crash_at + f.down_for, traced);
        let t0 = Instant::now();
        let (store, info) = mdcc_recovery::recover_store(
            spec.protocol.clone(),
            Arc::clone(&def.catalog),
            world.disk(victim),
        )
        .expect("the simulated disk is never torn");
        let leases = mdcc_recovery::recovered_leases(world.disk(victim))
            .expect("the simulated disk is never torn");
        let replay_s = t0.elapsed().as_secs_f64();
        let mut p = StorageNodeProcess::from_recovery(
            spec.protocol.clone(),
            store,
            placement.clone() as Arc<dyn Placement>,
            !matches!(def.mode, MdccMode::Multi),
            info,
        );
        if let Some(audit) = &lease_audit {
            p.set_lease_audit(audit.clone());
        }
        p.install_recovered_leases(leases);
        if traced {
            world.restart_node(victim, Box::new(Timed::new(p, Role::Node)));
        } else {
            world.restart_node(victim, Box::new(p));
        }
        restart = Some(Restart {
            node: victim,
            crashed_at,
            info,
            replay_s,
        });
    }
    clock.advance(&mut world, end, traced);

    let mut records = Vec::with_capacity(clients.len());
    let mut tm = TxnStats::default();
    let mut stuck_clients = 0;
    let mut stuck = Vec::new();
    for &id in &clients {
        let c = client(&world, id);
        records.push(c.records.clone());
        let s = c.tm_stats();
        tm.committed += s.committed;
        tm.aborted += s.aborted;
        tm.fast_commits += s.fast_commits;
        tm.collisions += s.collisions;
        tm.timeouts += s.timeouts;
        tm.classic_redirects += s.classic_redirects;
        tm.repair_pulls += s.repair_pulls;
        stuck_clients += c.in_flight();
        if c.in_flight() > 0 {
            let idle_since = c.records.last().map_or(SimTime::ZERO, |r| r.finished);
            stuck.push((id, idle_since));
        }
    }
    let mut mastership = MastershipStats::default();
    for &n in matrix.iter().flatten() {
        if let Some(m) = node(&world, n).mastership_stats() {
            mastership.elections += m.elections;
            mastership.handoffs += m.handoffs;
            mastership.served += m.served;
            mastership.forwarded += m.forwarded;
            mastership.phase1_skipped += m.phase1_skipped;
        }
    }
    Outcome {
        world,
        matrix,
        records,
        tm,
        stuck_clients,
        stuck,
        mastership,
        lease_spans: lease_audit.map(|a| a.spans()).unwrap_or_default(),
        restart,
        slice_s: clock.slice_s,
        reference_s: clock.reference_s,
    }
}

/// Per-node committed-state digests, dense node order (the digest
/// `run_mdcc`'s audit reports).
pub fn committed_digests(o: &Outcome) -> Vec<u64> {
    o.matrix
        .iter()
        .flatten()
        .map(|&n| {
            mdcc_recovery::committed_state_digest(&node(&o.world, n).store().committed_state())
        })
        .collect()
}

/// One replica's committed `(version, value)` of a key; `None` when the
/// replica does not hold the key.
pub type ReplicaState = Option<(Version, Option<Row>)>;

/// Keys whose committed `(version, value)` is not the same on every
/// replica of their shard (a key missing on some replica counts), with
/// each replica's state in data-center order.
pub fn divergence(o: &Outcome) -> Vec<(Key, Vec<ReplicaState>)> {
    let replicas = o.matrix.len();
    let mut divergent = Vec::new();
    for shard in 0..o.matrix[0].len() {
        let mut states: BTreeMap<Key, Vec<ReplicaState>> = BTreeMap::new();
        for (dc, dc_nodes) in o.matrix.iter().enumerate() {
            for (key, version, value) in node(&o.world, dc_nodes[shard]).store().committed_state() {
                states.entry(key).or_insert_with(|| vec![None; replicas])[dc] =
                    Some((version, value));
            }
        }
        divergent.extend(
            states
                .into_iter()
                .filter(|(_, s)| s.iter().any(|x| x.is_none() || *x != s[0])),
        );
    }
    divergent
}

/// Gate failures after the drain: negative stock, pending options,
/// clients with a commit still unresolved, overlapping lease tenures.
pub fn gate_failures(o: &Outcome) -> Vec<String> {
    let mut failures = Vec::new();
    if o.stuck_clients > 0 {
        let clients: Vec<String> = o
            .stuck
            .iter()
            .map(|(id, since)| format!("{id} idle since {:.3} s", since.as_secs_f64()))
            .collect();
        failures.push(format!(
            "{} client commits still unresolved after the drain ({})",
            o.stuck_clients,
            clients.join(", ")
        ));
    }
    let mut pending = 0usize;
    let mut min_stock = i64::MAX;
    for &n in o.matrix.iter().flatten() {
        let store = node(&o.world, n).store();
        pending += store.pending_len();
        for (_, _, value) in store.committed_state() {
            if let Some(stock) = value.as_ref().and_then(|row| row.get_int(STOCK)) {
                min_stock = min_stock.min(stock);
            }
        }
    }
    if min_stock < 0 {
        failures.push(format!("stock below zero: {min_stock}"));
    }
    if pending > 0 {
        failures.push(format!("{pending} options still pending after the drain"));
    }
    for (i, a) in o.lease_spans.iter().enumerate() {
        for b in &o.lease_spans[i + 1..] {
            if a.shard == b.shard && a.node != b.node && a.from < b.until && b.from < a.until {
                failures.push(format!(
                    "shard {} leased to {:?} and {:?} at once",
                    a.shard, a.node, b.node
                ));
            }
        }
    }
    failures
}
