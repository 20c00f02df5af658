//! The three benchmark workloads: deployment, data and client factory.
//!
//! Every workload is closed-loop (`MdccClient` issues its next
//! transaction only after the previous one finished). The workload seed
//! picks the simulator seed and the initial data; sizes are fixed here so
//! that two revisions of the program always run identical inputs.

use std::sync::Arc;

use mdcc_bench::{micro_catalog, micro_factory, tpcw_catalog, tpcw_data, tpcw_factory};
use mdcc_cluster::build::WorkloadFactory;
use mdcc_cluster::{ClusterSpec, MdccMode, NetKind};
use mdcc_common::{DcId, Key, MastershipConfig, Placement as _, Row, SimDuration, StaticPlacement};
use mdcc_storage::Catalog;
use mdcc_workloads::micro::{initial_items, item_key, MicroConfig, STOCK};
use mdcc_workloads::{ShiftingConfig, ShiftingLocalityWorkload, Workload};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["tpcw", "micro-commutative", "mastered-failover"];

/// A storage-node crash followed by a restart from checkpoint + WAL.
#[derive(Debug, Clone, Copy)]
pub struct Failover {
    /// Offset from the start of the run at which a lease holder crashes.
    pub crash_at: SimDuration,
    /// How long the node stays down.
    pub down_for: SimDuration,
}

/// One fully specified workload.
pub struct Def {
    /// Workload name.
    pub name: &'static str,
    /// Cluster deployment (seed, sizes, network, protocol knobs).
    pub spec: ClusterSpec,
    /// Protocol variant.
    pub mode: MdccMode,
    /// Table schemas.
    pub catalog: Arc<Catalog>,
    /// Items in the item table.
    items: u64,
    /// Mid-window fault, if the workload has one.
    pub failover: Option<Failover>,
}

impl Def {
    /// Looks a workload up by name.
    pub fn new(name: &str, seed: u64) -> Option<Def> {
        let base = ClusterSpec {
            seed,
            warmup: SimDuration::from_secs(10),
            ..ClusterSpec::default()
        };
        let def = match name {
            // TPC-W mix as in Figure 3, on the five EC2 regions.
            "tpcw" => Def {
                name: NAMES[0],
                spec: ClusterSpec {
                    clients: 30,
                    shards_per_dc: 1,
                    duration: SimDuration::from_secs(30),
                    drain: SimDuration::from_secs(10),
                    ..base
                },
                mode: MdccMode::Full,
                catalog: tpcw_catalog(),
                items: 2_500,
                failover: None,
            },
            // The buy micro-benchmark of Figure 5 with commutative
            // stock deltas under `stock >= 0`.
            "micro-commutative" => Def {
                name: NAMES[1],
                spec: ClusterSpec {
                    clients: 50,
                    shards_per_dc: 2,
                    duration: SimDuration::from_secs(60),
                    drain: SimDuration::from_secs(5),
                    ..base
                },
                mode: MdccMode::Full,
                catalog: micro_catalog(),
                items: 5_000,
                failover: None,
            },
            // Figure 11's shifting locality in Multi mode with dynamic
            // mastership, durable with a 1 ms group-committed fsync, and
            // a lease holder crashed mid-window.
            "mastered-failover" => {
                let mut spec = ClusterSpec {
                    clients: 50,
                    shards_per_dc: 5,
                    net: NetKind::Uniform { rtt_ms: 100.0 },
                    duration: SimDuration::from_secs(30),
                    drain: SimDuration::from_secs(6),
                    durability: true,
                    wal_fsync: SimDuration::from_millis(1),
                    ..base
                };
                spec.protocol.mastership = MastershipConfig::enabled();
                Def {
                    name: NAMES[2],
                    spec,
                    mode: MdccMode::Multi,
                    catalog: micro_catalog(),
                    items: 2_000,
                    failover: Some(Failover {
                        crash_at: SimDuration::from_secs(25),
                        down_for: SimDuration::from_secs(5),
                    }),
                }
            }
            _ => return None,
        };
        Some(def)
    }

    /// Initial rows, drawn from the workload seed.
    pub fn data(&self) -> Vec<(Key, Row)> {
        match self.name {
            "tpcw" => tpcw_data(self.items, self.spec.seed),
            "micro-commutative" => initial_items(self.items, self.spec.seed),
            // Effectively infinite stock: the workload measures routing
            // and failover, so demarcation never decides an outcome.
            _ => (0..self.items)
                .map(|i| (item_key(i), Row::new().with(STOCK, 1_000_000)))
                .collect(),
        }
    }

    /// A fresh per-client workload factory.
    pub fn factory(&self) -> Box<WorkloadFactory<'static>> {
        let items = self.items;
        match self.name {
            "tpcw" => Box::new(tpcw_factory(items, true)),
            "micro-commutative" => Box::new(micro_factory(
                MicroConfig {
                    items,
                    commutative: true,
                    ..MicroConfig::default()
                },
                None,
            )),
            _ => Box::new(shifting_factory(items, SimDuration::from_secs(4))),
        }
    }
}

/// Each data center's clients buy from one shard, rotating to the next
/// shard every `phase_len` (Figure 11's shifting locality).
fn shifting_factory(
    items: u64,
    phase_len: SimDuration,
) -> impl FnMut(usize, DcId, &Arc<StaticPlacement>) -> Box<dyn Workload> {
    move |_client, dc, placement| {
        let p = Arc::clone(placement);
        let shards = p.shard_count();
        Box::new(ShiftingLocalityWorkload::new(ShiftingConfig {
            items,
            items_per_txn: 3,
            max_decrement: 3,
            commutative: true,
            my_dc: dc.0,
            shard_of: Arc::new(move |key: &Key| p.shard_id(key)),
            shards,
            phase_len,
        }))
    }
}
