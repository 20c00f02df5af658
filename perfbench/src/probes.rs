//! End-of-run probes: public storage and recovery functions timed
//! directly on each node's final state.

use std::hint::black_box;
use std::time::Instant;

use mdcc_common::ProtocolConfig;
use mdcc_storage::Catalog;

use crate::harness::{node, Outcome};

/// Ranges per probed node on which the per-range functions are timed
/// (evenly spaced over the node's range list).
const RANGE_SAMPLE: usize = 64;

/// Probe timings and the size of the state they ran on.
#[derive(Debug, Default)]
pub struct Probes {
    /// Mean keys per storage node.
    pub keys_per_node: f64,
    /// Mean `sync_ranges` time per probed node, ms.
    pub sync_ranges_ms: f64,
    /// Mean `sync_digest_in` time per range, µs.
    pub range_digest_us: f64,
    /// Mean `sync_items_in` time per range, µs.
    pub range_items_us: f64,
    /// Mean `divergent_ranges` time per probed node, ms.
    pub divergent_ranges_ms: f64,
    /// Ranges per probed node.
    pub ranges_per_node: f64,
    /// Mean `export_state` + `to_bytes` time per node, ms.
    pub export_ms: f64,
    /// Mean checkpoint bytes per node.
    pub export_bytes: f64,
    /// Mean `recover_store` time per durable node, ms (0 without
    /// durability).
    pub recover_ms: f64,
    /// Mean WAL records replayed per durable node.
    pub recover_records: f64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs every probe. The range functions run on the first data center's
/// replica of each shard, compared against the second data center's;
/// export and recovery run on every node. Times are normalized to the
/// nominal host speed with reference samples taken right after.
pub fn run(
    o: &Outcome,
    cfg: &ProtocolConfig,
    catalog: &std::sync::Arc<Catalog>,
    durable: bool,
) -> Probes {
    let mut p = Probes::default();
    let nodes: Vec<_> = o.matrix.iter().flatten().copied().collect();
    let shards = o.matrix[0].len();
    let (mut digests, mut items) = (0usize, 0usize);
    for shard in 0..shards {
        let store = node(&o.world, o.matrix[0][shard]).store();
        let peer = node(&o.world, o.matrix[1][shard]).store();
        let t = Instant::now();
        let ranges = black_box(store.sync_ranges(cfg.sync_chunk_keys));
        p.sync_ranges_ms += ms(t);
        p.ranges_per_node += ranges.len() as f64;
        let step = ranges.len().div_ceil(RANGE_SAMPLE).max(1);
        for r in ranges.iter().step_by(step) {
            let t = Instant::now();
            black_box(store.sync_digest_in(&r.lo, &r.hi));
            p.range_digest_us += ms(t) * 1e3;
            digests += 1;
            let t = Instant::now();
            black_box(store.sync_items_in(&r.lo, &r.hi));
            p.range_items_us += ms(t) * 1e3;
            items += 1;
        }
        let t = Instant::now();
        black_box(peer.divergent_ranges(&ranges));
        p.divergent_ranges_ms += ms(t);
    }
    p.sync_ranges_ms /= shards as f64;
    p.ranges_per_node /= shards as f64;
    p.divergent_ranges_ms /= shards as f64;
    p.range_digest_us /= digests.max(1) as f64;
    p.range_items_us /= items.max(1) as f64;
    for &n in &nodes {
        let store = node(&o.world, n).store();
        p.keys_per_node += store.len() as f64;
        let t = Instant::now();
        let bytes = black_box(mdcc_recovery::to_bytes(&store.export_state()));
        p.export_ms += ms(t);
        p.export_bytes += bytes.len() as f64;
        if durable {
            let t = Instant::now();
            let (recovered, info) = mdcc_recovery::recover_store(
                cfg.clone(),
                std::sync::Arc::clone(catalog),
                o.world.disk(n),
            )
            .expect("the simulated disk is never torn");
            p.recover_ms += ms(t);
            black_box(recovered);
            p.recover_records += info.wal_records_replayed as f64;
        }
    }
    let count = nodes.len() as f64;
    p.keys_per_node /= count;
    p.export_bytes /= count;
    p.recover_records /= count;
    let slow = crate::reference::slowdown_now(8);
    p.export_ms /= count * slow;
    p.recover_ms /= count * slow;
    p.sync_ranges_ms /= slow;
    p.range_digest_us /= slow;
    p.range_items_us /= slow;
    p.divergent_ranges_ms /= slow;
    p
}
