//! Host-time tracing from outside the program.
//!
//! [`Timed`] decorates any `Process<Msg>`: it times each `on_start`,
//! `on_message` and `on_timer` call of the wrapped process and records one
//! span per call, named `<role>.<Msg variant>`. The world runs on one
//! thread (sequential engine), so spans go to a thread-local [`Recorder`].
//! The harness opens one parent slice per `World::run_until` call; a
//! handler span's parent is the slice it ran in.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use mdcc_common::{NodeId, TxnId};
use mdcc_core::Msg;
use mdcc_sim::{Ctx, Process};

/// Which side of the `core` boundary a process sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// An app server: `MdccClient` with its transaction manager.
    Client,
    /// A storage node: acceptors, leaders, storage, WAL, mastership.
    Node,
}

/// Number of distinct span names per role: every `Msg` variant plus
/// `Start` (the `on_start` call).
pub const VARIANTS: usize = 41;

/// Index of a message's variant in [`variant_name`]'s table. The match is exhaustive, so a
/// new `Msg` variant does not compile until it is named here.
pub fn variant(msg: &Msg) -> usize {
    match msg {
        Msg::Propose(_) => 1,
        Msg::ProposeToMaster(_) => 2,
        Msg::Visibility { .. } => 3,
        Msg::StartRecovery { .. } => 4,
        Msg::Vote { .. } => 5,
        Msg::VoteDelta { .. } => 6,
        Msg::CstructPull { .. } => 7,
        Msg::CstructFull { .. } => 8,
        Msg::NotFast { .. } => 9,
        Msg::InstanceFull { .. } => 10,
        Msg::AlreadyResolved { .. } => 11,
        Msg::GoFast { .. } => 12,
        Msg::P1a { .. } => 13,
        Msg::P1b { .. } => 14,
        Msg::P2a { .. } => 15,
        Msg::P2aNack { .. } => 16,
        Msg::P2aStale { .. } => 17,
        Msg::ReadReq { .. } => 18,
        Msg::ReadResp { .. } => 19,
        Msg::QueryStatus { .. } => 20,
        Msg::StatusResp { .. } => 21,
        Msg::SyncReq => 22,
        Msg::SyncKey { .. } => 23,
        Msg::SyncDigestReq => 24,
        Msg::SyncDigest { .. } => 25,
        Msg::SyncRangePull { .. } => 26,
        Msg::SyncChunk { .. } => 27,
        Msg::LearnTimeout { .. } => 28,
        Msg::ReadRetry { .. } => 29,
        Msg::DanglingSweep => 30,
        Msg::RecoveryRetry { .. } => 31,
        Msg::MissedPull { .. } => 32,
        Msg::CheckpointTick => 33,
        Msg::SyncSweep => 34,
        Msg::ClientTick => 35,
        Msg::Mastership(_) => 36,
        Msg::ProposeMastered { .. } => 37,
        Msg::MasterHint { .. } => 38,
        Msg::MsTick => 39,
        Msg::RecordHint { .. } => 40,
    }
}

/// Name of variant index `i` (index 0 is `Start`).
pub fn variant_name(i: usize) -> &'static str {
    const NAMES: [&str; VARIANTS] = [
        "Start",
        "Propose",
        "ProposeToMaster",
        "Visibility",
        "StartRecovery",
        "Vote",
        "VoteDelta",
        "CstructPull",
        "CstructFull",
        "NotFast",
        "InstanceFull",
        "AlreadyResolved",
        "GoFast",
        "P1a",
        "P1b",
        "P2a",
        "P2aNack",
        "P2aStale",
        "ReadReq",
        "ReadResp",
        "QueryStatus",
        "StatusResp",
        "SyncReq",
        "SyncKey",
        "SyncDigestReq",
        "SyncDigest",
        "SyncRangePull",
        "SyncChunk",
        "LearnTimeout",
        "ReadRetry",
        "DanglingSweep",
        "RecoveryRetry",
        "MissedPull",
        "CheckpointTick",
        "SyncSweep",
        "ClientTick",
        "Mastership",
        "ProposeMastered",
        "MasterHint",
        "MsTick",
        "RecordHint",
    ];
    NAMES[i]
}

/// The transaction a message concerns, when it names one.
fn txn_of(msg: &Msg) -> Option<TxnId> {
    match msg {
        Msg::Propose(opt) | Msg::ProposeToMaster(opt) => Some(opt.txn),
        Msg::ProposeMastered { opt, .. }
        | Msg::NotFast { opt, .. }
        | Msg::InstanceFull { opt, .. }
        | Msg::GoFast { opt, .. } => Some(opt.txn),
        Msg::Visibility { txn, .. }
        | Msg::AlreadyResolved { txn, .. }
        | Msg::QueryStatus { txn, .. }
        | Msg::StatusResp { txn, .. }
        | Msg::LearnTimeout { txn }
        | Msg::RecoveryRetry { txn }
        | Msg::MissedPull { txn, .. } => Some(*txn),
        _ => None,
    }
}

/// One handler call.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// `role * VARIANTS + variant`.
    name: u16,
    /// Index of the parent `run_until` slice.
    parent: u32,
    /// Host nanoseconds since the recorder started.
    start: u64,
    end: u64,
    /// `(coordinator << 40) | seq` of the transaction, or `u64::MAX`.
    txn: u64,
}

/// One `World::run_until` call.
#[derive(Debug, Clone, Copy)]
struct Slice {
    start: u64,
    end: u64,
}

/// The thread's span collector.
struct Recorder {
    base: Instant,
    spans: Vec<Span>,
    slices: Vec<Slice>,
    calls: [u64; 2 * VARIANTS],
    /// Sync items delivered to nodes in `SyncChunk` messages.
    sync_items: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            base: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            slices: Vec::new(),
            calls: [0; 2 * VARIANTS],
            sync_items: 0,
        });
    });
}

fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    RECORDER.with(|r| f(r.borrow_mut().as_mut().expect("trace::start ran")))
}

fn nanos(base: Instant, t: Instant) -> u64 {
    t.duration_since(base).as_nanos() as u64
}

/// Runs `f` as one parent slice (a `run_until` call) and returns its
/// host duration in seconds.
pub fn slice(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    let end = Instant::now();
    with(|r| {
        let s = Slice {
            start: nanos(r.base, start),
            end: nanos(r.base, end),
        };
        r.slices.push(s);
    });
    (end - start).as_secs_f64()
}

/// The finished recording: per-name call counts plus the raw spans.
pub struct Recording {
    /// Handler calls per name, indexed by `role * VARIANTS + variant`.
    pub calls: [u64; 2 * VARIANTS],
    /// Sync items delivered in `SyncChunk` messages.
    pub sync_items: u64,
    spans: Vec<Span>,
    slices: Vec<Slice>,
}

impl Recording {
    /// Handler calls recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Host seconds inside the handlers per name, each span divided by
    /// the host slowdown of its parent slice.
    pub fn seconds(&self, slowdowns: &[f64]) -> Vec<f64> {
        let mut secs = vec![0.0; 2 * VARIANTS];
        for s in &self.spans {
            secs[s.name as usize] += (s.end - s.start) as f64 / 1e9 / slowdowns[s.parent as usize];
        }
        secs
    }

    /// Writes the recording to `path` as CSV with the columns
    /// `kind,name,parent,start_ns,end_ns,txn`: one `slice,run_until,<i>`
    /// line per parent slice `i`, then one `span,<role>.<variant>,<i>`
    /// line per handler call in slice `i`. Times are raw host nanoseconds
    /// since recording started; `txn` is `coordinator:seq`, empty when
    /// the message names no transaction.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind,name,parent,start_ns,end_ns,txn")?;
        for (i, s) in self.slices.iter().enumerate() {
            writeln!(out, "slice,run_until,{i},{},{},", s.start, s.end)?;
        }
        for s in &self.spans {
            let i = s.name as usize;
            let role = if i < VARIANTS { "tm" } else { "node" };
            write!(
                out,
                "span,{role}.{},{},{},{},",
                variant_name(i % VARIANTS),
                s.parent,
                s.start,
                s.end
            )?;
            if s.txn != u64::MAX {
                write!(out, "{}:{}", s.txn >> 40, s.txn & ((1 << 40) - 1))?;
            }
            writeln!(out)?;
        }
        out.flush()
    }
}

/// Stops recording and hands back what was recorded.
pub fn finish() -> Recording {
    let r = RECORDER
        .with(|r| r.borrow_mut().take())
        .expect("trace::start ran");
    Recording {
        calls: r.calls,
        sync_items: r.sync_items,
        spans: r.spans,
        slices: r.slices,
    }
}

/// A process whose handler calls are timed into the thread's recorder.
pub struct Timed<P> {
    /// The wrapped process.
    pub inner: P,
    role: Role,
}

impl<P> Timed<P> {
    /// Wraps `inner`, attributing its calls to `role`.
    pub fn new(inner: P, role: Role) -> Self {
        Self { inner, role }
    }

    fn record(&self, variant: usize, txn: Option<TxnId>, t0: Instant, t1: Instant) {
        let name = match self.role {
            Role::Client => variant,
            Role::Node => VARIANTS + variant,
        };
        with(|r| {
            let span = Span {
                name: name as u16,
                parent: r.slices.len() as u32,
                start: nanos(r.base, t0),
                end: nanos(r.base, t1),
                txn: txn.map_or(u64::MAX, |t| ((t.coordinator.0 as u64) << 40) | t.seq),
            };
            r.calls[name] += 1;
            r.spans.push(span);
        });
    }
}

impl<P: Process<Msg>> Process<Msg> for Timed<P> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        let t1 = Instant::now();
        self.record(0, None, t0, t1);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let v = variant(&msg);
        let txn = txn_of(&msg);
        if let (Role::Node, Msg::SyncChunk { items }) = (self.role, &msg) {
            let n = items.len() as u64;
            with(|r| r.sync_items += n);
        }
        let t0 = Instant::now();
        self.inner.on_message(from, msg, ctx);
        let t1 = Instant::now();
        self.record(v, txn, t0, t1);
    }

    fn on_timer(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let v = variant(&msg);
        let txn = txn_of(&msg);
        let t0 = Instant::now();
        self.inner.on_timer(msg, ctx);
        let t1 = Instant::now();
        self.record(v, txn, t0, t1);
    }
}
