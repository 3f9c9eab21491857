//! In-memory span recording for the traced run, and the analysis that turns
//! spans into per-layer numbers.
//!
//! A span is recorded at each layer boundary the benchmark can reach from
//! outside the program (see `wrap.rs`).  Spans go to per-thread buffers and
//! are read out when the run ends.  A span's parent is the enclosing span on
//! the same thread when the call is synchronous; otherwise it is found by
//! matching keys with time containment:
//!
//! * a server handler span (worker thread) matches the client RPC span with
//!   the same (port, op code, capability object) whose interval contains it;
//! * a replica-disk span (replica worker thread) matches the quorum-level
//!   block span of the same access class and block number that was running
//!   when the disk call started — a straggler may finish after the quorum
//!   acknowledged.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::stats::{covered, self_time};

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// One client operation of the workload (the root of a tree).
    Op,
    /// A call into the `FileStore` under `ClientCache` / `NamedStore`.
    Store,
    /// A transaction through the `Transport` under `RemoteFs`.
    Rpc,
    /// A server `RequestHandler` call.
    Handle,
    /// A settling commit waiting for a lease holder's break ack.
    Settle,
    /// A call into the replicated block store under `BlockServer`.
    Block,
    /// A call into one replica's disk.
    Disk,
}

/// One recorded interval.  Times are nanoseconds since the process's trace
/// epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub start: u64,
    pub end: u64,
    pub id: u64,
    /// `0` when the span had no synchronous parent.
    pub parent: u64,
    /// Rpc/Handle: capability object; Block/Disk: block number.
    pub key: u64,
    /// Rpc/Handle: service port.
    pub port: u64,
    pub layer: Layer,
    /// Op: workload op class; Store: method; Rpc/Handle: op code; Block/Disk:
    /// access class.
    pub code: u8,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Upper bound on spans kept in memory (about 110 MB).  Past it recording
/// stops and the analysis window ends where it stopped.
const SPAN_CAP: usize = 2_000_000;
const CHUNK: usize = 1 << 16;

static RECORDING: AtomicBool = AtomicBool::new(false);
static SPAN_COUNT: AtomicUsize = AtomicUsize::new(0);
static TRUNCATED_AT: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static REGISTRY: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

/// Serialises the tests that switch the process-wide recording flag.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

struct Local {
    buf: Arc<Mutex<Vec<Span>>>,
    stack: Vec<u64>,
    thread: u64,
    seq: u64,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new({
        let buf = Arc::new(Mutex::new(Vec::new()));
        REGISTRY.lock().expect("trace registry poisoned").push(Arc::clone(&buf));
        Local { buf, stack: Vec::new(), thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed), seq: 0 }
    });
}

/// Nanoseconds since the trace epoch (the first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::SeqCst);
}

pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Opens a span if recording is on; the span closes when the guard drops.
pub fn span(layer: Layer, code: u8, key: u64, port: u64) -> Option<SpanGuard> {
    if !recording() {
        return None;
    }
    let (id, parent) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.seq += 1;
        let id = (l.thread << 40) | l.seq;
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        (id, parent)
    });
    Some(SpanGuard {
        span: Span {
            start: now_ns(),
            end: 0,
            id,
            parent,
            key,
            port,
            layer,
            code,
        },
    })
}

pub struct SpanGuard {
    span: Span,
}

impl SpanGuard {
    /// Sets the key once it is known (an allocation learns its block number
    /// from the call it times).
    pub fn set_key(&mut self, key: u64) {
        self.span.key = key;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let mut span = self.span;
        span.end = now_ns();
        let kept = SPAN_COUNT.fetch_add(1, Ordering::Relaxed) < SPAN_CAP;
        if !kept {
            let _ =
                TRUNCATED_AT.compare_exchange(0, span.end, Ordering::Relaxed, Ordering::Relaxed);
        }
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            if kept {
                let mut buf = l.buf.lock().expect("span buffer poisoned");
                if buf.len() == buf.capacity() {
                    buf.reserve_exact(CHUNK);
                }
                buf.push(span);
            }
        });
    }
}

/// Drains every thread's buffer.  Returns the spans and the time recording
/// was cut short by the span cap, if it was.
pub fn take_spans() -> (Vec<Span>, Option<u64>) {
    let mut all = Vec::new();
    for buf in REGISTRY.lock().expect("trace registry poisoned").iter() {
        all.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    SPAN_COUNT.store(0, Ordering::Relaxed);
    let cut = TRUNCATED_AT.swap(0, Ordering::Relaxed);
    (all, (cut != 0).then_some(cut))
}

// ---------------------------------------------------------------------------
// Analysis.
// ---------------------------------------------------------------------------

/// Block access classes, shared by the quorum-level and disk-level spans so
/// a disk call can be matched to the replicated call that caused it.
pub mod access {
    pub const READ: u8 = 0;
    pub const WRITE: u8 = 1;
    pub const FREE: u8 = 2;
    pub const ALLOCATE: u8 = 3;
}

/// Where a slice of op time is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Share {
    /// Op self time: `ClientCache` / `NamedStore` / `DirStore` and the
    /// workload's own op logic.
    Client,
    /// Store self time: the `RemoteFs` stub, its lease table and `MuxClient`.
    Stub,
    /// Rpc self time under a matched handler: loopback, reactor, worker-queue
    /// wait and codec.
    Rpc,
    /// Handler self time: request dispatch plus `FileService` (OCC, page I/O).
    Core,
    /// Waiting for lease-break acks while settling a commit.
    Settle,
    /// Replicated-store self time: quorum coordination.
    Block,
    /// Replica disk calls.
    Disk,
    /// Rpc time with no matched handler span: the trace cannot say whose it is.
    Unattributed,
}

pub const SHARES: [(Share, &str); 8] = [
    (Share::Client, "client"),
    (Share::Stub, "stub"),
    (Share::Rpc, "rpc"),
    (Share::Core, "core"),
    (Share::Settle, "settle"),
    (Share::Block, "block"),
    (Share::Disk, "disk"),
    (Share::Unattributed, "unattributed"),
];

/// Per-op figures of one op class.
#[derive(Debug, Default, Clone)]
pub struct OpClassTrace {
    pub ops: u64,
    pub store_calls: u64,
    pub store_commits: u64,
    pub store_validations: u64,
    /// Validations answered without a round trip (under a live lease).
    pub zero_rpc_validations: u64,
    pub rpc_calls: u64,
}

/// What the spans of one traced window say.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Window actually analysed, in ns (shorter than asked if truncated).
    pub window_ns: u64,
    pub ops: u64,
    pub by_class: HashMap<u8, OpClassTrace>,
    /// Op self time (op minus store), one sample per op, in ns.
    pub client_self: Vec<f64>,
    pub rpc_rtt: Vec<f64>,
    /// Rpc duration minus its matched handler span.
    pub rpc_wire: Vec<f64>,
    /// Handler durations and self times (minus block and settle), by op code.
    pub handle: HashMap<u8, Vec<f64>>,
    pub handle_self: HashMap<u8, Vec<f64>>,
    pub settle: Vec<f64>,
    pub quorum_write: Vec<f64>,
    pub quorum_read: Vec<f64>,
    pub disk_write: Vec<f64>,
    /// Union of handler spans over the window.
    pub server_busy_ns: u64,
    pub shares: HashMap<Share, u64>,
    pub op_time_ns: u64,
}

/// Analyses the spans recorded in `[ws, we]`.
pub fn analyse(mut spans: Vec<Span>, ws: u64, we: u64, cut: Option<u64>) -> TraceSummary {
    let we = cut.map_or(we, |c| c.min(we));
    link_async_parents(&mut spans);

    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    let kids = |s: &Span| children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
    let in_window = |s: &Span| s.start >= ws && s.end <= we;

    let mut out = TraceSummary {
        window_ns: we.saturating_sub(ws),
        ..TraceSummary::default()
    };
    let mut busy = Vec::new();
    for s in spans.iter().filter(|s| in_window(s)) {
        let d = s.dur() as f64;
        match s.layer {
            Layer::Handle => {
                busy.push((s.start, s.end));
                out.handle.entry(s.code).or_default().push(d);
                let mut below: Vec<(u64, u64)> = kids(s)
                    .iter()
                    .map(|&c| &spans[c])
                    .filter(|c| matches!(c.layer, Layer::Block | Layer::Settle))
                    .map(|c| (c.start, c.end))
                    .collect();
                out.handle_self
                    .entry(s.code)
                    .or_default()
                    .push(self_time(s.start, s.end, &mut below) as f64);
            }
            Layer::Settle => out.settle.push(d),
            Layer::Block if s.code == access::WRITE => out.quorum_write.push(d),
            Layer::Block if s.code == access::READ => out.quorum_read.push(d),
            Layer::Disk if s.code == access::WRITE => out.disk_write.push(d),
            _ => {}
        }
    }
    out.server_busy_ns = covered(ws, we, &mut busy);

    for root in spans
        .iter()
        .filter(|s| s.layer == Layer::Op && in_window(s))
    {
        out.ops += 1;
        out.op_time_ns += root.dur();
        let class = out.by_class.entry(root.code).or_default();
        class.ops += 1;
        // Depth-first walk of the op's tree, clipping each span to its
        // parent's interval: a straggling replica disk does not hold up the
        // handler that already had its quorum.
        let mut tree: Vec<Node> = Vec::new();
        let clip = |i: usize, parent: (u64, u64), depth: u32| Node {
            span: i,
            from: spans[i].start.max(parent.0),
            to: spans[i].end.min(parent.1).max(spans[i].start.max(parent.0)),
            depth,
        };
        let mut todo: Vec<Node> = kids(root)
            .iter()
            .map(|&c| clip(c, (root.start, root.end), 1))
            .collect();
        while let Some(node) = todo.pop() {
            todo.extend(
                kids(&spans[node.span])
                    .iter()
                    .map(|&c| clip(c, (node.from, node.to), node.depth + 1)),
            );
            tree.push(node);
        }
        let mut stores = Vec::new();
        for &Node { span: i, .. } in &tree {
            let s = &spans[i];
            match s.layer {
                Layer::Store => {
                    stores.push((s.start, s.end));
                    class.store_calls += 1;
                    class.store_commits += u64::from(s.code == crate::wrap::store_op::COMMIT);
                    if s.code == crate::wrap::store_op::VALIDATE_CACHE {
                        class.store_validations += 1;
                        class.zero_rpc_validations +=
                            u64::from(!kids(s).iter().any(|&c| spans[c].layer == Layer::Rpc));
                    }
                }
                Layer::Rpc => {
                    class.rpc_calls += 1;
                    out.rpc_rtt.push(s.dur() as f64);
                    if let Some(h) = kids(s).iter().find(|&&c| spans[c].layer == Layer::Handle) {
                        out.rpc_wire.push((s.dur() - spans[*h].dur()) as f64);
                    }
                }
                _ => {}
            }
        }
        out.client_self
            .push(self_time(root.start, root.end, &mut stores) as f64);
        for (share, ns) in partition(root, &tree, &spans, &kids) {
            *out.shares.entry(share).or_default() += ns;
        }
    }
    out
}

/// A span of an op's tree, clipped to its parent's interval.
struct Node {
    span: usize,
    from: u64,
    to: u64,
    depth: u32,
}

/// Splits an op's interval among layers: each instant goes to the deepest
/// span covering it (ties between parallel siblings go to either — they are
/// the same layer).
fn partition<'a>(
    root: &Span,
    tree: &[Node],
    spans: &[Span],
    kids: &dyn Fn(&Span) -> &'a [usize],
) -> Vec<(Share, u64)> {
    let share_of = |s: &Span| match s.layer {
        Layer::Op => Share::Client,
        Layer::Store => Share::Stub,
        Layer::Rpc if kids(s).iter().any(|&c| spans[c].layer == Layer::Handle) => Share::Rpc,
        Layer::Rpc => Share::Unattributed,
        Layer::Handle => Share::Core,
        Layer::Settle => Share::Settle,
        Layer::Block => Share::Block,
        Layer::Disk => Share::Disk,
    };
    let mut nodes: Vec<(u64, u64, u32, Share)> = vec![(root.start, root.end, 0, Share::Client)];
    for n in tree.iter().filter(|n| n.to > n.from) {
        nodes.push((n.from, n.to, n.depth, share_of(&spans[n.span])));
    }
    let mut cuts: Vec<u64> = nodes.iter().flat_map(|&(a, b, _, _)| [a, b]).collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut out: Vec<(Share, u64)> = Vec::new();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let deepest = nodes
            .iter()
            .filter(|&&(s, e, _, _)| s <= a && e >= b)
            .max_by_key(|&&(_, _, depth, _)| depth)
            .map_or(Share::Client, |n| n.3);
        match out.iter_mut().find(|(s, _)| *s == deepest) {
            Some((_, ns)) => *ns += b - a,
            None => out.push((deepest, b - a)),
        }
    }
    out
}

/// Gives handler spans their RPC parents and asynchronous disk spans their
/// quorum-level parents (see the module docs).
fn link_async_parents(spans: &mut [Span]) {
    let mut rpcs: HashMap<(u64, u8, u64), Vec<usize>> = HashMap::new();
    let mut blocks: HashMap<(u8, u64), Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        match s.layer {
            Layer::Rpc => rpcs.entry((s.port, s.code, s.key)).or_default().push(i),
            Layer::Block => blocks.entry((s.code, s.key)).or_default().push(i),
            _ => {}
        }
    }
    for list in rpcs.values_mut().chain(blocks.values_mut()) {
        list.sort_unstable_by_key(|&c| spans[c].start);
    }
    // The latest-starting candidate that started by `start` and fits.  Calls
    // with one key overlap only across the few client threads, so the walk
    // back from the last candidate to start in time is short.
    let latest =
        |cands: Option<&Vec<usize>>, spans: &[Span], start: u64, fits: &dyn Fn(&Span) -> bool| {
            let cands = cands?;
            let upto = cands.partition_point(|&c| spans[c].start <= start);
            cands[..upto]
                .iter()
                .rev()
                .take(64)
                .map(|&c| &spans[c])
                .find(|c| fits(c))
                .map(|c| c.id)
        };
    for i in 0..spans.len() {
        let s = spans[i];
        if s.parent != 0 {
            continue;
        }
        let parent = match s.layer {
            Layer::Handle => latest(rpcs.get(&(s.port, s.code, s.key)), spans, s.start, &|r| {
                r.end >= s.end
            }),
            Layer::Disk => latest(blocks.get(&(s.code, s.key)), spans, s.start, &|b| {
                s.start <= b.end
            }),
            _ => None,
        };
        if let Some(parent) = parent {
            spans[i].parent = parent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(
        id: u64,
        parent: u64,
        layer: Layer,
        code: u8,
        key: u64,
        port: u64,
        t: (u64, u64),
    ) -> Span {
        Span {
            start: t.0,
            end: t.1,
            id,
            parent,
            key,
            port,
            layer,
            code,
        }
    }

    #[test]
    fn async_parents_are_matched_by_key_and_containment() {
        let spans = vec![
            sp(1, 0, Layer::Op, 1, 0, 0, (0, 1000)),
            sp(
                2,
                1,
                Layer::Store,
                crate::wrap::store_op::COMMIT,
                9,
                0,
                (10, 990),
            ),
            sp(3, 2, Layer::Rpc, 7, 9, 5, (20, 980)),
            // Another client's RPC on the same key that does not contain the handler.
            sp(4, 0, Layer::Rpc, 7, 9, 5, (500, 2000)),
            sp(5, 0, Layer::Handle, 7, 9, 5, (100, 900)),
            sp(6, 5, Layer::Block, access::WRITE, 42, 0, (200, 600)),
            // Two replica disks in parallel, one straggling past the quorum ack.
            sp(7, 0, Layer::Disk, access::WRITE, 42, 0, (210, 500)),
            sp(8, 0, Layer::Disk, access::WRITE, 42, 0, (220, 550)),
            sp(9, 0, Layer::Disk, access::WRITE, 42, 0, (230, 800)),
            // A disk read of the same block belongs to no write.
            sp(10, 0, Layer::Disk, access::READ, 42, 0, (300, 310)),
        ];
        let summary = analyse(spans, 0, 5000, None);
        assert_eq!(summary.ops, 1);
        assert_eq!(summary.rpc_wire, vec![(960 - 800) as f64]);
        // Handler self time: 800 minus the block span's 400.
        assert_eq!(summary.handle_self[&7], vec![400.0]);
        let share = |s| summary.shares.get(&s).copied().unwrap_or(0);
        assert_eq!(share(Share::Client), 20);
        assert_eq!(share(Share::Stub), 20);
        assert_eq!(share(Share::Rpc), 160);
        assert_eq!(share(Share::Core), 400);
        // Block self: [200, 210); disks cover [210, 600) within the op.
        assert_eq!(share(Share::Block), 10);
        assert_eq!(share(Share::Disk), 390);
        assert_eq!(share(Share::Unattributed), 0);
        let total: u64 = summary.shares.values().sum();
        assert_eq!(total, summary.op_time_ns);
        assert_eq!(summary.by_class[&1].store_commits, 1);
        assert_eq!(summary.by_class[&1].rpc_calls, 1);
    }

    #[test]
    fn unmatched_rpc_time_is_unattributed() {
        let spans = vec![
            sp(1, 0, Layer::Op, 0, 0, 0, (0, 100)),
            sp(2, 1, Layer::Store, 0, 3, 0, (0, 100)),
            sp(3, 2, Layer::Rpc, 4, 3, 5, (10, 90)),
        ];
        let summary = analyse(spans, 0, 100, None);
        assert_eq!(summary.shares[&Share::Unattributed], 80);
        assert_eq!(summary.shares[&Share::Stub], 20);
        assert!(summary.rpc_wire.is_empty());
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        take_spans();
        set_recording(true);
        {
            let _op = span(Layer::Op, 0, 0, 0);
            let _store = span(Layer::Store, 0, 1, 0);
        }
        set_recording(false);
        assert!(span(Layer::Op, 0, 0, 0).is_none());
        let (spans, cut) = take_spans();
        assert!(cut.is_none());
        let op = spans.iter().find(|s| s.layer == Layer::Op).unwrap();
        let store = spans.iter().find(|s| s.layer == Layer::Store).unwrap();
        assert_eq!(store.parent, op.id);
        assert!(op.start <= store.start && store.end <= op.end);
    }
}
