//! The repository's benchmark: closed-loop client threads driving the whole
//! stack over TCP, one workload per run.
//!
//! ```text
//! perfbench --workload <edit_commit|read_leased|namespace_churn> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run starts an in-process `TcpServer` serving the file service on a
//! 3-replica quorum block store, provisions the working set over RPC (several
//! times, reporting the median set-up time), warms up, then measures
//! `--seconds` of two closed-loop client threads, each with its own
//! `RemoteFs` over its own connection.  Correctness gates run after the
//! window; a failed gate fails the run.
//!
//! With `--trace 0` the last line of standard output reports the end-to-end
//! metrics.  With `--trace 1` the run measures the untraced window as well,
//! then a second window on a stack with timing wrappers at every layer
//! boundary, and reports the per-layer metrics (plus the tracing overhead).

mod edit;
mod gen;
mod leased;
mod names;
mod pages;
mod run;
mod stack;
mod stats;
mod trace;
mod wrap;

use std::time::{Duration, Instant};

use afs_core::{Capability, FileStore};
use afs_server::FsOp;

use crate::run::{class, Window, CLIENT_THREADS};
use crate::stack::{DiskModel, Mode, Plain, ServerCounters, Stack, Traced};
use crate::stats::{highest_supported_percentile, median, percentile, quartile_spread};
use crate::trace::{Share, TraceSummary, SHARES};

const USAGE: &str =
    "usage: perfbench --workload <edit_commit|read_leased|namespace_churn> --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    EditCommit,
    ReadLeased,
    NamespaceChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        [
            Workload::EditCommit,
            Workload::ReadLeased,
            Workload::NamespaceChurn,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::EditCommit => edit::NAME,
            Workload::ReadLeased => leased::NAME,
            Workload::NamespaceChurn => names::NAME,
        }
    }

    fn model(self) -> DiskModel {
        match self {
            Workload::EditCommit => edit::MODEL,
            Workload::ReadLeased => leased::MODEL,
            Workload::NamespaceChurn => names::MODEL,
        }
    }

    fn sizes(self) -> Vec<(&'static str, String)> {
        match self {
            Workload::EditCommit => edit::sizes(),
            Workload::ReadLeased => leased::sizes(),
            Workload::NamespaceChurn => names::sizes(),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => trace = number()? != 0,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// One pass: set-ups, the window, the gates.
struct Pass {
    window: Window<ServerCounters>,
    setup_s: Vec<f64>,
    /// Blocks live on one replica after the final garbage collection.
    live_blocks: usize,
    /// Pages (`edit_commit`, `read_leased`) or files and directories
    /// (`namespace_churn`) the workload stores at the end.
    user_objects: usize,
    gate_errors: Vec<String>,
    /// `namespace_churn`: directory tables fetched by resolves, and resolves,
    /// in the traced window.
    resolve_fetches: u64,
    resolves: u64,
}

/// Starts a stack and provisions it `reps` times, tearing down all but the
/// last; returns the last with every set-up time.
fn setup<M: Mode, T>(
    model: DiskModel,
    reps: usize,
    provision: impl Fn(&[M::Store]) -> T,
) -> (Vec<M::Store>, Stack, T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let stack = Stack::start(model, M::TRACED);
        let clients: Vec<M::Store> = (0..CLIENT_THREADS)
            .map(|_| M::connect(stack.addr()))
            .collect();
        let fixture = provision(&clients);
        times.push(t.elapsed().as_secs_f64());
        last = Some((clients, stack, fixture));
    }
    let (clients, stack, fixture) = last.expect("at least one set-up");
    (clients, stack, fixture, times)
}

/// Provisions page files with every client thread in parallel.
fn provision_files<S: FileStore>(clients: &[S], shape: (usize, usize, usize)) -> Vec<Capability> {
    let mut caps = vec![None; shape.0];
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(part, c)| scope.spawn(move || pages::provision(c, shape, part, clients.len())))
            .collect();
        for h in handles {
            for (f, cap) in h.join().expect("provisioning thread panicked") {
                caps[f] = Some(cap);
            }
        }
    });
    caps.into_iter()
        .map(|c| c.expect("every file provisioned"))
        .collect()
}

/// Runs the timed window and collects the violations the clients saw.
fn measure<M: Mode, D: run::Driver>(
    drivers: &mut [D],
    args: &Args,
    stack: &Stack,
) -> (Window<ServerCounters>, Vec<String>) {
    let window = run::closed_loop(
        drivers,
        Duration::from_secs(args.seconds),
        M::TRACED,
        &|| stack.counters(),
    );
    let gates = drivers
        .iter_mut()
        .flat_map(|d| d.take_violations())
        .collect();
    (window, gates)
}

fn finish(
    stack: Stack,
    window: Window<ServerCounters>,
    setup_s: Vec<f64>,
    mut gates: Vec<String>,
    user_objects: usize,
) -> Pass {
    let live_blocks = stack.settle_and_count().unwrap_or_else(|e| {
        gates.push(e);
        0
    });
    Pass {
        window,
        setup_s,
        live_blocks,
        user_objects,
        gate_errors: gates,
        resolve_fetches: 0,
        resolves: 0,
    }
}

fn run_edit<M: Mode>(args: &Args, reps: usize) -> Pass {
    let shape = (edit::FILES, edit::PAGES, edit::PAGE_BYTES);
    let (clients, stack, files, setup_s) =
        setup::<M, _>(edit::MODEL, reps, |c| provision_files(c, shape));
    let mut drivers: Vec<edit::Client<M>> = clients
        .into_iter()
        .enumerate()
        .map(|(t, s)| edit::Client::new(s, &files, args.seed, t))
        .collect();
    let (window, mut gates) = measure::<M, _>(&mut drivers, args, &stack);
    let committed = drivers.iter().map(|d| d.increments).sum();
    drop(drivers);
    gates.extend(edit::check_no_lost_update(&stack.svc.service, &files, committed).err());
    finish(stack, window, setup_s, gates, edit::FILES * edit::PAGES)
}

fn run_leased<M: Mode>(args: &Args, reps: usize) -> Pass {
    let shape = (leased::FILES, leased::PAGES, leased::PAGE_BYTES);
    let (clients, stack, files, setup_s) =
        setup::<M, _>(leased::MODEL, reps, |c| provision_files(c, shape));
    let mut drivers: Vec<leased::Client<M>> = clients
        .into_iter()
        .enumerate()
        .map(|(t, s)| leased::Client::new(s, &files, args.seed, t))
        .collect();
    let (window, mut gates) = measure::<M, _>(&mut drivers, args, &stack);
    let mut expected = vec![0u64; leased::FILES * leased::PAGES];
    for d in &drivers {
        for (e, c) in expected.iter_mut().zip(&d.committed) {
            *e += c;
        }
    }
    for d in &mut drivers {
        gates.extend(d.check_final(&expected).err());
    }
    drop(drivers);
    finish(stack, window, setup_s, gates, leased::FILES * leased::PAGES)
}

fn run_names<M: Mode>(args: &Args, reps: usize) -> Pass {
    let (clients, stack, (root, base), setup_s) =
        setup::<M, _>(names::MODEL, reps, names::provision);
    let mut drivers: Vec<names::Client<M>> = clients
        .into_iter()
        .enumerate()
        .map(|(t, s)| names::Client::new(s, root, &base, args.seed, t))
        .collect();
    let (window, mut gates) = measure::<M, _>(&mut drivers, args, &stack);
    for d in &drivers {
        gates.extend(d.check_final().err());
    }
    let created: usize = drivers.iter().map(|d| d.created).sum();
    let (fetches, resolves) = drivers
        .iter()
        .fold((0, 0), |(f, r), d| (f + d.resolve_fetches, r + d.resolves));
    drop(drivers);
    // Every file stored, named or not, plus the directories: root, top
    // level, leaves.
    let objects = base.len() + created + 1 + names::TOP_DIRS + names::TOP_DIRS * names::LEAF_DIRS;
    let mut pass = finish(stack, window, setup_s, gates, objects);
    pass.resolve_fetches = fetches;
    pass.resolves = resolves;
    pass
}

fn run_pass<M: Mode>(args: &Args, reps: usize) -> Pass {
    match args.workload {
        Workload::EditCommit => run_edit::<M>(args, reps),
        Workload::ReadLeased => run_leased::<M>(args, reps),
        Workload::NamespaceChurn => run_names::<M>(args, reps),
    }
}

/// A reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn is_read(c: u8) -> bool {
    c == class::READ
}

fn end_to_end(p: &Pass) -> Vec<Metric> {
    let reads = p.window.latencies_us(is_read);
    let writes = p.window.latencies_us(|c| !is_read(c));
    let pct = |v: &[f64], q| percentile(v, q).unwrap_or(0.0);
    vec![
        ("throughput_ops_s".into(), p.window.throughput(), "1/s"),
        ("read_p50_us".into(), pct(&reads, 50.0), "us"),
        ("read_p95_us".into(), pct(&reads, 95.0), "us"),
        ("write_p50_us".into(), pct(&writes, 50.0), "us"),
        ("write_p95_us".into(), pct(&writes, 95.0), "us"),
        ("setup_s".into(), median(&p.setup_s).unwrap_or(0.0), "s"),
        (
            "space_amp".into(),
            p.live_blocks as f64 / p.user_objects as f64,
            "ratio",
        ),
    ]
}

/// Handler ops with their own latency metrics.
const HANDLER_OPS: [(&str, FsOp); 7] = [
    ("CreateVersion", FsOp::CreateVersion),
    ("ReadPages", FsOp::ReadPages),
    ("WritePages", FsOp::WritePages),
    ("Commit", FsOp::Commit),
    ("ValidateCache", FsOp::ValidateCache),
    ("CurrentVersion", FsOp::CurrentVersion),
    ("ReadCommittedPage", FsOp::ReadCommittedPage),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(plain: &Pass, traced: &Pass, t: &TraceSummary) -> Vec<Metric> {
    let w = &traced.window;
    let c = &w.client;
    let (s0, s1) = &w.server;
    let us = |v: &[f64], q: f64| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        percentile(&v, q).unwrap_or(0.0) / 1e3
    };
    let ops = w.attempted() as f64;
    let writes = w.ops.iter().filter(|o| !is_read(o.class)).count() as f64;
    let traced_ops = t.ops as f64;
    let sum =
        |f: &dyn Fn(&trace::OpClassTrace) -> u64| t.by_class.values().map(f).sum::<u64>() as f64;
    let mutations: Vec<_> = [class::CREATE, class::RENAME, class::UNLINK]
        .iter()
        .filter_map(|k| t.by_class.get(k))
        .collect();
    let commit_attempts = (s1.commit.fast_path + s1.commit.validated + s1.commit.conflicts)
        - (s0.commit.fast_path + s0.commit.validated + s0.commit.conflicts);
    let commits_ok =
        (s1.commit.fast_path + s1.commit.validated) - (s0.commit.fast_path + s0.commit.validated);
    let io = s1.io.since(&s0.io);
    let empty = Vec::new();
    let handle = |code: FsOp| t.handle.get(&(code as u8)).unwrap_or(&empty);
    let handle_self = |code: FsOp| t.handle_self.get(&(code as u8)).unwrap_or(&empty);

    let mut m: Vec<Metric> = vec![
        (
            "client.cache_hit_ratio".into(),
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "ratio",
        ),
        (
            "client.zero_rpc_ratio".into(),
            ratio(
                sum(&|k| k.zero_rpc_validations),
                sum(&|k| k.store_validations),
            ),
            "ratio",
        ),
        (
            "client.name_cache_hit_ratio".into(),
            ratio(c.name_hits as f64, (c.name_hits + c.name_misses) as f64),
            "ratio",
        ),
        (
            "client.leases_broken_per_write".into(),
            ratio(c.rpc.leases_broken as f64, writes),
            "count",
        ),
        (
            "client.store_calls_per_op".into(),
            ratio(sum(&|k| k.store_calls), traced_ops),
            "count",
        ),
        ("client.self_us".into(), us(&t.client_self, 50.0), "us"),
        (
            "rpc.calls_per_op".into(),
            ratio(sum(&|k| k.rpc_calls), traced_ops),
            "count",
        ),
        ("rpc.rtt_p50_us".into(), us(&t.rpc_rtt, 50.0), "us"),
        ("rpc.rtt_p99_us".into(), us(&t.rpc_rtt, 99.0), "us"),
        ("rpc.wire_p50_us".into(), us(&t.rpc_wire, 50.0), "us"),
        (
            "rpc.bytes_per_op".into(),
            ratio(
                wrap::RPC_BYTES.load(std::sync::atomic::Ordering::Relaxed) as f64,
                ops,
            ),
            "B",
        ),
        ("rpc.retries".into(), c.rpc.retries as f64, "count"),
        ("rpc.reconnects".into(), c.rpc.reconnects as f64, "count"),
    ];
    for (name, code) in HANDLER_OPS {
        m.push((
            format!("server.handle_p50_us.{name}"),
            us(handle(code), 50.0),
            "us",
        ));
    }
    m.extend([
        (
            "server.busy_frac".into(),
            ratio(t.server_busy_ns as f64, t.window_ns as f64),
            "ratio",
        ),
        (
            "server.lease_grants_per_op".into(),
            ratio((s1.lease_granted - s0.lease_granted) as f64, ops),
            "count",
        ),
        (
            "server.lease_breaks_per_commit".into(),
            ratio(
                (s1.lease_broken - s0.lease_broken) as f64,
                commit_attempts as f64,
            ),
            "count",
        ),
        (
            "server.settle_wait_p50_us".into(),
            us(&t.settle, 50.0),
            "us",
        ),
        (
            "server.settle_wait_p99_us".into(),
            us(&t.settle, 99.0),
            "us",
        ),
        (
            "dir.attempts_per_mutation".into(),
            ratio(
                mutations.iter().map(|k| k.store_commits).sum::<u64>() as f64,
                mutations.iter().map(|k| k.ops).sum::<u64>() as f64,
            ),
            "count",
        ),
        (
            "dir.tables_fetched_per_resolve".into(),
            ratio(traced.resolve_fetches as f64, traced.resolves as f64),
            "count",
        ),
        (
            "core.fast_path_ratio".into(),
            ratio(
                (s1.commit.fast_path - s0.commit.fast_path) as f64,
                commit_attempts as f64,
            ),
            "ratio",
        ),
        (
            "core.conflicts_per_commit".into(),
            ratio(
                (s1.commit.conflicts - s0.commit.conflicts) as f64,
                commit_attempts as f64,
            ),
            "count",
        ),
        (
            "core.pages_compared_per_commit".into(),
            ratio(
                (s1.commit.pages_compared - s0.commit.pages_compared) as f64,
                commit_attempts as f64,
            ),
            "count",
        ),
        (
            "core.page_cache_hit_ratio".into(),
            ratio(io.cache_hits as f64, (io.cache_hits + io.page_reads) as f64),
            "ratio",
        ),
        (
            "core.block_write_calls_per_commit".into(),
            ratio(io.block_write_calls as f64, commits_ok as f64),
            "count",
        ),
        (
            "core.pages_flushed_per_commit".into(),
            ratio(io.pages_flushed_at_commit as f64, commits_ok as f64),
            "count",
        ),
    ]);
    for (name, code) in HANDLER_OPS {
        m.push((
            format!("core.self_p50_us.{name}"),
            us(handle_self(code), 50.0),
            "us",
        ));
    }
    m.extend([
        (
            "block.quorum_write_p50_us".into(),
            us(&t.quorum_write, 50.0),
            "us",
        ),
        (
            "block.quorum_write_p99_us".into(),
            us(&t.quorum_write, 99.0),
            "us",
        ),
        (
            "block.disk_write_p50_us".into(),
            us(&t.disk_write, 50.0),
            "us",
        ),
        (
            "block.reads_per_op".into(),
            ratio(t.quorum_read.len() as f64, traced_ops),
            "count",
        ),
        ("block.read_p50_us".into(), us(&t.quorum_read, 50.0), "us"),
        (
            "block.quorum_short_ack_ratio".into(),
            ratio(
                (s1.quorum_short_acks - s0.quorum_short_acks) as f64,
                (s1.replica_write_calls - s0.replica_write_calls) as f64,
            ),
            "ratio",
        ),
        (
            "block.bytes_written_per_user_byte".into(),
            ratio(
                (s1.replica_bytes_written - s0.replica_bytes_written) as f64,
                wrap::USER_BYTES.load(std::sync::atomic::Ordering::Relaxed) as f64,
            ),
            "ratio",
        ),
        ("trace.throughput_ops_s".into(), w.throughput(), "1/s"),
        (
            "trace.overhead_frac".into(),
            1.0 - ratio(w.throughput(), plain.window.throughput()),
            "ratio",
        ),
    ]);
    for (share, name) in SHARES {
        let ns = t.shares.get(&share).copied().unwrap_or(0) as f64;
        let metric = if share == Share::Unattributed {
            "trace.unattributed_frac".to_string()
        } else {
            format!("trace.share.{name}")
        };
        m.push((metric, ratio(ns, t.op_time_ns as f64), "ratio"));
    }
    m
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The host's CPU time so far, in clock ticks summed over all CPUs: the time
/// stolen by the hypervisor and the total.  `None` where `/proc/stat` is not
/// readable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of the host's CPU time stolen by the hypervisor between two
/// readings.  A run with a high share was slowed by other guests on the
/// same machine, not by the program.
fn steal_frac(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (from?, to?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

fn context_json(args: &Args, cpu_steal: Option<f64>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sizes: Vec<String> = args
        .workload
        .sizes()
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"profile\": {}, \
         \"client_threads\": {CLIENT_THREADS}, \"connections\": {CLIENT_THREADS}, \"loop\": \"closed\", \
         \"warmup_s\": {}, \"setups\": {SETUPS}, \"replicas\": {}, \"commit_rule\": \"quorum\", \
         \"disk_model\": {}, \"sizes\": {{{}}}, \"cpu_steal_frac\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        run::WARMUP.as_secs_f64(),
        stack::REPLICAS,
        json_str(&args.workload.model().describe()),
        sizes.join(", "),
        cpu_steal.map_or("null".to_string(), |f| format!("{f:.4}"))
    )
}

/// Prints a latency sample's size, its p90, p95 and p99, and the highest
/// percentile with at least ten samples beyond it.  Only p95 is a gated
/// metric: on a shared host, CPU steal moves p99 several-fold between runs,
/// and on the lease workloads p90 lies where reads served without an RPC
/// meet reads that pay one.
fn describe_latency(label: &str, sorted: &[f64]) {
    let tail = highest_supported_percentile(sorted.len())
        .map(|p| format!("p{p} = {:.1} us", percentile(sorted, p).unwrap_or(0.0)))
        .unwrap_or_else(|| "too few samples for any percentile".to_string());
    let p = |q| percentile(sorted, q).unwrap_or(0.0);
    println!(
        "# {label}: {} samples, p90 = {:.1} us, p95 = {:.1} us, p99 = {:.1} us, highest supported {tail}",
        sorted.len(),
        p(90.0),
        p(95.0),
        p(99.0)
    );
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ticks_at_start = cpu_ticks();

    let plain = run_pass::<Plain>(&args, SETUPS);
    let e2e = end_to_end(&plain);
    for (name, value, unit) in &e2e {
        println!("# {name} = {value:.4} {unit}");
    }
    let w = &plain.window;
    println!(
        "# failed_frac = {} ({} of {} ops failed)",
        ratio(w.failed() as f64, w.attempted() as f64),
        w.failed(),
        w.attempted()
    );
    let per_second: Vec<u64> = (0..args.seconds)
        .map(|k| {
            w.ops
                .iter()
                .filter(|o| o.ok && o.at_ns / 1_000_000_000 == k)
                .count() as u64
        })
        .collect();
    println!("# completed ops per second: {per_second:?}");
    describe_latency("reads", &w.latencies_us(is_read));
    describe_latency("writes", &w.latencies_us(|c| !is_read(c)));
    println!(
        "# setup_s over {} set-ups: {:?}, quartile spread {:.3}",
        plain.setup_s.len(),
        plain.setup_s,
        quartile_spread(&plain.setup_s).unwrap_or(0.0)
    );

    let mut gates = plain.gate_errors.clone();
    let (mut attempted, mut failed) = (w.attempted(), w.failed());
    let metrics = if args.trace {
        let traced = run_pass::<Traced>(&args, 1);
        let (spans, cut) = trace::take_spans();
        println!(
            "# traced window: {} spans{}",
            spans.len(),
            if cut.is_some() {
                " (span cap reached)"
            } else {
                ""
            }
        );
        let summary = trace::analyse(spans, traced.window.start_ns, traced.window.end_ns, cut);
        let m = per_layer(&plain, &traced, &summary);
        for (name, value, unit) in &m {
            println!("# {name} = {value:.4} {unit}");
        }
        gates.extend(traced.gate_errors.iter().cloned());
        attempted += traced.window.attempted();
        failed += traced.window.failed();
        m
    } else {
        e2e
    };

    println!(
        "# context {}",
        context_json(&args, steal_frac(ticks_at_start, cpu_ticks()))
    );
    for g in &gates {
        println!("# GATE FAILED: {g}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        gates.is_empty(),
        body.join(", ")
    );
    if !gates.is_empty() {
        std::process::exit(1);
    }
}
