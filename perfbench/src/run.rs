//! The closed-loop driver shared by every workload: two client threads, each
//! blocking on one operation at a time, a warm-up, then the timed window.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use amoeba_rpc::ClientStats;

use crate::trace::{self, span, Layer};

/// Client threads (and so client connections) of every workload.
pub const CLIENT_THREADS: usize = 2;

/// Un-timed warm-up before the window: caches fill, leases get granted.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Op classes, carried by op spans.
pub mod class {
    pub const READ: u8 = 0;
    pub const UPDATE: u8 = 1;
    pub const CREATE: u8 = 2;
    pub const RENAME: u8 = 3;
    pub const UNLINK: u8 = 4;
}

/// Client-side counters of one client thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClientCounters {
    pub rpc: ClientStats,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub name_hits: u64,
    pub name_misses: u64,
}

impl ClientCounters {
    pub fn since(&self, before: &ClientCounters) -> ClientCounters {
        ClientCounters {
            rpc: self.rpc.since(&before.rpc),
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            name_hits: self.name_hits - before.name_hits,
            name_misses: self.name_misses - before.name_misses,
        }
    }

    pub fn merged(&self, other: &ClientCounters) -> ClientCounters {
        ClientCounters {
            rpc: self.rpc.merged(&other.rpc),
            cache_hits: self.cache_hits + other.cache_hits,
            cache_misses: self.cache_misses + other.cache_misses,
            name_hits: self.name_hits + other.name_hits,
            name_misses: self.name_misses + other.name_misses,
        }
    }
}

/// One client thread of a workload: a seeded op stream and the state it
/// needs to run and check the ops.
pub trait Driver: Send {
    type Op;
    fn counters(&self) -> ClientCounters;
    fn next(&mut self) -> Self::Op;
    fn class(op: &Self::Op) -> u8;
    /// Runs one op; `false` means it failed (an error from the system,
    /// including an exhausted OCC retry budget).
    fn exec(&mut self, op: Self::Op) -> bool;
    /// Takes the correctness violations seen so far.
    fn take_violations(&mut self) -> Vec<String>;
}

/// One op of the window.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub class: u8,
    /// Start, in ns after the window opened.
    pub at_ns: u64,
    pub latency_ns: u64,
    pub ok: bool,
}

/// What a window measured.
#[derive(Debug, Default)]
pub struct Window<S> {
    pub ops: Vec<OpRecord>,
    /// Client counters over the window, summed over the threads.
    pub client: ClientCounters,
    /// Server-side counters at the window's start and end.
    pub server: (S, S),
    pub seconds: f64,
    /// Window bounds on the trace clock.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl<S> Window<S> {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }

    pub fn throughput(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.seconds
    }

    /// Latencies in microseconds of the successful ops matching `pick`,
    /// sorted ascending.
    pub fn latencies_us(&self, pick: impl Fn(u8) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .ops
            .iter()
            .filter(|o| o.ok && pick(o.class))
            .map(|o| o.latency_ns as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Runs every driver on its own thread, closed loop, for the warm-up and
/// then `seconds`.  Ops that start inside the window are recorded; when
/// `traced`, spans are recorded for exactly the window.  `server` snapshots
/// server-side counters at the window's edges.
pub fn closed_loop<D: Driver, S: Default>(
    drivers: &mut [D],
    seconds: Duration,
    traced: bool,
    server: &dyn Fn() -> S,
) -> Window<S> {
    let barrier = Barrier::new(drivers.len() + 1);
    let start = Instant::now() + Duration::from_millis(10);
    let (ws, we) = (start + WARMUP, start + WARMUP + seconds);
    let mut window = Window {
        seconds: seconds.as_secs_f64(),
        ..Window::default()
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .map(|driver| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut ops = Vec::new();
                    let mut at_start = None;
                    barrier.wait();
                    loop {
                        let now = Instant::now();
                        if now >= we {
                            break;
                        }
                        if now >= ws && at_start.is_none() {
                            at_start = Some(driver.counters());
                        }
                        let op = driver.next();
                        let class = D::class(&op);
                        let began = Instant::now();
                        let ok = {
                            let _op = span(Layer::Op, class, 0, 0);
                            driver.exec(op)
                        };
                        if began >= ws {
                            ops.push(OpRecord {
                                class,
                                at_ns: (began - ws).as_nanos() as u64,
                                latency_ns: began.elapsed().as_nanos() as u64,
                                ok,
                            });
                        }
                    }
                    let counters = driver.counters().since(&at_start.unwrap_or_default());
                    (ops, counters)
                })
            })
            .collect();
        barrier.wait();
        sleep_until(ws);
        let before = server();
        window.start_ns = trace::now_ns();
        trace::set_recording(traced);
        sleep_until(we);
        window.end_ns = trace::now_ns();
        let after = server();
        window.server = (before, after);
        for h in handles {
            let (ops, counters) = h.join().expect("client thread panicked");
            window.ops.extend(ops);
            window.client = window.client.merged(&counters);
        }
        trace::set_recording(false);
    });
    window
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}
