//! TCP transport: multiplexed transactions over real sockets.
//!
//! One TCP connection carries many logical request streams at once.  Every
//! frame is tagged with a request id (see the mux frames in [`crate::codec`]),
//! so:
//!
//! * a client thread never waits for *other* requests on its connection —
//!   it writes its frame, parks on its id in the connection's
//!   [`MuxCore`], and is woken when *its* reply lands,
//!   whatever order replies arrive in; and
//! * the server pipelines independent requests from the same connection:
//!   frames are peeled off by a readiness-driven reactor and handed to a
//!   worker pool, so a slow transaction (a faulted disk, a long scan) does
//!   not convoy the requests queued behind it.
//!
//! # Server
//!
//! [`TcpServer`] runs one *reactor* thread: a level-triggered
//! [`epoll::Poller`] over the listening socket and every accepted
//! connection.  The reactor does no service work itself — it accepts,
//! reads, and slices the byte stream into frames, dispatching each complete
//! frame to a spawn-on-demand worker pool (idle workers are reused, so the
//! pool grows exactly as deep as the offered concurrency).  Workers run the
//! registered [`RequestHandler`] and write the id-tagged reply back under a
//! per-connection write lock, waiting for writability when the socket's
//! send buffer is full.
//!
//! # Client
//!
//! [`TcpClient`] keeps a small pool of persistent connections (round-robin
//! per transaction, [`TcpClient::with_connections`] sizes it); cloning the
//! client shares the pool.  Each connection owns a
//! [`MuxCore`] pending-reply table and a reader thread
//! that completes whichever request each arriving reply names.  Connections
//! are (re-)established lazily with a jittered [`Backoff`]; re-establishment
//! after the initial connect is counted and surfaced through
//! [`Transport::reconnects`].  Connecting is free of side effects on the
//! server, so the connect path retries past refused connections (a server
//! mid-restart); *requests* are never retried here — a request that reached
//! the wire may have executed, and that ambiguity belongs to the caller's
//! failover policy (see [`crate::mux::FailoverPolicy`]).

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};

use amoeba_capability::Port;

use crate::codec::{
    decode_mux_callback, decode_mux_callback_ack, decode_mux_reply, decode_mux_request,
    encode_mux_callback, encode_mux_callback_ack, encode_mux_reply, encode_mux_request,
    is_callback_frame, MAX_FRAME_BODY,
};
use crate::message::{Reply, Request};
use crate::mux::MuxCore;
use crate::{Backoff, CallbackChannel, CallbackSink, RequestHandler, Result, RpcError, Transport};

// ---------------------------------------------------------------------------
// Worker pool: spawn on demand, reuse idle threads, retire them when quiet.
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send>;

/// Hard ceiling on concurrently live worker threads per pool.  Beyond this,
/// jobs queue until a worker frees up — spawning yet more threads for a
/// service that is already saturated only adds scheduler pressure.
const MAX_WORKERS: usize = 512;

struct PoolInner {
    queue: VecDeque<Job>,
    idle: usize,
    /// Worker threads currently alive (idle or busy).
    live: usize,
    shutdown: bool,
}

struct WorkerPool {
    inner: Mutex<PoolInner>,
    ready: Condvar,
}

impl WorkerPool {
    fn new() -> Arc<Self> {
        Arc::new(WorkerPool {
            inner: Mutex::new(PoolInner {
                queue: VecDeque::new(),
                idle: 0,
                live: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
        })
    }

    /// Queues a job.  An idle worker is woken when one exists; otherwise a
    /// fresh worker is spawned *only* while the pool is below [`MAX_WORKERS`]
    /// — in steady state every busy worker loops back for the next queued job
    /// itself, so saturation does not turn into a thread-spawn per frame on
    /// the reactor thread.
    fn execute(self: &Arc<Self>, job: Job) {
        let spawn = {
            let mut inner = self.inner.lock();
            if inner.shutdown {
                return;
            }
            inner.queue.push_back(job);
            if inner.idle > 0 {
                self.ready.notify_one();
                false
            } else if inner.live < MAX_WORKERS {
                inner.live += 1;
                true
            } else {
                false
            }
        };
        if spawn {
            let pool = Arc::clone(self);
            std::thread::spawn(move || pool.worker_loop());
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut inner = self.inner.lock();
                loop {
                    if let Some(job) = inner.queue.pop_front() {
                        break job;
                    }
                    if inner.shutdown {
                        inner.live -= 1;
                        return;
                    }
                    inner.idle += 1;
                    let timed_out = self.ready.wait_for(&mut inner, Duration::from_secs(2));
                    inner.idle -= 1;
                    if timed_out && inner.queue.is_empty() {
                        // Quiet for a while: retire instead of idling forever.
                        inner.live -= 1;
                        return;
                    }
                }
            };
            let _slot = ReleaseOnUnwind(self);
            job();
        }
    }

    fn shutdown(&self) {
        self.inner.lock().shutdown = true;
        self.ready.notify_all();
    }
}

/// Gives up a worker's place in [`PoolInner::live`] if its job unwinds: the
/// thread dies with the panic, and without this the pool would count it as
/// alive forever and, after [`MAX_WORKERS`] such deaths, never spawn again.
struct ReleaseOnUnwind<'a>(&'a WorkerPool);

impl Drop for ReleaseOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.inner.lock().live -= 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Shared frame I/O helpers.
// ---------------------------------------------------------------------------

/// Pops one complete `len | body` frame off the front of `buf`, or returns
/// `Ok(None)` if more bytes are needed.  An impossible length word poisons
/// the connection (`Err`): the stream can never resynchronise.
fn extract_frame(buf: &mut Vec<u8>) -> Result<Option<Bytes>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BODY {
        return Err(RpcError::Decode(format!(
            "frame of {len} bytes is too large"
        )));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let body = Bytes::from(buf[4..4 + len].to_vec());
    buf.drain(..4 + len);
    Ok(Some(body))
}

/// Writes a whole frame to a possibly non-blocking socket, waiting for
/// writability whenever the send buffer fills, serialised by `lock` so
/// concurrent repliers never interleave partial frames.
fn write_frame_blocking(stream: &TcpStream, lock: &Mutex<()>, frame: &[u8]) -> Result<()> {
    let _guard = lock.lock();
    let mut written = 0;
    let mut stream_ref = stream;
    while written < frame.len() {
        match stream_ref.write(&frame[written..]) {
            Ok(0) => return Err(RpcError::Io("connection closed mid-write".into())),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                epoll::wait_writable(stream.as_raw_fd(), Some(Duration::from_secs(5)))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------------

const LISTENER_TOKEN: u64 = 0;

/// One accepted connection, shared between the reactor (reads), the workers
/// replying on it, and any handler holding it as a [`CallbackChannel`].
///
/// All outbound traffic — replies *and* callback pushes — leaves through the
/// one [`ServerConn::send_frame`] path, serialised by the per-connection
/// write lock, so there is exactly one writer discipline per connection.
struct ServerConn {
    stream: TcpStream,
    write_lock: Mutex<()>,
    /// The reactor token: unique among this server's live connections, which
    /// makes it the natural grant-table key.
    peer_key: u64,
    /// Tickets for callback pushes, echoed back by the client's acks.
    next_ticket: AtomicU64,
    closed: AtomicBool,
    /// Acks that have arrived but not yet been collected by a waiter.
    acks: Mutex<std::collections::HashSet<u64>>,
    ack_ready: Condvar,
}

impl ServerConn {
    /// The single outbound frame path: every reply and every callback goes
    /// through here, taking the connection's write lock so concurrent
    /// senders never interleave partial frames.
    fn send_frame(&self, frame: &[u8]) -> Result<()> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(RpcError::Dropped);
        }
        write_frame_blocking(&self.stream, &self.write_lock, frame)
    }

    /// Records a callback ack from the peer and wakes waiters.
    fn record_ack(&self, ticket: u64) {
        self.acks.lock().insert(ticket);
        self.ack_ready.notify_all();
    }

    /// Marks the connection dead: pushes start failing and every
    /// [`CallbackChannel::wait_acked`] parked on it returns.
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.ack_ready.notify_all();
    }
}

impl CallbackChannel for ServerConn {
    fn push(&self, port: Port, payload: Bytes) -> Option<u64> {
        if self.closed.load(Ordering::SeqCst) {
            return None;
        }
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let frame = encode_mux_callback(ticket, port, &payload).ok()?;
        self.send_frame(&frame).ok()?;
        Some(ticket)
    }

    fn wait_acked(&self, ticket: u64, deadline: Instant) -> bool {
        let mut acks = self.acks.lock();
        loop {
            if acks.remove(&ticket) {
                return true;
            }
            if self.closed.load(Ordering::SeqCst) {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.ack_ready.wait_for(&mut acks, deadline - now);
        }
    }

    fn peer_key(&self) -> u64 {
        self.peer_key
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

/// Reactor-private per-connection state.
struct ConnState {
    conn: Arc<ServerConn>,
    read_buf: Vec<u8>,
}

struct ServerShared {
    handlers: RwLock<HashMap<Port, Arc<dyn RequestHandler>>>,
    pool: Arc<WorkerPool>,
    shutdown: AtomicBool,
}

/// A server hosting one or more Amoeba service ports on a TCP socket,
/// pipelining independent requests per connection.
pub struct TcpServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    reactor: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts the
    /// reactor on a background thread.
    pub fn bind(addr: &str) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let shared = Arc::new(ServerShared {
            handlers: RwLock::new(HashMap::new()),
            pool: WorkerPool::new(),
            shutdown: AtomicBool::new(false),
        });

        let poller = epoll::Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, epoll::READABLE)?;

        let reactor_shared = Arc::clone(&shared);
        let reactor = std::thread::spawn(move || {
            reactor_loop(listener, poller, reactor_shared);
        });

        Ok(TcpServer {
            addr: local,
            shared,
            reactor: Some(reactor),
        })
    }

    /// The socket address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Registers a handler for a logical service port.
    pub fn register(&self, port: Port, handler: Arc<dyn RequestHandler>) {
        self.shared.handlers.write().insert(port, handler);
    }

    /// Stops the reactor and the worker pool.  Established connections are
    /// closed; in-flight handlers finish but their replies may be lost.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        self.shared.pool.shutdown();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn reactor_loop(listener: TcpListener, poller: epoll::Poller, shared: Arc<ServerShared>) {
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut next_token: u64 = LISTENER_TOKEN + 1;
    let mut events: Vec<epoll::Event> = Vec::new();
    let mut scratch = [0u8; 64 * 1024];

    while !shared.shutdown.load(Ordering::SeqCst) {
        // The timeout doubles as the shutdown poll interval.
        if poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .is_err()
        {
            break;
        }
        for event in &events {
            if event.token == LISTENER_TOKEN {
                // Drain the accept queue (level-triggered, but cheap to loop).
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            stream.set_nodelay(true).ok();
                            let token = next_token;
                            next_token += 1;
                            if poller
                                .add(stream.as_raw_fd(), token, epoll::READABLE)
                                .is_ok()
                            {
                                conns.insert(
                                    token,
                                    ConnState {
                                        conn: Arc::new(ServerConn {
                                            stream,
                                            write_lock: Mutex::new(()),
                                            peer_key: token,
                                            next_ticket: AtomicU64::new(1),
                                            closed: AtomicBool::new(false),
                                            acks: Mutex::new(std::collections::HashSet::new()),
                                            ack_ready: Condvar::new(),
                                        }),
                                        read_buf: Vec::new(),
                                    },
                                );
                            }
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
            } else if let Some(state) = conns.get_mut(&event.token) {
                if !pump_connection(state, &mut scratch, &shared) {
                    let fd = state.conn.stream.as_raw_fd();
                    poller.delete(fd).ok();
                    // Closing the channel wakes lease managers parked on
                    // acks and lets grant tables drop this peer's leases —
                    // a dead connection holds no leases.
                    state.conn.close();
                    conns.remove(&event.token);
                }
            }
        }
    }
    // Reactor exit: every surviving channel dies with its connection.
    for state in conns.values() {
        state.conn.close();
    }
}

/// Reads everything currently available on the connection, dispatching each
/// complete frame to the worker pool.  Returns `false` when the connection
/// is finished (EOF, error, or an unframeable byte stream).
fn pump_connection(state: &mut ConnState, scratch: &mut [u8], shared: &Arc<ServerShared>) -> bool {
    loop {
        match (&state.conn.stream).read(scratch) {
            Ok(0) => return false,
            Ok(n) => {
                state.read_buf.extend_from_slice(&scratch[..n]);
                loop {
                    match extract_frame(&mut state.read_buf) {
                        Ok(Some(body)) if is_callback_frame(&body) => {
                            // A callback ack from the peer: record it on the
                            // reactor thread (a set insert — no service work)
                            // so the committing writer parked on it wakes.
                            match decode_mux_callback_ack(body) {
                                Ok(ticket) => state.conn.record_ack(ticket),
                                Err(_) => return false,
                            }
                        }
                        Ok(Some(body)) => dispatch_request(body, &state.conn, shared),
                        Ok(None) => break,
                        Err(_) => return false,
                    }
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Hands one request frame to the worker pool: decode, run the handler for
/// its port with the originating connection attached as a callback channel,
/// write the id-tagged reply back through the connection's one outbound
/// frame path.
fn dispatch_request(body: Bytes, conn: &Arc<ServerConn>, shared: &Arc<ServerShared>) {
    let conn = Arc::clone(conn);
    let shared_for_job = Arc::clone(shared);
    shared.pool.execute(Box::new(move || {
        let (id, port, request) = match decode_mux_request(body) {
            Ok(parts) => parts,
            // Without an id there is nothing to tag a reply with; the
            // client's deadline reports the loss.
            Err(_) => return,
        };
        let handler = shared_for_job.handlers.read().get(&port).cloned();
        let reply = match handler {
            Some(h) => {
                let channel: Arc<dyn CallbackChannel> = Arc::clone(&conn) as _;
                h.handle_from(request, Some(&channel))
            }
            None => Reply::error(Bytes::from_static(b"no such port")),
        };
        let frame = match encode_mux_reply(id, &reply) {
            Ok(frame) => frame,
            Err(_) => {
                match encode_mux_reply(id, &Reply::error(Bytes::from_static(b"reply too large"))) {
                    Ok(frame) => frame,
                    Err(_) => return,
                }
            }
        };
        let _ = conn.send_frame(&frame);
    }));
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

/// One established client connection: a blocking socket written under a
/// lock, demultiplexed by a dedicated reader thread into the `MuxCore`.
struct ClientConn {
    stream: TcpStream,
    write_lock: Mutex<()>,
    mux: MuxCore,
    dead: AtomicBool,
}

impl ClientConn {
    /// Marks the connection unusable and fails everything in flight.
    fn kill(&self, err: &RpcError) {
        self.dead.store(true, Ordering::SeqCst);
        self.mux.fail_all(err);
    }
}

/// A pool slot: the current connection (if any) and whether this slot was
/// ever connected — re-establishing a previously working slot is a
/// *reconnect*, establishing it the first time is not.
#[derive(Default)]
struct ConnSlot {
    conn: Option<Arc<ClientConn>>,
    ever_connected: bool,
}

/// Callback listeners shared by every connection of one pooled client: the
/// server may grant a lease on one connection and (with per-connection grant
/// tables) break it on the same one, but the client-side tables are
/// connection-agnostic, so every reader dispatches into the same sink list.
type SinkList = Arc<Mutex<Vec<Arc<dyn CallbackSink>>>>;

struct ClientInner {
    server: SocketAddr,
    timeout: Duration,
    slots: Vec<Mutex<ConnSlot>>,
    next: AtomicUsize,
    reconnects: AtomicU64,
    sinks: SinkList,
}

/// A multiplexing client for a [`TcpServer`]: a pool of persistent
/// connections shared by all clones, many concurrent transactions in flight
/// per connection.
#[derive(Clone)]
pub struct TcpClient {
    inner: Arc<ClientInner>,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("server", &self.inner.server)
            .field("timeout", &self.inner.timeout)
            .field("connections", &self.inner.slots.len())
            .finish()
    }
}

impl TcpClient {
    /// Creates a client for the server at `server` with the default
    /// per-transaction timeout (5 s) and connection pool (2 connections).
    pub fn new(server: SocketAddr) -> Self {
        Self::build(server, Duration::from_secs(5), 2)
    }

    /// Sets the per-transaction timeout.  (A builder: call before issuing
    /// transactions — the pool is reset.)
    pub fn with_timeout(self, timeout: Duration) -> Self {
        Self::build(self.inner.server, timeout, self.inner.slots.len())
    }

    /// Sets the number of pooled connections transactions are spread over.
    /// (A builder: call before issuing transactions — the pool is reset.)
    pub fn with_connections(self, connections: usize) -> Self {
        Self::build(self.inner.server, self.inner.timeout, connections.max(1))
    }

    fn build(server: SocketAddr, timeout: Duration, connections: usize) -> Self {
        TcpClient {
            inner: Arc::new(ClientInner {
                server,
                timeout,
                slots: (0..connections)
                    .map(|_| Mutex::new(ConnSlot::default()))
                    .collect(),
                next: AtomicUsize::new(0),
                reconnects: AtomicU64::new(0),
                sinks: Arc::new(Mutex::new(Vec::new())),
            }),
        }
    }

    /// Picks the next pool slot round-robin and returns its live connection,
    /// (re-)establishing one if needed.  Connect failures are retried on a
    /// jittered backoff; once the schedule exhausts, `ServerCrashed` is
    /// returned — a connection that never opened provably executed nothing,
    /// so every failover policy may redirect it.
    fn get_conn(&self) -> Result<Arc<ClientConn>> {
        let inner = &self.inner;
        let slot_index = inner.next.fetch_add(1, Ordering::Relaxed) % inner.slots.len();
        let mut slot = inner.slots[slot_index].lock();
        if let Some(conn) = &slot.conn {
            if !conn.dead.load(Ordering::SeqCst) {
                return Ok(Arc::clone(conn));
            }
        }
        let mut backoff = Backoff::with_seed(
            Duration::from_millis(10),
            Duration::from_millis(80),
            3,
            u64::from(inner.server.port()) ^ slot_index as u64,
        );
        loop {
            match TcpStream::connect_timeout(&inner.server, inner.timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    let reader_stream = stream.try_clone()?;
                    let conn = Arc::new(ClientConn {
                        stream,
                        write_lock: Mutex::new(()),
                        mux: MuxCore::new(),
                        dead: AtomicBool::new(false),
                    });
                    let reader_conn = Arc::clone(&conn);
                    let reader_sinks = Arc::clone(&inner.sinks);
                    std::thread::spawn(move || {
                        reader_loop(reader_stream, reader_conn, reader_sinks)
                    });
                    if slot.ever_connected {
                        inner.reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    slot.ever_connected = true;
                    slot.conn = Some(Arc::clone(&conn));
                    return Ok(conn);
                }
                Err(_) => {
                    if !backoff.sleep_next() {
                        return Err(RpcError::ServerCrashed);
                    }
                }
            }
        }
    }
}

/// Demultiplexes inbound frames off one connection until it dies.  Replies
/// complete whichever request their id names — in arrival order, which need
/// not be request order.  Server-pushed callback frames (the reserved
/// [`crate::codec::CALLBACK_MARKER`] id) are dispatched to every registered
/// [`CallbackSink`] and then acked back to the server: sinks only mutate
/// local state (drop a lease), so "every sink returned" is the moment the
/// callback is honoured, and the ack write happens here on the reader thread
/// through the same serialised frame writer the requesters use.
fn reader_loop(mut stream: TcpStream, conn: Arc<ClientConn>, sinks: SinkList) {
    let died: RpcError = loop {
        let mut header = [0u8; 4];
        if stream.read_exact(&mut header).is_err() {
            break RpcError::Dropped;
        }
        let len = u32::from_le_bytes(header) as usize;
        if len > MAX_FRAME_BODY {
            break RpcError::Decode(format!("reply frame of {len} bytes is too large"));
        }
        let mut body = vec![0u8; len];
        if stream.read_exact(&mut body).is_err() {
            break RpcError::Dropped;
        }
        let body = Bytes::from(body);
        if is_callback_frame(&body) {
            match decode_mux_callback(body) {
                Ok((ticket, port, payload)) => {
                    let listeners: Vec<Arc<dyn CallbackSink>> = sinks.lock().clone();
                    for sink in &listeners {
                        sink.on_callback(port, payload.clone());
                    }
                    let ack = encode_mux_callback_ack(ticket);
                    if write_frame_blocking(&conn.stream, &conn.write_lock, &ack).is_err() {
                        // Can't ack on a dying connection; the server's
                        // wait falls back to the grant's own expiry.
                        break RpcError::Dropped;
                    }
                }
                Err(err) => break err,
            }
            continue;
        }
        match decode_mux_reply(body) {
            Ok((id, reply)) => {
                conn.mux.complete(id, Ok(reply));
            }
            // An undecodable reply means the stream is out of sync; nothing
            // on this connection can be trusted any more.
            Err(err) => break err,
        }
    };
    conn.kill(&died);
    // Leases live and die with the connection that could break them: tell
    // every sink its server can no longer reach it.
    let listeners: Vec<Arc<dyn CallbackSink>> = sinks.lock().clone();
    for sink in &listeners {
        sink.on_connection_lost();
    }
}

impl Transport for TcpClient {
    fn transact(&self, port: Port, request: Request) -> Result<Reply> {
        let deadline = Instant::now() + self.inner.timeout;
        let conn = self.get_conn()?;
        let id = conn.mux.allocate();
        let frame = encode_mux_request(id, port, &request)?;
        if write_frame_blocking(&conn.stream, &conn.write_lock, &frame).is_err() {
            // The write path failed: the connection is gone, and whether any
            // bytes reached the server is unknowable — poison it and report
            // the ambiguous outcome.
            conn.kill(&RpcError::Dropped);
        }
        conn.mux.wait(id, deadline)
    }

    fn reconnects(&self) -> u64 {
        self.inner.reconnects.load(Ordering::Relaxed)
    }

    fn register_callback_sink(&self, sink: Arc<dyn CallbackSink>) -> bool {
        self.inner.sinks.lock().push(sink);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_capability::Capability;
    use bytes::BytesMut;

    #[test]
    fn a_panicking_job_releases_its_worker_slot() {
        let pool = WorkerPool::new();
        let live_before = pool.inner.lock().live;
        pool.execute(Box::new(|| panic!("job failed")));
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.inner.lock().live != live_before {
            assert!(
                Instant::now() < deadline,
                "the dead worker still counts as live"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let (done, ran) = std::sync::mpsc::channel();
        pool.execute(Box::new(move || done.send(()).unwrap()));
        ran.recv_timeout(Duration::from_secs(5))
            .expect("a job queued after the panic still runs");
        pool.shutdown();
    }

    #[test]
    fn tcp_round_trip() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(77);
        server.register(
            port,
            Arc::new(|req: Request| {
                let mut out = BytesMut::from(&b"echo:"[..]);
                out.extend_from_slice(&req.payload);
                Reply::ok(out.freeze())
            }),
        );
        let client = TcpClient::new(server.local_addr());
        let reply = client
            .transact(
                port,
                Request::new(1, Capability::null(), Bytes::from_static(b"hi")),
            )
            .unwrap();
        assert!(reply.is_ok());
        assert_eq!(reply.payload, Bytes::from_static(b"echo:hi"));
    }

    #[test]
    fn unknown_port_gets_error_reply() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::new(server.local_addr());
        let reply = client
            .transact(Port::from_raw(1), Request::empty(0, Capability::null()))
            .unwrap();
        assert!(!reply.is_ok());
    }

    #[test]
    fn multiple_sequential_transactions() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(5);
        server.register(port, Arc::new(|req: Request| Reply::ok(req.payload)));
        let client = TcpClient::new(server.local_addr());
        for i in 0..10u8 {
            let reply = client
                .transact(
                    port,
                    Request::new(1, Capability::null(), Bytes::from(vec![i])),
                )
                .unwrap();
            assert_eq!(reply.payload, Bytes::from(vec![i]));
        }
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(6);
        server.register(port, Arc::new(|req: Request| Reply::ok(req.payload)));
        let addr = server.local_addr();
        let mut handles = Vec::new();
        for t in 0..4u8 {
            handles.push(std::thread::spawn(move || {
                let client = TcpClient::new(addr);
                for i in 0..20u8 {
                    let payload = Bytes::from(vec![t, i]);
                    let reply = client
                        .transact(port, Request::new(1, Capability::null(), payload.clone()))
                        .unwrap();
                    assert_eq!(reply.payload, payload);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Many logical streams interleave on ONE connection, and replies
    /// complete out of order: the handler sleeps longer for smaller ids, so
    /// the first requests written are the last answered — yet every thread
    /// gets its own payload back.
    #[test]
    fn interleaved_streams_on_one_connection_complete_out_of_order() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(9);
        server.register(
            port,
            Arc::new(|req: Request| {
                let rank = req.payload[0];
                // Earlier-sent requests sleep longest → reply order is the
                // reverse of request order.
                std::thread::sleep(Duration::from_millis(u64::from(16 - rank) * 5));
                Reply::ok(req.payload)
            }),
        );
        // A single shared connection: all 16 streams multiplex on it.
        let client = TcpClient::new(server.local_addr()).with_connections(1);
        let start = Instant::now();
        let mut handles = Vec::new();
        for rank in 0..16u8 {
            let client = client.clone();
            handles.push(std::thread::spawn(move || {
                let payload = Bytes::from(vec![rank]);
                let reply = client
                    .transact(port, Request::new(1, Capability::null(), payload.clone()))
                    .unwrap();
                assert_eq!(reply.payload, payload);
            }));
            // Stagger the sends a little so write order is deterministic
            // enough for the sleep schedule to invert it.
            std::thread::sleep(Duration::from_millis(1));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Serially the sleeps alone would be 5+10+...+80 = 680 ms; pipelined
        // on one connection the whole batch bounds at the longest sleep plus
        // overhead.  A loose factor guards against CI jitter.
        assert!(
            start.elapsed() < Duration::from_millis(600),
            "requests on one connection were serialised: {:?}",
            start.elapsed()
        );
    }

    /// A request that exceeds its deadline times out alone; the connection
    /// keeps serving the requests pipelined behind it.
    #[test]
    fn deadline_expiry_cancels_one_request_without_killing_the_connection() {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(11);
        server.register(
            port,
            Arc::new(|req: Request| {
                if req.op == 1 {
                    std::thread::sleep(Duration::from_millis(300));
                }
                Reply::ok(req.payload)
            }),
        );
        let client = TcpClient::new(server.local_addr())
            .with_connections(1)
            .with_timeout(Duration::from_millis(60));
        let slow = {
            let client = client.clone();
            std::thread::spawn(move || {
                client.transact(port, Request::new(1, Capability::null(), Bytes::new()))
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        // Pipelined behind the slow one, but fast: completes fine.
        let fast = client
            .transact(
                port,
                Request::new(0, Capability::null(), Bytes::from_static(b"fast")),
            )
            .unwrap();
        assert_eq!(fast.payload, Bytes::from_static(b"fast"));
        assert_eq!(slow.join().unwrap().unwrap_err(), RpcError::Timeout);
        // The connection survived the expiry: later transactions still work.
        let again = client
            .transact(
                port,
                Request::new(0, Capability::null(), Bytes::from_static(b"again")),
            )
            .unwrap();
        assert_eq!(again.payload, Bytes::from_static(b"again"));
    }

    /// A handler that captures its peer channel on op 1 and, on op 2, pushes
    /// a callback through it and reports whether the client acked in time —
    /// the exact shape of a lease grant followed by a lease break.
    #[test]
    fn callbacks_are_pushed_dispatched_and_acked() {
        struct Breaker {
            chan: Mutex<Option<Arc<dyn CallbackChannel>>>,
        }
        impl RequestHandler for Breaker {
            fn handle(&self, req: Request) -> Reply {
                Reply::ok(req.payload)
            }
            fn handle_from(&self, req: Request, peer: Option<&Arc<dyn CallbackChannel>>) -> Reply {
                match req.op {
                    1 => {
                        *self.chan.lock() = peer.cloned();
                        Reply::ok(Bytes::new())
                    }
                    _ => {
                        let chan = self.chan.lock().clone().expect("op 1 first");
                        let ticket = chan
                            .push(Port::from_raw(15), Bytes::from_static(b"break"))
                            .expect("push on live connection");
                        let acked =
                            chan.wait_acked(ticket, Instant::now() + Duration::from_secs(2));
                        Reply::ok(Bytes::from(vec![u8::from(acked)]))
                    }
                }
            }
        }

        struct Recorder {
            seen: Mutex<Vec<(Port, Bytes)>>,
        }
        impl CallbackSink for Recorder {
            fn on_callback(&self, port: Port, payload: Bytes) {
                self.seen.lock().push((port, payload));
            }
        }

        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let port = Port::from_raw(15);
        server.register(
            port,
            Arc::new(Breaker {
                chan: Mutex::new(None),
            }),
        );
        let client = TcpClient::new(server.local_addr()).with_connections(1);
        let recorder = Arc::new(Recorder {
            seen: Mutex::new(Vec::new()),
        });
        assert!(client.register_callback_sink(Arc::clone(&recorder) as _));

        client
            .transact(port, Request::new(1, Capability::null(), Bytes::new()))
            .unwrap();
        let reply = client
            .transact(port, Request::new(2, Capability::null(), Bytes::new()))
            .unwrap();
        assert_eq!(
            reply.payload.as_ref(),
            &[1],
            "server never saw the client's ack"
        );
        let seen = recorder.seen.lock();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, Port::from_raw(15));
        assert_eq!(seen[0].1.as_ref(), b"break");
    }

    /// Killing the server and restarting on the same address exercises the
    /// reconnect path, which must be counted in `reconnects()`.
    #[test]
    fn reconnect_after_server_restart_is_counted() {
        let mut server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let port = Port::from_raw(13);
        server.register(port, Arc::new(|req: Request| Reply::ok(req.payload)));
        let client = TcpClient::new(addr).with_connections(1);
        client
            .transact(port, Request::new(0, Capability::null(), Bytes::new()))
            .unwrap();
        assert_eq!(client.reconnects(), 0);

        server.shutdown();
        // The pooled connection is now dead; the first transact after the
        // restart below must transparently re-establish it.
        let server = TcpServer::bind(&addr.to_string()).unwrap();
        server.register(port, Arc::new(|req: Request| Reply::ok(req.payload)));

        // The dead connection may serve one failing transact before the
        // reader thread notices EOF; retry a few times like a real caller.
        let mut ok = false;
        for _ in 0..20 {
            if client
                .transact(port, Request::new(0, Capability::null(), Bytes::new()))
                .is_ok()
            {
                ok = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(ok, "client never recovered after server restart");
        assert_eq!(client.reconnects(), 1);
    }
}
