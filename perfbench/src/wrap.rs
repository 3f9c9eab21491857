//! Timing wrappers for the traced run.  Each wraps one layer's public trait
//! and records a span around every call into it.
//!
//! Every trait method is forwarded, including the defaulted ones the real
//! types override (`FileStore::read_pages`/`write_pages`/`validate_cache`/
//! `io_stats`, `BlockStore::write_batch`/`set_epoch`/`block_size`,
//! `Transport::register_callback_sink`/`reconnects`,
//! `RequestHandler::handle_from`).  Missing one would silently turn off
//! batching or leases, and the traced run would measure a different program;
//! the test at the bottom checks that it does not.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use afs_core::{
    BlockNr, CacheValidation, Capability, CommitReceipt, FileStore, PageIoStats, PagePath,
};
use amoeba_block::{BlockStore, StoreStats};
use amoeba_capability::Port;
use amoeba_rpc::{CallbackChannel, CallbackSink, Reply, Request, RequestHandler, Transport};
use bytes::Bytes;

use crate::trace::{access, recording, span, Layer};

/// Bytes of page data handed to the file store by clients while recording.
pub static USER_BYTES: AtomicU64 = AtomicU64::new(0);
/// Request plus reply payload bytes through the traced transport while
/// recording.
pub static RPC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(counter: &AtomicU64, n: usize) {
    if recording() {
        counter.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// `FileStore` method codes carried by store spans.
pub mod store_op {
    pub const CREATE_FILE: u8 = 0;
    pub const CREATE_VERSION: u8 = 1;
    pub const READ_PAGE: u8 = 2;
    pub const WRITE_PAGE: u8 = 3;
    pub const APPEND_PAGE: u8 = 4;
    pub const INSERT_PAGE: u8 = 5;
    pub const REMOVE_PAGE: u8 = 6;
    pub const COMMIT: u8 = 7;
    pub const ABORT: u8 = 8;
    pub const CURRENT_VERSION: u8 = 9;
    pub const READ_COMMITTED_PAGE: u8 = 10;
    pub const VALIDATE_CACHE: u8 = 11;
    pub const READ_PAGES: u8 = 12;
    pub const WRITE_PAGES: u8 = 13;
}

/// A timing `FileStore` placed under `ClientCache` / `NamedStore` (or used
/// directly by the workload).
pub struct TracedStore<S> {
    inner: S,
}

impl<S> TracedStore<S> {
    pub fn new(inner: S) -> Self {
        TracedStore { inner }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }
}

fn store_span(code: u8, cap: &Capability) -> Option<crate::trace::SpanGuard> {
    span(Layer::Store, code, cap.object, 0)
}

impl<S: FileStore> FileStore for TracedStore<S> {
    fn create_file(&self) -> afs_core::Result<Capability> {
        let _s = span(Layer::Store, store_op::CREATE_FILE, 0, 0);
        self.inner.create_file()
    }
    fn create_version(&self, file: &Capability) -> afs_core::Result<Capability> {
        let _s = store_span(store_op::CREATE_VERSION, file);
        self.inner.create_version(file)
    }
    fn read_page(&self, version: &Capability, path: &PagePath) -> afs_core::Result<Bytes> {
        let _s = store_span(store_op::READ_PAGE, version);
        self.inner.read_page(version, path)
    }
    fn write_page(
        &self,
        version: &Capability,
        path: &PagePath,
        data: Bytes,
    ) -> afs_core::Result<()> {
        let _s = store_span(store_op::WRITE_PAGE, version);
        count(&USER_BYTES, data.len());
        self.inner.write_page(version, path, data)
    }
    fn append_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        data: Bytes,
    ) -> afs_core::Result<PagePath> {
        let _s = store_span(store_op::APPEND_PAGE, version);
        count(&USER_BYTES, data.len());
        self.inner.append_page(version, parent, data)
    }
    fn insert_page(
        &self,
        version: &Capability,
        parent: &PagePath,
        index: u16,
        data: Bytes,
    ) -> afs_core::Result<PagePath> {
        let _s = store_span(store_op::INSERT_PAGE, version);
        count(&USER_BYTES, data.len());
        self.inner.insert_page(version, parent, index, data)
    }
    fn remove_page(&self, version: &Capability, path: &PagePath) -> afs_core::Result<()> {
        let _s = store_span(store_op::REMOVE_PAGE, version);
        self.inner.remove_page(version, path)
    }
    fn commit(&self, version: &Capability) -> afs_core::Result<CommitReceipt> {
        let _s = store_span(store_op::COMMIT, version);
        self.inner.commit(version)
    }
    fn abort(&self, version: &Capability) -> afs_core::Result<()> {
        let _s = store_span(store_op::ABORT, version);
        self.inner.abort(version)
    }
    fn current_version(&self, file: &Capability) -> afs_core::Result<Capability> {
        let _s = store_span(store_op::CURRENT_VERSION, file);
        self.inner.current_version(file)
    }
    fn read_committed_page(
        &self,
        version: &Capability,
        path: &PagePath,
    ) -> afs_core::Result<Bytes> {
        let _s = store_span(store_op::READ_COMMITTED_PAGE, version);
        self.inner.read_committed_page(version, path)
    }
    fn validate_cache(
        &self,
        file: &Capability,
        cached_block: BlockNr,
    ) -> afs_core::Result<CacheValidation> {
        let _s = store_span(store_op::VALIDATE_CACHE, file);
        self.inner.validate_cache(file, cached_block)
    }
    fn read_pages(&self, version: &Capability, paths: &[PagePath]) -> afs_core::Result<Vec<Bytes>> {
        let _s = store_span(store_op::READ_PAGES, version);
        self.inner.read_pages(version, paths)
    }
    fn write_pages(
        &self,
        version: &Capability,
        writes: &[(PagePath, Bytes)],
    ) -> afs_core::Result<()> {
        let _s = store_span(store_op::WRITE_PAGES, version);
        count(&USER_BYTES, writes.iter().map(|(_, d)| d.len()).sum());
        self.inner.write_pages(version, writes)
    }
    fn io_stats(&self) -> Option<PageIoStats> {
        self.inner.io_stats()
    }
    fn shard_io_stats(&self) -> Option<Vec<PageIoStats>> {
        self.inner.shard_io_stats()
    }
}

/// A timing `Transport` placed under `RemoteFs`.
pub struct TracedTransport<T> {
    inner: T,
}

impl<T> TracedTransport<T> {
    pub fn new(inner: T) -> Self {
        TracedTransport { inner }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn transact(&self, port: Port, request: Request) -> amoeba_rpc::Result<Reply> {
        let _s = span(Layer::Rpc, request.op as u8, request.cap.object, port.raw());
        let sent = request.payload.len();
        let reply = self.inner.transact(port, request);
        count(
            &RPC_BYTES,
            sent + reply.as_ref().map_or(0, |r| r.payload.len()),
        );
        reply
    }
    fn reconnects(&self) -> u64 {
        self.inner.reconnects()
    }
    fn register_callback_sink(&self, sink: Arc<dyn CallbackSink>) -> bool {
        self.inner.register_callback_sink(sink)
    }
}

/// A timing `RequestHandler` registered in place of the real one.  It hands
/// the handler a timing wrapper of the peer's callback channel, so the time a
/// settling commit waits for break acks is seen too.
pub struct TracedHandler<H> {
    inner: H,
    port: Port,
}

impl<H> TracedHandler<H> {
    /// `port` is the service port the handler is registered under.
    pub fn new(inner: H, port: Port) -> Self {
        TracedHandler { inner, port }
    }
}

impl<H: RequestHandler> RequestHandler for TracedHandler<H> {
    fn handle(&self, request: Request) -> Reply {
        let _s = span(
            Layer::Handle,
            request.op as u8,
            request.cap.object,
            self.port.raw(),
        );
        self.inner.handle(request)
    }
    fn handle_from(&self, request: Request, peer: Option<&Arc<dyn CallbackChannel>>) -> Reply {
        let _s = span(
            Layer::Handle,
            request.op as u8,
            request.cap.object,
            self.port.raw(),
        );
        let peer = peer.map(|p| Arc::new(TracedChannel(Arc::clone(p))) as Arc<dyn CallbackChannel>);
        self.inner.handle_from(request, peer.as_ref())
    }
}

/// Times `wait_acked` on a client connection's callback channel.
struct TracedChannel(Arc<dyn CallbackChannel>);

impl CallbackChannel for TracedChannel {
    fn push(&self, port: Port, payload: Bytes) -> Option<u64> {
        self.0.push(port, payload)
    }
    fn wait_acked(&self, ticket: u64, deadline: Instant) -> bool {
        let _s = span(Layer::Settle, 0, ticket, 0);
        self.0.wait_acked(ticket, deadline)
    }
    fn peer_key(&self) -> u64 {
        self.0.peer_key()
    }
    fn is_closed(&self) -> bool {
        self.0.is_closed()
    }
}

/// A timing `BlockStore`: around the replicated store under `BlockServer`
/// (`Layer::Block`) or around one replica's disk (`Layer::Disk`).
pub struct TracedBlockStore<B> {
    inner: B,
    layer: Layer,
}

impl<B> TracedBlockStore<B> {
    pub fn new(inner: B, layer: Layer) -> Self {
        TracedBlockStore { inner, layer }
    }
}

impl<B: BlockStore> BlockStore for TracedBlockStore<B> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn allocate(&self) -> amoeba_block::Result<BlockNr> {
        let mut s = span(self.layer, access::ALLOCATE, 0, 0);
        let nr = self.inner.allocate();
        if let (Some(s), Ok(nr)) = (s.as_mut(), &nr) {
            s.set_key(u64::from(*nr));
        }
        nr
    }
    fn allocate_at(&self, nr: BlockNr) -> amoeba_block::Result<()> {
        let _s = span(self.layer, access::ALLOCATE, u64::from(nr), 0);
        self.inner.allocate_at(nr)
    }
    fn free(&self, nr: BlockNr) -> amoeba_block::Result<()> {
        let _s = span(self.layer, access::FREE, u64::from(nr), 0);
        self.inner.free(nr)
    }
    fn read(&self, nr: BlockNr) -> amoeba_block::Result<Bytes> {
        let _s = span(self.layer, access::READ, u64::from(nr), 0);
        self.inner.read(nr)
    }
    fn write(&self, nr: BlockNr, data: Bytes) -> amoeba_block::Result<()> {
        let _s = span(self.layer, access::WRITE, u64::from(nr), 0);
        self.inner.write(nr, data)
    }
    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> amoeba_block::Result<()> {
        let first = writes.first().map_or(0, |(nr, _)| u64::from(*nr));
        let _s = span(self.layer, access::WRITE, first, 0);
        self.inner.write_batch(writes)
    }
    fn is_allocated(&self, nr: BlockNr) -> bool {
        self.inner.is_allocated(nr)
    }
    fn allocated_count(&self) -> usize {
        self.inner.allocated_count()
    }
    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
    fn allocated_blocks(&self) -> Vec<BlockNr> {
        self.inner.allocated_blocks()
    }
    fn set_epoch(&self, epoch: u64) {
        self.inner.set_epoch(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::path;
    use crate::stack::{build_service, DiskModel, Service, SERVICE_PORT};
    use crate::trace::{self, Span};
    use afs_client::{ClientCache, RemoteFs};
    use afs_core::{FileStoreExt, RetryPolicy};
    use amoeba_rpc::{ClientStats, LocalConn, LocalNetwork};

    const FILES: usize = 4;
    /// Pages per file, all rewritten by the k-page commit.
    const K: usize = 6;
    const ROUNDS: usize = 5;

    #[derive(Debug, PartialEq)]
    struct Slice {
        rpcs: u64,
        zero_rpc_hits: u64,
        /// Per commit (one page, then k pages), per replica: (write calls,
        /// blocks written).
        commit_io: Vec<Vec<(u64, u64)>>,
    }

    fn io(svc: &Service) -> Vec<(u64, u64)> {
        svc.replicas.quiesce();
        svc.mem
            .iter()
            .map(|m| (m.stats().write_calls, m.stats().writes))
            .collect()
    }

    /// One client: warm reads through a `ClientCache`, a k-page commit, more
    /// warm reads.  Everything is deterministic with one client.
    fn slice<S: FileStore>(
        store: &S,
        net: &LocalNetwork,
        svc: &Service,
        stats: &dyn Fn() -> ClientStats,
    ) -> Slice {
        let files: Vec<Capability> = crate::pages::provision(store, (FILES, K, 64), 0, 1)
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        let before = net.transaction_count();
        let mut cache = ClientCache::new(store);
        let warm = |cache: &mut ClientCache<&S>| {
            for _ in 0..ROUNDS {
                for cap in &files {
                    cache.revalidate(cap).unwrap();
                    for p in 0..K {
                        cache.read(cap, &path(p)).unwrap();
                    }
                }
            }
        };
        warm(&mut cache);
        // A one-page and a k-page commit: batching makes them cost the same
        // number of write calls per replica.
        let commit_io = [1, K]
            .iter()
            .enumerate()
            .map(|(f, &k)| {
                let before = io(svc);
                let paths: Vec<PagePath> = (0..k).map(path).collect();
                store
                    .update_with(&files[f], RetryPolicy::default(), |tx| {
                        let old = tx.read_many(&paths)?;
                        let writes: Vec<(PagePath, Bytes)> = paths
                            .iter()
                            .zip(&old)
                            .map(|(p, d)| (p.clone(), crate::pages::incremented(d)))
                            .collect();
                        tx.write_many(&writes)
                    })
                    .unwrap();
                io(svc)
                    .iter()
                    .zip(&before)
                    .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
                    .collect()
            })
            .collect();
        warm(&mut cache);
        Slice {
            rpcs: net.transaction_count() - before,
            zero_rpc_hits: stats().zero_rpc_hits,
            commit_io,
        }
    }

    fn network(svc: &Service) -> Arc<LocalNetwork> {
        let net = Arc::new(LocalNetwork::new());
        net.register(Port::from_raw(SERVICE_PORT), Arc::clone(&svc.handler));
        net
    }

    fn remote<T: Transport>(t: T) -> RemoteFs<T> {
        RemoteFs::new(t, vec![Port::from_raw(SERVICE_PORT)])
    }

    #[test]
    fn the_traced_configuration_runs_the_same_program() {
        let _serial = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let model = DiskModel::Mem;

        let svc = build_service(model, false);
        let net = network(&svc);
        let plain_store: RemoteFs<LocalConn> = remote(net.connect());
        let plain = slice(&plain_store, &net, &svc, &|| plain_store.stats());

        let svc = build_service(model, true);
        let net = network(&svc);
        let traced_store = TracedStore::new(remote(TracedTransport::new(net.connect())));
        trace::take_spans();
        trace::set_recording(true);
        let traced = slice(&traced_store, &net, &svc, &|| traced_store.inner().stats());
        trace::set_recording(false);
        let (spans, _) = trace::take_spans();

        assert_eq!(plain, traced);
        assert!(traced.zero_rpc_hits > 0, "leases must survive the wrappers");
        // Every transaction in the slice (provisioning included) went through
        // the traced transport and the traced handler.
        let count = |layer| spans.iter().filter(|s: &&Span| s.layer == layer).count() as u64;
        assert_eq!(count(Layer::Rpc), net.transaction_count());
        assert_eq!(count(Layer::Handle), net.transaction_count());
        // The k-page commit's data pages reach each replica in one batch:
        // k - 1 more blocks than the one-page commit, no more write calls.
        let (one, k) = (&traced.commit_io[0], &traced.commit_io[1]);
        for (a, b) in one.iter().zip(k) {
            assert_eq!(
                a.0, b.0,
                "write calls per replica grow with the pages committed"
            );
            assert_eq!(b.1 - a.1, K as u64 - 1);
        }
    }
}
