//! Page I/O: reading and writing pages through the block service.
//!
//! All pages of all versions live in blocks of a [`BlockServer`] owned by the file
//! service's account.  `PageIo` adds three layers on top of raw block I/O:
//!
//! * **A write-back buffer (overlay).**  The paper's commit protocol only requires
//!   that a version's pages be safely on disk *at commit time* ("First it ascertains
//!   that all of V.b's pages are safely on disk").  Page writes for uncommitted
//!   versions therefore land in an in-memory overlay ([`PageIo::write_page_buffered`]
//!   / [`PageIo::allocate_page_buffered`]) and are made durable by
//!   [`crate::commit`] immediately before the commit-reference test-and-set:
//!   one scatter-gather [`PageIo::flush_blocks_batched`] call carrying every
//!   dirty data page (children-first order preserved inside the batch), then
//!   the version page by itself, strictly last.  Aborts simply drop the
//!   buffer; crash recovery treats an unflushed uncommitted version as
//!   aborted, which is exactly the paper's "uncommitted versions need not be
//!   salvaged" rule.  The overlay is *authoritative* for the blocks
//!   it holds: every read path consults it first, because a buffered block's
//!   on-disk contents do not exist yet.
//!
//! * **A sharded clean-page cache of `Arc<Page>`.**  The optional flag cache of
//!   §5.4 ("The Amoeba File Servers can also conveniently cache the concurrency
//!   control administration, the flag bits") is a sharded LRU keyed by block
//!   number.  Hits hand back an `Arc` clone — no deep copy of the data or the
//!   reference table — and independent shards keep concurrent commit/validation
//!   scans from serialising on a single lock.
//!
//! * **I/O counters**, so the benchmarks report physical disk traffic rather than
//!   wall-clock time alone.  `page_writes` counts *physical* writes only: a k-write
//!   update to one page costs 0 physical writes until commit, then O(dirty pages)
//!   at flush time (visible separately as `pages_flushed_at_commit`).
//!   `block_write_calls` counts write *calls*: the batched flush makes it O(1)
//!   per commit while `page_writes` stays O(dirty pages) — the counter pair is
//!   what proves the k-pages-in-1-call claim instead of inferring it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use amoeba_block::{BlockNr, BlockServer};
use amoeba_capability::Capability;

use crate::page::Page;
use crate::types::Result;

/// I/O statistics of the file service.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PageIoStats {
    /// Pages read from the block service (physical reads).
    pub page_reads: u64,
    /// Pages written to the block service (physical writes, including flushes).
    pub page_writes: u64,
    /// Pages newly allocated (copy-on-write copies, fresh pages, version pages).
    pub pages_allocated: u64,
    /// Pages freed (aborted versions, garbage collection).
    pub pages_freed: u64,
    /// Reads satisfied from the clean-page cache or the write-back buffer without
    /// touching the block service.
    pub cache_hits: u64,
    /// Physical page writes performed by commit-time flushes of the write-back
    /// buffer: each dirty page once, however many logical writes it absorbed.
    pub pages_flushed_at_commit: u64,
    /// Physical block-write *calls* issued to the block service, as opposed to
    /// pages written: a k-page commit flush counts one call, a direct page
    /// write ([`PageIo::write_page`], [`PageIo::allocate_page`]) counts one.
    /// `page_writes / block_write_calls` is the realised batching factor — the
    /// observable form of the k-pages-in-1-call claim.
    pub block_write_calls: u64,
}

impl PageIoStats {
    /// Field-wise difference `self - earlier`.
    pub fn since(&self, earlier: &PageIoStats) -> PageIoStats {
        PageIoStats {
            page_reads: self.page_reads - earlier.page_reads,
            page_writes: self.page_writes - earlier.page_writes,
            pages_allocated: self.pages_allocated - earlier.pages_allocated,
            pages_freed: self.pages_freed - earlier.pages_freed,
            cache_hits: self.cache_hits - earlier.cache_hits,
            pages_flushed_at_commit: self.pages_flushed_at_commit - earlier.pages_flushed_at_commit,
            block_write_calls: self.block_write_calls - earlier.block_write_calls,
        }
    }

    /// Field-wise sum `self + other`: the aggregate I/O of several independent
    /// services (the shards of a sharded store report one combined figure).
    pub fn merged(&self, other: &PageIoStats) -> PageIoStats {
        PageIoStats {
            page_reads: self.page_reads + other.page_reads,
            page_writes: self.page_writes + other.page_writes,
            pages_allocated: self.pages_allocated + other.pages_allocated,
            pages_freed: self.pages_freed + other.pages_freed,
            cache_hits: self.cache_hits + other.cache_hits,
            pages_flushed_at_commit: self.pages_flushed_at_commit + other.pages_flushed_at_commit,
            block_write_calls: self.block_write_calls + other.block_write_calls,
        }
    }
}

/// Number of independent shards in the clean-page cache.
const CACHE_SHARDS: usize = 16;

/// A sharded LRU cache of decoded pages.  Each shard is guarded by its own lock so
/// hot read paths (commit validation, cache revalidation, GC marking) running on
/// different blocks do not contend.
struct PageCache {
    shards: Vec<Mutex<CacheShard>>,
}

struct CacheShard {
    capacity: usize,
    /// Block → (page, last-use stamp).
    map: HashMap<BlockNr, (Arc<Page>, u64)>,
    /// Lazily maintained LRU queue of (block, stamp) pairs.  Entries whose stamp no
    /// longer matches the map are stale and skipped during eviction; the queue is
    /// compacted when it grows well beyond the shard capacity, keeping both hit and
    /// eviction cost amortised O(1).
    queue: VecDeque<(BlockNr, u64)>,
    tick: u64,
}

impl CacheShard {
    fn touch(&mut self, nr: BlockNr) -> Option<Arc<Page>> {
        self.tick += 1;
        let tick = self.tick;
        let (page, stamp) = self.map.get_mut(&nr)?;
        *stamp = tick;
        let page = Arc::clone(page);
        self.queue.push_back((nr, tick));
        self.maybe_compact();
        Some(page)
    }

    fn insert(&mut self, nr: BlockNr, page: Arc<Page>) {
        self.tick += 1;
        let tick = self.tick;
        self.map.insert(nr, (page, tick));
        self.queue.push_back((nr, tick));
        while self.map.len() > self.capacity {
            match self.queue.pop_front() {
                Some((victim, stamp)) => {
                    if self.map.get(&victim).is_some_and(|(_, s)| *s == stamp) {
                        self.map.remove(&victim);
                    }
                }
                None => break,
            }
        }
        self.maybe_compact();
    }

    fn remove(&mut self, nr: BlockNr) {
        self.map.remove(&nr);
    }

    fn maybe_compact(&mut self) {
        if self.queue.len() > (4 * self.capacity).max(64) {
            let map = &self.map;
            self.queue
                .retain(|(nr, stamp)| map.get(nr).is_some_and(|(_, s)| s == stamp));
        }
    }
}

impl PageCache {
    fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(CACHE_SHARDS).max(1);
        PageCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| {
                    Mutex::new(CacheShard {
                        capacity: per_shard,
                        map: HashMap::new(),
                        queue: VecDeque::new(),
                        tick: 0,
                    })
                })
                .collect(),
        }
    }

    fn shard(&self, nr: BlockNr) -> &Mutex<CacheShard> {
        // Fibonacci-hash the block number so consecutive blocks spread over shards.
        let h = (u64::from(nr)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize % CACHE_SHARDS]
    }

    fn get(&self, nr: BlockNr) -> Option<Arc<Page>> {
        self.shard(nr).lock().touch(nr)
    }

    fn insert(&self, nr: BlockNr, page: &Arc<Page>) {
        self.shard(nr).lock().insert(nr, Arc::clone(page));
    }

    fn remove(&self, nr: BlockNr) {
        self.shard(nr).lock().remove(nr);
    }
}

/// The write-back buffer: dirty pages of uncommitted versions, keyed by the block
/// number they will occupy once flushed.  Authoritative over the disk.  Sharded
/// like the clean cache so concurrent versions' page writes (and the membership
/// probes on every read) do not serialise on one lock.
struct Overlay {
    shards: Vec<RwLock<HashMap<BlockNr, Arc<Page>>>>,
}

impl Overlay {
    fn new() -> Self {
        Overlay {
            shards: (0..CACHE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, nr: BlockNr) -> &RwLock<HashMap<BlockNr, Arc<Page>>> {
        let h = (u64::from(nr)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 32) as usize % CACHE_SHARDS]
    }

    fn get(&self, nr: BlockNr) -> Option<Arc<Page>> {
        self.shard(nr).read().get(&nr).cloned()
    }

    fn contains(&self, nr: BlockNr) -> bool {
        self.shard(nr).read().contains_key(&nr)
    }

    fn insert(&self, nr: BlockNr, page: Arc<Page>) {
        self.shard(nr).write().insert(nr, page);
    }

    fn remove(&self, nr: BlockNr) -> Option<Arc<Page>> {
        self.shard(nr).write().remove(&nr)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

/// The page view handed to [`PageIo::update_page`] closures: dereferences to
/// [`Page`] for reading, and clones the page **only on the first mutable
/// access** (auto-deref makes this invisible at the call site).  A closure
/// that merely examines the page — the common "test" half of test-and-set,
/// which returns `(false, …)` — therefore costs no page copy at all.
pub struct PageMut<'a> {
    /// The shared original; `None` when the view was constructed over an owned
    /// page (the disk path, where the decoded page is already private).
    base: Option<&'a Page>,
    /// The private copy, made lazily on first mutable access.
    copy: Option<Page>,
}

impl<'a> PageMut<'a> {
    fn shared(base: &'a Page) -> PageMut<'a> {
        PageMut {
            base: Some(base),
            copy: None,
        }
    }

    fn owned(page: Page) -> PageMut<'static> {
        PageMut {
            base: None,
            copy: Some(page),
        }
    }

    /// The page to write back, if the closure asked for one: the private copy
    /// when the page was touched mutably, `None` when a shared page was only
    /// read (nothing changed, so there is nothing to write).
    fn into_written(self) -> Option<Page> {
        self.copy
    }
}

impl std::ops::Deref for PageMut<'_> {
    type Target = Page;
    fn deref(&self) -> &Page {
        self.copy
            .as_ref()
            .or(self.base)
            .expect("PageMut holds a base or a copy")
    }
}

impl std::ops::DerefMut for PageMut<'_> {
    fn deref_mut(&mut self) -> &mut Page {
        if self.copy.is_none() {
            self.copy = Some(
                self.base
                    .expect("PageMut without a copy holds a base")
                    .clone(),
            );
        }
        self.copy.as_mut().expect("copy just ensured")
    }
}

/// Page-granularity I/O over a [`BlockServer`] account.
pub struct PageIo {
    server: Arc<BlockServer>,
    account: Capability,
    cache: Option<PageCache>,
    overlay: Overlay,
    reads: AtomicU64,
    writes: AtomicU64,
    write_calls: AtomicU64,
    allocated: AtomicU64,
    freed: AtomicU64,
    cache_hits: AtomicU64,
    flushed_at_commit: AtomicU64,
}

impl PageIo {
    /// Creates a page I/O layer with the server-side page/flag cache enabled.
    pub fn new(server: Arc<BlockServer>, account: Capability) -> Self {
        Self::with_cache(server, account, Some(4096))
    }

    /// Creates a page I/O layer; `cache_capacity: None` disables the server-side
    /// cache entirely (used by experiment E13 to measure its benefit).
    pub fn with_cache(
        server: Arc<BlockServer>,
        account: Capability,
        cache_capacity: Option<usize>,
    ) -> Self {
        PageIo {
            server,
            account,
            cache: cache_capacity.map(PageCache::new),
            overlay: Overlay::new(),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_calls: AtomicU64::new(0),
            allocated: AtomicU64::new(0),
            freed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            flushed_at_commit: AtomicU64::new(0),
        }
    }

    /// The block server this page I/O layer writes to.
    pub fn block_server(&self) -> &Arc<BlockServer> {
        &self.server
    }

    /// The account capability under which pages are stored.
    pub fn account(&self) -> &Capability {
        &self.account
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PageIoStats {
        PageIoStats {
            page_reads: self.reads.load(Ordering::Relaxed),
            page_writes: self.writes.load(Ordering::Relaxed),
            pages_allocated: self.allocated.load(Ordering::Relaxed),
            pages_freed: self.freed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            pages_flushed_at_commit: self.flushed_at_commit.load(Ordering::Relaxed),
            block_write_calls: self.write_calls.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Write-through operations (committed state, merge writes).
    // ------------------------------------------------------------------

    /// Allocates a block and physically stores `page` in it.
    pub fn allocate_page(&self, page: &Arc<Page>) -> Result<BlockNr> {
        let encoded = page.encode()?;
        let nr = self.server.allocate_and_write(&self.account, encoded)?;
        self.allocated.fetch_add(1, Ordering::Relaxed);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        if let Some(cache) = &self.cache {
            cache.insert(nr, page);
        }
        Ok(nr)
    }

    /// Writes `page` into the existing block `nr`, physically and immediately.
    pub fn write_page(&self, nr: BlockNr, page: &Arc<Page>) -> Result<()> {
        let encoded = page.encode()?;
        self.server.write(&self.account, nr, encoded)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        // Disk is now authoritative again for this block.
        self.overlay.remove(nr);
        if let Some(cache) = &self.cache {
            cache.insert(nr, page);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Write-back operations (uncommitted versions).
    // ------------------------------------------------------------------

    /// Allocates a block number for `page` but keeps the contents in the write-back
    /// buffer; nothing is physically written until [`PageIo::flush_blocks_batched`].
    pub fn allocate_page_buffered(&self, page: &Arc<Page>) -> Result<BlockNr> {
        let nr = self.server.allocate(&self.account)?;
        self.allocated.fetch_add(1, Ordering::Relaxed);
        self.overlay.insert(nr, Arc::clone(page));
        Ok(nr)
    }

    /// Records `page` as the (logical) contents of block `nr` in the write-back
    /// buffer.  Costs no physical I/O.
    pub fn write_page_buffered(&self, nr: BlockNr, page: &Arc<Page>) {
        self.overlay.insert(nr, Arc::clone(page));
    }

    /// True if block `nr` currently has buffered, unflushed contents.
    pub fn is_buffered(&self, nr: BlockNr) -> bool {
        self.overlay.contains(nr)
    }

    /// Drops the buffered contents of block `nr` without writing them (abort path).
    /// The block itself remains allocated; callers free it separately.
    pub fn drop_buffered(&self, nr: BlockNr) {
        self.overlay.remove(nr);
    }

    /// Physically writes the buffered pages of `blocks` as **one scatter-gather
    /// block-write call**, preserving the given order within the batch, and
    /// removes them from the write-back buffer.  Blocks with no buffered
    /// contents are skipped.  Returns the number of pages written.
    ///
    /// Ordering still matters even batched: stores apply batch entries in
    /// order (see [`amoeba_block::BlockStore::write_batch`]), so a crash
    /// mid-batch leaves a children-first prefix durable, never a parent without
    /// its children.  On failure every taken page is restored to the buffer —
    /// re-flushing an already-applied prefix is an idempotent re-put.
    pub fn flush_blocks_batched<I: IntoIterator<Item = BlockNr>>(
        &self,
        blocks: I,
    ) -> Result<usize> {
        let mut taken: Vec<(BlockNr, Arc<Page>)> = Vec::new();
        let mut encoded: Vec<(BlockNr, bytes::Bytes)> = Vec::new();
        for nr in blocks {
            let Some(page) = self.overlay.remove(nr) else {
                continue;
            };
            match page.encode() {
                Ok(bytes) => {
                    encoded.push((nr, bytes));
                    taken.push((nr, page));
                }
                Err(e) => {
                    self.overlay.insert(nr, page);
                    for (nr, page) in taken {
                        self.overlay.insert(nr, page);
                    }
                    return Err(e);
                }
            }
        }
        if encoded.is_empty() {
            return Ok(0);
        }
        if let Err(e) = self.server.write_batch(&self.account, &encoded) {
            for (nr, page) in taken {
                self.overlay.insert(nr, page);
            }
            return Err(e.into());
        }
        let flushed = taken.len();
        self.writes.fetch_add(flushed as u64, Ordering::Relaxed);
        self.write_calls.fetch_add(1, Ordering::Relaxed);
        self.flushed_at_commit
            .fetch_add(flushed as u64, Ordering::Relaxed);
        if let Some(cache) = &self.cache {
            for (nr, page) in &taken {
                cache.insert(*nr, page);
            }
        }
        Ok(flushed)
    }

    // ------------------------------------------------------------------
    // Reads.
    // ------------------------------------------------------------------

    /// Reads and decodes the page stored in block `nr`.  Consults the write-back
    /// buffer first (it is authoritative), then the clean cache, then the disk.
    pub fn read_page(&self, nr: BlockNr) -> Result<Arc<Page>> {
        if let Some(page) = self.overlay.get(nr) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(page);
        }
        if let Some(cache) = &self.cache {
            if let Some(page) = cache.get(nr) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(page);
            }
        }
        let raw = self.server.read(&self.account, nr)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        let page = Arc::new(Page::decode(raw)?);
        if let Some(cache) = &self.cache {
            cache.insert(nr, &page);
        }
        Ok(page)
    }

    /// Reads a page bypassing the clean cache.  Used by the commit critical section
    /// and the chain walks, which must see the on-disk truth for committed pages.
    /// The write-back buffer is still consulted: for a buffered block the buffer
    /// *is* the truth (its disk contents do not exist yet).
    pub fn read_page_uncached(&self, nr: BlockNr) -> Result<Arc<Page>> {
        if let Some(page) = self.overlay.get(nr) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(page);
        }
        let raw = self.server.read(&self.account, nr)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(Page::decode(raw)?))
    }

    // ------------------------------------------------------------------
    // Free and invalidate.
    // ------------------------------------------------------------------

    /// Frees the block holding a page, dropping any buffered or cached copy.
    pub fn free_page(&self, nr: BlockNr) -> Result<()> {
        self.server.free(&self.account, nr)?;
        self.freed.fetch_add(1, Ordering::Relaxed);
        self.overlay.remove(nr);
        if let Some(cache) = &self.cache {
            cache.remove(nr);
        }
        Ok(())
    }

    /// Invalidates one cache entry (used after another server may have changed the
    /// block underneath us, e.g. a commit reference written by a companion manager).
    pub fn invalidate(&self, nr: BlockNr) {
        if let Some(cache) = &self.cache {
            cache.remove(nr);
        }
    }

    /// The commit critical section: lock block `nr`, give the closure a
    /// [`PageMut`] view of the decoded page, optionally write back the page it
    /// mutated, unlock.  Mirrors [`BlockServer::update_block`] at page
    /// granularity; closure errors pass through typed via
    /// [`BlockServer::update_block_with`].
    ///
    /// The view clones the page only on the closure's first mutable access, so
    /// the read-only `(false, …)` outcome — a failed test-and-set, an
    /// already-clear lock field — costs no page copy.
    ///
    /// For a block that lives in the write-back buffer the update is applied to the
    /// buffered copy under the buffer lock instead: such blocks belong to exactly
    /// one uncommitted version, and all mutation of that version is serialised by
    /// its `VersionMeta` lock (in `crate::service`), so the block-server lock
    /// adds nothing but I/O.
    pub fn update_page<R>(
        &self,
        nr: BlockNr,
        f: impl FnOnce(&mut PageMut<'_>) -> Result<(bool, R)>,
    ) -> Result<R> {
        // Cheap read-locked membership probe first: the common case (a committed
        // block) must not contend on the overlay's write locks at all.
        if self.overlay.contains(nr) {
            let mut shard = self.overlay.shard(nr).write();
            if let Some(entry) = shard.get_mut(&nr) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                let mut view = PageMut::shared(entry);
                let (write_back, value) = f(&mut view)?;
                if write_back {
                    if let Some(written) = view.into_written() {
                        *entry = Arc::new(written);
                    }
                }
                return Ok(value);
            }
            // Raced with a flush: fall through to the disk path below.
        }
        let result: Result<(R, bool)> = self.server.update_block_with(&self.account, nr, |raw| {
            let page = Page::decode(raw)?;
            // The decoded page is already private, so the view starts
            // owned: mutable access costs nothing extra.
            let mut view = PageMut::owned(page);
            let (write_back, value) = f(&mut view)?;
            if !write_back {
                return Ok((None, (value, false)));
            }
            let written = view.into_written().expect("owned view keeps its page");
            let encoded = written.encode()?;
            // Cache the new contents while the block lock is held, so that
            // concurrent updates of one block (a creation-lock test-and-set
            // against a garbage-collector reshare of the same version page)
            // reach the cache in the order they reach the disk.  Inserted after
            // the lock, the older update could overwrite the newer one and
            // leave the cache stale.
            if let Some(cache) = &self.cache {
                cache.insert(nr, &Arc::new(written));
            }
            Ok((Some(encoded), (value, true)))
        });
        let (value, written) = match result {
            Ok(done) => done,
            Err(e) => {
                // The write may not have happened: let the disk decide.
                if let Some(cache) = &self.cache {
                    cache.remove(nr);
                }
                return Err(e);
            }
        };
        self.reads.fetch_add(1, Ordering::Relaxed);
        if written {
            self.writes.fetch_add(1, Ordering::Relaxed);
            self.write_calls.fetch_add(1, Ordering::Relaxed);
        }
        Ok(value)
    }
}

impl std::fmt::Debug for PageIo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageIo")
            .field("stats", &self.stats())
            .field("cache_enabled", &self.cache.is_some())
            .field("buffered_pages", &self.overlay.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_block::MemStore;
    use bytes::Bytes;

    fn page_io(cache: Option<usize>) -> PageIo {
        let server = Arc::new(BlockServer::new(Arc::new(MemStore::new())));
        let account = server.create_account();
        PageIo::with_cache(server, account, cache)
    }

    fn leaf(data: &'static [u8]) -> Arc<Page> {
        Arc::new(Page::leaf(Bytes::from_static(data)))
    }

    #[test]
    fn allocate_read_write_free_cycle() {
        let io = page_io(Some(16));
        let page = leaf(b"hello");
        let nr = io.allocate_page(&page).unwrap();
        assert_eq!(io.read_page(nr).unwrap(), page);
        let mut page2 = (*page).clone();
        page2.set_data(Bytes::from_static(b"world")).unwrap();
        let page2 = Arc::new(page2);
        io.write_page(nr, &page2).unwrap();
        assert_eq!(io.read_page(nr).unwrap(), page2);
        io.free_page(nr).unwrap();
        assert!(io.read_page(nr).is_err());
    }

    #[test]
    fn cache_hits_avoid_physical_reads() {
        let io = page_io(Some(16));
        let nr = io.allocate_page(&leaf(b"x")).unwrap();
        let before = io.stats();
        for _ in 0..10 {
            io.read_page(nr).unwrap();
        }
        let delta = io.stats().since(&before);
        assert_eq!(delta.page_reads, 0);
        assert_eq!(delta.cache_hits, 10);
    }

    #[test]
    fn disabled_cache_always_reads_physically() {
        let io = page_io(None);
        let nr = io.allocate_page(&leaf(b"x")).unwrap();
        let before = io.stats();
        for _ in 0..10 {
            io.read_page(nr).unwrap();
        }
        let delta = io.stats().since(&before);
        assert_eq!(delta.page_reads, 10);
        assert_eq!(delta.cache_hits, 0);
    }

    #[test]
    fn cache_eviction_keeps_capacity_bounded() {
        let io = page_io(Some(2));
        let mut blocks = Vec::new();
        for i in 0..64u8 {
            blocks.push(
                io.allocate_page(&Arc::new(Page::leaf(Bytes::from(vec![i]))))
                    .unwrap(),
            );
        }
        // All pages are still readable even though only a few fit in the cache.
        for (i, nr) in blocks.iter().enumerate() {
            assert_eq!(io.read_page(*nr).unwrap().data, Bytes::from(vec![i as u8]));
        }
    }

    #[test]
    fn buffered_writes_cost_no_physical_io_until_flush() {
        let io = page_io(Some(16));
        let before = io.stats();
        let nr = io.allocate_page_buffered(&leaf(b"v0")).unwrap();
        for i in 0..10u8 {
            io.write_page_buffered(nr, &Arc::new(Page::leaf(Bytes::from(vec![i]))));
        }
        let staged = io.stats().since(&before);
        assert_eq!(staged.page_writes, 0, "buffered writes must stay in memory");
        assert!(io.is_buffered(nr));
        // Reads see the buffered contents.
        assert_eq!(io.read_page(nr).unwrap().data, Bytes::from(vec![9u8]));
        assert_eq!(
            io.read_page_uncached(nr).unwrap().data,
            Bytes::from(vec![9u8])
        );

        let flushed = io.flush_blocks_batched([nr]).unwrap();
        assert_eq!(flushed, 1);
        let total = io.stats().since(&before);
        assert_eq!(total.page_writes, 1, "ten logical writes, one physical");
        assert_eq!(total.pages_flushed_at_commit, 1);
        assert!(!io.is_buffered(nr));
        // The flushed contents are now on disk.
        assert_eq!(
            io.read_page_uncached(nr).unwrap().data,
            Bytes::from(vec![9u8])
        );
    }

    #[test]
    fn batched_flush_is_one_write_call_for_many_pages() {
        let io = page_io(Some(16));
        let before = io.stats();
        let blocks: Vec<BlockNr> = (0..6u8)
            .map(|i| {
                io.allocate_page_buffered(&Arc::new(Page::leaf(Bytes::from(vec![i]))))
                    .unwrap()
            })
            .collect();
        let flushed = io.flush_blocks_batched(blocks.iter().copied()).unwrap();
        assert_eq!(flushed, 6);
        let delta = io.stats().since(&before);
        assert_eq!(delta.page_writes, 6, "every page is physically written");
        assert_eq!(delta.block_write_calls, 1, "…in one scatter-gather call");
        assert_eq!(delta.pages_flushed_at_commit, 6);
        for (i, nr) in blocks.iter().enumerate() {
            assert!(!io.is_buffered(*nr));
            assert_eq!(
                io.read_page_uncached(*nr).unwrap().data,
                Bytes::from(vec![i as u8])
            );
        }
        // Flushing blocks with no buffered contents is a no-call no-op.
        let before = io.stats();
        assert_eq!(io.flush_blocks_batched(blocks).unwrap(), 0);
        assert_eq!(io.stats().since(&before).block_write_calls, 0);
    }

    #[test]
    fn update_page_read_only_outcome_leaves_the_buffered_arc_untouched() {
        let io = page_io(Some(16));
        let nr = io.allocate_page_buffered(&leaf(b"shared")).unwrap();
        let original = io.read_page(nr).unwrap();
        let observed: Bytes = io
            .update_page(nr, |page| Ok((false, page.data.clone())))
            .unwrap();
        assert_eq!(observed, Bytes::from_static(b"shared"));
        // The no-mutation path must not have replaced (or copied into) the
        // buffered entry: the same allocation is still served.
        let after = io.read_page(nr).unwrap();
        assert!(
            Arc::ptr_eq(&original, &after),
            "a (false, _) update must leave the buffered Arc<Page> in place"
        );
    }

    #[test]
    fn dropped_buffers_never_reach_the_disk() {
        let io = page_io(Some(16));
        let nr = io.allocate_page_buffered(&leaf(b"doomed")).unwrap();
        io.drop_buffered(nr);
        assert_eq!(io.flush_blocks_batched([nr]).unwrap(), 0);
        // The block is still allocated but holds no decodable page.
        assert!(io.read_page(nr).is_err());
        io.free_page(nr).unwrap();
    }

    #[test]
    fn update_page_applies_changes_atomically() {
        let io = Arc::new(page_io(Some(16)));
        let nr = io
            .allocate_page(&Arc::new(Page::leaf(Bytes::from(
                0u64.to_le_bytes().to_vec(),
            ))))
            .unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let io = Arc::clone(&io);
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    io.update_page(nr, |page| {
                        let v = u64::from_le_bytes(page.data[..8].try_into().unwrap());
                        page.set_data(Bytes::from((v + 1).to_le_bytes().to_vec()))
                            .unwrap();
                        Ok((true, ()))
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_page = io.read_page_uncached(nr).unwrap();
        assert_eq!(
            u64::from_le_bytes(final_page.data[..8].try_into().unwrap()),
            400
        );
    }

    #[test]
    fn update_page_without_write_back_changes_nothing() {
        let io = page_io(Some(16));
        let nr = io.allocate_page(&leaf(b"keep")).unwrap();
        let observed: Bytes = io
            .update_page(nr, |page| Ok((false, page.data.clone())))
            .unwrap();
        assert_eq!(observed, Bytes::from_static(b"keep"));
        assert_eq!(io.read_page(nr).unwrap().data, Bytes::from_static(b"keep"));
    }

    #[test]
    fn update_page_mutates_buffered_blocks_in_memory() {
        let io = page_io(Some(16));
        let nr = io.allocate_page_buffered(&leaf(b"before")).unwrap();
        let phys_before = io.stats();
        io.update_page(nr, |page| {
            page.set_data(Bytes::from_static(b"after")).unwrap();
            Ok((true, ()))
        })
        .unwrap();
        let delta = io.stats().since(&phys_before);
        assert_eq!(delta.page_reads, 0);
        assert_eq!(delta.page_writes, 0);
        assert_eq!(io.read_page(nr).unwrap().data, Bytes::from_static(b"after"));
    }

    #[test]
    fn stats_count_allocation_and_free() {
        let io = page_io(Some(16));
        let nr = io.allocate_page(&Arc::new(Page::empty())).unwrap();
        io.free_page(nr).unwrap();
        let s = io.stats();
        assert_eq!(s.pages_allocated, 1);
        assert_eq!(s.pages_freed, 1);
    }

    #[test]
    fn sharded_cache_serves_concurrent_readers_and_evicts() {
        let io = Arc::new(page_io(Some(64)));
        let mut blocks = Vec::new();
        for i in 0..200u32 {
            blocks.push(
                io.allocate_page(&Arc::new(Page::leaf(Bytes::from(i.to_le_bytes().to_vec()))))
                    .unwrap(),
            );
        }
        let blocks = Arc::new(blocks);
        let mut handles = Vec::new();
        for t in 0..8usize {
            let io = Arc::clone(&io);
            let blocks = Arc::clone(&blocks);
            handles.push(std::thread::spawn(move || {
                for round in 0..50usize {
                    let i = (t * 31 + round * 7) % blocks.len();
                    let page = io.read_page(blocks[i]).unwrap();
                    assert_eq!(
                        u32::from_le_bytes(page.data[..4].try_into().unwrap()),
                        i as u32
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The cache stayed bounded (more blocks than capacity) yet produced hits.
        let stats = io.stats();
        assert!(stats.cache_hits > 0, "expected some cache hits");
    }
}
