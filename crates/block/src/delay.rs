//! A latency-modelling block-store wrapper.
//!
//! `MemStore` is deliberately instantaneous, which makes it useless for
//! studying *I/O-bound* behaviour: against a zero-latency disk, batching calls
//! and parallelising replica fan-out are unobservable.  [`DelayStore`] wraps
//! any [`BlockStore`] and charges a simple, honest cost model for reads and
//! writes:
//!
//! * a **per-call** cost (positioning / request overhead — the RPC round trip
//!   or the seek), paid once per `read`/`write`/`write_batch` call, and
//! * a **per-block** cost (transfer), paid once per block moved.
//!
//! By default the device serves **one request at a time**: the delay is spent
//! while an internal mutex is held, like a single disk head, so a k-block
//! `write_batch` costs `per_call + k·per_block` instead of
//! `k·(per_call + per_block)`, and a replica on such a disk is a straggler
//! its peers must not wait for (the replica tests use it that way).
//!
//! [`DelayStore::concurrent`] switches the wrapper to a **concurrent** cost
//! model: every request still pays its full latency, but overlapping requests
//! sleep independently instead of queueing on the head.  That models a device
//! whose latency is dominated by the round trip rather than a serial actuator
//! (an SSD with internal parallelism, or a network disk), and it is the mode
//! the `perfbench` disks use — with a serial head, client-side multiplexing
//! would be invisible because the device itself flattens every pipeline back
//! to one-at-a-time.
//!
//! Allocation and bookkeeping calls are free: they model in-memory metadata,
//! and charging them would only blur what the experiments measure.

use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::store::{BlockStore, StoreStats};
use crate::{BlockNr, Result};

/// A [`BlockStore`] wrapper that charges per-call and per-block latency for
/// reads and writes, serving one request at a time.
pub struct DelayStore<S> {
    inner: S,
    per_call: Duration,
    per_block: Duration,
    /// The "disk head": held for the whole duration of a charged request in
    /// serial mode; bypassed in concurrent mode.
    busy: Mutex<()>,
    /// `false` = serial (one request at a time, the default); `true` =
    /// concurrent (overlapping requests sleep independently).
    concurrent: bool,
}

impl<S: BlockStore> DelayStore<S> {
    /// Wraps `inner`, charging `per_call` once per read/write call and
    /// `per_block` once per block moved.
    pub fn new(inner: S, per_call: Duration, per_block: Duration) -> Self {
        DelayStore {
            inner,
            per_call,
            per_block,
            busy: Mutex::new(()),
            concurrent: false,
        }
    }

    /// Switches to the concurrent cost model: every request still pays its
    /// full latency, but overlapping requests no longer queue on the single
    /// disk head — they sleep independently.
    pub fn concurrent(mut self) -> Self {
        self.concurrent = true;
        self
    }

    /// Whether this store serves overlapping requests concurrently (`false`
    /// is the serial single-head default).
    pub fn is_concurrent(&self) -> bool {
        self.concurrent
    }

    /// Returns a reference to the wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn charge(&self, blocks: usize) {
        let cost = self.per_call + self.per_block * blocks as u32;
        if cost.is_zero() {
            return;
        }
        if self.concurrent {
            std::thread::sleep(cost);
        } else {
            let _head = self.busy.lock();
            std::thread::sleep(cost);
        }
    }
}

impl<S: BlockStore> BlockStore for DelayStore<S> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn allocate(&self) -> Result<BlockNr> {
        self.inner.allocate()
    }

    fn allocate_at(&self, nr: BlockNr) -> Result<()> {
        self.inner.allocate_at(nr)
    }

    fn free(&self, nr: BlockNr) -> Result<()> {
        self.inner.free(nr)
    }

    fn read(&self, nr: BlockNr) -> Result<Bytes> {
        self.charge(1);
        self.inner.read(nr)
    }

    fn write(&self, nr: BlockNr, data: Bytes) -> Result<()> {
        self.charge(1);
        self.inner.write(nr, data)
    }

    fn write_batch(&self, writes: &[(BlockNr, Bytes)]) -> Result<()> {
        // The whole point: one positioning cost for the whole batch.
        self.charge(writes.len());
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
    use crate::MemStore;
    use std::time::Instant;

    #[test]
    fn batch_pays_one_call_cost() {
        let store = DelayStore::new(MemStore::new(), Duration::from_millis(10), Duration::ZERO);
        let blocks: Vec<BlockNr> = (0..8).map(|_| store.allocate().unwrap()).collect();
        let writes: Vec<(BlockNr, Bytes)> = blocks
            .iter()
            .map(|&nr| (nr, Bytes::from_static(b"x")))
            .collect();

        let start = Instant::now();
        store.write_batch(&writes).unwrap();
        let batched = start.elapsed();

        let start = Instant::now();
        for (nr, data) in &writes {
            store.write(*nr, data.clone()).unwrap();
        }
        let unbatched = start.elapsed();

        assert!(
            batched < unbatched / 2,
            "8 blocks in one call ({batched:?}) must beat 8 calls ({unbatched:?})"
        );
    }

    #[test]
    fn concurrent_mode_overlaps_requests_serial_mode_queues_them() {
        let per_call = Duration::from_millis(20);
        let threads = 4;

        let run = |store: &DelayStore<MemStore>| {
            let nr = store.allocate().unwrap();
            store.write(nr, Bytes::from_static(b"seed")).unwrap();
            let start = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        store.read(nr).unwrap();
                    });
                }
            });
            start.elapsed()
        };

        // Serial head: pays the initial write too, so 4 reads queue behind it.
        let serial = run(&DelayStore::new(MemStore::new(), per_call, Duration::ZERO));
        // Concurrent: the 4 reads sleep at the same time.
        let concurrent =
            run(&DelayStore::new(MemStore::new(), per_call, Duration::ZERO).concurrent());

        assert!(
            serial >= per_call * threads,
            "serial mode must queue {threads} reads one after another (took {serial:?})"
        );
        assert!(
            concurrent < per_call * threads,
            "concurrent mode must overlap the sleeps (took {concurrent:?} for {threads} reads)"
        );
    }

    #[test]
    fn zero_delay_is_transparent() {
        let store = DelayStore::new(MemStore::new(), Duration::ZERO, Duration::ZERO);
        let nr = store.allocate().unwrap();
        store.write(nr, Bytes::from_static(b"free")).unwrap();
        assert_eq!(store.read(nr).unwrap(), Bytes::from_static(b"free"));
        assert_eq!(store.stats().writes, 1);
    }
}
