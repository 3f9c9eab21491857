//! `read_leased`: validate-on-open reads through each client's `ClientCache`
//! over a working set that fits every cache, on instantaneous disks.  The
//! lease fast path, the client cache, callback breaks and the settle wait
//! dominate; the block layer does almost nothing.

use std::collections::HashMap;

use afs_client::ClientCache;
use afs_core::{Capability, FileStoreExt, RetryPolicy};

use crate::edit::path;
use crate::gen::{Rng, Zipf, ZIPF_THETA};
use crate::pages;
use crate::run::{class, ClientCounters, Driver};
use crate::stack::{DiskModel, Mode};

pub const NAME: &str = "read_leased";
pub const FILES: usize = 64;
pub const PAGES: usize = 8;
pub const PAGE_BYTES: usize = 512;
const READ_SHARE: f64 = 0.95;
const PAGES_PER_READ: usize = 4;
pub const MODEL: DiskModel = DiskModel::Mem;

pub fn sizes() -> Vec<(&'static str, String)> {
    vec![
        ("files", FILES.to_string()),
        ("pages_per_file", PAGES.to_string()),
        ("page_bytes", PAGE_BYTES.to_string()),
        ("user_pages", (FILES * PAGES).to_string()),
        ("file_choice", format!("zipf theta {ZIPF_THETA}")),
        (
            "mix",
            "95% revalidate + read 4 pages via ClientCache, 5% one-page update".to_string(),
        ),
    ]
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Read { file: usize, pages: Vec<usize> },
    Update { file: usize, page: usize },
}

pub struct Gen {
    rng: Rng,
    files: Zipf,
}

impl Gen {
    pub fn new(seed: u64, thread: usize) -> Self {
        Gen {
            rng: Rng::stream(seed, NAME, thread),
            files: Zipf::new(FILES, ZIPF_THETA, seed),
        }
    }

    pub fn next(&mut self) -> Op {
        let file = self.files.sample(&mut self.rng);
        if self.rng.unit() < READ_SHARE {
            Op::Read {
                file,
                pages: self.rng.distinct(PAGES_PER_READ, PAGES),
            }
        } else {
            Op::Update {
                file,
                page: self.rng.below(PAGES),
            }
        }
    }
}

pub struct Client<'a, M: Mode> {
    pub cache: ClientCache<M::Store>,
    pub files: &'a [Capability],
    gen: Gen,
    /// Highest counter this client has seen or committed, per page.
    seen: HashMap<(usize, usize), u64>,
    /// Increments this client committed, per page (warm-up included).
    pub committed: Vec<u64>,
    pub updates_ok: u64,
    violations: Vec<String>,
}

impl<'a, M: Mode> Client<'a, M> {
    pub fn new(store: M::Store, files: &'a [Capability], seed: u64, thread: usize) -> Self {
        Client {
            cache: ClientCache::new(store),
            files,
            gen: Gen::new(seed, thread),
            seen: HashMap::new(),
            committed: vec![0; FILES * PAGES],
            updates_ok: 0,
            violations: Vec::new(),
        }
    }

    /// Records a counter value read or committed; a value below one seen
    /// before is a violation.
    fn observe(&mut self, file: usize, page: usize, value: u64) {
        let seen = self.seen.entry((file, page)).or_insert(0);
        if value < *seen {
            self.violations.push(format!(
                "file {file} page {page}: counter went back from {seen} to {value}"
            ));
        }
        *seen = (*seen).max(value);
    }

    /// Gate after the run: every page, revalidated and read through this
    /// client's cache, holds its last committed value.
    pub fn check_final(&mut self, expected: &[u64]) -> Result<(), String> {
        for (f, cap) in self.files.iter().enumerate() {
            self.cache.revalidate(cap).map_err(|e| e.to_string())?;
            for p in 0..PAGES {
                let data = self.cache.read(cap, &path(p)).map_err(|e| e.to_string())?;
                pages::check(&data, f, p, PAGE_BYTES)?;
                let want = expected[f * PAGES + p];
                if pages::counter(&data) != want {
                    return Err(format!(
                        "file {f} page {p} reads {} through the cache, last committed {want}",
                        pages::counter(&data)
                    ));
                }
            }
        }
        Ok(())
    }
}

impl<M: Mode> Driver for Client<'_, M> {
    type Op = Op;

    fn counters(&self) -> ClientCounters {
        let cache = self.cache.stats();
        ClientCounters {
            rpc: M::client_stats(self.cache.store()),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            ..ClientCounters::default()
        }
    }

    fn next(&mut self) -> Op {
        self.gen.next()
    }

    fn take_violations(&mut self) -> Vec<String> {
        std::mem::take(&mut self.violations)
    }

    fn class(op: &Op) -> u8 {
        match op {
            Op::Update { .. } => class::UPDATE,
            Op::Read { .. } => class::READ,
        }
    }

    fn exec(&mut self, op: Op) -> bool {
        match op {
            Op::Read { file, pages } => {
                let cap = self.files[file];
                if self.cache.revalidate(&cap).is_err() {
                    return false;
                }
                for p in pages {
                    let Ok(data) = self.cache.read(&cap, &path(p)) else {
                        return false;
                    };
                    match pages::check(&data, file, p, PAGE_BYTES) {
                        Ok(()) => self.observe(file, p, pages::counter(&data)),
                        Err(e) => self.violations.push(format!("file {file} page {p}: {e}")),
                    }
                }
                true
            }
            Op::Update { file, page } => {
                let target = path(page);
                let done = self.cache.store().update_with(
                    &self.files[file],
                    RetryPolicy::default(),
                    |tx| {
                        let next = pages::incremented(&tx.read(&target)?);
                        tx.write(&target, next.clone())?;
                        Ok(pages::counter(&next))
                    },
                );
                match done {
                    Ok(committed) => {
                        self.committed[file * PAGES + page] += 1;
                        self.updates_ok += 1;
                        self.observe(file, page, committed.value);
                        true
                    }
                    Err(_) => false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_seed_changes_the_op_stream() {
        let stream = |seed| {
            let mut g = Gen::new(seed, 1);
            (0..400).map(|_| g.next()).collect::<Vec<_>>()
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        let updates = stream(5)
            .iter()
            .filter(|o| matches!(o, Op::Update { .. }))
            .count();
        assert!((5..=40).contains(&updates), "{updates} updates of 400");
    }
}
