//! `edit_commit`: OCC read-modify-write transactions over a working set four
//! times the server's page cache, on latency-modelled disks.  The commit path
//! does most of the work: version creation, page-level validation, the
//! batched flush, the quorum wait, and block reads on cache misses.

use std::time::Duration;

use afs_core::{Capability, FileService, FileStore, FileStoreExt, PagePath, RetryPolicy};
use bytes::Bytes;

use crate::gen::{Rng, Zipf, ZIPF_THETA};
use crate::pages;
use crate::run::{class, ClientCounters, Driver};
use crate::stack::{DiskModel, Mode};

pub const NAME: &str = "edit_commit";
pub const FILES: usize = 256;
pub const PAGES: usize = 64;
pub const PAGE_BYTES: usize = 512;
const WRITE_SHARE: f64 = 0.8;
const PAGES_PER_WRITE: usize = 2;
const PAGES_PER_READ: usize = 4;

/// perf-smoke's disk model.
pub const MODEL: DiskModel = DiskModel::Delay {
    per_call: Duration::from_micros(100),
    per_block: Duration::from_micros(2),
};

pub fn sizes() -> Vec<(&'static str, String)> {
    vec![
        ("files", FILES.to_string()),
        ("pages_per_file", PAGES.to_string()),
        ("page_bytes", PAGE_BYTES.to_string()),
        ("user_pages", (FILES * PAGES).to_string()),
        ("server_page_cache_entries", "4096".to_string()),
        ("file_choice", format!("zipf theta {ZIPF_THETA}")),
        (
            "mix",
            "80% update of 2 pages, 20% read of 4 committed pages".to_string(),
        ),
    ]
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Update { file: usize, pages: Vec<usize> },
    Read { file: usize, pages: Vec<usize> },
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
        if self.rng.unit() < WRITE_SHARE {
            Op::Update {
                file,
                pages: self.rng.distinct(PAGES_PER_WRITE, PAGES),
            }
        } else {
            Op::Read {
                file,
                pages: self.rng.distinct(PAGES_PER_READ, PAGES),
            }
        }
    }
}

pub fn path(page: usize) -> PagePath {
    PagePath::new(vec![page as u16])
}

pub struct Client<'a, M: Mode> {
    pub store: M::Store,
    pub files: &'a [Capability],
    gen: Gen,
    /// Counter increments this client committed (warm-up included).
    pub increments: u64,
    violations: Vec<String>,
}

impl<'a, M: Mode> Client<'a, M> {
    pub fn new(store: M::Store, files: &'a [Capability], seed: u64, thread: usize) -> Self {
        Client {
            store,
            files,
            gen: Gen::new(seed, thread),
            increments: 0,
            violations: Vec::new(),
        }
    }
}

impl<M: Mode> Driver for Client<'_, M> {
    type Op = Op;

    fn counters(&self) -> ClientCounters {
        ClientCounters {
            rpc: M::client_stats(&self.store),
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
            Op::Update { file, pages } => {
                let paths: Vec<PagePath> = pages.iter().map(|&p| path(p)).collect();
                let done =
                    self.store
                        .update_with(&self.files[file], RetryPolicy::default(), |tx| {
                            let old = tx.read_many(&paths)?;
                            let writes: Vec<(PagePath, Bytes)> = paths
                                .iter()
                                .zip(&old)
                                .map(|(p, data)| (p.clone(), pages::incremented(data)))
                                .collect();
                            tx.write_many(&writes)
                        });
                if done.is_ok() {
                    self.increments += PAGES_PER_WRITE as u64;
                }
                done.is_ok()
            }
            Op::Read { file, pages } => {
                let cap = &self.files[file];
                let Ok(version) = self.store.current_version(cap) else {
                    return false;
                };
                for p in pages {
                    match self.store.read_committed_page(&version, &path(p)) {
                        Ok(data) => {
                            if let Err(e) = pages::check(&data, file, p, PAGE_BYTES) {
                                self.violations
                                    .push(format!("read of file {file} page {p}: {e}"));
                            }
                        }
                        Err(_) => return false,
                    }
                }
                true
            }
        }
    }
}

/// Gate: the page counters add up to the increments committed (no lost
/// update), read through the service after the run.
pub fn check_no_lost_update(
    service: &FileService,
    files: &[Capability],
    committed: u64,
) -> Result<(), String> {
    let sums: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|part| {
                scope.spawn(move || {
                    let mut sum = 0;
                    for (f, cap) in files.iter().enumerate().skip(part).step_by(2) {
                        let v = service.current_version(cap).map_err(|e| e.to_string())?;
                        for p in 0..PAGES {
                            let data = service
                                .read_committed_page(&v, &path(p))
                                .map_err(|e| e.to_string())?;
                            pages::check(&data, f, p, PAGE_BYTES)?;
                            sum += pages::counter(&data);
                        }
                    }
                    Ok(sum)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker panicked"))
            .collect()
    });
    let mut total = 0;
    for s in sums {
        total += s?;
    }
    if total == committed {
        Ok(())
    } else {
        Err(format!(
            "page counters sum to {total}, but {committed} increments committed"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_seed_changes_the_op_stream() {
        let stream = |seed| {
            let mut g = Gen::new(seed, 0);
            (0..200).map(|_| g.next()).collect::<Vec<_>>()
        };
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
        let updates = stream(1)
            .iter()
            .filter(|o| matches!(o, Op::Update { .. }))
            .count();
        assert!((140..=180).contains(&updates), "{updates} updates of 200");
    }
}
