//! `namespace_churn`: path resolution and directory mutations through each
//! client's `NamedStore`, on instantaneous disks.  Directory-as-file OCC
//! conflicts, the prefix cache and lease breaks on directory files dominate;
//! a mutation costs several small RPCs, so the rpc layer does most of the
//! work in this workload's writes.

use std::collections::HashMap;

use afs_client::NamedStore;
use afs_core::{Capability, FileStore};
use afs_dir::{DirCap, DirError};
use amoeba_capability::Rights;

use crate::gen::{Rng, Zipf, ZIPF_THETA};
use crate::run::{class, ClientCounters, Driver};
use crate::stack::{DiskModel, Mode};

pub const NAME: &str = "namespace_churn";
pub const TOP_DIRS: usize = 4;
pub const LEAF_DIRS: usize = 8;
pub const FILES_PER_LEAF: usize = 16;
const DIRS: usize = TOP_DIRS * LEAF_DIRS;
const READ_SHARE: f64 = 0.85;
const CREATE_SHARE: f64 = 0.08;
const RENAME_SHARE: f64 = 0.04;
/// A thread holds at most this many of its own names per directory; a create
/// beyond it becomes an unlink, which keeps directory sizes (and so the cost
/// of every op) stationary over the run.
const OWN_PER_DIR: usize = 8;
pub const MODEL: DiskModel = DiskModel::Mem;

pub fn sizes() -> Vec<(&'static str, String)> {
    vec![
        (
            "tree",
            format!("/d{{0..{}}}/e{{0..{}}}", TOP_DIRS - 1, LEAF_DIRS - 1),
        ),
        ("leaf_dirs", DIRS.to_string()),
        ("files_per_leaf", FILES_PER_LEAF.to_string()),
        ("own_names_per_leaf_per_thread_max", OWN_PER_DIR.to_string()),
        ("dir_choice", format!("zipf theta {ZIPF_THETA}")),
        (
            "mix",
            "85% revalidate + resolve, 8% create_file, 4% same-directory rename, 3% unlink"
                .to_string(),
        ),
    ]
}

pub fn dir_path(dir: usize) -> String {
    format!("/d{}/e{}", dir / LEAF_DIRS, dir % LEAF_DIRS)
}

pub fn base_path(dir: usize, k: usize) -> String {
    format!("{}/f{k}", dir_path(dir))
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Resolve one of the provisioned files, `(dir, k)`.
    ResolveBase {
        dir: usize,
        k: usize,
    },
    /// Resolve a name this thread holds.
    ResolveOwn {
        path: String,
    },
    Create {
        path: String,
    },
    Rename {
        from: String,
        to: String,
    },
    Unlink {
        path: String,
    },
}

/// The op stream of one thread.  Writes operate only on names the thread
/// created itself; the generator tracks them (assuming its ops succeed, which
/// the gates check).
pub struct Gen {
    rng: Rng,
    dirs: Zipf,
    thread: usize,
    next_name: u64,
    own: Vec<Vec<String>>,
}

impl Gen {
    pub fn new(seed: u64, thread: usize) -> Self {
        Gen {
            rng: Rng::stream(seed, NAME, thread),
            dirs: Zipf::new(DIRS, ZIPF_THETA, seed),
            thread,
            next_name: 0,
            own: vec![Vec::new(); DIRS],
        }
    }

    fn fresh(&mut self, dir: usize) -> String {
        self.next_name += 1;
        format!("{}/t{}n{}", dir_path(dir), self.thread, self.next_name)
    }

    fn take_own(&mut self, dir: usize) -> String {
        let i = self.rng.below(self.own[dir].len());
        self.own[dir].swap_remove(i)
    }

    pub fn next(&mut self) -> Op {
        let dir = self.dirs.sample(&mut self.rng);
        let u = self.rng.unit();
        let held = self.own[dir].len();
        if u < READ_SHARE {
            if held > 0 && self.rng.unit() < 0.5 {
                let path = self.own[dir][self.rng.below(held)].clone();
                return Op::ResolveOwn { path };
            }
            return Op::ResolveBase {
                dir,
                k: self.rng.below(FILES_PER_LEAF),
            };
        }
        let u = u - READ_SHARE;
        if held == 0 || (u < CREATE_SHARE && held < OWN_PER_DIR) {
            let path = self.fresh(dir);
            self.own[dir].push(path.clone());
            Op::Create { path }
        } else if (CREATE_SHARE..CREATE_SHARE + RENAME_SHARE).contains(&u) {
            let from = self.take_own(dir);
            let to = self.fresh(dir);
            self.own[dir].push(to.clone());
            Op::Rename { from, to }
        } else {
            Op::Unlink {
                path: self.take_own(dir),
            }
        }
    }
}

/// Provisions the tree over `store`; returns the root and the capability of
/// every provisioned file, indexed `dir * FILES_PER_LEAF + k`.  The leaf
/// directories are filled by two client stores in parallel.
pub fn provision<S: FileStore + Sync>(stores: &[S]) -> (DirCap, Vec<Capability>) {
    let builder = NamedStore::create(&stores[0]).expect("create root directory");
    for dir in 0..DIRS {
        builder
            .mkdir_all(&dir_path(dir), Rights::ALL)
            .expect("mkdir");
    }
    let root = builder.root();
    let mut caps = vec![None; DIRS * FILES_PER_LEAF];
    std::thread::scope(|scope| {
        let handles: Vec<_> = stores
            .iter()
            .enumerate()
            .map(|(part, store)| {
                scope.spawn(move || {
                    let ns = NamedStore::with_root(store, root);
                    (part..DIRS)
                        .step_by(stores.len())
                        .flat_map(|dir| (0..FILES_PER_LEAF).map(move |k| (dir, k)))
                        .map(|(dir, k)| {
                            let cap = ns
                                .create_file(&base_path(dir, k), Rights::ALL)
                                .expect("create file");
                            (dir * FILES_PER_LEAF + k, cap)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, cap) in h.join().expect("provisioning thread panicked") {
                caps[i] = Some(cap);
            }
        }
    });
    (
        root,
        caps.into_iter()
            .map(|c| c.expect("every file provisioned"))
            .collect(),
    )
}

pub struct Client<'a, M: Mode> {
    pub ns: NamedStore<M::Store>,
    base: &'a [Capability],
    gen: Gen,
    /// Names this thread holds, with the capability each is bound to.
    pub own: HashMap<String, Capability>,
    /// Names this thread unlinked or renamed away.
    pub removed: Vec<String>,
    /// Files this thread created.  Unlinking a name does not delete its
    /// file: the file service has no delete, so every one stays stored.
    pub created: usize,
    /// Directory tables fetched by resolves, and resolves, while recording.
    pub resolve_fetches: u64,
    pub resolves: u64,
    violations: Vec<String>,
}

impl<'a, M: Mode> Client<'a, M> {
    pub fn new(
        store: M::Store,
        root: DirCap,
        base: &'a [Capability],
        seed: u64,
        thread: usize,
    ) -> Self {
        Client {
            ns: NamedStore::with_root(store, root),
            base,
            gen: Gen::new(seed, thread),
            own: HashMap::new(),
            removed: Vec::new(),
            created: 0,
            resolve_fetches: 0,
            resolves: 0,
            violations: Vec::new(),
        }
    }

    /// Revalidate-then-resolve, counting table fetches in the traced run.
    fn resolve(&mut self, path: &str) -> Result<Capability, DirError> {
        let before = M::TRACED.then(|| self.ns.cache_stats().misses);
        self.ns.revalidate(path)?;
        let cap = self.ns.resolve(path)?.cap;
        if let (Some(before), true) = (before, crate::trace::recording()) {
            self.resolve_fetches += self.ns.cache_stats().misses - before;
            self.resolves += 1;
        }
        Ok(cap)
    }

    fn expect_cap(&mut self, path: &str, want: Capability) -> bool {
        match self.resolve(path) {
            Ok(cap) => {
                if cap != want {
                    self.violations.push(format!(
                        "{path} resolves to a capability it was not bound to"
                    ));
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Gate after the run, through a cold prefix cache: every held name
    /// resolves to the capability bound to it, and no removed name resolves.
    pub fn check_final(&self) -> Result<(), String> {
        let cold = NamedStore::with_root(self.ns.store(), self.ns.root());
        for (path, want) in &self.own {
            match cold.resolve(path) {
                Ok(entry) if entry.cap == *want => {}
                Ok(_) => return Err(format!("{path} is bound to another capability")),
                Err(e) => return Err(format!("{path} does not resolve: {e}")),
            }
        }
        for path in &self.removed {
            match cold.resolve(path) {
                Err(DirError::NotFound(_)) => {}
                Ok(_) => return Err(format!("removed name {path} still resolves")),
                Err(e) => return Err(format!("resolving removed name {path}: {e}")),
            }
        }
        Ok(())
    }
}

impl<M: Mode> Driver for Client<'_, M> {
    type Op = Op;

    fn counters(&self) -> ClientCounters {
        let names = self.ns.cache_stats();
        ClientCounters {
            rpc: M::client_stats(self.ns.store()),
            name_hits: names.hits,
            name_misses: names.misses,
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
            Op::ResolveBase { .. } | Op::ResolveOwn { .. } => class::READ,
            Op::Create { .. } => class::CREATE,
            Op::Rename { .. } => class::RENAME,
            Op::Unlink { .. } => class::UNLINK,
        }
    }

    fn exec(&mut self, op: Op) -> bool {
        match op {
            Op::ResolveBase { dir, k } => {
                self.expect_cap(&base_path(dir, k), self.base[dir * FILES_PER_LEAF + k])
            }
            // A name whose create failed was never bound: the op fails too.
            Op::ResolveOwn { path } => match self.own.get(&path) {
                Some(&want) => self.expect_cap(&path, want),
                None => false,
            },
            Op::Create { path } => match self.ns.create_file(&path, Rights::ALL) {
                Ok(cap) => {
                    self.own.insert(path, cap);
                    self.created += 1;
                    true
                }
                Err(_) => false,
            },
            Op::Rename { from, to } => {
                let Some(&cap) = self.own.get(&from) else {
                    return false;
                };
                if self.ns.rename(&from, &to).is_err() {
                    return false;
                }
                self.own.remove(&from);
                self.own.insert(to, cap);
                self.removed.push(from);
                true
            }
            Op::Unlink { path } => {
                let Some(&want) = self.own.get(&path) else {
                    return false;
                };
                match self.ns.unlink(&path) {
                    Ok(entry) => {
                        self.own.remove(&path);
                        if entry.cap != want {
                            self.violations
                                .push(format!("unlink of {path} removed another capability"));
                        }
                        self.removed.push(path);
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
    fn a_new_seed_changes_the_op_stream_and_writes_stay_on_own_names() {
        let stream = |seed| {
            let mut g = Gen::new(seed, 0);
            (0..2000).map(|_| g.next()).collect::<Vec<_>>()
        };
        assert_eq!(stream(3), stream(3));
        assert_ne!(stream(3), stream(4));
        let mut held = std::collections::HashSet::new();
        let mut per_dir: HashMap<String, usize> = HashMap::new();
        for op in stream(3) {
            match op {
                Op::Create { path } => {
                    *per_dir
                        .entry(path.rsplit_once('/').unwrap().0.to_string())
                        .or_default() += 1;
                    assert!(held.insert(path));
                }
                Op::Rename { from, to } => {
                    assert!(held.remove(&from));
                    assert!(held.insert(to));
                }
                Op::Unlink { path } => {
                    *per_dir.get_mut(path.rsplit_once('/').unwrap().0).unwrap() -= 1;
                    assert!(held.remove(&path));
                }
                Op::ResolveOwn { path } => assert!(held.contains(&path)),
                Op::ResolveBase { .. } => {}
            }
        }
        assert!(per_dir.values().all(|&n| n <= OWN_PER_DIR));
    }
}
