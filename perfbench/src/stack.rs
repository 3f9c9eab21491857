//! The system under test: an in-process `TcpServer` serving
//! `FileServerHandler::with_lease_manager` over a `FileService` on a 3-replica
//! quorum `ReplicatedBlockStore`, and the per-thread `RemoteFs` clients.  The
//! traced configuration is the same stack with the timing wrappers of
//! `wrap.rs` slid in at each layer boundary.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use afs_client::RemoteFs;
use afs_core::{
    BlockServer, CommitStatsSnapshot, FileService, FileStore, MemStore, PageIoStats, ServiceConfig,
};
use afs_server::{FileServerHandler, LeaseManager};
use amoeba_block::{BlockStore, CommitRule, DelayStore, ReplicatedBlockStore};
use amoeba_capability::Port;
use amoeba_rpc::tcp::{TcpClient, TcpServer};
use amoeba_rpc::{ClientStats, RequestHandler, Transport};

use crate::trace::Layer;
use crate::wrap::{TracedBlockStore, TracedHandler, TracedStore, TracedTransport};

pub const REPLICAS: usize = 3;

/// The service port the file server is registered under.
pub const SERVICE_PORT: u64 = 0xAF5;

/// Latency model of each replica disk.
#[derive(Debug, Clone, Copy)]
pub enum DiskModel {
    /// Instantaneous in-memory disks.
    Mem,
    /// Concurrent-mode `DelayStore` charging `per_call` plus `per_block` per
    /// block moved — the model's latencies, not a device's.
    Delay {
        per_call: Duration,
        per_block: Duration,
    },
}

impl DiskModel {
    pub fn describe(&self) -> String {
        match self {
            DiskModel::Mem => "MemStore (no delay)".to_string(),
            DiskModel::Delay {
                per_call,
                per_block,
            } => format!(
                "concurrent DelayStore over MemStore: {} us/call + {} us/block",
                per_call.as_micros(),
                per_block.as_micros()
            ),
        }
    }
}

/// The server half of one stack.
pub struct Service {
    pub service: Arc<FileService>,
    pub lease: Arc<LeaseManager>,
    pub replicas: Arc<ReplicatedBlockStore>,
    /// The in-memory stores under each replica's disk model.
    pub mem: Vec<Arc<MemStore>>,
    pub handler: Arc<dyn RequestHandler>,
}

/// Builds the file service, its replica set and its handler.
pub fn build_service(model: DiskModel, traced: bool) -> Service {
    let mem: Vec<Arc<MemStore>> = (0..REPLICAS).map(|_| Arc::new(MemStore::new())).collect();
    let disks: Vec<Arc<dyn BlockStore>> = mem
        .iter()
        .map(|m| {
            let disk: Arc<dyn BlockStore> = match model {
                DiskModel::Mem => Arc::clone(m) as _,
                DiskModel::Delay {
                    per_call,
                    per_block,
                } => Arc::new(DelayStore::new(Arc::clone(m), per_call, per_block).concurrent()),
            };
            if traced {
                Arc::new(TracedBlockStore::new(disk, Layer::Disk))
            } else {
                disk
            }
        })
        .collect();
    let replicas = ReplicatedBlockStore::with_rule(disks, CommitRule::Quorum);
    let quorum: Arc<dyn BlockStore> = if traced {
        Arc::new(TracedBlockStore::new(Arc::clone(&replicas), Layer::Block))
    } else {
        Arc::clone(&replicas) as _
    };
    let service =
        FileService::with_config(Arc::new(BlockServer::new(quorum)), ServiceConfig::default());
    let lease = Arc::new(LeaseManager::new());
    let handler = FileServerHandler::with_lease_manager(Arc::clone(&service), Arc::clone(&lease));
    let handler: Arc<dyn RequestHandler> = if traced {
        Arc::new(TracedHandler::new(handler, Port::from_raw(SERVICE_PORT)))
    } else {
        Arc::new(handler)
    };
    Service {
        service,
        lease,
        replicas,
        mem,
        handler,
    }
}

/// A running stack: the service behind a TCP server on the loopback
/// interface.
pub struct Stack {
    pub svc: Service,
    pub tcp: TcpServer,
}

impl Stack {
    pub fn start(model: DiskModel, traced: bool) -> Stack {
        let svc = build_service(model, traced);
        let tcp = TcpServer::bind("127.0.0.1:0").expect("bind the benchmark's TCP server");
        tcp.register(Port::from_raw(SERVICE_PORT), Arc::clone(&svc.handler));
        Stack { svc, tcp }
    }

    pub fn addr(&self) -> SocketAddr {
        self.tcp.local_addr()
    }

    pub fn counters(&self) -> ServerCounters {
        let svc = &self.svc;
        ServerCounters {
            commit: svc.service.commit_stats(),
            io: FileService::io_stats(&svc.service),
            lease_granted: svc.lease.granted_total(),
            lease_broken: svc.lease.broken_total(),
            quorum_short_acks: svc.replicas.replica_stats().quorum_short_acks,
            replica_bytes_written: svc.mem.iter().map(|m| m.stats().bytes_written).sum(),
            replica_write_calls: svc.mem[0].stats().write_calls,
        }
    }

    /// After the run: collects garbage, lets the replicas drain, checks that
    /// they agree, and returns the blocks live on one replica.
    ///
    /// The agreement check is `ReplicatedBlockStore::divergent_blocks` run by
    /// a second replica set over the same backing stores: through the
    /// latency-modelled disks it would pay the model's delay for every block
    /// of every replica.
    pub fn settle_and_count(&self) -> Result<usize, String> {
        let svc = &self.svc;
        svc.service
            .gc_all()
            .map_err(|e| format!("gc_all failed: {e}"))?;
        svc.replicas.quiesce();
        let backing = ReplicatedBlockStore::new(
            svc.mem
                .iter()
                .map(|m| Arc::clone(m) as Arc<dyn BlockStore>)
                .collect(),
        );
        let divergent = backing.divergent_blocks();
        if !divergent.is_empty() {
            return Err(format!(
                "{} blocks differ between replicas",
                divergent.len()
            ));
        }
        Ok(svc.mem[0].allocated_count())
    }
}

/// Server-side counters, read at the window's edges.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerCounters {
    pub commit: CommitStatsSnapshot,
    pub io: PageIoStats,
    pub lease_granted: u64,
    pub lease_broken: u64,
    pub quorum_short_acks: u64,
    /// Bytes written to the backing stores, summed over the replicas.
    pub replica_bytes_written: u64,
    /// Write calls reaching the first replica: one per replicated write.
    pub replica_write_calls: u64,
}

/// How a client thread reaches the service: untraced (the timed runs) or
/// with timing wrappers under `RemoteFs` and above it.
pub trait Mode: Send + Sync + 'static {
    type Store: FileStore + 'static;
    const TRACED: bool;
    /// One `RemoteFs` over its own single-connection `TcpClient`.
    fn connect(addr: SocketAddr) -> Self::Store;
    fn client_stats(store: &Self::Store) -> ClientStats;
}

fn tcp_client(addr: SocketAddr) -> TcpClient {
    TcpClient::new(addr).with_connections(1)
}

fn remote<T: Transport>(transport: T) -> RemoteFs<T> {
    RemoteFs::new(transport, vec![Port::from_raw(SERVICE_PORT)])
}

pub struct Plain;

impl Mode for Plain {
    type Store = RemoteFs<TcpClient>;
    const TRACED: bool = false;
    fn connect(addr: SocketAddr) -> Self::Store {
        remote(tcp_client(addr))
    }
    fn client_stats(store: &Self::Store) -> ClientStats {
        store.stats()
    }
}

pub struct Traced;

impl Mode for Traced {
    type Store = TracedStore<RemoteFs<TracedTransport<TcpClient>>>;
    const TRACED: bool = true;
    fn connect(addr: SocketAddr) -> Self::Store {
        TracedStore::new(remote(TracedTransport::new(tcp_client(addr))))
    }
    fn client_stats(store: &Self::Store) -> ClientStats {
        store.inner().stats()
    }
}
