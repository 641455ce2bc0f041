//! The three workloads. A workload fixes only topology, the channel's
//! block size, how many operations are in flight, the operation mix, the
//! state size and (through the seed) the generated inputs; every tuning
//! knob of the program keeps its default.

/// One workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// `BatchConfig::max_message_count` of the channel; the other batch
    /// fields keep their defaults.
    pub block_txs: u32,
    /// Closed-loop clients, each with one operation in flight.
    pub clients: usize,
    /// Coins minted at set-up (one per client, the rest owned by other
    /// addresses). Spends are 1-in/1-out, so the count never changes.
    pub coins: usize,
    /// Balance queries each client makes between two of its spends
    /// (`0`: the client only spends).
    pub queries_per_spend: usize,
    /// Closed-loop clients of the read probe, a query-only run of a fixed
    /// size before the window (`0`: no probe; the window carries queries),
    /// and the queries each of them makes.
    pub probe_clients: usize,
    pub probe_queries: usize,
    /// `BatchConfig::batch_timeout_ms` when not the default.
    pub batch_timeout_ms: Option<u64>,
    /// Upper bound on operations per second in the window, used only to
    /// size the pre-signed input pool; running out fails the run.
    pub pool_ops_per_s: f64,
}

/// Ordering-service nodes (Raft) in every workload.
pub const OSNS: usize = 3;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "spend-peak",
        block_txs: 100,
        clients: 400,
        coins: 400,
        queries_per_spend: 0,
        probe_clients: 64,
        probe_queries: 200,
        batch_timeout_ms: None,
        pool_ops_per_s: 2000.0,
    },
    Workload {
        name: "spend-latency",
        block_txs: 10,
        clients: 10,
        coins: 10,
        queries_per_spend: 0,
        probe_clients: 64,
        probe_queries: 200,
        batch_timeout_ms: None,
        pool_ops_per_s: 200.0,
    },
    Workload {
        name: "query-mix",
        block_txs: 10,
        clients: 32,
        coins: 2000,
        queries_per_spend: 9,
        probe_clients: 0,
        probe_queries: 0,
        batch_timeout_ms: Some(1),
        pool_ops_per_s: 1000.0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same shape at a size that runs in about a second (smoke test).
    pub fn tiny(self) -> Workload {
        Workload {
            clients: self.clients.min(20),
            coins: self.coins.min(200),
            probe_clients: self.probe_clients.min(2),
            probe_queries: self.probe_queries.min(500),
            // A smaller state answers queries faster.
            pool_ops_per_s: self.pool_ops_per_s * 4.0,
            ..self
        }
    }
}
