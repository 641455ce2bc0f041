//! Seeded input generation. Every wallet spend and every proposal is
//! signed here, before any timed window, so the generator thread does no
//! signature work while the system is measured.
//!
//! The same seed gives byte-identical inputs (ECDSA nonces are RFC 6979
//! deterministic); a different seed changes nonces, recipients, query
//! targets and the query/spend phase of each client, never the shape.

use fabric_crypto::sha256::Sha256;
use fabric_fabcoin::{coin_key, CentralBank, CoinState, Wallet, FABCOIN_NAMESPACE};
use fabric_msp::SigningIdentity;
use fabric_primitives::ids::{ChannelId, TxId};
use fabric_primitives::transaction::SignedProposal;
use fabric_primitives::wire::Wire;

use fabric_client::Client;

use crate::workload::Workload;

pub const LABEL: &str = "FBC";
pub const COIN_AMOUNT: u64 = 100;
/// Wallet addresses coins move between.
const ADDRESSES: usize = 64;
pub const BANK_SEED: &[u8] = b"perfbench-central-bank";

/// One pre-signed operation.
pub enum Op {
    Spend { proposal: SignedProposal, tx: TxId },
    Query { proposal: SignedProposal },
}

/// Everything a run feeds the system.
pub struct Inputs {
    /// Mint proposals; together they fill exactly one block when the
    /// workload has at least `block_txs` coins.
    pub mints: Vec<SignedProposal>,
    /// Per client, its operations in order. A client's spends chain: each
    /// spends the output of the previous one.
    pub clients: Vec<Vec<Op>>,
    /// Per read-probe client, its balance queries.
    pub probe: Vec<Vec<Op>>,
    /// Total value minted.
    pub minted: u64,
    /// SHA-256 over every signed proposal, in generation order.
    pub digest: [u8; 32],
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A uniform draw keyed by `(seed, stream, index, salt)`.
fn draw(seed: u64, stream: u64, index: u64, salt: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed ^ salt) ^ stream) ^ index)
}

fn nonce(seed: u64, stream: u64, index: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"perfbench-nonce");
    h.update(&seed.to_le_bytes());
    h.update(&stream.to_le_bytes());
    h.update(&index.to_le_bytes());
    h.finalize()
}

/// Stream ids: clients use their index, mints and the probe sit above.
const MINT_STREAM: u64 = 1 << 40;
const PROBE_STREAM: u64 = 1 << 41;

/// Signs the inputs for `ops_per_client` operations for each of the
/// first `client_limit` window clients, and the read probe's queries, on
/// up to `threads` threads. The result does not depend on `threads`, and
/// a smaller limit or count yields a prefix of the larger generation.
pub fn generate(
    workload: &Workload,
    seed: u64,
    ops_per_client: usize,
    client_limit: usize,
    identity: &SigningIdentity,
    channel: &ChannelId,
    threads: usize,
) -> Inputs {
    let client = Client::new(identity.clone(), channel.clone());
    let creator = identity.serialized().to_wire();
    let mut wallet = Wallet::new();
    let addresses: Vec<Vec<u8>> = (0..ADDRESSES)
        .map(|i| wallet.new_address(format!("perfbench-address-{i}").as_bytes()))
        .collect();
    let pick = |stream: u64, index: u64| draw(seed, stream, index, 1) as usize % ADDRESSES;

    // Mints: `block_txs` transactions (one full block), coin `c` is
    // output `c % per_mint` of mint `c / per_mint`; client `i` owns coin
    // `i`, filler coins go to seeded addresses.
    let mint_txs = (workload.block_txs as usize).min(workload.coins).max(1);
    let per_mint = workload.coins.div_ceil(mint_txs);
    let bank = CentralBank::new(1, BANK_SEED);
    let mut mints = Vec::new();
    let mut first_coins: Vec<(String, usize)> = Vec::new();
    let mut minted = 0;
    for (m, chunk) in (0..workload.coins)
        .collect::<Vec<_>>()
        .chunks(per_mint)
        .enumerate()
    {
        let n = nonce(seed, MINT_STREAM, m as u64);
        let tx = TxId::derive(&creator, &n);
        let owners: Vec<usize> = chunk
            .iter()
            .map(|&c| {
                if c < workload.clients {
                    c % ADDRESSES
                } else {
                    pick(MINT_STREAM, c as u64)
                }
            })
            .collect();
        let outputs = owners
            .iter()
            .map(|&o| CoinState {
                amount: COIN_AMOUNT,
                owner: addresses[o].clone(),
                label: LABEL.into(),
            })
            .collect::<Vec<_>>();
        minted += COIN_AMOUNT * outputs.len() as u64;
        for (j, &c) in chunk.iter().enumerate() {
            if c < workload.clients {
                first_coins.push((coin_key(&tx, j as u32), owners[j]));
            }
        }
        let request = bank.create_mint(outputs, &tx, 1);
        mints.push(client.create_proposal_with_nonce(
            FABCOIN_NAMESPACE,
            "mint",
            vec![request.to_wire()],
            n,
        ));
    }

    // Window clients (streams 0..) and read-probe clients (query only),
    // split into contiguous ranges across threads.
    let mut jobs: Vec<(u64, usize, Option<usize>)> = (0..client_limit.min(workload.clients))
        .map(|i| (i as u64, ops_per_client, Some(i)))
        .collect();
    let window_jobs = jobs.len();
    jobs.extend(
        (0..workload.probe_clients)
            .map(|i| (PROBE_STREAM + i as u64, workload.probe_queries, None)),
    );
    let build =
        |&(stream, ops, first): &(u64, usize, Option<usize>), wallet: &mut Wallet| -> Vec<Op> {
            let period = workload.queries_per_spend as u64 + 1;
            let phase = draw(seed, stream, 0, 2) % period;
            let (mut coin, mut owner) = first.map(|i| first_coins[i].clone()).unwrap_or_default();
            (0..ops as u64)
                .map(|k| {
                    let n = nonce(seed, stream, k);
                    if first.is_some() && (k + phase) % period == period - 1 {
                        let tx = TxId::derive(&creator, &n);
                        let to = pick(stream, k);
                        let input = CoinState {
                            amount: COIN_AMOUNT,
                            owner: addresses[owner].clone(),
                            label: LABEL.into(),
                        };
                        wallet.note_coin(&coin, &input);
                        let output = CoinState {
                            amount: COIN_AMOUNT,
                            owner: addresses[to].clone(),
                            label: LABEL.into(),
                        };
                        let request = wallet
                            .create_spend(std::slice::from_ref(&coin), vec![output], &tx)
                            .expect("wallet holds every address key");
                        wallet.note_spent(&coin);
                        coin = coin_key(&tx, 0);
                        owner = to;
                        let proposal = client.create_proposal_with_nonce(
                            FABCOIN_NAMESPACE,
                            "spend",
                            vec![request.to_wire()],
                            n,
                        );
                        Op::Spend { proposal, tx }
                    } else {
                        Op::Query {
                            proposal: query(&client, &addresses[pick(stream, k)], n),
                        }
                    }
                })
                .collect()
        };
    let per_thread = jobs.len().div_ceil(threads.max(1)).max(1);
    let mut clients: Vec<Vec<Op>> = Vec::with_capacity(jobs.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(per_thread)
            .map(|chunk| {
                let mut wallet = Wallet::new();
                for i in 0..ADDRESSES {
                    wallet.new_address(format!("perfbench-address-{i}").as_bytes());
                }
                let build = &build;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|job| build(job, &mut wallet))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            clients.extend(handle.join().expect("input generator thread"));
        }
    });
    let probe = clients.split_off(window_jobs);

    let mut inputs = Inputs {
        mints,
        clients,
        probe,
        minted,
        digest: [0; 32],
    };
    inputs.digest = inputs.compute_digest();
    inputs
}

fn query(client: &Client, address: &[u8], nonce: [u8; 32]) -> SignedProposal {
    client.create_proposal_with_nonce(
        FABCOIN_NAMESPACE,
        "balance",
        vec![address.to_vec(), LABEL.as_bytes().to_vec()],
        nonce,
    )
}

impl Op {
    pub fn proposal(&self) -> &SignedProposal {
        match self {
            Op::Spend { proposal, .. } | Op::Query { proposal } => proposal,
        }
    }
}

impl Inputs {
    fn compute_digest(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        let all = self
            .clients
            .iter()
            .chain(&self.probe)
            .flatten()
            .map(Op::proposal);
        for proposal in self.mints.iter().chain(all) {
            h.update(&proposal.to_wire());
        }
        h.finalize()
    }
}
