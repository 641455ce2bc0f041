//! One deployment of the real transaction path, composed only from the
//! program's public API with every tuning knob at its default:
//! `Client` → `GatewayFront` + `EndorsePipeline` → `Gateway` →
//! `OrderingCluster` (Raft, ticked on wall-clock `ms_per_tick`) →
//! `DeliverMux` → a `Peer` on an `FsBackend` in a scratch directory.
//!
//! The deployment is split by the generator thread that drives each
//! half: [`ClientSide`] (endorsement and envelope assembly) and
//! [`OrderSide`] (gateway, ordering, deliver).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use fabric_client::Client;
use fabric_fabcoin::{CentralBank, FabcoinChaincode, FabcoinVscc, FABCOIN_NAMESPACE};
use fabric_gateway::{Admit, FrontConfig, FrontSubmit, Gateway, GatewayConfig, GatewayFront};
use fabric_kvstore::FsBackend;
use fabric_ordering::testkit::TestNet;
use fabric_ordering::{ClusterOptions, OrderingCluster};
use fabric_peer::{
    CommitEvent, Deliver, DeliverMux, EndorseOptions, EndorsePipeline, Peer, PeerConfig,
    PipelineOptions,
};
use fabric_primitives::block::Block;
use fabric_primitives::config::{BatchConfig, ConsensusType};
use fabric_primitives::ids::ChannelId;
use fabric_primitives::transaction::EnvelopeContent;
use fabric_primitives::wire::Wire;

use crate::inputs::{Inputs, BANK_SEED};
use crate::trace::Tracer;
use crate::workload::{Workload, OSNS};

/// The channel's batch config: the workload's block size and timeout,
/// every other field at its default.
fn batch(workload: &Workload) -> BatchConfig {
    let default = BatchConfig::default();
    BatchConfig {
        max_message_count: workload.block_txs,
        batch_timeout_ms: workload
            .batch_timeout_ms
            .unwrap_or(default.batch_timeout_ms),
        ..default
    }
}

/// The test network every deployment (and the input generator) uses;
/// its CAs and identities are deterministic.
pub fn network(workload: &Workload) -> TestNet {
    TestNet::with_batch(&["Org1"], ConsensusType::Raft, OSNS, batch(workload))
}

pub const CLIENT_NAME: &str = "client0";

/// The half the client thread drives.
pub struct ClientSide {
    pub endorse: EndorsePipeline,
    pub front: GatewayFront,
    pub client: Client,
    pub events: Receiver<CommitEvent>,
}

/// The half the pump thread drives.
pub struct OrderSide {
    pub channel: ChannelId,
    pub ordering: OrderingCluster,
    pub gateway: Gateway,
    pub mux: DeliverMux,
    /// Next block number to fetch from the ordering service.
    delivered: u64,
    /// A fetched block the mux refused (beyond its parking window).
    held: Option<Block>,
    next_tick: Instant,
    tick: Duration,
}

pub struct Deployment {
    pub client: ClientSide,
    pub order: OrderSide,
    pub peer: Peer,
    /// Time zero for the gateways' clocks and the spans.
    pub origin: Instant,
    dir: PathBuf,
}

impl Deployment {
    /// Stands the path up with the peer's files in `dir`.
    pub fn build(workload: &Workload, dir: &Path) -> Deployment {
        let net = network(workload);
        let options = ClusterOptions::new(ConsensusType::Raft);
        let tick = Duration::from_millis(options.osn.ms_per_tick.max(1));
        let ordering =
            OrderingCluster::new_with(options, net.orderers(OSNS), vec![net.genesis.clone()])
                .expect("genesis config is valid");
        let genesis = ordering.deliver(&net.channel, 0).expect("genesis block");
        std::fs::create_dir_all(dir).expect("create peer directory");
        let backend = FsBackend::new(dir).expect("open peer storage");
        let peer = Peer::join(
            net.peer(0, "peer0"),
            &genesis,
            Arc::new(backend),
            PeerConfig::default(),
        )
        .expect("peer joins the channel");
        peer.install_chaincode(FABCOIN_NAMESPACE, Arc::new(FabcoinChaincode));
        let bank = CentralBank::new(1, BANK_SEED);
        peer.register_vscc(
            FABCOIN_NAMESPACE,
            Arc::new(FabcoinVscc::new(bank.public_keys(), 1)),
        );
        let mux = DeliverMux::new(PeerConfig::default().vscc_parallelism);
        mux.attach(net.channel.clone(), &peer, PipelineOptions::default())
            .expect("attach commit pipeline");
        Deployment {
            client: ClientSide {
                endorse: peer.endorse_pipeline(EndorseOptions::default()),
                front: GatewayFront::new(FrontConfig::default()),
                client: Client::new(net.client(0, CLIENT_NAME), net.channel.clone()),
                events: mux.events(&net.channel).expect("channel attached"),
            },
            order: OrderSide {
                delivered: peer.height(),
                channel: net.channel,
                ordering,
                gateway: Gateway::new(GatewayConfig::default()),
                mux,
                held: None,
                next_tick: Instant::now() + tick,
                tick,
            },
            peer,
            origin: Instant::now(),
            dir: dir.to_path_buf(),
        }
    }

    /// Mints the initial coins through the whole path and waits for them
    /// to commit valid.
    pub fn mint(&mut self, inputs: &Inputs) -> Result<(), String> {
        let mut off = Tracer::new(false, "setup", Instant::now());
        let side = &mut self.client;
        let mut tickets = Vec::new();
        for proposal in &inputs.mints {
            match side.front.submit(&side.endorse, proposal.clone(), 0) {
                FrontSubmit::Admitted(ticket) => tickets.push((proposal, ticket)),
                _ => return Err("mint proposal refused by the endorse front".into()),
            }
        }
        for (proposal, ticket) in tickets {
            let response = ticket
                .wait()
                .map_err(|e| format!("mint endorsement failed: {e}"))?;
            let envelope = side
                .client
                .assemble_transaction(proposal, std::slice::from_ref(&response));
            if self.order.gateway.submit(envelope, 0, 0) != Admit::Admitted {
                return Err("mint refused by the gateway".into());
            }
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut committed = 0;
        while committed < inputs.mints.len() {
            if Instant::now() > deadline {
                return Err("mints did not commit within 60 s".into());
            }
            self.order.drain(&mut off);
            self.order.tick_if_due(&mut off);
            self.order.deliver(&mut off, |_, _| {});
            let wait = self.order.until_tick().min(Duration::from_millis(5));
            let Ok(event) = side.events.recv_timeout(wait) else {
                continue;
            };
            let block = self
                .peer
                .get_block(event.block_num)
                .map_err(|e| e.to_string())?
                .ok_or("committed block missing")?;
            for (env, code) in block.envelopes.iter().zip(&event.validity) {
                if let EnvelopeContent::Transaction(_) = env.content {
                    if !code.is_valid() {
                        return Err(format!("mint committed invalid: {code:?}"));
                    }
                    committed += 1;
                }
            }
        }
        Ok(())
    }

    /// Stops every pipeline thread and removes the peer's files.
    pub fn shutdown(self) {
        let Deployment {
            client,
            order,
            peer,
            dir,
            ..
        } = self;
        client.endorse.close();
        let _ = order.mux.close();
        drop(order.ordering);
        drop(peer);
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl OrderSide {
    /// Time until the next ordering tick is due.
    pub fn until_tick(&self) -> Duration {
        self.next_tick.saturating_duration_since(Instant::now())
    }

    /// Blocks fetched from the ordering service so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Ticks the ordering service when a wall-clock tick is due.
    pub fn tick_if_due(&mut self, tracer: &mut Tracer) {
        let now = Instant::now();
        if now >= self.next_tick {
            let span = tracer.open("ordering.tick", 0);
            self.ordering.tick();
            tracer.close(span, 1);
            self.next_tick = (self.next_tick + self.tick).max(now);
        }
    }

    /// Hands queued transactions to the ordering service; returns how
    /// many were accepted and how many rejected, in queue order.
    pub fn drain(&mut self, tracer: &mut Tracer) -> (usize, usize) {
        let (mut dispatched, mut rejected) = (0, 0);
        while self.gateway.mempool_len() > 0 {
            let span = tracer.open("ordering.broadcast", 0);
            let report = self.gateway.drain_into(&mut self.ordering);
            tracer.close(span, report.dispatched + report.rejected);
            dispatched += report.dispatched;
            rejected += report.rejected;
            if report.stalled || report.dispatched + report.rejected == 0 {
                break;
            }
        }
        (dispatched, rejected)
    }

    /// Moves every block the ordering service has cut into the mux;
    /// `on_block` sees each block, with the time it was fetched, before
    /// the mux does. Returns how many deliveries the mux parked or
    /// refused for want of credits or room.
    pub fn deliver(
        &mut self,
        tracer: &mut Tracer,
        mut on_block: impl FnMut(&Block, Instant),
    ) -> usize {
        let mut stalled = 0;
        loop {
            let block = match self.held.take() {
                Some(block) => block,
                None => {
                    let span = tracer.open("ordering.deliver", 0);
                    let Some(block) = self.ordering.deliver(&self.channel, self.delivered) else {
                        tracer.close(span, 0);
                        break;
                    };
                    tracer.close(span, block.envelopes.len());
                    on_block(&block, Instant::now());
                    block
                }
            };
            let span = tracer.open("peer.commit.deliver", 0);
            let verdict = self
                .mux
                .deliver(&self.channel, self.delivered, &block.to_wire())
                .expect("well-formed delivery");
            tracer.close(span, block.envelopes.len());
            match verdict {
                Deliver::Saturated => {
                    self.held = Some(block);
                    stalled += 1;
                    break;
                }
                Deliver::Parked => stalled += 1,
                Deliver::Submitted | Deliver::Duplicate => {}
            }
            self.delivered += 1;
        }
        let _ = self.mux.pump(&self.channel);
        if let Some(credits) = self.mux.credits(&self.channel) {
            self.gateway.report_downstream(credits);
        }
        stalled
    }

    /// Whether a refused block waits for the mux to make room.
    pub fn holding(&self) -> bool {
        self.held.is_some()
    }
}
