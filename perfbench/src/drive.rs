//! The closed loop. Two generator threads drive one deployment:
//!
//! * the client thread submits pre-signed proposals through the endorse
//!   front, redeems endorsement tickets, assembles and signs envelopes,
//!   and consumes commit events;
//! * the pump thread (the caller's) admits envelopes into the gateway,
//!   drains it into ordering, ticks the orderers on wall-clock time and
//!   delivers cut blocks into the commit mux.
//!
//! Each client keeps one operation in flight and starts its next one only
//! when the last completed: a query when its endorsement returns, a spend
//! when its commit event arrives (so a client spends its change only
//! after the change is committed).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use fabric_gateway::{Admit, FrontSubmit};
use fabric_peer::{CommitEvent, EndorseTicket};
use fabric_primitives::ids::TxId;
use fabric_primitives::transaction::{Envelope, EnvelopeContent};

use crate::deploy::{ClientSide, OrderSide};
use crate::inputs::Op;
use crate::report::{median, percentile, process_cpu_s, thread_cpu_s};
use crate::trace::{tx_tag, Tracer};

/// How long in-flight operations may take to finish after the window.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Longest the pump thread sleeps between turns.
const PUMP_NAP: Duration = Duration::from_millis(1);

/// When a loop measures: operations started before `start` are warm-up,
/// and none starts at or after `end`. Without an end every client runs
/// all its operations and the window closes with the last completion.
#[derive(Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub end: Option<Instant>,
}

impl Window {
    fn open(&self, at: Instant) -> bool {
        self.end.is_none_or(|end| at < end)
    }

    fn measures(&self, at: Instant) -> bool {
        at >= self.start && self.open(at)
    }

    fn holds(&self, at: Instant) -> bool {
        at >= self.start && self.end.is_none_or(|end| at <= end)
    }
}

/// What one closed loop observed.
#[derive(Default)]
pub struct Outcome {
    /// Every completed operation (warm-up and drain included).
    pub completions: Vec<Completion>,
    /// The window's edges as the client thread saw them, and process CPU
    /// between them.
    pub measured: Option<(Instant, Instant)>,
    pub cpu_s: f64,
    pub client_cpu_s: f64,
    pub pump_cpu_s: f64,
    /// Measured operations started and those that failed.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations (any fails the run).
    pub violations: Vec<String>,
    /// Spends handed to the gateway, and those that committed valid.
    pub spends_sent: usize,
    pub committed: usize,
    pub counters: Counters,
    pub client_trace: Option<Tracer>,
    pub pump_trace: Option<Tracer>,
}

/// A 99th percentile is the median over this many equal slices of the
/// window of each slice's own 99th percentile, so that a host stall moves
/// a slice, not the run.
const TAIL_SLICES: usize = 10;

impl Outcome {
    /// The window's edges as the client thread saw them.
    pub fn edges(&self) -> (Instant, Instant) {
        self.measured.expect("the loop has finished")
    }

    pub fn window_s(&self) -> f64 {
        let (start, end) = self.edges();
        (end - start).as_secs_f64()
    }

    /// Completions of one kind of operation inside the window.
    pub fn done(&self, spend: bool) -> usize {
        let (start, end) = self.edges();
        self.completions
            .iter()
            .filter(|c| c.spend == spend && c.done >= start && c.done <= end)
            .count()
    }

    /// Completions of one kind of operation per second of the window.
    pub fn rate(&self, spend: bool) -> f64 {
        self.done(spend) as f64 / self.window_s().max(1e-9)
    }

    /// The median latency of one kind of operation submitted in the
    /// window.
    pub fn p50(&self, spend: bool) -> f64 {
        self.latency(spend, 1, 50.0)
    }

    /// The `p`-th latency percentile of one kind of operation submitted
    /// in the window: the window is cut into `slices` equal slices by
    /// submission time and the median of the slices' percentiles is
    /// returned.
    fn latency(&self, spend: bool, slices: usize, p: f64) -> f64 {
        let (start, end) = self.edges();
        let part = (end - start) / slices as u32;
        let per_slice: Vec<f64> = (0..slices as u32)
            .map(|i| {
                let (from, to) = (start + part * i, start + part * (i + 1));
                let in_slice: Vec<f64> = self
                    .completions
                    .iter()
                    .filter(|c| c.spend == spend && c.submitted >= from && c.submitted < to)
                    .map(Completion::latency_ms)
                    .collect();
                percentile(&in_slice, p)
            })
            .collect();
        median(&per_slice)
    }

    /// Latency samples of one kind of operation: those submitted in the
    /// window.
    pub fn samples(&self, spend: bool) -> usize {
        let (start, end) = self.edges();
        self.completions
            .iter()
            .filter(|c| c.spend == spend && c.submitted >= start && c.submitted < end)
            .count()
    }

    /// The 99th latency percentile, as the median over `TAIL_SLICES`.
    pub fn p99(&self, spend: bool) -> f64 {
        self.latency(spend, TAIL_SLICES, 99.0)
    }
}

/// One completed operation: a spend at its commit event, a query when
/// its endorsement returned.
#[derive(Clone, Copy)]
pub struct Completion {
    pub spend: bool,
    pub submitted: Instant,
    pub done: Instant,
}

impl Completion {
    pub fn latency_ms(&self) -> f64 {
        ms(self.done - self.submitted)
    }
}

/// Layer counters taken at the benchmark's call sites; per-block ones
/// count blocks committed inside the window.
#[derive(Default, Debug, Clone)]
pub struct Counters {
    pub retry_after: u64,
    pub mempool_peak: usize,
    pub backlog_peak: usize,
    pub sign_batches: u64,
    pub endorsed: u64,
    pub blocks: u64,
    pub block_txs: u64,
    pub vscc_us: f64,
    pub rw_check_ms: f64,
    pub ledger_ms: f64,
    pub deliver_stalls: u64,
}

/// An envelope on its way from the client thread to the pump thread.
struct ToPump {
    tx: TxId,
    envelope: Envelope,
}

/// A block as the pump thread handed it to the mux.
struct BlockNote {
    number: u64,
    txs: Vec<TxId>,
    delivered_at: Instant,
}

/// Samples of one thread's view at the window edges.
#[derive(Default)]
struct Edges {
    start: Option<(Instant, f64, f64)>,
    end: Option<(Instant, f64, f64)>,
}

impl Edges {
    /// Records (time, process CPU, this thread's CPU) when `now` first
    /// passes each edge of the window; returns whether it just passed the
    /// start.
    fn sample(&mut self, window: &Window, now: Instant) -> bool {
        let started = self.start.is_none() && now >= window.start;
        if started {
            self.start = Some((now, process_cpu_s(), thread_cpu_s()));
        }
        if self.end.is_none() && window.end.is_some_and(|end| now >= end) {
            self.end = Some((now, process_cpu_s(), thread_cpu_s()));
        }
        started
    }

    /// Records the end edge if the loop stopped before it (a loop that
    /// stopped inside its warm-up measured nothing: both edges meet).
    fn finish(&mut self) {
        let now = Some((Instant::now(), process_cpu_s(), thread_cpu_s()));
        self.end = self.end.or(now);
        self.start = self.start.or(self.end);
    }

    fn thread_cpu(&self) -> f64 {
        match (self.start, self.end) {
            (Some(a), Some(b)) => b.2 - a.2,
            _ => 0.0,
        }
    }
}

/// Runs `clients` through the closed loop on `window`. The calling
/// thread pumps the ordering side; one scoped thread drives the clients.
pub fn run(
    client: &mut ClientSide,
    order: &mut OrderSide,
    clients: &[&[Op]],
    window: Window,
    minted: u64,
    tracing: bool,
    origin: Instant,
) -> Outcome {
    let (to_pump, from_client) = mpsc::channel::<ToPump>();
    let (notes_tx, notes_rx) = mpsc::channel::<BlockNote>();
    std::thread::scope(|scope| {
        let client_thread = scope.spawn(move || {
            let tracer = Tracer::new(tracing, "client", origin);
            ClientLoop::new(
                client, clients, window, minted, origin, tracer, to_pump, notes_rx,
            )
            .run()
        });
        let (pump_trace, pump_cpu, pump_counters, pump_violations) =
            pump(order, window, tracing, origin, from_client, notes_tx);
        let mut out = client_thread.join().expect("client thread");
        out.pump_cpu_s = pump_cpu;
        out.counters.mempool_peak = pump_counters.mempool_peak;
        out.counters.retry_after += pump_counters.retry_after;
        out.counters.deliver_stalls = pump_counters.deliver_stalls;
        out.violations.extend(pump_violations);
        out.pump_trace = Some(pump_trace);
        out
    })
}

/// The pump thread: runs until the client thread hangs up.
fn pump(
    order: &mut OrderSide,
    window: Window,
    tracing: bool,
    origin: Instant,
    from_client: mpsc::Receiver<ToPump>,
    notes: mpsc::Sender<BlockNote>,
) -> (Tracer, f64, Counters, Vec<String>) {
    let mut tracer = Tracer::new(tracing, "pump", origin);
    let mut counters = Counters::default();
    let mut violations = Vec::new();
    let mut edges = Edges::default();
    let mut retry: Vec<(Instant, ToPump)> = Vec::new();
    // Admitted transactions in dispatch order (the mempool is FIFO), and
    // when each was dispatched (traced runs only).
    let mut queued: VecDeque<TxId> = VecDeque::new();
    let mut dispatched_at: HashMap<TxId, Instant> = HashMap::new();
    let mut connected = true;
    let mut stalled = false;
    while connected {
        let mut batch = Vec::new();
        // Sleep until the next tick unless the mux holds back a block
        // that a commit may make room for.
        let nap = if stalled {
            PUMP_NAP
        } else {
            order.until_tick()
        };
        match from_client.recv_timeout(nap) {
            Ok(message) => batch.push(message),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => connected = false,
        }
        batch.extend(from_client.try_iter());
        let now = Instant::now();
        edges.sample(&window, now);
        let turn = tracer.open("generator.pump_turn", 0);
        let (due, later): (Vec<_>, Vec<_>) = retry.drain(..).partition(|(at, _)| *at <= now);
        retry = later;
        let now_ms = now.duration_since(origin).as_millis() as u64;
        for message in due.into_iter().map(|(_, m)| m).chain(batch) {
            let span = tracer.open("gateway.submit", tx_tag(&message.tx));
            let verdict = order.gateway.submit(message.envelope.clone(), 0, now_ms);
            tracer.close(span, 1);
            match verdict {
                Admit::Admitted => queued.push_back(message.tx),
                Admit::RetryAfter { after_ms, .. } => {
                    counters.retry_after += 1;
                    retry.push((now + Duration::from_millis(after_ms), message));
                }
                Admit::Duplicate => violations.push("gateway saw a transaction twice".to_string()),
            }
        }
        counters.mempool_peak = counters.mempool_peak.max(order.gateway.mempool_len());
        let (dispatched, rejected) = order.drain(&mut tracer);
        if rejected > 0 {
            violations.push(format!("ordering rejected {rejected} transactions"));
        }
        let sent_at = Instant::now();
        for tx in queued.drain(..(dispatched + rejected).min(queued.len())) {
            if tracing {
                dispatched_at.insert(tx, sent_at);
            }
        }
        order.tick_if_due(&mut tracer);
        let mut cut = Vec::new();
        let parked = order.deliver(&mut tracer, |block, at| {
            let txs: Vec<TxId> = block
                .envelopes
                .iter()
                .filter(|env| matches!(env.content, EnvelopeContent::Transaction(_)))
                .map(|env| env.tx_id())
                .collect();
            for tx in &txs {
                if let Some(sent) = dispatched_at.remove(tx) {
                    cut.push((tx_tag(tx), sent, at));
                }
            }
            let _ = notes.send(BlockNote {
                number: block.header.number,
                txs,
                delivered_at: at,
            });
        });
        counters.deliver_stalls += parked as u64;
        stalled = parked > 0 || order.holding();
        tracer.close(turn, 1);
        for (tag, sent, at) in cut {
            tracer.record("ordering.cut_wait", sent, at, tag, 1);
        }
    }
    edges.finish();
    (tracer, edges.thread_cpu(), counters, violations)
}

/// An admitted proposal whose endorsement the client thread awaits.
struct Awaiting {
    client: usize,
    op: usize,
    submitted: Instant,
    ticket: EndorseTicket,
}

struct ClientLoop<'a> {
    side: &'a mut ClientSide,
    ops: &'a [&'a [Op]],
    window: Window,
    minted: u64,
    origin: Instant,
    tracer: Tracer,
    to_pump: mpsc::Sender<ToPump>,
    notes: mpsc::Receiver<BlockNote>,
    next_op: Vec<usize>,
    ready: VecDeque<usize>,
    retry: Vec<(Instant, usize)>,
    awaiting: VecDeque<Awaiting>,
    inflight: HashMap<TxId, (usize, Instant)>,
    committed: HashSet<TxId>,
    edges: Edges,
    endorse_start: (u64, u64),
    out: Outcome,
}

impl<'a> ClientLoop<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        side: &'a mut ClientSide,
        ops: &'a [&'a [Op]],
        window: Window,
        minted: u64,
        origin: Instant,
        tracer: Tracer,
        to_pump: mpsc::Sender<ToPump>,
        notes: mpsc::Receiver<BlockNote>,
    ) -> Self {
        ClientLoop {
            side,
            ops,
            window,
            minted,
            origin,
            tracer,
            to_pump,
            notes,
            next_op: vec![0; ops.len()],
            ready: (0..ops.len()).collect(),
            retry: Vec::new(),
            awaiting: VecDeque::new(),
            inflight: HashMap::new(),
            committed: HashSet::new(),
            edges: Edges::default(),
            endorse_start: (0, 0),
            out: Outcome::default(),
        }
    }

    fn run(mut self) -> Outcome {
        let give_up = self.window.end.unwrap_or(self.window.start) + DRAIN_LIMIT;
        loop {
            let now = Instant::now();
            self.edges_sample(now);
            if now > give_up {
                self.out.violations.push(format!(
                    "{} operations still in flight {} s after the window",
                    self.inflight.len() + self.awaiting.len(),
                    DRAIN_LIMIT.as_secs()
                ));
                break;
            }
            while let Ok(event) = self.side.events.try_recv() {
                self.on_commit(event);
            }
            let (due, later): (Vec<_>, Vec<_>) =
                self.retry.drain(..).partition(|(at, _)| *at <= now);
            self.retry = later;
            self.ready.extend(due.into_iter().map(|(_, c)| c));
            while let Some(client) = self.ready.pop_front() {
                self.submit(client);
            }
            if let Some(awaiting) = self.awaiting.pop_front() {
                self.redeem(awaiting);
                continue;
            }
            if self.inflight.is_empty() && self.retry.is_empty() {
                break;
            }
            let mut nap = Duration::from_millis(50);
            if let Some(&(at, _)) = self.retry.iter().min_by_key(|(at, _)| *at) {
                nap = nap.min(at.saturating_duration_since(now));
            }
            for edge in [Some(self.window.start), self.window.end]
                .into_iter()
                .flatten()
            {
                if edge > now {
                    nap = nap.min(edge - now);
                }
            }
            if let Ok(event) = self.side.events.recv_timeout(nap) {
                self.on_commit(event);
            }
        }
        self.edges.finish();
        self.finish()
    }

    fn edges_sample(&mut self, now: Instant) {
        if self.edges.sample(&self.window, now) {
            let stats = self.side.endorse.stats();
            self.endorse_start = (stats.sign_batches, stats.endorsed);
        }
    }

    fn finish(mut self) -> Outcome {
        let stats = self.side.endorse.stats();
        self.out.counters.sign_batches = stats.sign_batches - self.endorse_start.0;
        self.out.counters.endorsed = stats.endorsed - self.endorse_start.1;
        if let (Some(a), Some(b)) = (self.edges.start, self.edges.end) {
            self.out.cpu_s = b.1 - a.1;
        }
        self.out.measured = self
            .edges
            .start
            .zip(self.edges.end)
            .map(|(a, b)| (a.0, b.0));
        self.out.client_cpu_s = self.edges.thread_cpu();
        self.out.committed = self.committed.len();
        self.out.client_trace = Some(self.tracer);
        self.out
    }

    /// Starts `client`'s next operation if the window is open.
    fn submit(&mut self, client: usize) {
        let now = Instant::now();
        if !self.window.open(now) {
            return;
        }
        let op = self.next_op[client];
        let ops = self.ops;
        let Some(next) = ops[client].get(op) else {
            if self.window.end.is_some() {
                self.out.violations.push(format!(
                    "client {client} ran out of pre-signed operations before the window closed"
                ));
            }
            return;
        };
        let now_ms = now.duration_since(self.origin).as_millis() as u64;
        let tag = match next {
            Op::Spend { tx, .. } => tx_tag(tx),
            Op::Query { .. } => 0,
        };
        let span = self.tracer.open("gateway.front", tag);
        let verdict = self
            .side
            .front
            .submit(&self.side.endorse, next.proposal().clone(), now_ms);
        self.tracer.close(span, 1);
        self.out.counters.backlog_peak = self
            .out
            .counters
            .backlog_peak
            .max(self.side.endorse.backlog());
        match verdict {
            FrontSubmit::Admitted(ticket) => {
                self.next_op[client] += 1;
                if self.window.measures(now) {
                    self.out.attempted += 1;
                }
                self.awaiting.push_back(Awaiting {
                    client,
                    op,
                    submitted: now,
                    ticket,
                });
            }
            FrontSubmit::RetryAfter { after_ms, .. } => {
                self.out.counters.retry_after += 1;
                self.retry
                    .push((now + Duration::from_millis(after_ms), client));
            }
            FrontSubmit::Duplicate => {
                self.out.violations.push(format!(
                    "endorse front saw client {client}'s operation {op} twice"
                ));
            }
        }
    }

    /// Waits for the oldest endorsement; completes a query, or assembles
    /// a spend's envelope and hands it to the pump thread.
    fn redeem(&mut self, awaiting: Awaiting) {
        let Awaiting {
            client,
            op,
            submitted,
            ticket,
        } = awaiting;
        let result = ticket.wait();
        let now = Instant::now();
        let measured = self.window.measures(submitted);
        let ops = self.ops;
        let operation = &ops[client][op];
        match *operation {
            Op::Query { .. } => {
                self.tracer
                    .record("peer.endorse.wait.query", submitted, now, 0, 1);
                let balance = result.ok().and_then(|r| {
                    let raw = r.payload.response.payload;
                    (raw.len() == 8).then(|| u64::from_le_bytes(raw.try_into().expect("8 bytes")))
                });
                match balance {
                    Some(value) if value <= self.minted => {
                        self.out.completions.push(Completion {
                            spend: false,
                            submitted,
                            done: now,
                        });
                        self.ready.push_back(client);
                    }
                    other => {
                        if measured {
                            self.out.failed += 1;
                        }
                        self.out
                            .violations
                            .push(format!("balance query returned {other:?}"));
                    }
                }
            }
            Op::Spend { tx, .. } => {
                self.tracer
                    .record("peer.endorse.wait.spend", submitted, now, tx_tag(&tx), 1);
                let response = match result {
                    Ok(response) => response,
                    Err(err) => {
                        if measured {
                            self.out.failed += 1;
                        }
                        self.out
                            .violations
                            .push(format!("spend endorsement failed: {err}"));
                        return;
                    }
                };
                let span = self.tracer.open("client.assemble", tx_tag(&tx));
                let envelope = self
                    .side
                    .client
                    .assemble_transaction(operation.proposal(), std::slice::from_ref(&response));
                self.tracer.close(span, 1);
                self.inflight.insert(tx, (client, submitted));
                self.out.spends_sent += 1;
                let _ = self.to_pump.send(ToPump { tx, envelope });
            }
        }
    }

    fn on_commit(&mut self, event: CommitEvent) {
        let span = self.tracer.open("client.commit_event", 0);
        let note = loop {
            match self.notes.recv_timeout(Duration::from_secs(10)) {
                Ok(note) if note.number == event.block_num => break Some(note),
                Ok(_) => continue,
                Err(_) => break None,
            }
        };
        let Some(note) = note else {
            self.out.violations.push(format!(
                "no delivery record for committed block {}",
                event.block_num
            ));
            self.tracer.close(span, 0);
            return;
        };
        self.tracer.record(
            "peer.commit.validate",
            note.delivered_at,
            event.committed_at,
            0,
            note.txs.len(),
        );
        if self.window.holds(event.committed_at) {
            let c = &mut self.out.counters;
            c.blocks += 1;
            c.block_txs += note.txs.len() as u64;
            c.vscc_us += event.timing.vscc.as_secs_f64() * 1e6;
            c.rw_check_ms += event.timing.rw_check.as_secs_f64() * 1e3;
            c.ledger_ms += event.timing.ledger.as_secs_f64() * 1e3;
        }
        for (tx, code) in note.txs.iter().zip(&event.validity) {
            match self.inflight.remove(tx) {
                Some((client, submitted)) if code.is_valid() => {
                    self.committed.insert(*tx);
                    self.out.completions.push(Completion {
                        spend: true,
                        submitted,
                        done: event.committed_at,
                    });
                    self.ready.push_back(client);
                }
                Some((_, submitted)) => {
                    if self.window.measures(submitted) {
                        self.out.failed += 1;
                    }
                    self.out
                        .violations
                        .push(format!("spend committed invalid: {code:?}"));
                }
                None if self.committed.contains(tx) => self
                    .out
                    .violations
                    .push("a spend appeared in the ledger twice".to_string()),
                None => self
                    .out
                    .violations
                    .push("an unknown transaction committed".to_string()),
            }
        }
        self.tracer.close(span, note.txs.len());
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
