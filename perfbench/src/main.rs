//! Wall-clock end-to-end Fabcoin benchmark over the real transaction path:
//! client → gateway → endorse → order (Raft) → deliver → VSCC → MVCC
//! check → ledger append, on real threads.
//!
//! ```text
//! perfbench --workload <spend-peak|spend-latency|query-mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! holds provenance, the correctness checks and raw counters. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! separate traced window yields the per-layer ones and the spans are
//! written to `.bench_work/traces/`. A failed correctness check exits
//! with status 1 and prints no metrics. See `README.md`.

mod deploy;
mod drive;
mod inputs;
mod report;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fabric_fabcoin::{CoinState, FABCOIN_NAMESPACE};
use fabric_primitives::wire::Wire;

use deploy::{Deployment, CLIENT_NAME};
use drive::{Outcome, Window};
use inputs::{Inputs, Op};
use report::{list, mean, median, number, object, percentile, string, Metrics};
use trace::{summarize, NameStats};
use workload::Workload;

/// Deployments stood up per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm-up of the read probe of the spend workloads.
const PROBE_WARM: Duration = Duration::from_millis(500);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) = (None, 0, 10, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: if tiny { workload.tiny() } else { workload },
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(()) => {}
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<(), String> {
    let w = args.workload;
    let warm = Duration::from_secs_f64((args.seconds as f64 * 0.2).min(2.0));
    let span_s = warm.as_secs_f64() + args.seconds as f64;
    let ops_per_client = (w.pool_ops_per_s * span_s / w.clients as f64).ceil() as usize + 2;
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);

    // Inputs, signed before anything is timed.
    let net = deploy::network(&w);
    let identity = net.client(0, CLIENT_NAME);
    let gen_start = Instant::now();
    let inputs = inputs::generate(
        &w,
        args.seed,
        ops_per_client,
        usize::MAX,
        &identity,
        &net.channel,
        threads,
    );
    let gen_s = gen_start.elapsed().as_secs_f64();
    let mut checks: Vec<(&str, bool)> = Vec::new();
    let prefix_workload = Workload {
        probe_clients: 0,
        ..w
    };
    let prefix = inputs::generate(
        &prefix_workload,
        args.seed,
        2,
        4,
        &identity,
        &net.channel,
        1,
    );
    checks.push(("inputs_reproducible", same_prefix(&inputs, &prefix)));

    // Set-up, several times; the last deployment carries the window, and
    // in a traced run the one before it carries the untraced reference.
    let mut setup_s = Vec::new();
    let mut reference: Option<Outcome> = None;
    let mut deployment = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let mut dep = Deployment::build(&w, &work.join(format!("setup-{i}")));
        dep.mint(&inputs)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            deployment = Some(dep);
        } else {
            if args.trace && i + 2 == SETUPS {
                let seconds = Some(args.seconds);
                reference = Some(closed_loop(
                    &mut dep,
                    &inputs.clients,
                    inputs.minted,
                    warm,
                    seconds,
                    false,
                ));
            }
            dep.shutdown();
        }
    }
    let mut dep = deployment.expect("last set-up kept");

    let probe = (!inputs.probe.is_empty()).then(|| {
        let warm = PROBE_WARM.min(warm);
        closed_loop(
            &mut dep,
            &inputs.probe,
            inputs.minted,
            warm,
            None,
            args.trace,
        )
    });
    let seconds = Some(args.seconds);
    let main = closed_loop(
        &mut dep,
        &inputs.clients,
        inputs.minted,
        warm,
        seconds,
        args.trace,
    );

    // Correctness gate.
    let mut violations = main.violations.clone();
    if let Some(p) = &probe {
        violations.extend(p.violations.iter().cloned());
    }
    checks.push(("no_violations", violations.is_empty()));
    let coins = dep
        .peer
        .scan_state(FABCOIN_NAMESPACE, "", "")
        .map_err(|e| e.to_string())?;
    let total: u64 = coins
        .iter()
        .filter_map(|(_, raw)| CoinState::from_wire(raw).ok())
        .map(|c| c.amount)
        .sum();
    checks.push((
        "coin_total_equals_minted",
        total == inputs.minted && coins.len() == w.coins,
    ));
    checks.push((
        "spends_committed_once",
        main.committed > 0 && main.committed == main.spends_sent,
    ));
    let identical = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dep.order
            .ordering
            .assert_identical_chains(&dep.order.channel)
    }))
    .is_ok();
    checks.push(("orderer_chains_identical", identical));
    let height = dep.order.ordering.height(&dep.order.channel);
    checks.push((
        "peer_height_equals_orderer",
        dep.peer.height() == height && dep.order.delivered() == height,
    ));

    let scan_us_per_key = if args.trace {
        scan_us_per_key(&dep.peer)
    } else {
        0.0
    };
    dep.shutdown();

    let mut trace_file = String::new();
    if args.trace {
        trace_file = dump_traces(w.name, args.seed, &main, probe.as_ref()).unwrap_or_default();
    }
    let correct = checks.iter().all(|(_, ok)| *ok);
    let attempted = main.attempted + probe.as_ref().map_or(0, |p| p.attempted);
    let failed = main.failed + probe.as_ref().map_or(0, |p| p.failed);

    let details = object(&[
        (
            "provenance",
            report::provenance(
                w.name,
                args.seed,
                args.seconds,
                warm.as_secs_f64(),
                args.trace,
            ),
        ),
        ("inputs_sha256", string(&fabric_crypto::hex(&inputs.digest))),
        ("inputs_generate_s", number(gen_s)),
        ("ops_per_client", ops_per_client.to_string()),
        ("setup_s", list(setup_s.iter().map(|s| number(*s)))),
        (
            "checks",
            object(
                &checks
                    .iter()
                    .map(|(k, v)| (*k, v.to_string()))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "violations",
            list(violations.iter().take(5).map(|v| string(v))),
        ),
        ("window_s", number(main.window_s())),
        ("spends_committed", main.done(true).to_string()),
        ("queries_answered", main.done(false).to_string()),
        ("commit_latency_samples", main.samples(true).to_string()),
        (
            "query_latency_samples",
            probe.as_ref().unwrap_or(&main).samples(false).to_string(),
        ),
        ("trace_file", string(&trace_file)),
    ]);
    println!("{details}");
    if !correct {
        println!(
            "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}"
        );
        return Err(format!(
            "correctness check failed: {checks:?} {violations:?}"
        ));
    }

    let metrics = if args.trace {
        per_layer(&main, probe.as_ref(), reference.as_ref(), scan_us_per_key)
    } else {
        end_to_end(&main, probe.as_ref(), median(&setup_s))
    };
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    Ok(())
}

/// Whether a second, independent generation reproduced the first
/// byte for byte (mints and the first operations of the first clients).
fn same_prefix(inputs: &Inputs, prefix: &Inputs) -> bool {
    let wire = |op: &Op| op.proposal().to_wire();
    inputs
        .mints
        .iter()
        .map(Wire::to_wire)
        .eq(prefix.mints.iter().map(Wire::to_wire))
        && prefix
            .clients
            .iter()
            .zip(&inputs.clients)
            .all(|(short, full)| {
                short
                    .iter()
                    .map(wire)
                    .eq(full.iter().take(short.len()).map(wire))
            })
}

/// Runs `clients` through the closed loop: measured for `seconds` after
/// `warm`, or with no `seconds` until every client has run all its
/// operations.
fn closed_loop(
    dep: &mut Deployment,
    clients: &[Vec<Op>],
    minted: u64,
    warm: Duration,
    seconds: Option<u64>,
    tracing: bool,
) -> Outcome {
    let ops: Vec<&[Op]> = clients.iter().map(Vec::as_slice).collect();
    let origin = dep.origin;
    let start = Instant::now() + warm;
    let end = seconds.map(|s| start + Duration::from_secs(s));
    let window = Window { start, end };
    drive::run(
        &mut dep.client,
        &mut dep.order,
        &ops,
        window,
        minted,
        tracing,
        origin,
    )
}

fn end_to_end(main: &Outcome, probe: Option<&Outcome>, setup_s: f64) -> Metrics {
    let mut m = Metrics::default();
    m.add("commit_tps", main.rate(true), "1/s");
    m.add("commit_p50_ms", main.p50(true), "ms");
    m.add("commit_p99_ms", main.p99(true), "ms");
    // Spend workloads answer queries in the read probe before the window.
    let reads = probe.unwrap_or(main);
    m.add("query_qps", reads.rate(false), "1/s");
    m.add("query_p50_ms", reads.p50(false), "ms");
    m.add("query_p99_ms", reads.p99(false), "ms");
    let ops = (main.done(true) + main.done(false)).max(1);
    m.add("cpu_ms_per_op", main.cpu_s * 1e3 / ops as f64, "ms");
    m.add("peak_rss_mb", report::peak_rss_mb(), "MiB");
    m.add("setup_s", setup_s, "s");
    m
}

fn per_layer(
    main: &Outcome,
    probe: Option<&Outcome>,
    reference: Option<&Outcome>,
    scan_us: f64,
) -> Metrics {
    let mut spans = BTreeMap::new();
    for outcome in std::iter::once(main).chain(probe) {
        let (from, to) = outcome.edges();
        for tracer in [&outcome.client_trace, &outcome.pump_trace]
            .into_iter()
            .flatten()
        {
            summarize(&mut spans, tracer, from, to);
        }
    }
    let empty = NameStats::default();
    let get = |name: &str| spans.get(name).unwrap_or(&empty);
    let avg_us = |name: &str| mean(get(name).total_us, get(name).count as u64);
    let pct_ms = |name: &str, p: f64| percentile(&get(name).durations_us, p) / 1e3;
    let c = &main.counters;
    let window_s = main.window_s();
    let mut m = Metrics::default();
    let (sign_us, verify_us, sha_us) = crypto_micro();
    m.add("crypto.sign_us", sign_us, "us");
    m.add("crypto.verify_us", verify_us, "us");
    m.add("crypto.sha256_1k_us", sha_us, "us");
    m.add("client.assemble_us", avg_us("client.assemble"), "us");
    m.add("gateway.front_us", avg_us("gateway.front"), "us");
    m.add("gateway.submit_us", avg_us("gateway.submit"), "us");
    m.add(
        "gateway.retry_after",
        (c.retry_after + probe.map_or(0, |p| p.counters.retry_after)) as f64,
        "count",
    );
    m.add("gateway.mempool_peak", c.mempool_peak as f64, "count");
    m.add(
        "peer.endorse.spend_wait_p50_ms",
        pct_ms("peer.endorse.wait.spend", 50.0),
        "ms",
    );
    m.add(
        "peer.endorse.spend_wait_p99_ms",
        pct_ms("peer.endorse.wait.spend", 99.0),
        "ms",
    );
    m.add(
        "peer.endorse.query_wait_p50_ms",
        pct_ms("peer.endorse.wait.query", 50.0),
        "ms",
    );
    m.add(
        "peer.endorse.query_wait_p99_ms",
        pct_ms("peer.endorse.wait.query", 99.0),
        "ms",
    );
    m.add(
        "peer.endorse.txs_per_sign_batch",
        mean(c.endorsed as f64, c.sign_batches),
        "count",
    );
    m.add("peer.endorse.backlog_peak", c.backlog_peak as f64, "count");
    let broadcast = get("ordering.broadcast");
    m.add(
        "ordering.broadcast_us_per_tx",
        mean(broadcast.total_us, broadcast.items),
        "us",
    );
    m.add("ordering.tick_us", avg_us("ordering.tick"), "us");
    m.add(
        "ordering.cut_wait_p50_ms",
        pct_ms("ordering.cut_wait", 50.0),
        "ms",
    );
    m.add(
        "ordering.cut_wait_p99_ms",
        pct_ms("ordering.cut_wait", 99.0),
        "ms",
    );
    m.add(
        "ordering.txs_per_block",
        mean(c.block_txs as f64, c.blocks),
        "count",
    );
    m.add(
        "peer.commit.deliver_us",
        avg_us("peer.commit.deliver"),
        "us",
    );
    m.add(
        "peer.commit.validate_p50_ms",
        pct_ms("peer.commit.validate", 50.0),
        "ms",
    );
    m.add(
        "peer.commit.validate_p99_ms",
        pct_ms("peer.commit.validate", 99.0),
        "ms",
    );
    m.add(
        "peer.commit.vscc_us_per_tx",
        mean(c.vscc_us, c.block_txs),
        "us",
    );
    m.add(
        "peer.commit.rw_check_ms",
        mean(c.rw_check_ms, c.blocks),
        "ms",
    );
    m.add("ledger.append_ms", mean(c.ledger_ms, c.blocks), "ms");
    m.add("peer.commit.saturated", c.deliver_stalls as f64, "count");
    m.add("kvstore.scan_us_per_key", scan_us, "us");
    m.add(
        "generator.client_busy",
        main.client_cpu_s / window_s,
        "share",
    );
    m.add("generator.pump_busy", main.pump_cpu_s / window_s, "share");
    let ops_rate = |o: &Outcome| o.rate(true) + o.rate(false);
    let overhead = reference.map_or(0.0, |r| {
        (ops_rate(r) - ops_rate(main)) / ops_rate(r).max(1e-9) * 100.0
    });
    m.add("trace.overhead_pct", overhead, "%");
    m
}

/// Median per-call cost of signing, verifying and hashing fixed inputs.
fn crypto_micro() -> (f64, f64, f64) {
    let key = fabric_crypto::SigningKey::from_seed(b"perfbench-micro");
    let message = [0x5au8; 1024];
    let signature = key.sign(&message);
    let per_call = |calls: usize, f: &dyn Fn()| {
        let batches: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..calls {
                    f();
                }
                start.elapsed().as_secs_f64() * 1e6 / calls as f64
            })
            .collect();
        median(&batches)
    };
    let sign = per_call(40, &|| {
        std::hint::black_box(key.sign(std::hint::black_box(&message)));
    });
    let verify = per_call(40, &|| {
        std::hint::black_box(
            key.verifying_key()
                .verify(std::hint::black_box(&message), &signature),
        )
        .ok();
    });
    let sha = per_call(400, &|| {
        std::hint::black_box(fabric_crypto::digest(std::hint::black_box(&message)));
    });
    (sign, verify, sha)
}

/// `Peer::scan_state` over the Fabcoin namespace, per entry (median of 5).
fn scan_us_per_key(peer: &fabric_peer::Peer) -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let entries = peer
                .scan_state(FABCOIN_NAMESPACE, "", "")
                .map_or(0, |e| e.len());
            start.elapsed().as_secs_f64() * 1e6 / entries.max(1) as f64
        })
        .collect();
    median(&runs)
}

/// Writes every span of the traced run, one JSON object a line.
fn dump_traces(
    workload: &str,
    seed: u64,
    main: &Outcome,
    probe: Option<&Outcome>,
) -> std::io::Result<String> {
    let dir = PathBuf::from(".bench_work").join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let phases = [("window", Some(main)), ("probe", probe)];
    for (phase, outcome) in phases.into_iter().filter_map(|(p, o)| Some((p, o?))) {
        for tracer in [&outcome.client_trace, &outcome.pump_trace]
            .into_iter()
            .flatten()
        {
            tracer.dump(&mut out, phase)?;
        }
    }
    out.flush()?;
    Ok(path.display().to_string())
}
