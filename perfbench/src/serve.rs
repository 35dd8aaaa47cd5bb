//! `serve_mixed`: an in-process `gncg_serve::Server` on 127.0.0.1,
//! driven in a closed loop by [`CLIENTS`] `ServeClient` connections,
//! each sending its next request only after the previous one answered.

use crate::{
    check_counters_repeat, dispatch_us_per_job, json_throughput, mean, median, overhead_pct,
    quantile, ratio, secs, Args, Checks, Deltas, EndToEnd, Layers, Outcome,
};
use gncg_config::{ModelKind, ServeConfig};
use gncg_game::certify::certify;
use gncg_game::{dynamics, GameSpec, OwnedNetwork, SolverConfig};
use gncg_geometry::generators;
use gncg_json::Value;
use gncg_parallel::Budget;
use gncg_serve::proto::dynamics_outcome_to_json;
use gncg_serve::{JobSpec, ServeClient, Server};
use gncg_service::Session;
use gncg_sweep::spec::seed_stream;
use gncg_trace::{Counter, TraceSnapshot};
use std::time::{Duration, Instant};

/// Client connections, and session workers behind the server.
const CLIENTS: usize = 2;
const THREADS: usize = 2;

/// Server start-ups per round, timed together as `setup_s`.
const SETUPS_PER_ROUND: usize = 10;

/// Requests per client per round, in blocks of the four kinds the mix
/// is made of. No measured traffic exists, so the shares are assumed:
/// one request of each kind per block, 25% each. The seed picks point
/// coordinates only, so every seed asks the same amount of work of the
/// same shape.
const OPS_PER_CLIENT: usize = 200;
const BLOCK: [Kind; 4] = [Kind::Bounds, Kind::Exact, Kind::Dynamics, Kind::Replay];
/// Bounds-only certify as in the server's fault soak test: a center
/// star on n = 10 + 2k points, α = 1 + 0.25k, k = 0..8.
const SOAK_SPECS: usize = 8;
/// Exact certify: the social optimum enumerates 2^(n(n−1)/2) graphs,
/// so n = 7 (2^21) would cost 64 times n = 6 and dominate the round.
const EXACT_N: [usize; 2] = [5, 6];
/// Dynamics as in the server's round-trip test: best single move from
/// the center star, 12 points, α = 1, at most 200 steps.
const DYNAMICS_N: usize = 12;
const DYNAMICS_STEPS: usize = 200;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// Certified bounds (no exact β/γ), n in the tens.
    Bounds,
    /// Exact certification, n ≤ 6.
    Exact,
    /// Single-move dynamics from the center star.
    Dynamics,
    /// The idempotency key of an earlier request of the same client.
    Replay,
}

struct Op {
    kind: Kind,
    spec: JobSpec,
    /// The idempotency key (before the round prefix); a replay carries
    /// its original's.
    key: String,
    /// For a replay, the index of the original request.
    original: Option<usize>,
}

fn make_ops(seed: u64, client: usize) -> Vec<Op> {
    let point_seeds = seed_stream(seed ^ (1 + client as u64), OPS_PER_CLIENT);
    let mut ops: Vec<Op> = Vec::with_capacity(OPS_PER_CLIENT);
    for (i, &point_seed) in point_seeds.iter().enumerate() {
        let kind = BLOCK[i % BLOCK.len()];
        let block = i / BLOCK.len() + client;
        let certify = |n: usize, alpha: f64, exact: bool| {
            let points = generators::uniform_unit_square(n, point_seed);
            JobSpec::Certify {
                network: OwnedNetwork::center_star(n, 0),
                points,
                alpha,
                exact,
                model: ModelKind::SumDistances,
                budget_ms: None,
            }
        };
        let (spec, original) = match kind {
            Kind::Bounds => {
                let k = block % SOAK_SPECS;
                (certify(10 + 2 * k, 1.0 + 0.25 * k as f64, false), None)
            }
            Kind::Exact => (certify(EXACT_N[block % EXACT_N.len()], 1.5, true), None),
            Kind::Dynamics => (
                JobSpec::Dynamics {
                    points: generators::uniform_unit_square(DYNAMICS_N, point_seed),
                    alpha: 1.0,
                    rule: dynamics::ResponseRule::BestSingleMove,
                    steps: DYNAMICS_STEPS,
                    spec: GameSpec::with_model(ModelKind::SumDistances),
                    start: None,
                    budget_ms: None,
                },
                None,
            ),
            // the block's bounds, exact and dynamics requests in turn
            Kind::Replay => {
                let j = i - BLOCK.len() + 1 + block % (BLOCK.len() - 1);
                (ops[j].spec.clone(), Some(j))
            }
        };
        ops.push(Op {
            kind,
            spec,
            key: format!("op{}", original.unwrap_or(i)),
            original,
        });
    }
    ops
}

/// The direct (no wire) answer to a request, as the JSON text the
/// server's payload must reproduce.
fn direct(spec: &JobSpec) -> Value {
    match spec {
        JobSpec::Certify {
            points,
            network,
            alpha,
            exact,
            model,
            ..
        } => {
            let cfg = if *exact {
                SolverConfig::exact()
            } else {
                SolverConfig::default()
            }
            .with_model(*model)
            .with_budget(&Budget::unlimited());
            gncg_json::ToJson::to_json(&certify(points, network, *alpha, &cfg))
        }
        JobSpec::Dynamics {
            points,
            alpha,
            rule,
            steps,
            spec,
            start,
            ..
        } => {
            let start = start
                .clone()
                .unwrap_or_else(|| OwnedNetwork::center_star(points.len().max(1), 0));
            let out = dynamics::run_spec(
                points,
                &start,
                *alpha,
                *rule,
                dynamics::AgentOrder::RoundRobin,
                *steps,
                &SolverConfig::from(*spec),
            );
            dynamics_outcome_to_json(&out)
        }
        JobSpec::Sweep { .. } => unreachable!("the mix sends no sweeps"),
    }
}

struct Sample {
    kind: Kind,
    rtt_ms: f64,
}

struct Round {
    setup_s: f64,
    loop_s: f64,
    samples: Vec<Sample>,
    /// Requests that got no answer.
    failed: u64,
    counters: Deltas,
    /// Mean `service.job.*` span, ms (traced rounds only).
    job_span_ms: f64,
    ping_us: Vec<f64>,
}

fn job_spans(s: &TraceSnapshot) -> (u64, u64) {
    s.spans
        .iter()
        .filter(|sp| sp.name.starts_with("service.job."))
        .fold((0, 0), |(c, ns), sp| (c + sp.count, ns + sp.total_ns))
}

/// Start a server and connect one client per request list.
fn start(clients: usize) -> (Server, Vec<ServeClient>) {
    let session = Session::builder().threads(THREADS).job_threads(1).build();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = Server::bind(session, &cfg).expect("bind a loopback port");
    let addr = server.local_addr().to_string();
    let clients = (0..clients)
        .map(|c| {
            let mut client = ServeClient::new(addr.clone(), format!("client{c}"))
                .with_timeout(Duration::from_secs(120));
            client.ping().expect("loopback ping");
            client
        })
        .collect();
    (server, clients)
}

/// Direct answers per client and request; `None` for replays.
type Expected = Vec<Vec<Option<String>>>;

/// One round on a fresh server. Every wire answer must equal the direct
/// one, and a replay the first answer of its key, byte for byte; the
/// answers are checked and dropped here, so memory does not grow with
/// the number of rounds. `answers` collects the first round's texts.
fn round(
    ops: &[Vec<Op>],
    expected: &Expected,
    pings: usize,
    checks: &mut Checks,
    answers: &mut Vec<String>,
) -> Round {
    // one start-up takes about 11 ms, so a batch of them is timed as a
    // whole; every server but the last is shut down again untimed
    let mut setup_s = 0.0;
    let mut started: Option<(Server, Vec<ServeClient>)> = None;
    for _ in 0..SETUPS_PER_ROUND {
        if let Some((server, clients)) = started.take() {
            drop(clients);
            server.shutdown();
        }
        let t = Instant::now();
        started = Some(start(ops.len()));
        setup_s += secs(t);
    }
    let (server, mut clients) = started.expect("at least one set-up");

    let before = gncg_trace::snapshot();
    let t = Instant::now();
    let raw: Vec<Vec<(f64, Result<Value, String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(ops)
            .map(|(client, ops)| {
                scope.spawn(move || {
                    let raw = ops
                        .iter()
                        .map(|op| {
                            let t = Instant::now();
                            let answer = client
                                .submit_with_key(&op.spec, &op.key)
                                .map_err(|e| e.to_string());
                            (1e3 * secs(t), answer)
                        })
                        .collect();
                    // the client's frame counters live in this thread
                    gncg_trace::flush_thread();
                    raw
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let loop_s = secs(t);
    server.session().wait_idle();
    let (c0, ns0) = job_spans(&before);
    let (c1, ns1) = job_spans(&gncg_trace::snapshot());
    let job_span_ms = 1e-6 * ratio((ns1 - ns0) as f64, (c1 - c0) as f64);

    let ping_us = (0..pings)
        .map(|_| {
            let t = Instant::now();
            clients[0].ping().expect("loopback ping");
            1e6 * secs(t)
        })
        .collect();
    drop(clients);
    let stats = server.shutdown();
    // connection threads flush their counters as they exit
    let counters = Deltas::between(&before, &gncg_trace::snapshot());
    checks.check(stats.rejected == 0, || {
        format!("{} requests rejected", stats.rejected)
    });

    let keep = answers.is_empty();
    let mut failed = 0;
    let mut samples = Vec::with_capacity(ops.len() * OPS_PER_CLIENT);
    for (c, raw) in raw.into_iter().enumerate() {
        let texts: Vec<Option<String>> = raw
            .iter()
            .map(|(_, a)| a.as_ref().ok().map(gncg_json::to_string))
            .collect();
        for (i, (rtt_ms, answer)) in raw.iter().enumerate() {
            let op = &ops[c][i];
            samples.push(Sample {
                kind: op.kind,
                rtt_ms: *rtt_ms,
            });
            let Some(text) = &texts[i] else {
                failed += 1;
                eprintln!("client {c} request {i}: {answer:?}");
                continue;
            };
            let want = match op.original {
                Some(j) => texts[j].as_ref().or(expected[c][j].as_ref()),
                None => expected[c][i].as_ref(),
            };
            checks.check(Some(text) == want, || {
                format!(
                    "client {c} request {i} ({:?}): wire answer differs",
                    op.kind
                )
            });
            if keep && op.original.is_none() {
                answers.push(text.clone());
            }
        }
    }
    Round {
        setup_s,
        loop_s,
        samples,
        failed,
        counters,
        job_span_ms,
        ping_us,
    }
}

pub fn run(args: &Args) -> Outcome {
    let ops: Vec<Vec<Op>> = (0..CLIENTS).map(|c| make_ops(args.seed, c)).collect();
    let mut checks = Checks::default();

    // Direct answers, computed once per run without the wire.
    let was = gncg_trace::enabled();
    let before = gncg_trace::snapshot();
    let (mut certify_s, mut dynamics_s) = (Vec::new(), Vec::new());
    let expected: Expected = ops
        .iter()
        .map(|client_ops| {
            client_ops
                .iter()
                .map(|op| {
                    (op.original.is_none()).then(|| {
                        let t = Instant::now();
                        let v = direct(&op.spec);
                        match op.kind {
                            Kind::Dynamics => dynamics_s.push(secs(t)),
                            _ => certify_s.push(secs(t)),
                        }
                        gncg_json::to_string(&v)
                    })
                })
                .collect()
        })
        .collect();
    let direct_counters = Deltas::between(&before, &gncg_trace::snapshot());

    let start = Instant::now();
    let min_rounds = if args.trace { 2 } else { 1 };
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut answers: Vec<String> = Vec::new();
    while rounds.len() < min_rounds || secs(start) < args.seconds {
        let traced = args.trace && rounds.len() % 2 == 1;
        gncg_trace::set_enabled(traced);
        let pings = if traced { 400 } else { 0 };
        let r = round(&ops, &expected, pings, &mut checks, &mut answers);
        rounds.push((traced, r));
    }
    gncg_trace::set_enabled(was);

    let failed: u64 = rounds.iter().map(|(_, r)| r.failed).sum();
    let all: Vec<&Sample> = rounds.iter().flat_map(|(_, r)| r.samples.iter()).collect();
    let attempted = all.len() as u64;
    let rtt = |pred: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        all.iter()
            .filter(|s| pred(s.kind))
            .map(|s| s.rtt_ms)
            .collect()
    };

    let metrics = if !args.trace {
        let rtts = rtt(&|_| true);
        let per_round = (CLIENTS * OPS_PER_CLIENT) as f64;
        let jobs_per_s: Vec<f64> = rounds.iter().map(|(_, r)| per_round / r.loop_s).collect();
        // p99 needs ten samples beyond it; a shorter run reports the
        // highest percentile that has them
        let tail = (1.0 - 10.0 / rtts.len() as f64).clamp(0.5, 0.99);
        eprintln!(
            "serve_mixed: every request, round trip p50/p{:.0} {:.3}/{:.3} ms",
            100.0 * tail,
            quantile(&rtts, 0.5),
            quantile(&rtts, tail)
        );
        for kind in BLOCK {
            let xs = rtt(&|k| k == kind);
            eprintln!(
                "serve_mixed: {kind:?} round trip p10/p50/p90/max {:.3}/{:.3}/{:.3}/{:.3} ms",
                quantile(&xs, 0.1),
                quantile(&xs, 0.5),
                quantile(&xs, 0.9),
                quantile(&xs, 1.0)
            );
        }
        EndToEnd {
            setup_s: median(&rounds.iter().map(|(_, r)| r.setup_s).collect::<Vec<_>>()),
            ops_per_s: median(&jobs_per_s),
            stage1_ms_per_op: quantile(&rtt(&|k| k != Kind::Replay), 0.5),
            stage2_ms_per_op: quantile(&rtt(&|k| k == Kind::Replay), 0.5),
        }
        .into_metrics()
    } else {
        let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
        let untraced: Vec<&Round> = rounds.iter().filter(|(t, _)| !*t).map(|(_, r)| r).collect();
        let counters: Vec<Deltas> = traced.iter().map(|r| r.counters.clone()).collect();
        check_counters_repeat(&mut checks, &counters, "serve_mixed round");
        let mut layers = Layers::default();
        layers.set_counters(&traced[0].counters);
        let direct_s = certify_s.iter().sum::<f64>() + dynamics_s.iter().sum::<f64>();
        layers.set(
            "graph.ns_per_relaxation",
            1e9 * ratio(direct_s, direct_counters.f(Counter::DijkstraRelaxations)),
        );
        layers.set(
            "game.ns_per_eval",
            1e9 * ratio(direct_s, direct_counters.f(Counter::BestResponseEvals)),
        );
        layers.set("game.certify_ms_per_unit", 1e3 * mean(&certify_s));
        layers.set("game.dynamics_ms_per_job", 1e3 * mean(&dynamics_s));
        layers.set(
            "service.dispatch_us_per_job",
            dispatch_us_per_job(THREADS, 2000),
        );
        let pings: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.ping_us.iter().copied())
            .collect();
        layers.set("serve.ping_p50_us", median(&pings));
        let executed: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.samples.iter())
            .filter(|s| s.kind != Kind::Replay)
            .map(|s| s.rtt_ms)
            .collect();
        layers.set(
            "serve.wire_overhead_ms",
            mean(&executed) - mean(&traced.iter().map(|r| r.job_span_ms).collect::<Vec<_>>()),
        );
        // JSON over the result payloads the wire carried
        let (parse, canon_sha, _) = json_throughput(&answers, 20);
        layers.set("json.parse_mb_per_s", parse);
        layers.set("json.canon_sha_mb_per_s", canon_sha);
        layers.set(
            "trace.overhead_pct",
            overhead_pct(
                &traced.iter().map(|r| r.loop_s).collect::<Vec<_>>(),
                &untraced.iter().map(|r| r.loop_s).collect::<Vec<_>>(),
            ),
        );
        layers.into_metrics()
    };
    Outcome {
        correct: checks.ok(),
        attempted,
        failed,
        metrics,
    }
}
