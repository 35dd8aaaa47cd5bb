//! `approx_large`: a Yao-spanner start at n in the thousands, then
//! `run_approx` with a fixed agent-probe cap, then `certify_approx`.
//! No JSON, cache or serve work runs here.

use crate::{
    check_counters_repeat, median, overhead_pct, ratio, secs, Args, Checks, Deltas, EndToEnd,
    Layers, Outcome,
};
use gncg_game::approx::{certify_approx, run_approx, ApproxCertifyReport, ApproxDynamicsOptions};
use gncg_game::certify::certify;
use gncg_game::{EvalBackend, OwnedNetwork, SolverConfig};
use gncg_geometry::{generators, PointSet};
use gncg_spanner::{GridIndex, SpannerKind};
use gncg_sweep::spec::seed_stream;
use gncg_trace::Counter;
use std::time::Instant;

/// Agents, probe cap, and the instance small enough for exact `certify`.
const N: usize = 2048;
const AGENT_PROBES: usize = 128;
const PROBE_BUDGET: usize = 8;
const N_SMALL: usize = 48;
const ALPHA: f64 = 1.0;
const SPANNER: SpannerKind = SpannerKind::Yao { cones: 12 };

fn cfg() -> SolverConfig {
    SolverConfig::default().with_backend(EvalBackend::Spanner {
        kind: SPANNER,
        pivots: 8,
    })
}

fn dynamics_opts() -> ApproxDynamicsOptions {
    ApproxDynamicsOptions::default()
        .with_rounds(1)
        .with_probe_budget(PROBE_BUDGET)
        .with_agent_probes(AGENT_PROBES)
}

/// Start network and candidate index: (start, index, spanner s, index s).
fn setup(ps: &PointSet) -> (OwnedNetwork, GridIndex, f64, f64) {
    let t = Instant::now();
    let spanner = gncg_spanner::build(ps, SPANNER);
    let start = OwnedNetwork::from_distributed(ps.len(), &gncg_spanner::cert::distribute(&spanner));
    let spanner_s = secs(t);
    let t = Instant::now();
    let index = GridIndex::with_auto_cell(ps);
    (start, index, spanner_s, secs(t))
}

/// Connectivity by our own breadth-first search over the edge set.
fn connected(net: &OwnedNetwork) -> bool {
    let n = net.len();
    let mut adj = vec![Vec::new(); n];
    for u in 0..n {
        for &v in net.strategy(u) {
            adj[u].push(v);
            adj[v].push(u);
        }
    }
    let mut seen = vec![false; n];
    let mut queue = vec![0usize];
    seen[0] = n > 0;
    while let Some(u) = queue.pop() {
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                queue.push(v);
            }
        }
    }
    seen.iter().all(|&s| s)
}

fn check_bracket(checks: &mut Checks, r: &ApproxCertifyReport, what: &str) {
    let pairs = [
        ("beta", r.beta_lo, r.beta_hi),
        ("gamma", r.gamma_lo, r.gamma_hi),
        ("social", r.social_lo, r.social_hi),
    ];
    for (name, lo, hi) in pairs {
        checks.check(lo.is_finite() && hi.is_finite() && lo <= hi, || {
            format!("{what}: {name} bracket [{lo}, {hi}] not ordered and finite")
        });
    }
    checks.check(r.beta_lo >= 1.0, || {
        format!("{what}: beta_lo {} < 1", r.beta_lo)
    });
}

/// On an instance of the same generator small enough for exact
/// `certify`, the brackets must contain the exact certifier's figures.
fn check_small(checks: &mut Checks, seed: u64) {
    let ps = generators::uniform_unit_square(N_SMALL, seed);
    let (mut net, index, _, _) = setup(&ps);
    run_approx(&ps, &mut net, ALPHA, &index, dynamics_opts());
    let b = certify_approx(&ps, &net, ALPHA, &cfg());
    check_bracket(checks, &b, "small instance");
    let exact = certify(&ps, &net, ALPHA, &SolverConfig::default());
    checks.check(
        b.beta_lo <= exact.beta_upper && exact.beta_upper <= b.beta_hi,
        || {
            format!(
                "beta {} outside [{}, {}]",
                exact.beta_upper, b.beta_lo, b.beta_hi
            )
        },
    );
    checks.check(
        b.gamma_lo <= exact.gamma_upper && exact.gamma_upper <= b.gamma_hi,
        || {
            format!(
                "gamma {} outside [{}, {}]",
                exact.gamma_upper, b.gamma_lo, b.gamma_hi
            )
        },
    );
    checks.check(
        b.social_lo <= exact.social_cost && exact.social_cost <= b.social_hi,
        || {
            format!(
                "social cost {} outside [{}, {}]",
                exact.social_cost, b.social_lo, b.social_hi
            )
        },
    );
}

struct Round {
    traced: bool,
    setup_s: f64,
    spanner_s: f64,
    index_s: f64,
    dynamics_s: f64,
    certify_s: f64,
    dynamics_counters: Deltas,
    counters: Deltas,
    agents_probed: u64,
    moves_accepted: u64,
    /// Final network and bracket, which must repeat every round.
    fingerprint: String,
}

fn round(ps: &PointSet, traced: bool, checks: &mut Checks) -> Round {
    gncg_trace::set_enabled(traced);
    let s0 = gncg_trace::snapshot();
    let t = Instant::now();
    let (mut net, index, spanner_s, index_s) = setup(ps);
    let setup_s = secs(t);
    let s1 = gncg_trace::snapshot();
    let t = Instant::now();
    let out = run_approx(ps, &mut net, ALPHA, &index, dynamics_opts());
    let dynamics_s = secs(t);
    let s2 = gncg_trace::snapshot();
    let t = Instant::now();
    let bracket = certify_approx(ps, &net, ALPHA, &cfg());
    let certify_s = secs(t);
    let s3 = gncg_trace::snapshot();
    check_bracket(checks, &bracket, "large instance");
    checks.check(connected(&net), || "final network is disconnected".into());
    checks.check(bracket.connected, || {
        "certify_approx reports a disconnected network".into()
    });
    Round {
        traced,
        setup_s,
        spanner_s,
        index_s,
        dynamics_s,
        certify_s,
        dynamics_counters: Deltas::between(&s1, &s2),
        counters: Deltas::between(&s0, &s3),
        agents_probed: out.agents_probed,
        moves_accepted: out.moves_accepted,
        fingerprint: format!(
            "{:?} {}",
            net.canonical_key(),
            gncg_json::to_string(&bracket)
        ),
    }
}

pub fn run(args: &Args) -> Outcome {
    let seeds = seed_stream(args.seed ^ 0xA, 2);
    let ps = generators::uniform_unit_square(N, seeds[0]);
    let mut checks = Checks::default();
    let was = gncg_trace::enabled();
    gncg_trace::set_enabled(false);
    check_small(&mut checks, seeds[1]);

    let start = Instant::now();
    let min_rounds = if args.trace { 2 } else { 1 };
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < min_rounds || secs(start) < args.seconds {
        let traced = args.trace && rounds.len() % 2 == 1;
        rounds.push(round(&ps, traced, &mut checks));
    }
    gncg_trace::set_enabled(was);
    for (i, r) in rounds.iter().enumerate().skip(1) {
        checks.check(r.fingerprint == rounds[0].fingerprint, || {
            format!("round {i}: final network or bracket differs from round 0")
        });
    }
    let attempted = 2 * rounds.len() as u64;
    let col = |f: &dyn Fn(&Round) -> f64, traced: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.traced == traced)
            .map(f)
            .collect()
    };

    let metrics = if !args.trace {
        eprintln!(
            "approx_large: {} rounds, dynamics {:?} s, certify {:?} s",
            rounds.len(),
            col(&|r| r.dynamics_s, false),
            col(&|r| r.certify_s, false)
        );
        EndToEnd {
            setup_s: median(&col(&|r| r.setup_s, false)),
            ops_per_s: median(&col(&|r| 2.0 / (r.dynamics_s + r.certify_s), false)),
            stage1_ms_per_op: 1e3 * median(&col(&|r| r.dynamics_s, false)),
            stage2_ms_per_op: 1e3 * median(&col(&|r| r.certify_s, false)),
        }
        .into_metrics()
    } else {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let counters: Vec<Deltas> = traced.iter().map(|r| r.counters.clone()).collect();
        check_counters_repeat(&mut checks, &counters, "approx_large round");
        let first = traced[0];
        let d = &first.dynamics_counters;
        let mut layers = Layers::default();
        layers.set_counters(&first.counters);
        layers.set(
            "graph.ns_per_relaxation",
            1e9 * ratio(first.dynamics_s, d.f(Counter::DijkstraRelaxations)),
        );
        layers.set(
            "game.ns_per_eval",
            1e9 * ratio(first.dynamics_s, d.f(Counter::BestResponseEvals)),
        );
        layers.set("spanner.build_s", median(&col(&|r| r.spanner_s, true)));
        layers.set("spanner.grid_index_s", median(&col(&|r| r.index_s, true)));
        layers.set("approx.agents_probed", first.agents_probed as f64);
        layers.set("approx.moves_accepted", first.moves_accepted as f64);
        layers.set(
            "approx.relaxations_per_eval",
            ratio(
                d.f(Counter::DijkstraRelaxations),
                d.f(Counter::BestResponseEvals),
            ),
        );
        let total = |r: &Round| r.setup_s + r.dynamics_s + r.certify_s;
        layers.set(
            "trace.overhead_pct",
            overhead_pct(&col(&total, true), &col(&total, false)),
        );
        layers.into_metrics()
    };
    Outcome {
        correct: checks.ok(),
        attempted,
        failed: 0,
        metrics,
    }
}
