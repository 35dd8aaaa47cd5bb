//! `sweep_cache`: the committed sweep spec run through
//! `gncg_sweep::engine::run_spec` with a `Session`, cold into a fresh
//! `ResultCache`, then warm from it, once in every round.

use crate::{
    check_counters_repeat, dispatch_us_per_job, json_throughput, median, overhead_pct, ratio, secs,
    Args, Checks, Deltas, EndToEnd, Layers, Outcome,
};
use gncg_game::certify::{certify, CertifyReport};
use gncg_game::{OwnedNetwork, SolverConfig};
use gncg_geometry::PointSet;
use gncg_json::{FromJson, ToJson};
use gncg_parallel::{with_max_threads, Budget};
use gncg_service::cache::ResultCache;
use gncg_service::{Session, Shutdown};
use gncg_sweep::engine::{build_network, generate_points, run_spec};
use gncg_sweep::spec::{certify_key, seed_stream, SweepSpec};
use gncg_trace::Counter;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The committed spec; its seed base is replaced by `--seed`.
const SPEC: &str = include_str!("../sweep_cache.sweep.json");

/// Set-ups (spec load + session + fresh cache directory) per round,
/// each timed alone; `setup_s` is the median over every round's.
const SETUPS_PER_ROUND: usize = 100;

/// Warm replays of the spec per round, timed together as one warm pass.
const WARM_REPLAYS: usize = 3;

/// Worker threads for the session and for the caller's parallel
/// regions: the engine runs one unit at a time (see README).
const THREADS: usize = 1;

fn load_spec(seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::parse(SPEC).expect("the committed sweep spec parses");
    spec.seeds = seed_stream(seed, spec.seeds.len());
    spec
}

fn report_text(
    spec: &SweepSpec,
    cache: Option<Arc<ResultCache>>,
    session: Option<&Session>,
    ckpt: &Path,
) -> String {
    let out = with_max_threads(THREADS, || {
        run_spec(
            spec,
            cache,
            session,
            &Budget::unlimited(),
            Some(ckpt.to_path_buf()),
        )
    });
    assert!(!out.interrupted, "an unlimited sweep run was interrupted");
    gncg_json::to_string(&out.report.to_json())
}

/// The certify configuration the engine uses for the spec's units.
fn solver_config(spec: &SweepSpec) -> SolverConfig {
    if spec.exact {
        SolverConfig::exact()
    } else {
        SolverConfig::bounds_only()
    }
    .with_model(spec.model)
    .with_budget(&Budget::unlimited())
}

/// Euclidean Floyd–Warshall over the network's edges; returns the
/// largest finite distance.
fn diameter_fw(ps: &PointSet, net: &OwnedNetwork) -> f64 {
    let n = net.len();
    let mut d = vec![f64::INFINITY; n * n];
    for u in 0..n {
        d[u * n + u] = 0.0;
        for &v in net.strategy(u) {
            let (a, b) = (ps.point(u).coords(), ps.point(v).coords());
            let len = a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt();
            d[u * n + v] = d[u * n + v].min(len);
            d[v * n + u] = d[v * n + u].min(len);
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = d[i * n + k];
            if dik.is_infinite() {
                continue;
            }
            for j in 0..n {
                let via = dik + d[k * n + j];
                if via < d[i * n + j] {
                    d[i * n + j] = via;
                }
            }
        }
    }
    d.into_iter().filter(|x| x.is_finite()).fold(0.0, f64::max)
}

/// The `key=value` field of a row note.
fn note_field(note: &str, key: &str) -> Option<f64> {
    note.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Per-unit checks against the report rows and the cached certify
/// reports: diameter against our own Floyd–Warshall, ordered β bounds.
fn check_units(checks: &mut Checks, spec: &SweepSpec, report: &str, cache: &ResultCache) {
    let report = gncg_sweep::Report::from_json(&gncg_json::parse(report).expect("report parses"))
        .expect("report decodes");
    let units = spec.units();
    checks.check(report.rows.len() == units.len(), || {
        format!("{} rows for {} units", report.rows.len(), units.len())
    });
    for (unit, row) in units.iter().zip(&report.rows) {
        let ps = generate_points(&spec.generator, unit.n, unit.seed);
        let net = build_network(&unit.method, &ps, unit.alpha);
        let fw = diameter_fw(&ps, &net);
        let diam = note_field(&row.note, "diam").unwrap_or(f64::NAN);
        checks.check((diam - fw).abs() <= 1e-9 * fw.max(1.0), || {
            format!(
                "{}: reported diameter {diam} vs Floyd–Warshall {fw}",
                row.params
            )
        });
        checks.check(row.ok, || format!("{}: network not connected", row.params));
        let key = certify_key(
            &spec.generator,
            unit.n,
            unit.seed,
            &unit.method,
            unit.alpha,
            spec.exact,
            spec.model,
            "exact",
            spec.budget_ms,
        );
        match cache.get(&key).map(|p| CertifyReport::from_json(&p)) {
            Some(Ok(cr)) => {
                // witness lower bound ≤ exact β (where the enumeration
                // cap allows it) ≤ certified upper bound
                let lower = cr.beta_witness;
                let exact = cr.beta_exact.unwrap_or(lower);
                checks.check(
                    1.0 <= lower && lower <= exact && exact <= cr.beta_upper,
                    || {
                        format!(
                            "{}: beta bounds out of order: witness {lower} exact {:?} upper {}",
                            row.params, cr.beta_exact, cr.beta_upper
                        )
                    },
                );
                checks.check(
                    row.measured == Some(cr.beta_exact.unwrap_or(cr.beta_upper)),
                    || {
                        format!(
                            "{}: row beta {:?} vs cached {:?} / {}",
                            row.params, row.measured, cr.beta_exact, cr.beta_upper
                        )
                    },
                );
            }
            _ => checks.check(false, || format!("{}: certify entry missing", row.params)),
        }
    }
}

struct Pass {
    secs: f64,
    counters: Deltas,
}

struct Round {
    setups: Vec<f64>,
    cold: Pass,
    warm: Pass,
}

/// One round: a fresh session and cache, one cold pass, then a warm
/// pass of [`WARM_REPLAYS`] replays. Every report must equal `reference`.
fn round(
    seed: u64,
    work: &Path,
    idx: usize,
    reference: &str,
    checks: &mut Checks,
) -> (Round, Arc<ResultCache>) {
    // A set-up loads the spec, builds the session and opens a fresh
    // cache directory: tens of µs, so many are timed one by one and
    // the median kept; a pause of the host's CPU then lands in a few
    // samples, not in the figure. The directory itself is made untimed:
    // on ext4 on a shared virtio disk one `mkdir` took from 70 µs to
    // 1 ms from one moment to the next, and would drown the program's
    // own set-up. No directory is removed before the run ends, and
    // every set-up but the last is shut down untimed.
    let mut setups = Vec::with_capacity(SETUPS_PER_ROUND);
    let mut started: Option<(SweepSpec, Session, Arc<ResultCache>)> = None;
    for k in 0..SETUPS_PER_ROUND {
        if let Some((_, session, _)) = started.take() {
            session.shutdown(Shutdown::Drain);
        }
        let dir = work.join(format!("setup-{idx}-{k}"));
        std::fs::create_dir(&dir).expect("cache dir");
        let t = Instant::now();
        let spec = load_spec(seed);
        let session = Session::builder().threads(THREADS).job_threads(1).build();
        let cache = Arc::new(ResultCache::at(&dir).expect("cache dir"));
        setups.push(secs(t));
        started = Some((spec, session, cache));
    }
    let (spec, session, cache) = started.expect("at least one set-up");
    let ckpt = work.join(format!("round-{idx}.checkpoint.json"));

    let mut pass = |what: &str, replays: usize| {
        let before = gncg_trace::snapshot();
        let t = Instant::now();
        let texts: Vec<String> = (0..replays)
            .map(|_| report_text(&spec, Some(Arc::clone(&cache)), Some(&session), &ckpt))
            .collect();
        let s = secs(t);
        session.wait_idle();
        let counters = Deltas::between(&before, &gncg_trace::snapshot());
        for text in &texts {
            checks.check(text == reference, || {
                format!("round {idx} {what} report differs from the no-cache report")
            });
        }
        Pass { secs: s, counters }
    };
    let cold = pass("cold", 1);
    let warm = pass("warm", WARM_REPLAYS);
    session.shutdown(Shutdown::Drain);
    (Round { setups, cold, warm }, cache)
}

/// Layer timings of one uncached pass over the spec, unit by unit,
/// summed over units: build, APSP and certify seconds, and the counter
/// deltas of the APSP and the certify calls.
struct Decomposed {
    build: f64,
    apsp: f64,
    cert: f64,
    apsp_counters: Deltas,
    cert_counters: Deltas,
}

fn decomposed_pass(spec: &SweepSpec) -> Decomposed {
    let zero = Deltas::between(&gncg_trace::snapshot(), &gncg_trace::snapshot());
    let mut d = Decomposed {
        build: 0.0,
        apsp: 0.0,
        cert: 0.0,
        apsp_counters: zero.clone(),
        cert_counters: zero,
    };
    with_max_threads(THREADS, || {
        for unit in spec.units() {
            let ps = generate_points(&spec.generator, unit.n, unit.seed);
            let t = Instant::now();
            let net = build_network(&unit.method, &ps, unit.alpha);
            d.build += secs(t);
            let graph = net.graph(&ps);
            let before = gncg_trace::snapshot();
            let t = Instant::now();
            let m = gncg_graph::apsp::all_pairs(&graph);
            d.apsp += secs(t);
            d.apsp_counters
                .add(&Deltas::between(&before, &gncg_trace::snapshot()));
            std::hint::black_box(m.len());
            let cfg = solver_config(spec);
            let before = gncg_trace::snapshot();
            let t = Instant::now();
            let r = certify(&ps, &net, unit.alpha, &cfg);
            d.cert += secs(t);
            d.cert_counters
                .add(&Deltas::between(&before, &gncg_trace::snapshot()));
            std::hint::black_box(r.beta_upper);
        }
    });
    d
}

/// Cache and JSON layers over the entries a cold pass left behind.
fn cache_layers(layers: &mut Layers, cache: &ResultCache, work: &Path) {
    let mut keys: Vec<String> = std::fs::read_dir(cache.dir())
        .expect("cache dir readable")
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.strip_suffix(".json").map(str::to_string)
        })
        .collect();
    keys.sort();
    let texts: Vec<String> = keys
        .iter()
        .map(|k| std::fs::read_to_string(cache.dir().join(format!("{k}.json"))).expect("entry"))
        .collect();
    let bytes: usize = texts.iter().map(String::len).sum();
    let entries = keys.len() as f64;
    let (parse, canon_sha, parsed) = json_throughput(&texts, 1);
    let payloads: Vec<_> = parsed
        .iter()
        .map(|v| v.get("payload").expect("entry payload").clone())
        .collect();

    let t = Instant::now();
    for k in &keys {
        std::hint::black_box(cache.get(k).expect("cached entry verifies"));
    }
    let get_s = secs(t);

    let fresh = ResultCache::at(work.join("put-target")).expect("cache dir");
    let t = Instant::now();
    for (k, p) in keys.iter().zip(&payloads) {
        fresh.put(k, p).expect("cache put");
    }
    let put_s = secs(t);

    layers.set("cache.get_ms_per_entry", 1e3 * ratio(get_s, entries));
    layers.set("cache.put_ms_per_entry", 1e3 * ratio(put_s, entries));
    layers.set("cache.entry_kb", ratio(bytes as f64 / 1024.0, entries));
    layers.set("json.parse_mb_per_s", parse);
    layers.set("json.canon_sha_mb_per_s", canon_sha);
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let spec = load_spec(args.seed);
    let units = spec.units().len();
    let mut checks = Checks::default();

    // The reference: the same spec with no cache and no session.
    let reference = {
        let was = gncg_trace::enabled();
        gncg_trace::set_enabled(false);
        let text = report_text(&spec, None, None, &work.join("direct.checkpoint.json"));
        gncg_trace::set_enabled(was);
        text
    };

    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    // a traced run alternates untraced and traced rounds, for the
    // tracing overhead; it needs one of each
    let min_rounds = if args.trace { 2 } else { 1 };
    // a round lasts seconds, so one is started only if it is likely to
    // end within the run's time, judged by the round before it
    let mut last_cache = None;
    let mut last_round_s = 0.0;
    while rounds.len() < min_rounds || secs(start) + last_round_s <= args.seconds {
        let traced = args.trace && rounds.len() % 2 == 1;
        gncg_trace::set_enabled(traced);
        let idx = rounds.len();
        let t = Instant::now();
        let (r, cache) = round(args.seed, work, idx, &reference, &mut checks);
        last_round_s = secs(t);
        last_cache = Some(cache);
        rounds.push(r);
    }
    gncg_trace::set_enabled(args.trace);
    let cache = last_cache.expect("at least one round ran");
    check_units(&mut checks, &spec, &reference, &cache);

    // a cold pass and the warm replays, over every unit
    let attempted = rounds.len() as u64 * (1 + WARM_REPLAYS) as u64 * units as u64;
    let u = units as f64;
    let metrics = if !args.trace {
        let cold: Vec<f64> = rounds.iter().map(|r| r.cold.secs).collect();
        let warm: Vec<f64> = rounds.iter().map(|r| r.warm.secs).collect();
        let setup: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.setups.iter().copied())
            .collect();
        eprintln!(
            "sweep_cache: {units} units, {} rounds, median set-up {:?} s, cold {cold:?} s, warm {warm:?} s",
            rounds.len(),
            rounds.iter().map(|r| median(&r.setups)).collect::<Vec<_>>()
        );
        let rounds_s: Vec<f64> = rounds.iter().map(|r| r.cold.secs + r.warm.secs).collect();
        EndToEnd {
            setup_s: median(&setup),
            ops_per_s: (1 + WARM_REPLAYS) as f64 * u / median(&rounds_s),
            stage1_ms_per_op: 1e3 * median(&cold) / u,
            stage2_ms_per_op: 1e3 * median(&warm) / (WARM_REPLAYS as f64 * u),
        }
        .into_metrics()
    } else {
        let traced: Vec<&Round> = rounds.iter().skip(1).step_by(2).collect();
        let untraced: Vec<&Round> = rounds.iter().step_by(2).collect();
        let cold_counters: Vec<Deltas> = traced.iter().map(|r| r.cold.counters.clone()).collect();
        check_counters_repeat(&mut checks, &cold_counters, "sweep_cache cold pass");
        for r in &traced {
            checks.check(
                r.warm.counters.get(Counter::DijkstraRelaxations) == 0
                    && r.warm.counters.get(Counter::BestResponseEvals) == 0,
                || "a warm pass did solver work".to_string(),
            );
        }
        let total = |r: &Round| r.cold.secs + r.warm.secs;
        let mut layers = Layers::default();
        let first = traced[0];
        let mut round_counters = first.cold.counters.clone();
        round_counters.add(&first.warm.counters);
        layers.set_counters(&round_counters);
        // graph/game counters are the cold pass's alone: warm passes
        // must do no solver work
        let Decomposed {
            build,
            apsp,
            cert,
            apsp_counters,
            cert_counters,
        } = decomposed_pass(&spec);
        layers.set("graph.apsp_ms_per_unit", 1e3 * apsp / u);
        layers.set(
            "graph.ns_per_relaxation",
            1e9 * ratio(apsp, apsp_counters.f(Counter::DijkstraRelaxations)),
        );
        layers.set("algo.build_ms_per_unit", 1e3 * build / u);
        layers.set("game.certify_ms_per_unit", 1e3 * cert / u);
        layers.set(
            "game.ns_per_eval",
            1e9 * ratio(cert, cert_counters.f(Counter::BestResponseEvals)),
        );
        let cold_ms = 1e3 * median(&traced.iter().map(|r| r.cold.secs).collect::<Vec<_>>()) / u;
        layers.set(
            "sweep.engine_ms_per_unit",
            cold_ms - 1e3 * (build + apsp + cert) / u,
        );
        cache_layers(&mut layers, &cache, work);
        layers.set(
            "service.dispatch_us_per_job",
            dispatch_us_per_job(THREADS, 2000),
        );
        layers.set(
            "trace.overhead_pct",
            overhead_pct(
                &traced.iter().map(|r| total(r)).collect::<Vec<_>>(),
                &untraced.iter().map(|r| total(r)).collect::<Vec<_>>(),
            ),
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
