//! End-to-end benchmark of the gncg stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_cache|serve_mixed|approx_large> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload repeats whole rounds of the same operations until
//! `--seconds` have been measured, checks every output against an
//! independent computation or a property the method must have, and
//! prints one JSON object as the last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end figures; with `--trace 1` tracing is
//! switched on (`gncg_trace::set_enabled`) and the metrics are the
//! per-layer figures, measured from outside the layers: timed calls
//! into their public functions plus `gncg_trace::snapshot` counter
//! deltas. See `README.md` for the layer → end-to-end map.

mod approx;
mod serve;
mod sweep;

use gncg_json::{canon, object, Value};
use gncg_service::{JobOptions, Session, Shutdown};
use gncg_trace::{Counter, TraceSnapshot, DETERMINISTIC_COUNTERS};
use std::path::{Path, PathBuf};
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["sweep_cache", "serve_mixed", "approx_large"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?} (one of {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects correctness failures; a run with any is reported with
/// `correct: false` and each reason on standard error.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by the nearest-rank rule.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when the layer did no work on this workload.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Counter deltas between two trace snapshots.
#[derive(Clone)]
pub struct Deltas([u64; gncg_trace::NUM_COUNTERS]);

impl Deltas {
    pub fn between(before: &TraceSnapshot, after: &TraceSnapshot) -> Self {
        Deltas(after.counters_since(before))
    }

    pub fn add(&mut self, other: &Deltas) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    pub fn f(&self, c: Counter) -> f64 {
        self.get(c) as f64
    }

    /// The schedule-invariant subset, for the run-to-run repeat check.
    pub fn deterministic(&self) -> Vec<u64> {
        DETERMINISTIC_COUNTERS
            .iter()
            .map(|&c| self.get(c))
            .collect()
    }
}

/// Check that every traced round did exactly the same deterministic
/// work as the first one.
pub fn check_counters_repeat(checks: &mut Checks, rounds: &[Deltas], what: &str) {
    if let Some(first) = rounds.first() {
        for (i, r) in rounds.iter().enumerate().skip(1) {
            checks.check(r.deterministic() == first.deterministic(), || {
                format!(
                    "{what}: deterministic counters of round {i} {:?} differ from round 0 {:?}",
                    r.deterministic(),
                    first.deterministic()
                )
            });
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end figures of an untraced run. Every workload prints the
/// same five metrics, so that each run reports every end-to-end metric
/// of the manifest; what a stage is differs by workload (see
/// `README.md`):
///
/// | workload | stage 1 | stage 2 |
/// |---|---|---|
/// | sweep_cache | cold pass, per unit | warm pass, per replayed unit |
/// | serve_mixed | median round trip of first-time requests | median round trip of replays |
/// | approx_large | one `run_approx` call | one `certify_approx` call |
pub struct EndToEnd {
    /// Set-up time, a median over the run.
    pub setup_s: f64,
    /// Operations counted in `attempted` per second of timed work, a
    /// median over rounds.
    pub ops_per_s: f64,
    pub stage1_ms_per_op: f64,
    pub stage2_ms_per_op: f64,
}

impl EndToEnd {
    pub fn into_metrics(self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("setup_s", self.setup_s, "s"),
            m("peak_rss_mb", peak_rss_mb(), "MiB"),
            m("ops_per_s", self.ops_per_s, "1/s"),
            m("stage1_ms_per_op", self.stage1_ms_per_op, "ms"),
            m("stage2_ms_per_op", self.stage2_ms_per_op, "ms"),
        ]
    }
}

/// The per-layer metric names, in print order; a traced run prints
/// every one of them, 0 where the workload does not reach the layer.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("graph.relaxations", "count"),
    ("graph.heap_pops", "count"),
    ("graph.apsp_ms_per_unit", "ms"),
    ("graph.ns_per_relaxation", "ns"),
    ("algo.build_ms_per_unit", "ms"),
    ("game.certify_ms_per_unit", "ms"),
    ("game.best_response_evals", "count"),
    ("game.ns_per_eval", "ns"),
    ("game.moves_evaluated", "count"),
    ("game.moves_pruned", "count"),
    ("game.prune_ratio", "ratio"),
    ("game.row_invalidations", "count"),
    ("game.dynamics_ms_per_job", "ms"),
    ("spanner.build_s", "s"),
    ("spanner.grid_index_s", "s"),
    ("approx.candidates_generated", "count"),
    ("approx.candidates_skipped", "count"),
    ("approx.agents_probed", "count"),
    ("approx.moves_accepted", "count"),
    ("approx.relaxations_per_eval", "count"),
    ("service.dispatch_us_per_job", "us"),
    ("service.enqueued", "count"),
    ("cache.get_ms_per_entry", "ms"),
    ("cache.put_ms_per_entry", "ms"),
    ("cache.entry_kb", "KiB"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("json.parse_mb_per_s", "MB/s"),
    ("json.canon_sha_mb_per_s", "MB/s"),
    ("sweep.engine_ms_per_unit", "ms"),
    ("serve.ping_p50_us", "us"),
    ("serve.wire_overhead_ms", "ms"),
    ("serve.frames_rx", "count"),
    ("serve.frames_tx", "count"),
    ("parallel.pool_jobs", "count"),
    ("parallel.chunk_claims", "count"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values a workload measured; unset ones print as 0.
#[derive(Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// Counter-derived rows shared by every workload.
    pub fn set_counters(&mut self, d: &Deltas) {
        let pruned = d.f(Counter::MovesPruned);
        let evaluated = d.f(Counter::MovesEvaluated);
        self.set("graph.relaxations", d.f(Counter::DijkstraRelaxations));
        self.set("graph.heap_pops", d.f(Counter::DijkstraHeapPops));
        self.set("game.best_response_evals", d.f(Counter::BestResponseEvals));
        self.set("game.moves_evaluated", evaluated);
        self.set("game.moves_pruned", pruned);
        self.set("game.prune_ratio", ratio(pruned, pruned + evaluated));
        self.set("game.row_invalidations", d.f(Counter::RowInvalidations));
        self.set(
            "approx.candidates_generated",
            d.f(Counter::CandidatesGenerated),
        );
        self.set("approx.candidates_skipped", d.f(Counter::CandidatesSkipped));
        self.set("service.enqueued", d.f(Counter::ServiceEnqueued));
        self.set("cache.hits", d.f(Counter::CacheHits));
        self.set("cache.misses", d.f(Counter::CacheMisses));
        self.set("serve.frames_rx", d.f(Counter::ServeFramesRx));
        self.set("serve.frames_tx", d.f(Counter::ServeFramesTx));
        self.set("parallel.pool_jobs", d.f(Counter::PoolJobs));
        self.set("parallel.chunk_claims", d.f(Counter::ChunkClaims));
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self
                    .0
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v),
            })
            .collect()
    }
}

/// Trace overhead in percent: traced time against untraced time of the
/// same timed phase.
pub fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    100.0 * (ratio(median(traced), median(untraced)) - 1.0)
}

/// Mean µs per trivial `submit_sweep` job, submit → wait, on a session
/// shaped like the workload's.
pub fn dispatch_us_per_job(threads: usize, jobs: usize) -> f64 {
    let session = Session::builder().threads(threads).job_threads(1).build();
    let t = Instant::now();
    for i in 0..jobs as u64 {
        let h = session
            .submit_sweep(JobOptions::default(), move |_| {
                std::hint::black_box(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            })
            .expect("trivial job admitted");
        h.wait().expect("trivial job completes");
    }
    let us = 1e6 * secs(t) / jobs as f64;
    session.shutdown(Shutdown::Drain);
    us
}

/// `gncg_json` throughput over `texts`, `repeat` times each: parse
/// MB/s, and `canon::canonical_string` + `canon::sha256_hex` MB/s over
/// the parsed values. Returns the parsed values too.
pub fn json_throughput(texts: &[String], repeat: usize) -> (f64, f64, Vec<Value>) {
    let bytes: usize = texts.iter().map(String::len).sum();
    let t = Instant::now();
    let mut values = Vec::new();
    for _ in 0..repeat {
        values = texts
            .iter()
            .map(|s| gncg_json::parse(s).expect("text parses"))
            .collect();
    }
    let parse_s = secs(t);
    let t = Instant::now();
    let mut canon_bytes = 0usize;
    for _ in 0..repeat {
        for v in &values {
            let s = canon::canonical_string(v);
            canon_bytes += s.len();
            std::hint::black_box(canon::sha256_hex(s.as_bytes()));
        }
    }
    let canon_s = secs(t);
    (
        ratio((repeat * bytes) as f64 / 1e6, parse_s),
        ratio(canon_bytes as f64 / 1e6, canon_s),
        values,
    )
}

/// Scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // leave no empty parent behind
        let _ = std::fs::remove_dir(".bench_work");
        // commit the removals (and the discards they trigger) now, so
        // that they do not slow the first fsyncs of the next run
        let _ = std::fs::File::open(".").and_then(|d| d.sync_all());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    gncg_trace::set_enabled(args.trace);
    gncg_trace::reset();
    let mut outcome = match args.workload.as_str() {
        "sweep_cache" => {
            let work = WorkDir::create(&args.workload).unwrap_or_else(|e| {
                eprintln!("perfbench: cannot create the work directory: {e}");
                std::process::exit(1);
            });
            sweep::run(&args, work.path())
        }
        "serve_mixed" => serve::run(&args),
        _ => approx::run(&args),
    };
    for m in outcome.metrics.iter().filter(|m| !m.value.is_finite()) {
        eprintln!("check failed: metric {} is {}", m.name, m.value);
        outcome.correct = false;
    }
    let metrics = object(
        outcome
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name,
                    object(vec![
                        ("value", Value::Number(value)),
                        ("unit", Value::String(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let line = object(vec![
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Number(outcome.attempted as f64)),
        ("failed", Value::Number(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", gncg_json::to_string(&line));
}
