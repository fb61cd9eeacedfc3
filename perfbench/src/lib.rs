//! Layered benchmark for APGRE's compute, mutation and query paths.
//!
//! One run generates a seeded workload graph, then measures three phases on
//! it from outside the layer crates, through their public calls only:
//!
//! 1. compute — `decompose` + `bc_from_decomposition` ([`compute`]);
//! 2. mutation — `DynamicBc::apply` → `snapshot` → `approx_snapshot`
//!    ([`mutate`]);
//! 3. query — an in-process `apgre_serve::serve` under an open-loop load
//!    ([`serve`]).
//!
//! An untraced run reports the end-to-end metrics; a traced run records
//! spans around the same calls ([`trace`]) and reports the per-layer
//! metrics. Every phase checks its results outside its timed region.

pub mod check;
pub mod compute;
pub mod inputs;
pub mod mutate;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use apgre_bc::ApgreOptions;
use apgre_decomp::decompose;
use apgre_dynamic::{DynamicBc, SampleOptions};
use apgre_workloads::Scale;

/// One benchmark workload: a registry graph whose shape decides which level
/// of APGRE's parallelism the three phases stress.
///
/// The query phase's request rates are derived from three measured costs
/// (see [`serve::read_rate`] and [`serve::mutate_rate`]). They were measured
/// with `--calibrate 1` at small scale on a 2-vCPU x86-64 VM, and are fixed
/// here so that every run, of any revision, replays the same schedule.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Registry graph it is built from.
    pub graph: &'static str,
    /// Closed-loop reads per second one connection gets from an idle
    /// service (route mix of the query phase).
    pub read_capacity_per_s: f64,
    /// Mean time from `apply` to `approx_snapshot` of a local batch, in ms.
    pub local_batch_ms: f64,
    /// The same for a structural batch, in ms.
    pub structural_batch_ms: f64,
}

/// The benchmark's workloads (`BENCHMARK.json` says why each is there).
pub const WORKLOADS: [Workload; 2] = [
    // One sub-graph holds nearly all kernel time: the inner level.
    Workload {
        name: "whisker",
        graph: "youtube-like",
        read_capacity_per_s: READ_CAPACITY_WHISKER,
        local_batch_ms: LOCAL_BATCH_MS_WHISKER,
        structural_batch_ms: STRUCTURAL_BATCH_MS_WHISKER,
    },
    // Kernel time spread over many similar sub-graphs: the outer level.
    Workload {
        name: "road",
        graph: "usa-road-ny-like",
        read_capacity_per_s: READ_CAPACITY_ROAD,
        local_batch_ms: LOCAL_BATCH_MS_ROAD,
        structural_batch_ms: STRUCTURAL_BATCH_MS_ROAD,
    },
];

// Calibration (`--calibrate 1`, seed 1, 20 s), see [`Workload`].
const READ_CAPACITY_WHISKER: f64 = 16_540.0;
const LOCAL_BATCH_MS_WHISKER: f64 = 28.1;
const STRUCTURAL_BATCH_MS_WHISKER: f64 = 508.0;
const READ_CAPACITY_ROAD: f64 = 21_400.0;
const LOCAL_BATCH_MS_ROAD: f64 = 33.1;
const STRUCTURAL_BATCH_MS_ROAD: f64 = 34.1;

/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPS: usize = 5;

/// Rounds the measured time is split into.
pub const ROUNDS: usize = 5;

/// Shares of `--seconds` given to the compute and mutation phases; the
/// query phase gets the rest.
const COMPUTE_SHARE: f64 = 0.15;
const MUTATE_SHARE: f64 = 0.45;

/// One run's configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed of every input.
    pub seed: u64,
    /// Measured time across the three phases.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Graph scale.
    pub scale: Scale,
    /// Where the traced run writes its spans (`None`: nowhere).
    pub trace_dir: Option<PathBuf>,
}

/// A metric value with its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Mutable state of one run: counters, failures, metrics, spans.
pub struct Run {
    /// Available hardware threads.
    pub nproc: usize,
    /// Distinct threads observed executing rayon work in an `nproc` pool.
    pub observed_threads: usize,
    /// The run's rayon pool of `nproc` threads, built once so that no
    /// timed region pays for starting or joining threads.
    pub pool: rayon::ThreadPool,
    /// Span recorder (enabled in the traced run).
    pub tracer: trace::Tracer,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layer: Metrics,
}

impl Run {
    /// Records a failed correctness check.
    pub fn fail(&mut self, msg: String) {
        eprintln!("CHECK FAILED: {msg}");
        self.errors.push(msg);
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.e2e.insert(name, (value, unit));
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layer.insert(name, (value, unit));
    }
}

/// What a run produced.
pub struct Outcome {
    /// Every correctness check passed and every metric is finite.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layer: Metrics,
    /// Execution facts (thread counts, build, graph sizes).
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// the run's kind.
    pub fn json(&self, traced: bool) -> String {
        let metrics = if traced { &self.layer } else { &self.e2e };
        let body: Vec<String> = metrics
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// The execution facts as one JSON object.
    pub fn facts_json(&self) -> String {
        let body: Vec<String> =
            self.facts.iter().map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v))).collect();
        format!("{{\"facts\": {{{}}}}}", body.join(", "))
    }
}

/// `s` as the body of a JSON string.
fn escape(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '"' | '\\' => format!("\\{c}"),
            c if c.is_control() => format!("\\u{:04x}", c as u32),
            c => c.to_string(),
        })
        .collect()
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The git revision of the checkout, when it is a git work tree.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).map(|s| s.trim().to_owned()),
        None => Ok(head.to_owned()),
    }
    .ok()
    .filter(|s| !s.is_empty())
    .unwrap_or_else(|| "unknown".to_owned())
}

/// Everything a run needs before its first measurement.
struct Setup {
    g: apgre_graph::Graph,
    d: apgre_decomp::Decomposition,
    mutate_stream: inputs::Stream,
    serve_stream: inputs::Stream,
    engine: DynamicBc,
    server: apgre_serve::ServerHandle,
    approx_budget: usize,
}

/// Builds the seeded graph and the mutation candidates, seeds the engine
/// with the approx tier, and boots the service until it answers.
fn set_up(w: &Workload, cfg: &Config, pool: &rayon::ThreadPool) -> Result<Setup, String> {
    let g = inputs::graph(w.graph, cfg.scale, cfg.seed);
    let d = decompose(&g, &Default::default());
    let mutate_stream = inputs::Stream::new(&g, &d, cfg.seed);
    let serve_stream = inputs::Stream::new(&g, &d, cfg.seed ^ 0x5E);
    let budget = serve::approx_budget(&d);
    let mut engine = pool.install(|| DynamicBc::new(&g, ApgreOptions::default()));
    engine.enable_approx(SampleOptions::adaptive(budget, cfg.seed));
    pool.install(|| engine.approx_snapshot());
    let server = pool
        .install(|| serve::boot(&g, budget, cfg.seed, pool.current_num_threads()))
        .map_err(|e| format!("cannot start the service: {e}"))?;
    Ok(Setup { g, d, mutate_stream, serve_stream, engine, server, approx_budget: budget })
}

/// The workload named in `cfg`.
fn workload(cfg: &Config) -> Result<&'static Workload, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == cfg.workload)
        .ok_or_else(|| format!("unknown workload `{}`", cfg.workload))
}

/// A fresh run state: `nproc`, its pool and the tracer.
fn new_run(cfg: &Config) -> Result<Run, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(nproc)
        .build()
        .map_err(|e| format!("cannot build a {nproc}-thread pool: {e:?}"))?;
    Ok(Run {
        nproc,
        observed_threads: apgre_bench::observed_parallelism(nproc),
        pool,
        tracer: trace::Tracer::new(cfg.trace, cfg.seed),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        e2e: Metrics::new(),
        layer: Metrics::new(),
    })
}

/// Measures the costs the query phase's rates are derived from, on one
/// set-up of the workload: the read capacity for half of `--seconds`, then
/// the mean batch costs of the mutation phase for the other half. Returns
/// one JSON line with the measured costs and the rates they give.
pub fn calibrate(cfg: &Config) -> Result<String, String> {
    let w = workload(cfg)?;
    let mut run = new_run(cfg)?;
    let Setup { g, mut mutate_stream, mut engine, server, .. } = set_up(w, cfg, &run.pool)?;
    let half = Duration::from_secs_f64(cfg.seconds / 2.0);
    let capacity = serve::read_capacity(&server, &g, cfg.seed, half)
        .map_err(|e| format!("cannot measure the read capacity: {e}"))?;
    server.shutdown();
    server.wait();
    let mut mutate = mutate::Mutate::default();
    mutate.round(&mut engine, &mut mutate_stream, half, &mut run);
    let (local_ms, structural_ms) = mutate.mean_batch_ms();
    if !run.errors.is_empty() {
        return Err(run.errors.join(" | "));
    }
    let measured = Workload {
        read_capacity_per_s: capacity,
        local_batch_ms: local_ms,
        structural_batch_ms: structural_ms,
        ..*w
    };
    Ok(format!(
        "{{\"workload\": \"{}\", \"read_capacity_per_s\": {capacity}, \"local_batch_ms\": {local_ms}, \
         \"structural_batch_ms\": {structural_ms}, \"read_rate\": {}, \"mutate_rate\": {}}}",
        w.name,
        serve::read_rate(&measured),
        serve::mutate_rate(&measured)
    ))
}

/// Runs one workload. Errors only on a bad configuration.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let w = workload(cfg)?;
    let mut run = new_run(cfg)?;
    let nproc = run.nproc;

    // Set-up is repeated and its median kept; each repetition's leftovers
    // are torn down outside the timed region.
    let mut setups = Vec::new();
    let mut ready: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = ready.take() {
            prev.server.shutdown();
            prev.server.wait();
        }
        let t = Instant::now();
        ready = Some(set_up(w, cfg, &run.pool)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let Setup { g, d, mut mutate_stream, serve_stream, mut engine, server, approx_budget } =
        ready.expect("SETUP_REPS is at least one");
    run.e2e("setup_s", stats::median(&setups), "s");

    // The phases run in interleaved rounds, so each one's samples span the
    // whole run rather than one contiguous slice of it.
    let round = |share: f64| Duration::from_secs_f64(cfg.seconds * share / ROUNDS as f64);
    let mut compute = compute::Compute::new(&g);
    let mut mutate = mutate::Mutate::default();
    let mut load = serve::Load::new(&server, w, &g, serve_stream, cfg.seed)
        .map_err(|e| format!("cannot connect to the service: {e}"))?;
    for _ in 0..ROUNDS {
        let phase = run.tracer.open("phase.compute");
        compute.round(&g, round(COMPUTE_SHARE), &mut run);
        run.tracer.close(phase);
        let phase = run.tracer.open("phase.mutate");
        mutate.round(&mut engine, &mut mutate_stream, round(MUTATE_SHARE), &mut run);
        run.tracer.close(phase);
        let phase = run.tracer.open("phase.serve");
        load.round(round(1.0 - COMPUTE_SHARE - MUTATE_SHARE), &mut run.tracer);
        run.tracer.close(phase);
    }
    compute.finish(&g, &mut run);
    mutate.finish(&engine, &mut run);
    load.finish(&mut run);
    server.shutdown();
    server.wait();

    run.e2e("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB");
    run.e2e("ok_frac", 1.0 - run.failed as f64 / run.attempted.max(1) as f64, "frac");

    if let Some(dir) = cfg.trace_dir.as_ref().filter(|_| cfg.trace) {
        let path = dir.join(format!("trace-{}-{}.jsonl", w.name, cfg.seed));
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            run.tracer.write_to(&mut f)
        });
        match written {
            Ok(()) => {
                eprintln!("trace: {} spans written to {}", run.tracer.spans().len(), path.display())
            }
            Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
        }
    }

    let metrics = if cfg.trace { &run.layer } else { &run.e2e };
    for (k, (v, _)) in metrics {
        if !v.is_finite() {
            run.errors.push(format!("metric {k} is not finite ({v})"));
        }
    }
    let facts = vec![
        ("workload", w.name.to_owned()),
        ("graph", w.graph.to_owned()),
        ("seed", cfg.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("pool_threads", run.pool.current_num_threads().to_string()),
        ("observed_worker_threads", run.observed_threads.to_string()),
        ("build_profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_owned()),
        ("git_revision", git_revision()),
        ("vertices", g.num_vertices().to_string()),
        ("edges", g.num_edges().to_string()),
        ("subgraphs", d.num_subgraphs().to_string()),
        ("top_subgraph_vertices", d.subgraphs[d.top_subgraph].num_vertices().to_string()),
        ("approx_budget_roots", approx_budget.to_string()),
        ("read_rate_per_s", serve::read_rate(w).to_string()),
        ("mutate_rate_per_s", serve::mutate_rate(w).to_string()),
        ("errors", run.errors.join(" | ")),
    ];
    Ok(Outcome {
        correct: run.errors.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        e2e: run.e2e,
        layer: run.layer,
        facts,
    })
}
