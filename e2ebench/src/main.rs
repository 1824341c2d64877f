//! One repetition of one end-to-end E-AFE workload, in a fresh process.
//!
//! ```text
//! e2ebench <workload> --seed <n> --rep <r> --tmp <dir> [--trace]
//! ```
//!
//! Every input is generated here from `--seed` and `--rep`: repetition `r`
//! of a run works on its own input set, derived from the pair, so a run's
//! figures average over several input sets; the program under test
//! receives nothing else. The process sets up the workload, runs the timed
//! region, and prints one JSON object on stdout: the timed region's wall
//! time and its start on the wall clock (so the caller can measure set-up
//! from process spawn), peak RSS, one record per operation (a search, or a
//! served job), a result fingerprint, output checks, host provenance and,
//! with `--trace`, the per-layer metrics plus a self-time tree of every
//! span the benchmark and the program recorded.
//!
//! The process-global caches (binned columns, MinHash draw tables,
//! signatures, scratch buffers) start cold because the process is new;
//! `run.py` spawns one process per repetition for that reason.

use eafe::{EafeConfig, Engine, FpeModel, FpeSearchSpace, RawLabels, RunResult, SearchStage};
use learners::SplitMethod;
use minhash::HashFamily;
use runtime::{derive_seed, ScoreCache};
use serde::Value;
use serve::{Budget, JobHandle, JobServer, JobStatus, ServeError, ServerConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use tabular::{ChunkOptions, ChunkedFrame, DataFrame, FrameBudget, MmapStore, SynthSpec, Task};
use telemetry::{MemorySink, RegistrySnapshot, SpanEvent};

/// Seed streams: every input is `derive_seed(seed, stream, index)`.
const STREAM_DATA: u64 = 1;
const STREAM_ENGINE: u64 = 2;
const STREAM_ARRIVAL: u64 = 3;
const STREAM_FPE: u64 = 4;
const STREAM_REP: u64 = 5;

/// Table III shapes of `eafe_two_stage`: two classification and two
/// regression datasets.
const TABLE3: [&str; 4] = ["PimaIndian", "German Credit", "Airfoil", "Openml 620"];
/// RF-importance pre-selection cap, so the four shapes cost alike.
const MAX_FEATURES: usize = 8;
/// Sample-count scale and stage-2 epochs of the four searches of
/// `eafe_two_stage` (which also runs 4 stage-1 epochs), sized so a
/// repetition takes a few seconds and a run averages over several input
/// sets.
const TWO_STAGE_SCALE: f64 = 0.3;
const TWO_STAGE_EPOCHS: usize = 8;
/// FPE pre-training corpus: classification and regression datasets.
const FPE_CORPUS: (usize, usize) = (12, 6);
/// `bootstrap_fpe`'s augmented labelling: generated features per corpus
/// dataset and their maximum order. The traced run re-does pre-training
/// step by step with these and checks the model is the same.
const FPE_GEN_PER_DATASET: usize = 8;
const FPE_GEN_MAX_ORDER: usize = 3;

/// Tenants of `serve_open_loop`, one distinct dataset shape each; every
/// job brings its own dataset of its tenant's shape.
const TENANTS: [&str; 4] = ["PimaIndian", "credit-a", "Airfoil", "Housing Boston"];
const SERVE_SCALE: f64 = 0.25;
const SERVE_JOBS: usize = 60;
/// Open-loop arrival rate, jobs per second (Poisson).
const SERVE_RATE: f64 = 12.0;
/// How often the arrival loop looks for finished jobs; it bounds the error
/// of each job's completion time.
const POLL_S: f64 = 0.0005;

/// `chunked_budget`: streamed frames per repetition, their shape and chunk
/// size, and each frame's resident budget, well below its 25k × 8 × 8 B =
/// 1.5 MiB of `f64`s. A repetition searches several frames because search
/// cost varies a lot from one frame to the next.
const CHUNKED_FRAMES: usize = 4;
const CHUNKED_ROWS: usize = 25_000;
const CHUNKED_COLS: usize = 8;
const CHUNKED_CHUNK_ROWS: usize = 8192;
const CHUNKED_BUDGET_BYTES: u64 = 512 * 1024;
const CHUNKED_EPOCHS: usize = 3;

/// The in-memory span collector of a traced run.
static COLLECTOR: OnceLock<Arc<MemorySink>> = OnceLock::new();

struct Args {
    workload: String,
    seed: u64,
    rep: u64,
    /// Root of this repetition's input set: `derive_seed(seed, STREAM_REP, rep)`.
    input: u64,
    tmp: std::path::PathBuf,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it
        .next()
        .ok_or("usage: e2ebench <workload> --seed n --rep r --tmp dir [--trace]")?;
    let mut args = Args {
        workload,
        seed: 0,
        rep: 0,
        input: 0,
        tmp: std::path::PathBuf::from("."),
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--rep" => args.rep = value()?.parse().map_err(|e| format!("--rep: {e}"))?,
            "--tmp" => args.tmp = value()?.into(),
            "--trace" => args.trace = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.input = derive_seed(args.seed, STREAM_REP, args.rep);
    Ok(args)
}

/// One operation of a workload: a search, or one served job.
struct Op {
    name: String,
    latency_s: f64,
    outcome: Result<RunResult, String>,
}

/// Wall-clock split of the searches the benchmark drives itself.
#[derive(Default)]
struct Timeline {
    start_ms: f64,
    finish_ms: f64,
    stage1_ms: f64,
    step_ms: Vec<f64>,
}

/// What a workload hands back to `main`.
struct Outcome {
    region_start_unix: f64,
    wall_s: f64,
    peak_rss_mb: f64,
    ops: Vec<Op>,
    layers: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool, String)>,
    /// Extra root rows for the self-time tree (spans the benchmark times
    /// across threads, which a thread-local span guard cannot).
    extra_rows: Vec<(&'static str, f64)>,
    /// Spans and metrics recorded during the timed region (traced runs).
    spans: Vec<SpanEvent>,
    registry: RegistrySnapshot,
}

impl Outcome {
    fn new(region_start_unix: f64) -> Outcome {
        Outcome {
            region_start_unix,
            wall_s: 0.0,
            peak_rss_mb: 0.0,
            ops: Vec::new(),
            layers: BTreeMap::new(),
            checks: Vec::new(),
            extra_rows: Vec::new(),
            spans: Vec::new(),
            registry: RegistrySnapshot::default(),
        }
    }

    fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    /// Close the timed region. In a traced run this also stops
    /// collecting, so the checks that follow leave no spans behind.
    fn end_region(&mut self, start: Instant) {
        self.wall_s = start.elapsed().as_secs_f64();
        self.peak_rss_mb = vm_hwm_kb() as f64 / 1024.0;
        if let Some(sink) = COLLECTOR.get() {
            telemetry::uninstall();
            self.spans = sink
                .take()
                .into_iter()
                .filter_map(|e| e.as_span().cloned())
                .collect();
            self.registry = telemetry::global().snapshot();
        }
    }
}

fn unix_now() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process, in KiB (`VmHWM`).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The downstream evaluator of the table binaries: 5-fold CV over small
/// histogram random forests.
fn batch_config(seed: u64) -> EafeConfig {
    let seed = derive_seed(seed, STREAM_ENGINE, 0);
    let mut cfg = EafeConfig {
        stage1_epochs: 4,
        stage2_epochs: TWO_STAGE_EPOCHS,
        steps_per_epoch: 3,
        seed,
        ..EafeConfig::default()
    };
    cfg.evaluator.folds = 5;
    cfg.evaluator.seed = seed;
    cfg.evaluator.forest.n_trees = 10;
    cfg.evaluator.forest.tree.max_depth = 8;
    cfg.evaluator.forest.tree.split = SplitMethod::Histogram;
    cfg
}

/// A registry dataset's synthetic stand-in at `scale`, generated from the
/// benchmark seed (not the registry's pinned one), then pre-selected.
fn registry_frame(name: &str, scale: f64, seed: u64, index: u64) -> DataFrame {
    let info = tabular::find_dataset(name).expect("registered dataset");
    let (rows, cols) = info.effective_shape(scale);
    let frame = SynthSpec::new(info.name, rows, cols, info.task)
        .with_classes(info.classes.max(2))
        .with_seed(derive_seed(seed, STREAM_DATA, index))
        .generate()
        .unwrap_or_else(|e| panic!("generating {name}: {e}"));
    eafe::preselect_features(&frame, MAX_FEATURES, seed)
        .unwrap_or_else(|e| panic!("pre-selecting {name}: {e}"))
}

fn fresh_cache() -> Arc<ScoreCache<f64>> {
    Arc::new(ScoreCache::new(runtime::evaluator::DEFAULT_CACHE_CAPACITY))
}

/// Run one search through the stepped API, under the benchmark's spans.
fn search(engine: &Engine, frame: &DataFrame, op: usize, tl: &mut Timeline) -> Op {
    let started = Instant::now();
    let mut span = telemetry::span("bench.search");
    span.field("op", op as f64);
    let outcome = (|| -> eafe::Result<RunResult> {
        let t = Instant::now();
        let mut state = {
            let _s = telemetry::span("bench.start");
            engine.start(frame)?
        };
        tl.start_ms += ms(t);
        while !state.is_done() {
            let t = Instant::now();
            let report = {
                let _s = telemetry::span("bench.step");
                engine.step(&mut state)?
            };
            let dt = ms(t);
            tl.step_ms.push(dt);
            if report.stage == SearchStage::Stage1 {
                tl.stage1_ms += dt;
            }
        }
        let t = Instant::now();
        let result = {
            let _s = telemetry::span("bench.finish");
            engine.finish(&state)?.0
        };
        tl.finish_ms += ms(t);
        Ok(result)
    })();
    drop(span);
    Op {
        name: frame.name.clone(),
        latency_s: started.elapsed().as_secs_f64(),
        outcome: outcome.map_err(|e| e.to_string()),
    }
}

fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Per-layer figures of the searches the benchmark drove itself.
fn timeline_layers(out: &mut Outcome, tl: &Timeline) {
    out.layers.insert("eafe.step_ms.p50", median(&tl.step_ms));
    out.layers
        .insert("eafe.step_ms.p90", percentile(&tl.step_ms, 0.9));
    out.layers.insert("eafe.stage1_ms", tl.stage1_ms);
    out.layers.insert("eafe.start_ms", tl.start_ms);
    out.layers.insert("eafe.finish_ms", tl.finish_ms);
}

/// Work counts summed over every successful operation.
fn result_layers(out: &mut Outcome) {
    let ok = out.ops.iter().filter_map(|o| o.outcome.as_ref().ok());
    let (generated, evals) = ok.fold((0usize, 0usize), |(g, e), r| {
        (g + r.generated_features, e + r.downstream_evals)
    });
    out.layers.insert("eafe.generated", generated as f64);
    out.layers.insert("eafe.downstream_evals", evals as f64);
    let ratio = if generated == 0 {
        0.0
    } else {
        evals as f64 / generated as f64
    };
    out.layers.insert("eafe.evals_per_generated", ratio);
}

fn score_cache_layers(out: &mut Outcome, cache: &ScoreCache<f64>) {
    let s = cache.stats();
    out.layers.insert("runtime.score_cache.hits", s.hits as f64);
    out.layers
        .insert("runtime.score_cache.misses", s.misses as f64);
    out.layers
        .insert("runtime.score_cache.hit_rate", s.hit_rate());
}

/// `learners.base_eval_ms`: one uncached CV evaluation of each input frame.
fn base_eval_layer(out: &mut Outcome, evaluator: &learners::Evaluator, frames: &[DataFrame]) {
    let t = Instant::now();
    for f in frames {
        if let Err(e) = evaluator.evaluate(f) {
            out.check(format!("base_eval {}", f.name), false, e.to_string());
        }
    }
    out.layers.insert("learners.base_eval_ms", ms(t));
}

fn eafe_two_stage(args: &Args) -> Outcome {
    let frames: Vec<DataFrame> = TABLE3
        .iter()
        .enumerate()
        .map(|(i, n)| registry_frame(n, TWO_STAGE_SCALE, args.input, i as u64))
        .collect();
    let cfg = batch_config(args.input);
    let fpe_seed = derive_seed(args.input, STREAM_FPE, 0);
    let space = FpeSearchSpace {
        families: vec![HashFamily::Ccws],
        dims: vec![cfg.signature_dim],
        thre: cfg.thre,
        seed: fpe_seed,
    };
    let mut label_ev = cfg.evaluator.clone();
    label_ev.folds = 3; // labelling is the expensive part; 3-fold suffices
    let cache = fresh_cache();

    let mut out = Outcome::new(unix_now());
    let start = Instant::now();
    let mut tl = Timeline::default();
    let fpe = {
        let _s = telemetry::span("bench.pretrain");
        eafe::bootstrap_fpe(FPE_CORPUS.0, FPE_CORPUS.1, &space, &label_ev, fpe_seed)
    };
    let pretrain_s = start.elapsed().as_secs_f64();
    for (i, f) in frames.iter().enumerate() {
        let op = match &fpe {
            Ok(model) => {
                let engine =
                    Engine::e_afe(cfg.clone(), model.clone()).with_cache(Arc::clone(&cache));
                search(&engine, f, i, &mut tl)
            }
            Err(e) => Op {
                name: f.name.clone(),
                latency_s: 0.0,
                outcome: Err(format!("FPE pre-training failed: {e}")),
            },
        };
        out.ops.push(op);
    }
    out.end_region(start);

    if args.trace {
        out.layers.insert("fpe.pretrain_s", pretrain_s);
        timeline_layers(&mut out, &tl);
        result_layers(&mut out);
        score_cache_layers(&mut out, &cache);
        sig_cache_layer(&mut out);
        base_eval_layer(&mut out, &cfg.evaluator, &frames);
        if let Ok(model) = &fpe {
            decomposed_pretraining(&mut out, &space, &label_ev, fpe_seed, model);
        }
    }
    out
}

fn sig_cache_layer(out: &mut Outcome) {
    let s = runtime::sig_cache_stats();
    out.layers
        .insert("minhash.sig_cache.hit_rate", s.hit_rate());
}

/// `bootstrap_fpe` re-done through its public parts, timing labelling and
/// the model search apart, and checking the model matches the one call.
fn decomposed_pretraining(
    out: &mut Outcome,
    space: &FpeSearchSpace,
    label_ev: &learners::Evaluator,
    seed: u64,
    reference: &FpeModel,
) {
    let result = (|| -> eafe::Result<FpeModel> {
        let corpus = tabular::registry::public_corpus(FPE_CORPUS.0, FPE_CORPUS.1, seed)?;
        let n_val = (corpus.len() / 5).max(1);
        let split = corpus.len().saturating_sub(n_val);
        let evaluator = runtime::Evaluator::new(label_ev.clone());
        let t = Instant::now();
        let (g, o) = (FPE_GEN_PER_DATASET, FPE_GEN_MAX_ORDER);
        let train = RawLabels::compute_augmented(&corpus[..split], &evaluator, g, o, seed)?;
        let val = RawLabels::compute_augmented(&corpus[split..], &evaluator, g, o, seed ^ 1)?;
        out.layers.insert("fpe.label_s", t.elapsed().as_secs_f64());
        out.layers
            .insert("fpe.labels", (train.len() + val.len()) as f64);
        let t = Instant::now();
        let model = eafe::fpe::search(space, &train, &val)?.model;
        out.layers.insert("fpe.search_s", t.elapsed().as_secs_f64());
        Ok(model)
    })();
    let same = match (&result, reference.to_json()) {
        (Ok(m), Ok(r)) => m.to_json().map(|j| j == r).unwrap_or(false),
        _ => false,
    };
    let detail = result.err().map(|e| e.to_string()).unwrap_or_default();
    out.check("fpe_decomposed_equals_bootstrap", same, detail);
}

/// A small NFS job of `serve_open_loop`.
fn serve_engine(seed: u64, job: u64) -> Engine {
    let mut cfg = EafeConfig::fast();
    cfg.stage2_epochs = 1;
    cfg.seed = derive_seed(seed, STREAM_ENGINE, job);
    cfg.evaluator.seed = cfg.seed;
    cfg.evaluator.forest.tree.split = SplitMethod::Histogram;
    Engine::nfs(cfg)
}

/// Seeded Poisson arrival times (seconds after the region starts): the
/// `n` arrivals of a Poisson process conditioned on exactly `n` arrivals in
/// the window `n / rate`, so every repetition offers the same load over the
/// same span. The first `n` of `n + 1` exponential gaps, scaled to sum to
/// the window, are distributed as sorted uniform arrival times.
fn arrivals(seed: u64, n: usize, rate: f64) -> Vec<f64> {
    let gaps: Vec<f64> = (0..=n as u64)
        .map(|j| {
            let u = (derive_seed(seed, STREAM_ARRIVAL, j) >> 11) as f64 / (1u64 << 53) as f64;
            -(1.0 - u).ln()
        })
        .collect();
    let scale = n as f64 / rate / gaps.iter().sum::<f64>();
    let mut t = 0.0;
    gaps[..n]
        .iter()
        .map(|g| {
            t += g * scale;
            t
        })
        .collect()
}

fn serve_open_loop(args: &Args) -> Outcome {
    let frames: Vec<DataFrame> = (0..SERVE_JOBS)
        .map(|j| {
            registry_frame(
                TENANTS[j % TENANTS.len()],
                SERVE_SCALE,
                args.input,
                j as u64,
            )
        })
        .collect();
    let due = arrivals(args.input, SERVE_JOBS, SERVE_RATE);
    let threads = runtime::global_threads();
    let mut server = JobServer::new(ServerConfig {
        threads: Some(threads),
        ..ServerConfig::default()
    })
    .expect("start job server");

    let mut out = Outcome::new(unix_now());
    let start = Instant::now();
    let mut pending: Vec<(usize, JobHandle)> = Vec::new();
    let mut done: Vec<Option<Op>> = (0..SERVE_JOBS).map(|_| None).collect();
    let mut late_ms: f64 = 0.0;
    let mut rejected = 0usize;
    let mut next = 0;
    while next < SERVE_JOBS || !pending.is_empty() {
        let now = start.elapsed().as_secs_f64();
        while next < SERVE_JOBS && due[next] <= now {
            let j = next;
            next += 1;
            late_ms = late_ms.max((start.elapsed().as_secs_f64() - due[j]) * 1e3);
            let tenant = j % TENANTS.len();
            let submitted = {
                let mut s = telemetry::span("bench.submit");
                s.field("op", j as f64);
                server.submit(
                    TENANTS[tenant],
                    &frames[j],
                    serve_engine(args.input, j as u64),
                    Budget::unlimited(),
                )
            };
            match submitted {
                Ok(h) => pending.push((j, h)),
                Err(e) => {
                    if matches!(e, ServeError::QueueFull { .. }) {
                        rejected += 1;
                    }
                    done[j] = Some(Op {
                        name: TENANTS[tenant].to_string(),
                        latency_s: 0.0,
                        outcome: Err(format!("submit: {e}")),
                    });
                }
            }
        }
        let mut i = 0;
        while i < pending.len() {
            let terminal = pending[i]
                .1
                .status()
                .map(|s| s.is_terminal())
                .unwrap_or(true);
            if !terminal {
                i += 1;
                continue;
            }
            let (j, h) = pending.swap_remove(i);
            let waited = h.wait();
            let latency_s = start.elapsed().as_secs_f64() - due[j];
            let outcome = match waited {
                Ok(o) if o.status == JobStatus::Completed => o
                    .result
                    .ok_or_else(|| "completed without a result".to_string()),
                Ok(o) => Err(format!(
                    "job ended {:?}: {}",
                    o.status,
                    o.error.unwrap_or_default()
                )),
                Err(e) => Err(format!("wait: {e}")),
            };
            out.extra_rows.push(("bench.job", latency_s * 1e3));
            done[j] = Some(Op {
                name: h.tenant().to_string(),
                latency_s,
                outcome,
            });
        }
        let now = start.elapsed().as_secs_f64();
        let until_due = due.get(next).map_or(f64::INFINITY, |d| d - now);
        std::thread::sleep(Duration::from_secs_f64(until_due.clamp(0.0, POLL_S)));
    }
    out.ops = done.into_iter().flatten().collect();
    out.end_region(start);

    let snapshot = server.metrics().snapshot();
    let cache = Arc::clone(server.score_cache());
    if let Err(e) = server.shutdown() {
        out.check("server_shutdown", false, e.to_string());
    }
    if args.trace {
        let tenants: Vec<&RegistrySnapshot> = snapshot.scopes.iter().map(|(_, s)| s).collect();
        let hist = |name: &str, q: fn(&telemetry::HistogramSnapshot) -> u64| -> Vec<f64> {
            tenants
                .iter()
                .filter_map(|s| s.histogram(name).map(|h| q(h) as f64))
                .collect()
        };
        let max = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
        out.layers.insert(
            "serve.epoch_us.p50",
            median(&hist("serve.epoch_us", |h| h.p50)),
        );
        out.layers
            .insert("serve.epoch_us.p99", max(hist("serve.epoch_us", |h| h.p99)));
        out.layers.insert(
            "serve.admission_wait_us.p99",
            max(hist("serve.admission_wait_us", |h| h.p99)),
        );
        out.layers.insert("serve.rejected", rejected as f64);
        out.layers.insert("bench.gen_late_ms.max", late_ms);
        result_layers(&mut out);
        score_cache_layers(&mut out, &cache);
        base_eval_layer(
            &mut out,
            &serve_engine(args.input, 0).config.evaluator,
            &frames,
        );
        replay_jobs(&mut out, args.input, &frames);
    }
    out
}

/// Each served job ≡ the same engine run alone on a private cache. The
/// replay also times start/finish, which the server runs unobserved.
fn replay_jobs(out: &mut Outcome, seed: u64, frames: &[DataFrame]) {
    let mut tl = Timeline::default();
    let mut mismatched = Vec::new();
    for (j, op) in out.ops.iter().enumerate() {
        let engine = serve_engine(seed, j as u64);
        let solo = search(&engine, &frames[j], j, &mut tl);
        let same = match (&op.outcome, &solo.outcome) {
            (Ok(a), Ok(b)) => {
                a.best_score.to_bits() == b.best_score.to_bits() && a.selected == b.selected
            }
            _ => false,
        };
        if !same {
            mismatched.push(j.to_string());
        }
    }
    out.layers.insert("eafe.start_ms", tl.start_ms);
    out.layers.insert("eafe.finish_ms", tl.finish_ms);
    out.check(
        "serve_jobs_equal_solo_runs",
        mismatched.is_empty(),
        mismatched.join(","),
    );
}

fn chunked_budget(args: &Args) -> Outcome {
    std::fs::create_dir_all(&args.tmp).expect("create tmp dir");
    let paths: Vec<_> = (0..CHUNKED_FRAMES)
        .map(|i| {
            args.tmp
                .join(format!("chunked-{}-{i}.eafc", std::process::id()))
        })
        .collect();
    let t = Instant::now();
    let frames: Vec<ChunkedFrame> = paths
        .iter()
        .enumerate()
        .map(|(i, path)| {
            let _s = telemetry::span("bench.generate_chunked");
            let opts = ChunkOptions::default()
                .with_chunk_rows(CHUNKED_CHUNK_ROWS)
                .with_budget(FrameBudget::from_bytes(CHUNKED_BUDGET_BYTES));
            let store = MmapStore::create(path).expect("create spill file");
            SynthSpec::new(
                format!("chunked-{i}"),
                CHUNKED_ROWS,
                CHUNKED_COLS,
                Task::Classification,
            )
            .with_seed(derive_seed(args.input, STREAM_DATA, i as u64))
            .generate_chunked(opts, Box::new(store))
            .expect("generate_chunked")
        })
        .collect();
    let gen_s = t.elapsed().as_secs_f64();
    let cache = fresh_cache();
    let engines: Vec<Engine> = (0..CHUNKED_FRAMES)
        .map(|i| {
            let mut cfg = EafeConfig::fast();
            cfg.seed = derive_seed(args.input, STREAM_ENGINE, i as u64);
            cfg.max_order = 3;
            cfg.steps_per_epoch = 1;
            cfg.stage2_epochs = CHUNKED_EPOCHS;
            cfg.evaluator.seed = cfg.seed;
            cfg.evaluator.folds = 2;
            cfg.evaluator.forest.n_trees = 4;
            cfg.evaluator.forest.tree.max_depth = 5;
            cfg.evaluator.forest.tree.split = SplitMethod::Histogram;
            Engine::nfs(cfg).with_cache(Arc::clone(&cache))
        })
        .collect();

    let mut out = Outcome::new(unix_now());
    let start = Instant::now();
    let mut tl = Timeline::default();
    let mut engineered = Vec::new();
    for (i, (engine, frame)) in engines.iter().zip(frames).enumerate() {
        let (op, eng) = search_chunked(engine, frame, i, &mut tl);
        out.ops.push(op);
        engineered.extend(eng);
    }
    out.end_region(start);

    let mut stats = tabular::FrameStats::default();
    for (i, eng) in engineered.iter().enumerate() {
        let s = eng.stats();
        out.check(
            format!("chunked_budget_binds {i}"),
            s.chunks_spilled > 0,
            format!("chunks_spilled = {}", s.chunks_spilled),
        );
        stats.chunks_spilled += s.chunks_spilled;
        stats.chunks_loaded += s.chunks_loaded;
        stats.chunks_decoded += s.chunks_decoded;
    }
    if args.trace {
        out.layers.insert("tabular.gen_s", gen_s);
        out.layers
            .insert("tabular.chunks_spilled", stats.chunks_spilled as f64);
        out.layers
            .insert("tabular.chunks_loaded", stats.chunks_loaded as f64);
        out.layers
            .insert("tabular.chunks_decoded", stats.chunks_decoded as f64);
        timeline_layers(&mut out, &tl);
        result_layers(&mut out);
        score_cache_layers(&mut out, &cache);
        let base: Vec<usize> = (0..CHUNKED_COLS).collect();
        let flat: Result<Vec<DataFrame>, _> = engineered
            .iter()
            .map(|eng| eng.select_columns(&base).and_then(|f| f.to_dataframe()))
            .collect();
        match flat {
            Ok(flat) => base_eval_layer(&mut out, &engines[0].config.evaluator, &flat),
            Err(e) => out.check("materialize_base_frame", false, e.to_string()),
        }
    }
    drop(engineered);
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    out
}

/// The chunked counterpart of [`search`]; also hands back the engineered
/// frame, whose stats tell whether the budget made chunks spill.
fn search_chunked(
    engine: &Engine,
    frame: ChunkedFrame,
    op: usize,
    tl: &mut Timeline,
) -> (Op, Option<ChunkedFrame>) {
    let started = Instant::now();
    let name = frame.name.clone();
    let mut span = telemetry::span("bench.search");
    span.field("op", op as f64);
    let outcome = (|| -> eafe::Result<(RunResult, ChunkedFrame)> {
        let t = Instant::now();
        let mut state = {
            let _s = telemetry::span("bench.start_chunked");
            engine.start_chunked(frame)?
        };
        tl.start_ms += ms(t);
        while !state.is_done() {
            let t = Instant::now();
            let report = {
                let _s = telemetry::span("bench.step_chunked");
                engine.step_chunked(&mut state)?
            };
            let dt = ms(t);
            tl.step_ms.push(dt);
            if report.stage == SearchStage::Stage1 {
                tl.stage1_ms += dt;
            }
        }
        let t = Instant::now();
        let finished = {
            let _s = telemetry::span("bench.finish_chunked");
            engine.finish_chunked(&state)?
        };
        tl.finish_ms += ms(t);
        Ok(finished)
    })();
    drop(span);
    let latency_s = started.elapsed().as_secs_f64();
    match outcome {
        Ok((result, engineered)) => (
            Op {
                name,
                latency_s,
                outcome: Ok(result),
            },
            Some(engineered),
        ),
        Err(e) => (
            Op {
                name,
                latency_s,
                outcome: Err(e.to_string()),
            },
            None,
        ),
    }
}

/// One path of the self-time tree, summed over the spans on that path.
#[derive(Default)]
struct TreeRow {
    count: u64,
    total_us: u64,
    self_us: u64,
}

impl TreeRow {
    fn add(&mut self, total_us: u64, self_us: u64) {
        self.count += 1;
        self.total_us += total_us;
        self.self_us += self_us;
    }
}

/// Aggregated self-time tree keyed by span path, plus each span's self
/// time by id. A span's self time is its duration minus the part of its
/// interval that its children's intervals cover (children on worker
/// threads overlap).
fn self_time_tree(spans: &[SpanEvent]) -> (BTreeMap<String, TreeRow>, HashMap<u64, u64>) {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.start_us + s.dur_us));
        }
    }
    let mut self_by_id = HashMap::with_capacity(spans.len());
    let mut tree: BTreeMap<String, TreeRow> = BTreeMap::new();
    for s in spans {
        let (lo, hi) = (s.start_us, s.start_us + s.dur_us);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(lo), b.min(hi));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let self_us = s.dur_us.saturating_sub(covered);
        self_by_id.insert(s.id, self_us);
        let mut names = vec![s.name.as_str()];
        let mut parent = s.parent;
        while let Some(&p) = index.get(&parent) {
            if names.len() > 64 {
                break;
            }
            names.push(spans[p].name.as_str());
            parent = spans[p].parent;
        }
        names.reverse();
        tree.entry(names.join(";"))
            .or_default()
            .add(s.dur_us, self_us);
    }
    (tree, self_by_id)
}

/// Per-layer figures read from the spans and histograms the program
/// emitted during the timed region, plus the bypass checks.
fn telemetry_layers(out: &mut Outcome, spans: &[SpanEvent], reg: &RegistrySnapshot) -> Value {
    let (mut tree, self_by_id) = self_time_tree(spans);
    for (name, ms) in &out.extra_rows {
        let us = (ms * 1e3) as u64;
        tree.entry(name.to_string()).or_default().add(us, us);
    }
    let total_ms = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum::<u64>() as f64
            / 1e3
    };
    let hist = |name: &str, q: fn(&telemetry::HistogramSnapshot) -> u64| -> f64 {
        reg.histogram(name).map_or(0.0, |h| q(h) as f64)
    };
    let tasks: Vec<&SpanEvent> = spans.iter().filter(|s| s.name == "pool.task").collect();
    let task_us: u64 = tasks.iter().map(|s| s.dur_us).sum();
    let task_self_us: u64 = tasks.iter().map(|s| self_by_id[&s.id]).sum();
    let l = &mut out.layers;
    l.insert(
        "learners.cv_evals",
        reg.counter("evaluator.evals_computed") as f64,
    );
    l.insert("learners.cv_ms", total_ms("evaluator.score_frame"));
    l.insert("learners.forest_fit_ms", total_ms("forest.fit_trees"));
    l.insert("rl.policy_update_ms", total_ms("engine.policy_update"));
    l.insert("runtime.pool.tasks", tasks.len() as f64);
    l.insert(
        "runtime.pool.queue_us.p50",
        hist("pool.queue_us", |h| h.p50),
    );
    l.insert(
        "runtime.pool.queue_us.p99",
        hist("pool.queue_us", |h| h.p99),
    );
    l.insert("runtime.pool.run_us.p50", hist("pool.run_us", |h| h.p50));
    let self_frac = if task_us == 0 {
        0.0
    } else {
        task_self_us as f64 / task_us as f64
    };
    l.insert("runtime.pool.task_self_frac", self_frac);
    l.insert("minhash.sig_us.p50", hist("minhash.sig_us", |h| h.p50));
    l.insert(
        "tabular.chunk_decode_us.p50",
        hist("frame.chunk_decode_us", |h| h.p50),
    );
    l.insert("tabular.spill_us.p50", hist("frame.spill_us", |h| h.p50));
    // The server's slices are the steps on serve_open_loop.
    let slices: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.slice")
        .map(|s| s.dur_us as f64 / 1e3)
        .collect();
    if !slices.is_empty() {
        l.insert("eafe.step_ms.p50", median(&slices));
        l.insert("eafe.step_ms.p90", percentile(&slices, 0.9));
    }

    Value::Array(
        tree.into_iter()
            .map(|(path, row)| {
                Value::Map(vec![
                    ("path".into(), Value::Str(path)),
                    ("count".into(), Value::U64(row.count)),
                    ("total_ms".into(), Value::F64(row.total_us as f64 / 1e3)),
                    ("self_ms".into(), Value::F64(row.self_us as f64 / 1e3)),
                ])
            })
            .collect(),
    )
}

/// Layers a workload must not touch stay untouched: no FPE or MinHash
/// work without a gate, no chunk traffic outside the chunked workload, no
/// server activity outside the served one.
fn bypass_checks(out: &mut Outcome, workload: &str, spans: &[SpanEvent], reg: &RegistrySnapshot) {
    let touched = |prefixes: &[&str]| -> Vec<String> {
        let mut names: Vec<String> = spans
            .iter()
            .map(|s| s.name.clone())
            .chain(
                reg.counters
                    .iter()
                    .filter(|(_, v)| *v > 0)
                    .map(|(n, _)| n.clone()),
            )
            .chain(
                reg.histograms
                    .iter()
                    .filter(|(_, h)| h.count > 0)
                    .map(|(n, _)| n.clone()),
            )
            .filter(|n| prefixes.iter().any(|p| n.starts_with(p)))
            .collect();
        names.sort();
        names.dedup();
        names
    };
    if workload != "eafe_two_stage" {
        let mut hit = touched(&["fpe.", "minhash."]);
        let sig = runtime::sig_cache_stats();
        if sig.hits + sig.misses > 0 {
            hit.push("signature cache".into());
        }
        out.check("bypass_fpe_minhash", hit.is_empty(), hit.join(","));
    }
    if workload != "chunked_budget" {
        let mut hit = touched(&["frame."]);
        let g = tabular::global_frame_stats();
        if g.chunks_spilled + g.chunks_loaded + g.chunks_decoded > 0 {
            hit.push("global frame stats".into());
        }
        out.check("bypass_chunks", hit.is_empty(), hit.join(","));
    }
    if workload != "serve_open_loop" {
        let hit = touched(&["serve."]);
        out.check("bypass_serve", hit.is_empty(), hit.join(","));
    }
}

/// FNV-1a over every operation's best-score bits and selected features.
fn fingerprint(ops: &[Op]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for op in ops {
        match &op.outcome {
            Ok(r) => {
                eat(&r.best_score.to_bits().to_le_bytes());
                for s in &r.selected {
                    eat(s.as_bytes());
                    eat(&[0]);
                }
            }
            Err(_) => eat(b"error"),
        }
        eat(&[0xff]);
    }
    format!("{h:016x}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    runtime::set_global_threads(0);
    if args.trace {
        let sink = COLLECTOR.get_or_init(|| Arc::new(MemorySink::new()));
        telemetry::install(Arc::clone(sink) as Arc<dyn telemetry::Sink>);
    }
    let mut out = match args.workload.as_str() {
        "eafe_two_stage" => eafe_two_stage(&args),
        "serve_open_loop" => serve_open_loop(&args),
        "chunked_budget" => chunked_budget(&args),
        other => {
            eprintln!("e2ebench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let tree = if args.trace {
        let spans = std::mem::take(&mut out.spans);
        let reg = std::mem::take(&mut out.registry);
        bypass_checks(&mut out, &args.workload, &spans, &reg);
        telemetry_layers(&mut out, &spans, &reg)
    } else {
        Value::Array(Vec::new())
    };

    let failed_ops: Vec<(String, String)> = out
        .ops
        .iter()
        .filter_map(|op| match &op.outcome {
            Ok(r) if r.best_score.is_finite() && r.best_score >= r.base_score => None,
            Ok(r) => Some((
                op.name.clone(),
                format!("best {} < base {}", r.best_score, r.base_score),
            )),
            Err(e) => Some((op.name.clone(), e.clone())),
        })
        .collect();
    for (name, detail) in failed_ops {
        out.check(format!("op {name}"), false, detail);
    }
    let scores: Vec<f64> = out
        .ops
        .iter()
        .filter_map(|o| o.outcome.as_ref().ok().map(|r| r.best_score))
        .collect();
    let best_score_mean = scores.iter().sum::<f64>() / scores.len().max(1) as f64;

    let ops = out
        .ops
        .iter()
        .map(|o| {
            Value::Map(vec![
                ("name".into(), Value::Str(o.name.clone())),
                ("latency_s".into(), Value::F64(o.latency_s)),
                ("ok".into(), Value::Bool(o.outcome.is_ok())),
                (
                    "best_score".into(),
                    Value::F64(o.outcome.as_ref().map_or(0.0, |r| r.best_score)),
                ),
                (
                    "downstream_evals".into(),
                    Value::U64(o.outcome.as_ref().map_or(0, |r| r.downstream_evals as u64)),
                ),
                (
                    "selected".into(),
                    Value::U64(o.outcome.as_ref().map_or(0, |r| r.selected.len() as u64)),
                ),
            ])
        })
        .collect();
    let checks = out
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            Value::Map(vec![
                ("name".into(), Value::Str(name.clone())),
                ("ok".into(), Value::Bool(*ok)),
                ("detail".into(), Value::Str(detail.clone())),
            ])
        })
        .collect();
    let layers = out
        .layers
        .iter()
        .map(|(k, v)| (k.to_string(), Value::F64(*v)))
        .collect();
    let provenance = Value::Map(vec![
        (
            "available_parallelism".into(),
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "threads".into(),
            Value::U64(runtime::global_threads() as u64),
        ),
        (
            "simd_isa".into(),
            Value::Str(simd::active_isa().name().to_string()),
        ),
        ("cpu_model".into(), Value::Str(cpu_model())),
        ("seed".into(), Value::U64(args.seed)),
        ("rep".into(), Value::U64(args.rep)),
    ]);
    let report = Value::Map(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        (
            "region_start_unix".into(),
            Value::F64(out.region_start_unix),
        ),
        ("wall_s".into(), Value::F64(out.wall_s)),
        ("peak_rss_mb".into(), Value::F64(out.peak_rss_mb)),
        ("best_score_mean".into(), Value::F64(best_score_mean)),
        ("fingerprint".into(), Value::Str(fingerprint(&out.ops))),
        ("ops".into(), Value::Array(ops)),
        ("checks".into(), Value::Array(checks)),
        ("layers".into(), Value::Map(layers)),
        ("tree".into(), tree),
        ("provenance".into(), provenance),
    ]);
    println!(
        "{}",
        serde_json::to_string(&report).expect("serialise report")
    );
}
