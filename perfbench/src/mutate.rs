//! The mutation path: `DynamicBc::apply` → `snapshot` → `approx_snapshot`
//! over a seeded stream of local and structural batches, with the exact
//! scores checked against a from-scratch solve at fixed checkpoints.

use std::time::{Duration, Instant};

use apgre_bc::bc_apgre_with;
use apgre_dynamic::{ApproxSnapshot, BatchClass, DynamicBc};

use crate::inputs::{Kind, Stream};
use crate::stats::{mean, median, quantile, summarize};
use crate::Run;

/// Local batches per structural batch in the stream.
pub const LOCAL_PER_STRUCTURAL: usize = 10;

/// Structural batches between two correctness checkpoints.
const CHECK_EVERY_STRUCTURAL: usize = 8;

/// Per-class samples.
#[derive(Default)]
struct Class {
    visible: Vec<f64>,
    /// `visible` split by whether the batch was traced (traced run only).
    visible_traced: Vec<f64>,
    visible_untraced: Vec<f64>,
    apply: Vec<f64>,
    dirty_frac: Vec<f64>,
}

/// Error of the sampled tier against the engine's exact scores:
/// (Σ|est − exact| / Σ|exact|, share of sampled vertices whose error is
/// within two reported standard errors).
fn approx_error(exact: &[f64], ap: &ApproxSnapshot) -> (f64, f64) {
    let (mut abs_err, mut mass, mut sampled, mut covered) = (0.0, 0.0, 0usize, 0usize);
    for (v, &x) in exact.iter().enumerate() {
        let e = ap.estimates.score(v);
        abs_err += (e - x).abs();
        mass += x.abs();
        let se = ap.stderr(v);
        if se > 0.0 {
            sampled += 1;
            covered += usize::from((e - x).abs() <= 2.0 * se);
        }
    }
    (abs_err / mass, covered as f64 / sampled.max(1) as f64)
}

/// Samples gathered across rounds.
#[derive(Default)]
pub struct Mutate {
    batches: usize,
    local: Class,
    structural: Class,
    maintain: Vec<f64>,
    kernel_fold: Vec<f64>,
    snapshot_us: Vec<f64>,
    refresh: Vec<f64>,
    resample: Vec<f64>,
    rebuilds: usize,
    score_chunks: (usize, usize),
    graph_chunks: (usize, usize),
    rel_err: Vec<f64>,
    coverage: Vec<f64>,
    checkpoints: usize,
}

impl Mutate {
    /// Checks the engine against a from-scratch solve of its current graph.
    fn checkpoint(&mut self, engine: &DynamicBc, run: &mut Run) {
        let sp = run.tracer.open("check.mutate");
        let g = engine.current_graph();
        let (scratch, _) = run.pool.install(|| bc_apgre_with(&g, engine.options()));
        if let Err(e) = crate::check::scores_match(engine.scores(), &scratch) {
            run.fail(format!("mutate: checkpoint after batch {}: {e}", self.batches));
        }
        run.tracer.close(sp);
        self.checkpoints += 1;
    }

    /// Applies whole stream cycles (local batches then one structural)
    /// until `budget` is spent.
    pub fn round(
        &mut self,
        engine: &mut DynamicBc,
        stream: &mut Stream,
        budget: Duration,
        run: &mut Run,
    ) {
        let traced = run.tracer.enabled();
        let start = Instant::now();
        let mut checking = Duration::ZERO;
        loop {
            let kind = if self.batches % (LOCAL_PER_STRUCTURAL + 1) == LOCAL_PER_STRUCTURAL {
                Kind::Structural
            } else {
                Kind::Local
            };
            self.batches += 1;
            let batch = stream.next(kind);
            run.attempted += 1;
            // The traced run alternates traced and untraced batches, so the
            // tracing overhead is measured where spans are densest. A cycle
            // has an odd number of batches, so both classes alternate.
            let trace_this = traced && self.batches.is_multiple_of(2);
            run.tracer.set_enabled(trace_this);
            let t0 = Instant::now();
            let sp = run.tracer.open("dynamic.apply");
            let report = run.pool.install(|| engine.apply(&batch));
            run.tracer.close(sp);
            let t1 = Instant::now();
            let sp = run.tracer.open("store.snapshot");
            let snap = engine.snapshot();
            run.tracer.close(sp);
            let t2 = Instant::now();
            let sp = run.tracer.open("approx.refresh");
            let ap = run.pool.install(|| engine.approx_snapshot());
            run.tracer.close(sp);
            let visible = t0.elapsed().as_secs_f64() * 1e3;
            run.tracer.set_enabled(traced);
            let Some(ap) = ap else {
                return run.fail("mutate: approx tier is not enabled on the engine".into());
            };
            let class = match report.class {
                BatchClass::Local => &mut self.local,
                BatchClass::Structural => &mut self.structural,
                BatchClass::Noop => {
                    run.fail(format!(
                        "mutate: batch {} was a no-op: {}",
                        self.batches, report.reason
                    ));
                    &mut self.local
                }
            };
            class.visible.push(visible);
            if traced {
                let split = if trace_this {
                    &mut class.visible_traced
                } else {
                    &mut class.visible_untraced
                };
                split.push(visible);
            }
            class.apply.push((t1 - t0).as_secs_f64() * 1e3);
            class
                .dirty_frac
                .push(report.dirty_subgraphs as f64 / report.total_subgraphs.max(1) as f64);
            let maintain_ms = report.maintain_time.as_secs_f64() * 1e3;
            let rebuild_ms = report.rebuild_time.as_secs_f64() * 1e3;
            self.maintain.push(maintain_ms);
            self.kernel_fold.push(report.wall_clock.as_secs_f64() * 1e3 - maintain_ms - rebuild_ms);
            self.rebuilds += usize::from(report.rebuilt);
            self.snapshot_us.push((t2 - t1).as_secs_f64() * 1e6);
            let p = &snap.publish;
            self.score_chunks.0 += p.score_chunks_copied;
            self.score_chunks.1 += p.score_chunks_copied + p.score_chunks_reused;
            self.graph_chunks.0 += p.graph_chunks_copied;
            self.graph_chunks.1 += p.graph_chunks_copied + p.graph_chunks_reused;
            self.refresh.push(ap.refresh.wall.as_secs_f64() * 1e3);
            self.resample.push(ap.refresh.resample_fraction());
            if kind == Kind::Local {
                continue;
            }
            let t = Instant::now();
            let (err, cov) = approx_error(engine.scores(), &ap);
            self.rel_err.push(err);
            self.coverage.push(cov);
            if self.structural.visible.len().is_multiple_of(CHECK_EVERY_STRUCTURAL) {
                self.checkpoint(engine, run);
            }
            checking += t.elapsed();
            if start.elapsed().saturating_sub(checking) >= budget {
                return;
            }
        }
    }

    /// Mean time from `apply` to `approx_snapshot`, in ms, of the local and
    /// of the structural batches so far.
    pub fn mean_batch_ms(&self) -> (f64, f64) {
        (mean(&self.local.visible), mean(&self.structural.visible))
    }

    /// Checks the end of the stream and reports the phase's metrics.
    pub fn finish(mut self, engine: &DynamicBc, run: &mut Run) {
        self.checkpoint(engine, run);
        eprintln!(
            "mutate: {} local [{}], {} structural [{}] visible ms; {} checkpoints",
            self.local.visible.len(),
            summarize(&self.local.visible),
            self.structural.visible.len(),
            summarize(&self.structural.visible),
            self.checkpoints
        );
        let frac = |(copied, all): (usize, usize)| copied as f64 / all.max(1) as f64;
        run.e2e("local_visible_p50_ms", median(&self.local.visible), "ms");

        run.e2e("structural_visible_p50_ms", median(&self.structural.visible), "ms");
        run.e2e("approx_rel_err", median(&self.rel_err), "frac");
        run.e2e("approx_coverage_2sigma", median(&self.coverage), "frac");
        run.layer("decomp.maintain_p50_ms", median(&self.maintain), "ms");
        run.layer("decomp.rebuilds", self.rebuilds as f64, "count");
        run.layer("dynamic.local_visible_p95_ms", quantile(&self.local.visible, 950), "ms");
        run.layer("dynamic.apply_local_p50_ms", median(&self.local.apply), "ms");
        run.layer("dynamic.apply_structural_p50_ms", median(&self.structural.apply), "ms");
        run.layer("dynamic.dirty_frac_local", mean(&self.local.dirty_frac), "frac");
        run.layer("dynamic.dirty_frac_structural", mean(&self.structural.dirty_frac), "frac");
        run.layer("dynamic.kernel_fold_p50_ms", median(&self.kernel_fold), "ms");
        run.layer("store.snapshot_p50_us", median(&self.snapshot_us), "us");
        run.layer("store.score_chunks_copied_frac", frac(self.score_chunks), "frac");
        run.layer("store.graph_chunks_copied_frac", frac(self.graph_chunks), "frac");
        run.layer("approx.refresh_p50_ms", median(&self.refresh), "ms");
        run.layer("approx.resample_frac", mean(&self.resample), "frac");
        if run.tracer.enabled() {
            // Local batches: three spans in about a tenth of a millisecond.
            let l = &self.local;
            run.layer(
                "bench.tracing_overhead_mutate_frac",
                median(&l.visible_traced) / median(&l.visible_untraced) - 1.0,
                "frac",
            );
        }
    }
}
