//! The pipeline's stages 2–5, run one public call at a time inside spans, in
//! the order `PipelineBuilder::run_inner` runs them. The traced runs of
//! `broadcast_ingest` and `cluster_reads` use this instead of the
//! one-call entry points, and check that both give the same outputs.

use std::sync::Arc;

use cmif::core::descriptor::DescriptorResolver;
use cmif::core::tree::Document;
use cmif::lint::Linter;
use cmif::media::BlockStore;
use cmif::pipeline::{
    map_presentation, plan_filters, storyboard, table_of_contents, DeviceProfile, FilterPlan,
    PipelineRun,
};
use cmif::scheduler::{
    full_report, ConstraintGraph, Engine, EngineConfig, JitterModel, PlaybackReport,
    ScheduleOptions, SolveResult, Submission, TenantId,
};

use crate::check::{ensure, Checked};
use crate::trace::Tracer;

/// Storyboard step of every pipeline run, in milliseconds (the pipeline's
/// default).
pub const STORYBOARD_STEP_MS: i64 = 1_000;

/// What the stage-by-stage run produced — the parts compared with the
/// entry point's [`PipelineRun`].
#[derive(Debug)]
pub struct StagedRun {
    /// The stage-5a solve.
    pub solve: SolveResult,
    /// The stage-4 filter plan.
    pub filter_plan: FilterPlan,
    /// The last playback report.
    pub playback: Option<PlaybackReport>,
    /// Whether the document is presentable on the device.
    pub presentable: bool,
}

/// The engine a pipeline builder with these settings starts for stage 5c.
pub fn stage5_engine(workers: usize) -> Engine {
    Engine::new(EngineConfig {
        workers,
        options: ScheduleOptions::default(),
        ..EngineConfig::default()
    })
}

/// Stage settings of one op.
pub struct StageContext<'a> {
    /// The target device.
    pub device: &'a DeviceProfile,
    /// The stage-2 linter (shared cache, like the builder's).
    pub linter: &'a Linter,
    /// The stage-5c engine (needed only when `runs > 0`).
    pub engine: Option<&'a Engine>,
    /// Playback jitter (run `k` uses seed + `k`).
    pub jitter: &'a JitterModel,
    /// Number of playback runs.
    pub runs: u32,
}

/// Runs stages 2–5 of `doc` against `store`, each inside its span. `shared`
/// is the document's `Arc` when the caller holds one (as `run_wire` does);
/// otherwise stage 5c clones the tree, as `PipelineBuilder::run` does.
pub fn run_stages(
    tr: &mut Tracer,
    ctx: &StageContext<'_>,
    doc: &Document,
    shared: Option<&Arc<Document>>,
    store: &BlockStore,
) -> Result<StagedRun, String> {
    let options = ScheduleOptions::default();
    let report = tr.span("lint.check", || {
        ctx.linter
            .clone()
            .with_options(options)
            .check_resolved(doc, store)
    });
    if report.has_deny() {
        return Err(format!(
            "lint denied the document: {:?}",
            report.diagnostics()
        ));
    }
    let presentation = tr
        .span("pipeline.presentation", || map_presentation(doc))
        .map_err(|e| e.to_string())?;
    let filter_plan = tr
        .span("pipeline.filter", || plan_filters(doc, store, ctx.device))
        .map_err(|e| e.to_string())?;
    let graph = tr
        .span("scheduler.derive", || {
            ConstraintGraph::derive(doc, store, &options)
        })
        .map_err(|e| e.to_string())?;
    tr.count("scheduler.constraints", graph.len() as f64);
    let mut graph = graph;
    let solve = Arc::new(
        tr.span("scheduler.solve", || graph.solve(doc, store))
            .map_err(|e| e.to_string())?,
    );
    let conflicts = tr
        .span("scheduler.conflicts", || {
            full_report(doc, &solve, store, Some(&ctx.device.limits()))
        })
        .map_err(|e| e.to_string())?;
    tr.span("pipeline.view", || {
        let toc = table_of_contents(doc, &solve.schedule)?;
        let frames = storyboard(
            doc,
            &solve.schedule,
            &presentation,
            Some(&filter_plan),
            STORYBOARD_STEP_MS,
            store,
        )?;
        Ok::<_, cmif::pipeline::PipelineError>((toc, frames))
    })
    .map_err(|e| e.to_string())?;
    tr.enter("scheduler.play");
    let playback = play(tr, ctx, doc, shared, store, &solve);
    tr.exit();
    let playback = playback?;
    if let Some(report) = &playback {
        tr.count(
            "scheduler.events",
            (report.events.len() * ctx.runs as usize) as f64,
        );
    }
    let presentable = solve.is_consistent() && conflicts.of_class(2).is_empty();
    let solve = Arc::try_unwrap(solve).unwrap_or_else(|shared| (*shared).clone());
    Ok(StagedRun {
        solve,
        filter_plan,
        playback,
        presentable,
    })
}

/// Stage 5c: a snapshot of the store's catalog (its own span), then every
/// playback run admitted as one batch, each collected by its own ticket; the
/// last report is kept.
fn play(
    tr: &mut Tracer,
    ctx: &StageContext<'_>,
    doc: &Document,
    shared: Option<&Arc<Document>>,
    store: &BlockStore,
    solve: &Arc<SolveResult>,
) -> Result<Option<PlaybackReport>, String> {
    let Some(engine) = ctx.engine.filter(|_| ctx.runs > 0) else {
        return Ok(None);
    };
    let catalog: Arc<dyn DescriptorResolver + Send + Sync> =
        Arc::new(tr.span("pipeline.catalog_export", || store.export_catalog()));
    let shared_doc = match shared {
        Some(arc) => Arc::clone(arc),
        None => Arc::new(doc.clone()),
    };
    let submissions = (0..ctx.runs).map(|run| {
        let jitter = JitterModel {
            seed: ctx.jitter.seed.wrapping_add(run as u64),
            ..ctx.jitter.clone()
        };
        Submission::new(Arc::clone(&shared_doc), jitter)
            .tenant(TenantId::DEFAULT)
            .resolver(Arc::clone(&catalog))
            .solved(Arc::clone(solve))
    });
    let ids = engine
        .submit_batch(submissions)
        .map_err(|e| e.to_string())?;
    let mut last = None;
    for id in ids {
        last = Some(engine.wait(id).result.map_err(|e| e.to_string())?);
    }
    Ok(last)
}

/// The staged run gave exactly the entry point's schedule entries, node
/// times, filter plan and playback report.
pub fn same_as_entry_point(staged: &StagedRun, run: &PipelineRun, op: u64) -> Checked {
    ensure(
        staged.solve.schedule.entries == run.solve.schedule.entries
            && crate::check::node_rows(&staged.solve.schedule)
                == crate::check::node_rows(&run.solve.schedule),
        "traced = untraced",
        op,
        || "schedule entries differ between the staged run and the entry point".to_string(),
    )?;
    ensure(
        staged.filter_plan == run.filter_plan,
        "traced = untraced",
        op,
        || "filter plans differ between the staged run and the entry point".to_string(),
    )?;
    ensure(
        staged.playback == run.playback,
        "traced = untraced",
        op,
        || "playback reports differ between the staged run and the entry point".to_string(),
    )?;
    ensure(
        staged.presentable == run.is_presentable(),
        "traced = untraced",
        op,
        || "presentability differs between the staged run and the entry point".to_string(),
    )
}
