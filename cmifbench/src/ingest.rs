//! `broadcast_ingest`: one generated broadcast per op goes from fresh wire
//! bytes to a finished `PipelineRun` through `PipelineBuilder::run_wire`.
//!
//! A round is a fixed ladder of document sizes (a few stories up to 128) in
//! seeded order, with a fixed share of canonical-text documents and of each
//! device, and three jittered playback runs per op. Every op decodes its
//! bytes afresh, so lint never hits its per-revision cache.

use std::collections::BTreeMap;
use std::sync::Arc;

use cmif::core::descriptor::DataDescriptor;
use cmif::format::{document_to_bytes, read_document_bytes, WireEncoding};
use cmif::lint::Linter;
use cmif::media::{BlockStore, MediaGenerator};
use cmif::pipeline::{DeviceProfile, PipelineBuilder, PipelineRun};
use cmif::scheduler::{Engine, JitterModel};

use crate::check::{self, ensure, CheckFailure, Checked};
use crate::gen::{stratified, Broadcast, SHAPES};
use crate::measure::Recorder;
use crate::rng::Rng;
use crate::stages::{run_stages, same_as_entry_point, stage5_engine, StageContext};
use crate::trace::{Tracer, OP};
use crate::{
    end_to_end, engine_workers, per_layer, rounds, timed_setup, Config, Outcome, RunFigures,
};

/// Stories per document of one round, ascending. The median op falls in
/// the middle of the eight 32-story documents and the 90th percentile inside
/// the five 64-story ones, so both quantiles sit on a plateau of like ops
/// rather than on the edge between two sizes — and on documents large
/// enough that a worker's wake-up latency is a small part of the op.
pub const LADDER: [usize; 24] = [
    4, 6, 8, 12, 16, 16, 24, 24, 32, 32, 32, 32, 32, 32, 32, 32, 48, 64, 64, 64, 64, 64, 96, 128,
];

/// The reduced ladder of the benchmark's own tests.
pub const SMALL_LADDER: [usize; 6] = [1, 2, 3, 4, 6, 8];

/// Jittered playback runs per op.
pub const PLAYBACK_RUNS: u32 = 3;

/// The two target devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// A colour workstation.
    Workstation,
    /// A low-end PC with an 8-bit display.
    LowEnd,
}

impl Device {
    fn profile(self) -> DeviceProfile {
        match self {
            Device::Workstation => DeviceProfile::workstation(),
            Device::LowEnd => DeviceProfile::low_end_pc(),
        }
    }

    /// The device's playback jitter for one op.
    fn jitter(self, seed: u64) -> JitterModel {
        match self {
            Device::Workstation => JitterModel::uniform(20, seed),
            Device::LowEnd => JitterModel::uniform(120, seed).with_channel("video", 250),
        }
    }
}

/// One op of the round.
#[derive(Debug, Clone)]
pub struct IngestOp {
    /// The generated broadcast.
    pub broadcast: Broadcast,
    /// Its wire bytes.
    pub bytes: Vec<u8>,
    /// Target device.
    pub device: Device,
    /// Jitter seed of the first playback run.
    pub jitter_seed: u64,
}

/// The seeded op sequence of one round plus the media store it reads.
pub struct Scenario {
    /// Ops in round order.
    pub ops: Vec<IngestOp>,
    /// Every op's media.
    pub store: BlockStore,
}

/// Generates the round: documents, wire bytes and media.
pub fn scenario(seed: u64, small: bool) -> Scenario {
    let ladder: &[usize] = if small { &SMALL_LADDER } else { &LADDER };
    let n = ladder.len();
    let mut rng = Rng::new(seed).fork(1);
    let shapes = stratified(&mut rng, &SHAPES, n);
    // Device, wire form and arcs follow the ladder position, so every size
    // class gets the same mix whatever the seed: alternate devices, every
    // fourth document as canonical text, every fourth without arcs.
    let devices: Vec<Device> = (0..n)
        .map(|i| [Device::Workstation, Device::LowEnd][i % 2])
        .collect();
    let text: Vec<bool> = (0..n).map(|i| i % 4 == 3).collect();
    let arcs: Vec<bool> = (0..n).map(|i| i % 4 != 1).collect();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let store = BlockStore::new();
    let mut media = MediaGenerator::new(seed);
    let ops = order
        .into_iter()
        .map(|i| {
            let broadcast = Broadcast::draw(
                &mut rng.fork(100 + i as u64),
                format!("b{i}"),
                ladder[i],
                shapes[i],
                arcs[i],
            );
            for (block, descriptor) in broadcast.blocks(&mut media, 1) {
                store
                    .put_with_descriptor(block, descriptor)
                    .expect("media keys are unique per document");
            }
            let encoding = if text[i] {
                WireEncoding::Text
            } else {
                WireEncoding::Binary
            };
            let bytes = document_to_bytes(&broadcast.build(), encoding)
                .expect("generated documents encode");
            IngestOp {
                broadcast,
                bytes,
                device: devices[i],
                jitter_seed: rng.next_u64(),
            }
        })
        .collect();
    Scenario { ops, store }
}

/// Everything the timed phase needs, built in set-up.
struct State {
    scenario: Scenario,
    /// One configured builder per op; builders of one device share its
    /// engine.
    builders: Vec<PipelineBuilder>,
    /// Single-worker twins, for check (d)'s worker-count independence.
    single: Vec<PipelineBuilder>,
    /// The traced run's stage-5c engine and linter.
    engine: Option<Engine>,
    linter: Linter,
    /// Per op: expected filter plan (degraded blocks, dropped channels).
    filters: Vec<(usize, Vec<String>)>,
}

fn setup(config: &Config) -> Result<State, CheckFailure> {
    let scenario = scenario(config.seed, config.small);
    let workers = engine_workers();
    let base = |device: Device, workers: usize| {
        PipelineBuilder::new(device.profile()).playback_workers(workers)
    };
    let (ws, low) = (
        base(Device::Workstation, workers),
        base(Device::LowEnd, workers),
    );
    let (ws1, low1) = (base(Device::Workstation, 1), base(Device::LowEnd, 1));
    let mut builders = Vec::new();
    let mut single = Vec::new();
    let mut filters = Vec::new();
    for op in &scenario.ops {
        let (b, b1) = match op.device {
            Device::Workstation => (&ws, &ws1),
            Device::LowEnd => (&low, &low1),
        };
        let jitter = op.device.jitter(op.jitter_seed);
        builders.push(
            b.clone()
                .jitter(jitter.clone())
                .playback_runs(PLAYBACK_RUNS),
        );
        single.push(b1.clone().jitter(jitter).playback_runs(PLAYBACK_RUNS));
        let descriptors: Vec<DataDescriptor> = op.broadcast.descriptors();
        let doc = op.broadcast.build();
        filters.push(check::expected_filter(
            &descriptors,
            &check::channels_of(&doc),
            &op.device.profile(),
        ));
    }
    let state = State {
        engine: config.trace.then(|| stage5_engine(workers)),
        linter: Linter::new(),
        scenario,
        builders,
        single,
        filters,
    };
    // Warm-up: the smallest op of each device starts the engines.
    for device in [Device::Workstation, Device::LowEnd] {
        let warm = (0..state.scenario.ops.len())
            .filter(|&i| state.scenario.ops[i].device == device)
            .min_by_key(|&i| state.scenario.ops[i].broadcast.stories());
        if let Some(i) = warm {
            let run = state.builders[i]
                .run_wire(&state.scenario.ops[i].bytes, &state.scenario.store)
                .map_err(|e| warm_up_failure(i, e))?;
            check_run(&state, i, &run, 0, config, false)?;
        }
    }
    Ok(state)
}

fn warm_up_failure(index: usize, error: impl std::fmt::Display) -> CheckFailure {
    CheckFailure {
        check: "warm-up op",
        op: 0,
        detail: format!("op {index} of the round failed: {error}"),
    }
}

/// Checks (a)–(e) on one `run_wire` result.
fn check_run(
    state: &State,
    index: usize,
    run: &PipelineRun,
    op: u64,
    config: &Config,
    cross: bool,
) -> Checked {
    let item = &state.scenario.ops[index];
    check::total(
        &run.solve.schedule,
        item.broadcast.expected_total_ms() + config.total_skew_ms,
        op,
    )?;
    let (doc, _) = read_document_bytes(&item.bytes).map_err(|e| CheckFailure {
        check: "(e) re-encode",
        op,
        detail: format!("bytes no longer decode: {e}"),
    })?;
    check::schedule_matches_reference(&doc, &run.solve.schedule, &run.solve.constraints, op)?;
    check::filter_plan(&run.filter_plan, &state.filters[index], op)?;
    let report = run.playback.as_ref().ok_or_else(|| CheckFailure {
        check: "(d) playback",
        op,
        detail: "no playback report".to_string(),
    })?;
    check::playback(report, &run.solve.schedule, item.broadcast.leaves(), op)?;
    if item.device == Device::Workstation {
        ensure(run.is_presentable(), "(d) playback", op, || {
            "workstation run is not presentable".to_string()
        })?;
    }
    check::reencodes(&item.bytes, op)?;
    if cross {
        let again = state.single[index]
            .run_wire(&item.bytes, &state.scenario.store)
            .map_err(|e| CheckFailure {
                check: "(d) playback",
                op,
                detail: format!("single-worker rerun failed: {e}"),
            })?;
        ensure(again.playback == run.playback, "(d) playback", op, || {
            "reports differ between 1 and 2 playback workers".to_string()
        })?;
    }
    Ok(())
}

/// The traced form of one op: decode, then stages 2–5 one call at a time.
fn traced_op(
    tr: &mut Tracer,
    state: &State,
    index: usize,
) -> Result<crate::stages::StagedRun, String> {
    let item = &state.scenario.ops[index];
    tr.enter(OP);
    tr.count(STORIES, item.broadcast.stories() as f64);
    tr.count("format.wire_kib", item.bytes.len() as f64 / 1024.0);
    let decoded = tr.span("format.decode", || read_document_bytes(&item.bytes));
    let result = decoded.map_err(|e| e.to_string()).and_then(|(doc, _)| {
        let shared = Arc::new(doc);
        let jitter = item.device.jitter(item.jitter_seed);
        let profile = item.device.profile();
        let ctx = StageContext {
            device: &profile,
            linter: &state.linter,
            engine: state.engine.as_ref(),
            jitter: &jitter,
            runs: PLAYBACK_RUNS,
        };
        run_stages(tr, &ctx, &shared, Some(&shared), &state.scenario.store)
    });
    tr.exit();
    result
}

/// Runs the workload.
pub fn run(config: &Config) -> Result<Outcome, CheckFailure> {
    let (state, first_setup_s) = timed_setup(|| setup(config))?;
    let mut rec = Recorder::default();
    let mut tr = Tracer::new(config.trace);
    let mut traced_ms = Vec::new();
    let mut op = 0u64;
    let n = state.scenario.ops.len();
    let (done, setup_s) = rounds(
        config.seconds,
        first_setup_s,
        || setup(config),
        |round| {
            for index in 0..n {
                op += 1;
                let item = &state.scenario.ops[index];
                let run = match rec
                    .op(|| state.builders[index].run_wire(&item.bytes, &state.scenario.store))
                {
                    Ok(run) => run,
                    Err(_) => continue,
                };
                check_run(
                    &state,
                    index,
                    &run,
                    op,
                    config,
                    round == 0 && index % 4 == 0,
                )?;
                if config.trace {
                    let started = std::time::Instant::now();
                    let staged = traced_op(&mut tr, &state, index).map_err(|e| CheckFailure {
                        check: "traced = untraced",
                        op,
                        detail: format!(
                            "the staged run failed where the entry point succeeded: {e}"
                        ),
                    })?;
                    traced_ms.push(crate::measure::ms(started.elapsed()));
                    same_as_entry_point(&staged, &run, op)?;
                }
            }
            Ok(())
        },
    )?;
    if !config.trace {
        return Ok(Outcome {
            attempted: rec.attempted,
            failed: rec.failed,
            metrics: end_to_end(&setup_s, &rec),
            report: Vec::new(),
        });
    }
    let metrics = per_layer(
        &tr,
        &rec.latencies_ms,
        &traced_ms,
        RunFigures {
            rounds: done,
            ..Default::default()
        },
    );
    let mut report = crate::metric_lines(config.workload, &metrics);
    report.extend(size_rows(&tr));
    report.extend(crate::write_spans(config, &tr));
    Ok(Outcome {
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
        report,
    })
}

/// Per-op count of the traced op's stories, keying the size rows.
const STORIES: &str = "stories";

/// Scaling against document size: per story count, the mean per-op self
/// time of lint, solve and playback.
fn size_rows(tr: &Tracer) -> Vec<String> {
    let stories_of = tr.counts_by_op(STORIES);
    let mut rows: BTreeMap<usize, [f64; 4]> = BTreeMap::new();
    for (k, span) in ["lint.check", "scheduler.solve", "scheduler.play"]
        .into_iter()
        .enumerate()
    {
        for (op, ms) in tr.self_ms_by_op(span) {
            rows.entry(stories_of[&op] as usize).or_insert([0.0; 4])[k] += ms;
        }
    }
    for stories in stories_of.values() {
        rows.entry(*stories as usize).or_insert([0.0; 4])[3] += 1.0;
    }
    let mut out = vec![format!(
        "{:<17} {:>7} {:>6} {:>14} {:>18} {:>16}",
        "broadcast_ingest",
        "stories",
        "ops",
        "lint.check_ms",
        "scheduler.solve_ms",
        "scheduler.play_ms"
    )];
    for (stories, [lint, solve, play, ops]) in rows {
        out.push(format!(
            "{:<17} {stories:>7} {ops:>6} {:>14.3} {:>18.3} {:>16.3}",
            "broadcast_ingest",
            lint / ops,
            solve / ops,
            play / ops
        ));
    }
    out
}
