//! # cmifbench — one benchmark for the CMIF pipeline
//!
//! Three seeded workloads drive the program's public entry points from one
//! closed-loop client (one op at a time, the next op only after the last one
//! returned):
//!
//! * `broadcast_ingest` — wire bytes → `PipelineBuilder::run_wire`;
//! * `cluster_reads` — `PipelineBuilder::run_distributed` on a faulty
//!   six-host, RF 2 `DistributedStore`;
//! * `live_edit` — `EditSession::apply` → `solve_result` →
//!   `PlayerSession::swap_revision` on a playing document.
//!
//! An untraced run reports end-to-end metrics; a traced run replays the same
//! ops stage by stage through the layers' public calls and reports per-layer
//! self times and counts. Every op's output is checked against facts the
//! benchmark computes itself (see [`check`]). See `README.md` for the
//! workload definitions and the metric map.

pub mod check;
pub mod edits;
pub mod gen;
pub mod ingest;
pub mod measure;
pub mod reads;
pub mod rng;
pub mod stages;
pub mod trace;

use std::path::PathBuf;

use check::CheckFailure;
use measure::{median, quantile, Recorder};
use trace::Tracer;

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh broadcasts through `PipelineBuilder::run_wire`.
    BroadcastIngest,
    /// Zipf-ordered reads of small bulletins from a faulty cluster.
    ClusterReads,
    /// Incremental edits of a playing document.
    LiveEdit,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::BroadcastIngest,
        Workload::ClusterReads,
        Workload::LiveEdit,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BroadcastIngest => "broadcast_ingest",
            Workload::ClusterReads => "cluster_reads",
            Workload::LiveEdit => "live_edit",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the timed phase runs; whole rounds are always completed.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced run.
    pub trace: bool,
    /// A reduced corpus (for the benchmark's own tests).
    pub small: bool,
    /// Added to every expected schedule total; anything but 0 must make
    /// check (a) fail (used to show the check has teeth).
    pub total_skew_ms: i64,
    /// Where the traced run writes its spans.
    pub spans_out: Option<PathBuf>,
}

impl Config {
    /// Settings for a run of `workload` on `seed`.
    pub fn new(workload: Workload, seed: u64) -> Config {
        Config {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            small: false,
            total_skew_ms: 0,
            spans_out: None,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub report: Vec<String>,
}

impl Outcome {
    /// The metric's value, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Runs one benchmark run.
pub fn run(config: &Config) -> Result<Outcome, CheckFailure> {
    match config.workload {
        Workload::BroadcastIngest => ingest::run(config),
        Workload::ClusterReads => reads::run(config),
        Workload::LiveEdit => edits::run(config),
    }
}

/// Worker threads of every engine: the host's cores, at most two.
pub fn engine_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(2))
        .unwrap_or(1)
}

/// Set-ups timed per run; `setup_s` is their median. The first builds the
/// state the run uses. The others are spread evenly over the timed phase,
/// between rounds and outside every op window, and their state is dropped
/// at once: the host's speed drifts over seconds, and a median of set-ups
/// taken across the whole run follows it as the op metrics do, where
/// set-ups taken back to back would all fall in one moment.
pub const SETUP_SAMPLES: usize = 16;

/// Runs `setup` once and returns its state with its wall time in seconds.
pub fn timed_setup<S>(
    setup: impl FnOnce() -> Result<S, CheckFailure>,
) -> Result<(S, f64), CheckFailure> {
    let started = std::time::Instant::now();
    let state = setup()?;
    Ok((state, started.elapsed().as_secs_f64()))
}

/// Runs whole rounds until `seconds` of wall time have passed (at least
/// one round). Between rounds it times a fresh `setup` whenever the run has
/// passed the next of [`SETUP_SAMPLES`]` - 1` evenly spaced moments, and
/// after the last round it times any still missing. Returns the number of
/// rounds run and every set-up's seconds, `first_setup_s` first.
pub fn rounds<S>(
    seconds: f64,
    first_setup_s: f64,
    mut setup: impl FnMut() -> Result<S, CheckFailure>,
    mut round: impl FnMut(usize) -> Result<(), CheckFailure>,
) -> Result<(usize, Vec<f64>), CheckFailure> {
    let started = std::time::Instant::now();
    let mut setup_s = vec![first_setup_s];
    let mut sample = |setup_s: &mut Vec<f64>| {
        timed_setup(&mut setup).map(|(state, s)| {
            drop(state);
            setup_s.push(s);
        })
    };
    let mut done = 0;
    while done == 0 || started.elapsed().as_secs_f64() < seconds {
        round(done)?;
        done += 1;
        let spread = SETUP_SAMPLES - 1;
        let due = (started.elapsed().as_secs_f64() / seconds * spread as f64) as usize;
        while setup_s.len() <= due.min(spread) {
            sample(&mut setup_s)?;
        }
    }
    while setup_s.len() < SETUP_SAMPLES {
        sample(&mut setup_s)?;
    }
    Ok((done, setup_s))
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(setup_s: &[f64], rec: &Recorder) -> Vec<Metric> {
    let ops = rec.completed().max(1) as f64;
    vec![
        Metric {
            name: "setup_s",
            value: median(setup_s),
            unit: "s",
        },
        Metric {
            name: "ops_per_s",
            value: rec.completed() as f64 / rec.busy.as_secs_f64().max(1e-9),
            unit: "op/s",
        },
        Metric {
            name: "op_p50_ms",
            value: median(&rec.latencies_ms),
            unit: "ms",
        },
        Metric {
            name: "op_p90_ms",
            value: quantile(&rec.latencies_ms, 0.9),
            unit: "ms",
        },
        Metric {
            name: "cpu_ms_per_op",
            value: measure::ms(rec.cpu) / ops,
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mib",
            value: measure::peak_rss_mib(),
            unit: "MiB",
        },
    ]
}

/// Span names and the per-op self-time metric each feeds.
pub const LAYER_TIMES: [(&str, &str); 16] = [
    ("format.decode", "format.decode_ms"),
    ("lint.check", "lint.check_ms"),
    ("scheduler.derive", "scheduler.derive_ms"),
    ("scheduler.solve", "scheduler.solve_ms"),
    ("scheduler.conflicts", "scheduler.conflicts_ms"),
    ("scheduler.play", "scheduler.play_ms"),
    ("scheduler.edit_apply", "scheduler.edit_apply_ms"),
    ("scheduler.edit_solve", "scheduler.edit_solve_ms"),
    ("scheduler.swap", "scheduler.swap_ms"),
    ("scheduler.tick", "scheduler.tick_ms"),
    ("pipeline.presentation", "pipeline.presentation_ms"),
    ("pipeline.filter", "pipeline.filter_ms"),
    ("pipeline.view", "pipeline.view_ms"),
    ("pipeline.catalog_export", "pipeline.catalog_export_ms"),
    ("distrib.fetch_document", "distrib.fetch_document_ms"),
    ("distrib.fetch_blocks", "distrib.fetch_blocks_ms"),
];

/// Per-op counts: `(count name, metric name, unit)`.
pub const LAYER_COUNTS: [(&str, &str, &str); 8] = [
    ("format.wire_kib", "format.wire_kib", "KiB"),
    ("scheduler.constraints", "scheduler.constraints", "count"),
    ("scheduler.events", "scheduler.events", "count"),
    ("scheduler.edit_updates", "scheduler.edit_updates", "count"),
    (
        "scheduler.edit_reset_points",
        "scheduler.edit_reset_points",
        "count",
    ),
    ("distrib.bytes_moved_kib", "distrib.bytes_moved_kib", "KiB"),
    ("distrib.sim_net_ms", "distrib.sim_net_ms", "ms"),
    ("distrib.retries", "distrib.retries", "count"),
];

/// Whole-run figures a workload adds to its traced metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunFigures {
    /// Rounds run.
    pub rounds: usize,
    /// Failed transfers over the run (cluster reads).
    pub failed_transfers: u64,
    /// Wall time of repair passes over the run, in milliseconds.
    pub repair_ms: f64,
}

/// The per-layer metrics of a traced run: per-op self times and counts from
/// the spans, plus tracing cost against the same ops run untraced.
pub fn per_layer(
    tracer: &Tracer,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    figures: RunFigures,
) -> Vec<Metric> {
    let ops = tracer.ops().max(1) as f64;
    let own = tracer.self_ms();
    let mut out = Vec::new();
    for (span, metric) in LAYER_TIMES {
        out.push(Metric {
            name: metric,
            value: own.get(span).copied().unwrap_or(0.0) / ops,
            unit: "ms",
        });
    }
    for (count, metric, unit) in LAYER_COUNTS {
        out.push(Metric {
            name: metric,
            value: tracer.count_total(count) / ops,
            unit,
        });
    }
    let requested = tracer.count_total("distrib.requested");
    out.push(Metric {
        name: "distrib.local_hit_ratio",
        value: if requested > 0.0 {
            tracer.count_total("distrib.local_hits") / requested
        } else {
            0.0
        },
        unit: "ratio",
    });
    let rounds = figures.rounds.max(1) as f64;
    out.push(Metric {
        name: "distrib.failed_transfers",
        value: figures.failed_transfers as f64 / rounds,
        unit: "count/run",
    });
    out.push(Metric {
        name: "distrib.repair_ms",
        value: figures.repair_ms / rounds,
        unit: "ms/run",
    });
    out.push(Metric {
        name: "trace.unattributed_ms",
        value: own.get(trace::OP).copied().unwrap_or(0.0) / ops,
        unit: "ms",
    });
    let untraced = median(untraced_ms);
    out.push(Metric {
        name: "trace.overhead_pct",
        value: if untraced > 0.0 {
            (median(traced_ms) / untraced - 1.0) * 100.0
        } else {
            0.0
        },
        unit: "%",
    });
    out
}

/// Human-readable lines for a metric list.
pub fn metric_lines(workload: Workload, metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            format!(
                "{:<17} {:<28} {:>14.4} {}",
                workload.name(),
                m.name,
                m.value,
                m.unit
            )
        })
        .collect()
}

/// Writes the traced run's spans when a destination is configured.
pub fn write_spans(config: &Config, tracer: &Tracer) -> Vec<String> {
    match &config.spans_out {
        Some(path) => match tracer.write_tsv(path) {
            Ok(()) => vec![format!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            )],
            Err(e) => vec![format!("spans: could not write {}: {e}", path.display())],
        },
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
            report: Vec::new(),
        };
        assert_eq!(
            outcome.json(true),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
