//! `cluster_reads`: one `PipelineBuilder::run_distributed(cluster, reader,
//! doc)` per op, on a six-host, RF 2 `DistributedStore` holding a few
//! hundred small bulletins, each with its own media. Reads run stages 2–5b
//! without playback.
//!
//! Reads follow a seeded Zipf order over (bulletin, reader); readers are
//! the five hosts the fault plan leaves up. A seeded `FaultPlan`
//! loses a share of transfers and kills one host part-way through the
//! round; the op after the kill is followed by `repair_all` passes (timed as
//! part of the op sequence, not as an op). Every round starts from a freshly
//! published cluster, so each round replays the same reads from the same
//! cold state.

use std::collections::{BTreeSet, HashMap};

use cmif::core::symbol::Symbol;
use cmif::core::tree::Document;
use cmif::distrib::network::{Link, Network};
use cmif::distrib::{
    referenced_keys, DistributedStore, FaultPlan, HealthPolicy, HealthState, RetryPolicy,
};
use cmif::format::{write_document, WireEncoding};
use cmif::lint::Linter;
use cmif::media::{MediaBlock, MediaGenerator};
use cmif::pipeline::{DeviceProfile, PipelineBuilder, PipelineRun};
use cmif::scheduler::JitterModel;

use crate::check::{self, ensure, CheckFailure, Checked};
use crate::gen::{payload_checksum, stratified, Broadcast, SHAPES};
use crate::measure::{ms, Recorder};
use crate::rng::{Rng, Zipf};
use crate::stages::{run_stages, same_as_entry_point, StageContext, StagedRun};
use crate::trace::{Tracer, OP};
use crate::{end_to_end, per_layer, rounds, timed_setup, Config, Outcome, RunFigures};

/// The cluster's hosts.
pub const HOSTS: [&str; 6] = ["h0", "h1", "h2", "h3", "h4", "h5"];

/// Replication factor.
pub const RF: usize = 2;

/// Share of transfers the fault plan loses.
pub const LOSS: f64 = 0.03;

/// Bulletins published, reads per round (full corpus).
pub const FULL: (usize, usize) = (240, 300);

/// Bulletins published, reads per round (the benchmark's own tests).
pub const SMALL: (usize, usize) = (16, 24);

/// Most repair passes after the kill before check (f) gives up.
const REPAIR_PASSES: usize = 16;

/// One published bulletin and the facts its reads are checked against.
pub struct Bulletin {
    /// Document name on the cluster.
    pub name: String,
    /// The generated shape.
    pub broadcast: Broadcast,
    /// The document.
    pub doc: Document,
    /// Host it is published from (and its media put on).
    pub origin: &'static str,
    /// Canonical text of the published document.
    pub text: String,
    /// Its media with descriptors.
    pub blocks: Vec<(MediaBlock, cmif::core::descriptor::DataDescriptor)>,
    /// Checksum of every block payload, by key.
    pub checksums: HashMap<String, u64>,
    /// Interned media keys, as the pipeline requests them.
    pub keys: BTreeSet<Symbol>,
    /// Size of its binary wire form, in bytes.
    pub wire_len: usize,
}

/// The seeded corpus, read order and fault schedule.
pub struct Scenario {
    /// Published bulletins.
    pub bulletins: Vec<Bulletin>,
    /// Reads of one round: (bulletin, reader).
    pub reads: Vec<(usize, &'static str)>,
    /// Host the fault plan kills.
    pub victim: &'static str,
    /// Transfer (counted from the first read) at which it dies.
    pub kill_at: u64,
    /// Seed of the fault plan.
    pub fault_seed: u64,
    /// Seed of playback jitter.
    pub jitter_seed: u64,
}

/// Generates the corpus and the round's reads.
pub fn scenario(seed: u64, small: bool) -> Scenario {
    let (count, reads) = if small { SMALL } else { FULL };
    let mut rng = Rng::new(seed).fork(2);
    // Popularity rank r holds a bulletin of 1 + r % 4 stories, so the story
    // counts of the reads do not hinge on which bulletins the seed makes
    // popular.
    let mut popularity: Vec<usize> = (0..count).collect();
    rng.shuffle(&mut popularity);
    let mut stories = vec![0; count];
    for (rank, &bulletin) in popularity.iter().enumerate() {
        stories[bulletin] = 1 + rank % 4;
    }
    let shapes = stratified(&mut rng, &SHAPES, count);
    let arcs = stratified(&mut rng, &[true, false], count);
    let origins = stratified(&mut rng, &HOSTS, count);
    let mut media = MediaGenerator::new(seed ^ 0xB0B);
    let bulletins = (0..count)
        .map(|i| {
            let broadcast = Broadcast::draw(
                &mut rng.fork(1_000 + i as u64),
                format!("n{i}"),
                stories[i],
                shapes[i],
                arcs[i],
            );
            let doc = broadcast.build();
            let text = write_document(&doc).expect("generated documents print");
            let blocks = broadcast.blocks(&mut media, 4);
            let checksums = blocks
                .iter()
                .map(|(block, _)| (block.key.clone(), payload_checksum(&block.payload)))
                .collect();
            let keys = referenced_keys(&doc, None).into_iter().collect();
            let wire_len = cmif::format::document_to_bytes(&doc, WireEncoding::Binary)
                .expect("generated documents encode")
                .len();
            Bulletin {
                name: format!("bulletin-{i}"),
                broadcast,
                doc,
                origin: origins[i],
                text,
                blocks,
                checksums,
                keys,
                wire_len,
            }
        })
        .collect();
    let zipf = Zipf::new(count, 1.0);
    // The victim stores and serves but never reads: a reader killed in the
    // middle of its own read could not receive the bytes.
    let victim = *rng.pick(&HOSTS);
    let readers: Vec<&'static str> = HOSTS.into_iter().filter(|h| *h != victim).collect();
    let reads = (0..reads)
        .map(|_| (popularity[zipf.sample(&mut rng)], *rng.pick(&readers)))
        .collect();
    let (lo, hi) = if small { (4, 12) } else { (40, 120) };
    Scenario {
        bulletins,
        reads,
        victim,
        kill_at: rng.range(lo, hi) as u64,
        fault_seed: rng.next_u64(),
        jitter_seed: rng.next_u64(),
    }
}

impl Scenario {
    /// A freshly published cluster with the round's fault plan installed
    /// (publishing itself runs fault-free; the plan's transfer clock starts
    /// at the first read).
    pub fn cluster(&self) -> DistributedStore {
        let network = Network::uniform(&HOSTS, Link::lan());
        let cluster = DistributedStore::with_replication(network, RF)
            .expect("six hosts hold RF 2")
            .with_retry_policy(RetryPolicy::with_attempts(8))
            .with_health_policy(HealthPolicy::new(1, 16));
        for bulletin in &self.bulletins {
            for (block, descriptor) in &bulletin.blocks {
                cluster
                    .put_block(bulletin.origin, block.clone(), descriptor.clone())
                    .expect("a healthy cluster stores every block");
            }
            cluster
                .publish_document(bulletin.origin, &bulletin.name, &bulletin.doc)
                .expect("a healthy cluster publishes every bulletin");
        }
        cluster.with_fault_plan(
            FaultPlan::seeded(self.fault_seed)
                .fail_transfers(LOSS)
                .kill_host_at(self.kill_at, self.victim),
        )
    }
}

struct State {
    scenario: Scenario,
    builder: PipelineBuilder,
    jitter: JitterModel,
    linter: Linter,
}

fn setup(config: &Config) -> Result<State, CheckFailure> {
    let scenario = scenario(config.seed, config.small);
    let jitter = JitterModel::uniform(20, scenario.jitter_seed);
    // No playback: stage 5c (engine handoff and catalog snapshot) is
    // measured by `broadcast_ingest`; here it would bury the per-read
    // costs this workload is about (see the README).
    let builder = PipelineBuilder::new(DeviceProfile::workstation())
        .playback_runs(0)
        .jitter(jitter.clone());
    let state = State {
        linter: Linter::new(),
        scenario,
        builder,
        jitter,
    };
    // Warm-up: two reads on a throwaway cluster.
    let cluster = state.scenario.cluster();
    for &(bulletin, reader) in state.scenario.reads.iter().take(2) {
        state
            .builder
            .run_distributed(&cluster, reader, &state.scenario.bulletins[bulletin].name)
            .map_err(|e| CheckFailure {
                check: "warm-up op",
                op: 0,
                detail: format!("read of bulletin {bulletin} failed: {e}"),
            })?;
    }
    Ok(state)
}

/// Checks (a)–(d) and (f) on one read.
fn check_read(
    cluster: &DistributedStore,
    bulletin: &Bulletin,
    reader: &str,
    run: &PipelineRun,
    op: u64,
    config: &Config,
) -> Checked {
    check::total(
        &run.solve.schedule,
        bulletin.broadcast.expected_total_ms() + config.total_skew_ms,
        op,
    )?;
    let doc = cluster
        .open_document(reader, &bulletin.name)
        .map_err(|e| CheckFailure {
            check: "(f) read returns the published document",
            op,
            detail: format!("{reader} holds no copy after the read: {e}"),
        })?;
    let text = write_document(&doc).unwrap_or_default();
    ensure(
        text == bulletin.text,
        "(f) read returns the published document",
        op,
        || {
            format!(
                "{} on {reader} differs from its published text",
                bulletin.name
            )
        },
    )?;
    check::schedule_matches_reference(&doc, &run.solve.schedule, &run.solve.constraints, op)?;
    let expected = check::expected_filter(
        &bulletin.broadcast.descriptors(),
        &check::channels_of(&doc),
        &DeviceProfile::workstation(),
    );
    check::filter_plan(&run.filter_plan, &expected, op)?;
    ensure(run.playback.is_none(), "(d) playback", op, || {
        "a read played back".to_string()
    })?;
    ensure(run.is_presentable(), "(d) playback", op, || {
        "workstation read is not presentable".to_string()
    })?;
    let fetch = run.fetch.as_ref().ok_or_else(|| CheckFailure {
        check: "(f) blocks intact",
        op,
        detail: "no fetch report".to_string(),
    })?;
    ensure(
        fetch.requested == bulletin.keys.len(),
        "(f) blocks intact",
        op,
        || {
            format!(
                "{} blocks requested, document references {}",
                fetch.requested,
                bulletin.keys.len()
            )
        },
    )?;
    let local = cluster.local_store(reader).map_err(|e| CheckFailure {
        check: "(f) blocks intact",
        op,
        detail: e.to_string(),
    })?;
    for (key, sum) in &bulletin.checksums {
        let got = local.payload(key).map(|p| payload_checksum(&p)).ok();
        ensure(got == Some(*sum), "(f) blocks intact", op, || {
            format!("block {key} on {reader}: checksum {got:?}, generated {sum}")
        })?;
    }
    Ok(())
}

/// Repair after the kill: passes until nothing is queued, then every block
/// has RF serviceable holders and nothing was lost.
fn repair(cluster: &DistributedStore, op: u64) -> Result<(), CheckFailure> {
    let mut lost = Vec::new();
    for _ in 0..REPAIR_PASSES {
        let report = cluster.repair_all();
        lost.extend(report.lost.iter().map(|item| item.to_string()));
        if cluster.pending_repairs() == 0 {
            break;
        }
    }
    ensure(lost.is_empty(), "(f) repair", op, || {
        format!("repair lost {lost:?}")
    })?;
    ensure(cluster.pending_repairs() == 0, "(f) repair", op, || {
        format!(
            "{} repairs still pending after {REPAIR_PASSES} passes",
            cluster.pending_repairs()
        )
    })
}

fn replication_restored(cluster: &DistributedStore, scenario: &Scenario, op: u64) -> Checked {
    for bulletin in &scenario.bulletins {
        for key in bulletin.checksums.keys() {
            let live = cluster
                .replicas_of(key)
                .iter()
                .filter(|h| cluster.health_of(h).is_ok_and(|s| s.is_serviceable()))
                .count();
            ensure(live >= RF, "(f) repair", op, || {
                format!("block {key} has {live} serviceable holders after repair, RF is {RF}")
            })?;
        }
    }
    Ok(())
}

/// The traced form of one read: the fetch walk, then stages 2–5, in the
/// order `run_distributed` runs them.
fn traced_read(
    tr: &mut Tracer,
    state: &State,
    cluster: &DistributedStore,
    bulletin: &Bulletin,
    reader: &str,
) -> Result<(StagedRun, cmif::distrib::FetchReport), String> {
    let before = cluster.traffic();
    tr.enter(OP);
    let result = (|| {
        let doc = tr
            .span("distrib.fetch_document", || {
                cluster.fetch_document(reader, &bulletin.name)
            })
            .map_err(|e| e.to_string())?;
        let keys: BTreeSet<Symbol> = referenced_keys(&doc, None).into_iter().collect();
        let fetch = tr
            .span("distrib.fetch_blocks", || {
                cluster.fetch_blocks_for_traced(reader, &keys)
            })
            .map_err(|e| e.to_string())?;
        let store = cluster.local_store(reader).map_err(|e| e.to_string())?;
        let profile = DeviceProfile::workstation();
        let ctx = StageContext {
            device: &profile,
            linter: &state.linter,
            engine: None,
            jitter: &state.jitter,
            runs: 0,
        };
        let staged = run_stages(tr, &ctx, &doc, None, store)?;
        Ok((staged, fetch))
    })();
    tr.exit();
    if let Ok((_, fetch)) = &result {
        let after = cluster.traffic();
        let moved = (after.structure_bytes + after.media_bytes)
            .saturating_sub(before.structure_bytes + before.media_bytes);
        tr.count("format.wire_kib", bulletin.wire_len as f64 / 1024.0);
        tr.count("distrib.bytes_moved_kib", moved as f64 / 1024.0);
        tr.count("distrib.sim_net_ms", fetch.simulated_ms as f64);
        tr.count("distrib.retries", fetch.retries as f64);
        tr.count("distrib.local_hits", fetch.local_hits as f64);
        tr.count("distrib.requested", fetch.requested as f64);
    }
    result
}

/// Runs the workload.
pub fn run(config: &Config) -> Result<Outcome, CheckFailure> {
    let (state, first_setup_s) = timed_setup(|| setup(config))?;
    let scenario = &state.scenario;
    let mut rec = Recorder::default();
    let mut tr = Tracer::new(config.trace);
    let mut traced_ms = Vec::new();
    let mut figures = RunFigures::default();
    let mut op = 0u64;
    let (done, setup_s) = rounds(
        config.seconds,
        first_setup_s,
        || setup(config),
        |_| {
            let cluster = scenario.cluster();
            let twin = config.trace.then(|| scenario.cluster());
            let mut repaired = false;
            for &(index, reader) in &scenario.reads {
                op += 1;
                let bulletin = &scenario.bulletins[index];
                let run = match rec.op(|| {
                    state
                        .builder
                        .run_distributed(&cluster, reader, &bulletin.name)
                }) {
                    Ok(run) => run,
                    Err(_) => continue,
                };
                check_read(&cluster, bulletin, reader, &run, op, config)?;
                if let Some(twin) = &twin {
                    let started = std::time::Instant::now();
                    let (staged, fetch) = traced_read(&mut tr, &state, twin, bulletin, reader)
                        .map_err(|e| CheckFailure {
                            check: "traced = untraced",
                            op,
                            detail: format!(
                                "the staged read failed where the entry point succeeded: {e}"
                            ),
                        })?;
                    traced_ms.push(ms(started.elapsed()));
                    same_as_entry_point(&staged, &run, op)?;
                    ensure(
                        Some(&fetch) == run.fetch.as_ref(),
                        "traced = untraced",
                        op,
                        || {
                            format!(
                                "fetch reports differ: staged {fetch:?}, entry point {:?}",
                                run.fetch
                            )
                        },
                    )?;
                }
                let down = cluster
                    .health_of(scenario.victim)
                    .is_ok_and(|s| s == HealthState::Down);
                if down && !repaired {
                    repaired = true;
                    let started = std::time::Instant::now();
                    rec.maintenance(|| repair(&cluster, op))?;
                    figures.repair_ms += ms(started.elapsed());
                    replication_restored(&cluster, scenario, op)?;
                    if let Some(twin) = &twin {
                        repair(twin, op)?;
                    }
                }
            }
            ensure(repaired, "(f) repair", op, || {
                format!(
                    "{} was never killed: the round moved fewer than {} transfers",
                    scenario.victim, scenario.kill_at
                )
            })?;
            figures.failed_transfers += cluster.traffic().failed_transfers;
            Ok(())
        },
    )?;
    figures.rounds = done;
    if !config.trace {
        return Ok(Outcome {
            attempted: rec.attempted,
            failed: rec.failed,
            metrics: end_to_end(&setup_s, &rec),
            report: Vec::new(),
        });
    }
    let metrics = per_layer(&tr, &rec.latencies_ms, &traced_ms, figures);
    let mut report = crate::metric_lines(config.workload, &metrics);
    report.extend(crate::write_spans(config, &tr));
    Ok(Outcome {
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
        report,
    })
}
