//! `live_edit`: seeded authoring edits to a playing document.
//!
//! One op ticks the playing `PlayerSession` forward a seeded step (polling
//! what it delivered), applies one edit with `EditSession::apply`, assembles
//! the new `SolveResult` with `EditSession::solve_result`, and swaps the
//! session onto the new revision with `PlayerSession::swap_revision`.
//!
//! A round plays each document of a fixed size ladder (32–128 stories) from
//! the start and applies its edit script: a fixed mix of inserted and
//! removed stories, inserted captions, retimed arcs, swapped narration,
//! and assigned and cleared channels, in seeded order. The script is
//! generated against a model of the document, which also gives each edit's
//! expected schedule total in closed form.

use std::sync::Arc;

use cmif::core::descriptor::DescriptorCatalog;
use cmif::core::prelude::{DocRevision, Edit, NodeSpec, Symbol};
use cmif::core::tree::Document;
use cmif::scheduler::{
    ConstraintGraph, EditSession, JitterModel, PlaybackEvent, PlayerSession, ScheduleOptions,
    SchedulerError, SolveResult,
};

use crate::check::{self, ensure, CheckFailure, History};
use crate::gen::{audio_descriptor, stratified, Broadcast, SHAPES, STORY_MS, TITLE_MS};
use crate::measure::{ms, Recorder};
use crate::rng::Rng;
use crate::trace::{Tracer, OP};
use crate::{end_to_end, per_layer, rounds, timed_setup, Config, Outcome, RunFigures};

/// Stories of each document a round edits. The median op falls among the
/// three 64-story documents, the 90th percentile among the two 128-story
/// ones.
pub const LADDER: [usize; 6] = [32, 64, 64, 64, 128, 128];

/// Edits applied to each document: each kind once.
pub const EDITS_PER_DOC: usize = 7;

/// The reduced ladder and script length of the benchmark's own tests.
pub const SMALL: ([usize; 2], usize) = ([3, 5], 7);

/// The edit mix, each kind equally often.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Append a new story to the broadcast.
    InsertStory,
    /// Append a caption to a story's captions track.
    InsertCaption,
    /// Remove a story.
    RemoveStory,
    /// Retime one explicit arc (window and offset).
    RetimeArc,
    /// Point a story's narration at another recording.
    SwapDescriptor,
    /// Assign a channel to a captions track.
    AssignChannel,
    /// Clear a title's (or an assigned track's) own channel.
    ClearChannel,
}

const KINDS: [Kind; 7] = [
    Kind::InsertStory,
    Kind::InsertCaption,
    Kind::RemoveStory,
    Kind::RetimeArc,
    Kind::SwapDescriptor,
    Kind::AssignChannel,
    Kind::ClearChannel,
];

/// An edit whose targets are paths, resolved against the revision it
/// applies to.
#[derive(Debug, Clone)]
pub enum EditSpec {
    /// Append `spec` under the node at `parent` (`None`: the root).
    Insert {
        /// Path of the parent.
        parent: Option<String>,
        /// The new subtree.
        spec: NodeSpec,
    },
    /// Remove the subtree at a path.
    Remove(String),
    /// Retime the `index`-th arc.
    Retime {
        /// Arc index.
        index: usize,
        /// New δ.
        min: i64,
        /// New ε.
        max: i64,
        /// New offset.
        offset: i64,
    },
    /// Repoint an external leaf.
    Swap {
        /// The leaf.
        path: String,
        /// The new media key.
        file: String,
    },
    /// Assign a channel.
    Assign {
        /// The node.
        path: String,
        /// The channel.
        channel: &'static str,
    },
    /// Clear a node's own channel.
    Clear(String),
}

impl EditSpec {
    /// The program's edit, its targets resolved in `doc`.
    pub fn resolve(&self, doc: &Document) -> Result<Edit, String> {
        let find = |path: &str| doc.find(path).map_err(|e| format!("{path}: {e}"));
        Ok(match self {
            EditSpec::Insert { parent, spec } => Edit::InsertSubtree {
                parent: match parent {
                    Some(path) => find(path)?,
                    None => doc.root().map_err(|e| e.to_string())?,
                },
                spec: spec.clone(),
            },
            EditSpec::Remove(path) => Edit::RemoveSubtree { node: find(path)? },
            EditSpec::Retime {
                index,
                min,
                max,
                offset,
            } => Edit::RetimeArc {
                index: *index,
                min_delay_ms: *min,
                max_delay_ms: Some(*max),
                offset_ms: Some(*offset),
            },
            EditSpec::Swap { path, file } => Edit::SwapDescriptor {
                node: find(path)?,
                file: file.clone(),
            },
            EditSpec::Assign { path, channel } => Edit::AssignChannel {
                node: find(path)?,
                channel: Symbol::intern(channel),
            },
            EditSpec::Clear(path) => Edit::ClearChannel { node: find(path)? },
        })
    }
}

/// One step of a script.
#[derive(Debug, Clone)]
pub struct Step {
    /// The edit.
    pub edit: EditSpec,
    /// Presentation time the session advances by before the edit, in ms.
    pub advance_ms: i64,
    /// The schedule total after the edit, in closed form.
    pub expected_total_ms: i64,
}

/// The model of one story: the lengths that decide its duration.
#[derive(Debug, Clone)]
struct StoryModel {
    name: String,
    audio_ms: i64,
    video_ms: i64,
    graphics_ms: i64,
    graphics_offset: i64,
    captions_ms: i64,
    captions_offset: i64,
    added_captions: usize,
    title_channel: bool,
    captions_assigned: bool,
}

impl StoryModel {
    fn length(&self) -> i64 {
        [
            self.audio_ms,
            self.video_ms,
            self.graphics_offset + self.graphics_ms,
            self.captions_offset + self.captions_ms,
            TITLE_MS,
        ]
        .into_iter()
        .max()
        .unwrap_or(0)
    }
}

/// Which track of a story an arc starts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Track {
    Graphics,
    Captions,
}

/// One document to edit, its script and the descriptors the script needs.
pub struct EditDoc {
    /// The initial document.
    pub doc: Arc<Document>,
    /// The edits, in order.
    pub script: Vec<Step>,
    /// Playback jitter.
    pub jitter: JitterModel,
}

/// Generates the ladder's documents and scripts; every descriptor any of
/// them needs goes into `catalog`.
pub fn scenario(seed: u64, small: bool) -> (Vec<EditDoc>, DescriptorCatalog) {
    let (ladder, edits): (&[usize], usize) = if small {
        (&SMALL.0, SMALL.1)
    } else {
        (&LADDER, EDITS_PER_DOC)
    };
    let mut rng = Rng::new(seed).fork(3);
    let shapes = stratified(&mut rng, &SHAPES, ladder.len());
    let mut catalog = DescriptorCatalog::new();
    let docs = ladder
        .iter()
        .enumerate()
        .map(|(i, &stories)| {
            let mut rng = rng.fork(10 + i as u64);
            let broadcast = Broadcast::draw(&mut rng, format!("e{i}"), stories, shapes[i], true);
            for descriptor in broadcast.descriptors() {
                catalog.upsert(descriptor);
            }
            let doc = Arc::new(broadcast.build());
            let script = script(&mut rng, &broadcast, edits, &mut catalog);
            EditDoc {
                doc,
                script,
                jitter: JitterModel::uniform(40, rng.next_u64()),
            }
        })
        .collect();
    (docs, catalog)
}

/// The model of each story of a broadcast as generated.
fn models(b: &Broadcast) -> Vec<StoryModel> {
    let (captions, graphics) = (b.captions as i64, b.graphics as i64);
    b.story_ms
        .iter()
        .enumerate()
        .map(|(k, &ms)| StoryModel {
            name: format!("story-{k}"),
            audio_ms: ms,
            video_ms: ms,
            graphics_ms: graphics * (ms / graphics),
            graphics_offset: 0,
            captions_ms: captions * (ms / captions),
            captions_offset: 0,
            added_captions: 0,
            title_channel: true,
            captions_assigned: false,
        })
        .collect()
}

fn total(stories: &[StoryModel]) -> i64 {
    stories.iter().map(StoryModel::length).sum()
}

/// Seed of the delivered-history probe: its input is the same in every run.
const PROBE_SEED: u64 = 0x5eed;

/// The delivered-history probe, the same for every seed: a four-story
/// document played just past its first story. Its first edit appends a
/// caption to the last story; its second, one millisecond later, removes
/// the first story, whose events were delivered before the first swap. A
/// swap must keep delivered events in the report, removed or not.
pub fn history_probe(catalog: &mut DescriptorCatalog) -> EditDoc {
    let b = Broadcast::draw(
        &mut Rng::new(PROBE_SEED),
        "probe".to_string(),
        4,
        SHAPES[0],
        false,
    );
    for descriptor in b.descriptors() {
        catalog.upsert(descriptor);
    }
    let mut stories = models(&b);
    let played = stories[0].length() + 1;
    stories[3].captions_ms += 1_000;
    let append = Step {
        edit: EditSpec::Insert {
            parent: Some("/story-3/captions".to_string()),
            spec: NodeSpec::imm_text("caption-x0", "a late caption")
                .on_channel("caption")
                .lasting_ms(1_000),
        },
        advance_ms: played,
        expected_total_ms: total(&stories),
    };
    stories.remove(0);
    let remove = Step {
        edit: EditSpec::Remove("/story-0".to_string()),
        advance_ms: 1,
        expected_total_ms: total(&stories),
    };
    EditDoc {
        doc: Arc::new(b.build()),
        script: vec![append, remove],
        jitter: JitterModel::ideal(),
    }
}

/// Generates an edit script against a model of the broadcast.
fn script(
    rng: &mut Rng,
    b: &Broadcast,
    edits: usize,
    catalog: &mut DescriptorCatalog,
) -> Vec<Step> {
    let (captions, graphics) = (b.captions as i64, b.graphics as i64);
    let mut stories = models(b);
    let mut arcs: Vec<(String, Track)> = stories
        .iter()
        .flat_map(|s| {
            [
                (s.name.clone(), Track::Graphics),
                (s.name.clone(), Track::Captions),
            ]
        })
        .collect();
    // Advance about half the broadcast over the script.
    let mean_step = total(&stories) / (2 * edits as i64);
    let kinds = stratified(rng, &KINDS, edits);
    let mut inserted = 0;
    let mut clock = 0;
    kinds
        .into_iter()
        .map(|kind| {
            let advance_ms = mean_step / 2 + rng.range(0, mean_step);
            clock += advance_ms;
            // Edits target stories whose scheduled start lies past the
            // playhead: playback only ever runs late, so nothing of them has
            // been delivered yet. Edits of delivered history are made by the
            // fixed `history_probe` instead, whose outcome does not depend
            // on the seed.
            let mut start = 0;
            let unplayed: Vec<usize> = stories
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    let begins = start;
                    start += s.length();
                    (begins > clock).then_some(i)
                })
                .collect();
            let open_arcs: Vec<usize> = (0..arcs.len())
                .filter(|&a| unplayed.iter().any(|&i| stories[i].name == arcs[a].0))
                .collect();
            let kind = match kind {
                Kind::RemoveStory if unplayed.len() < 4 => Kind::InsertStory,
                Kind::RetimeArc if open_arcs.is_empty() => Kind::InsertStory,
                _ if unplayed.is_empty() => Kind::InsertStory,
                other => other,
            };
            let k = if unplayed.is_empty() {
                0
            } else {
                unplayed[rng.below(unplayed.len())]
            };
            let edit = match kind {
                Kind::InsertStory => {
                    let name = format!("story-x{inserted}");
                    let prefix = format!("{}/x{inserted}", b.prefix);
                    inserted += 1;
                    let ms = *rng.pick(&STORY_MS);
                    let audio = format!("{prefix}/audio");
                    catalog.upsert(audio_descriptor(&audio, ms, b.audio_rate));
                    let mut video = b.descriptors()[1].clone();
                    video.key = Symbol::intern(&format!("{prefix}/video"));
                    video.duration = Some(cmif::core::time::TimeMs::from_millis(ms));
                    let video_key = video.key.as_str().to_string();
                    catalog.upsert(video);
                    let each_g = ms / graphics;
                    let each_c = ms / captions;
                    let graphic_template = b.descriptors()[2].clone();
                    let graphic_specs = (0..graphics)
                        .map(|g| {
                            let mut d = graphic_template.clone();
                            d.key = Symbol::intern(&format!("{prefix}/graphic-{g}"));
                            let key = d.key.as_str().to_string();
                            catalog.upsert(d);
                            NodeSpec::ext(format!("graphic-{g}"), key)
                                .on_channel("graphic")
                                .lasting_ms(each_g)
                        })
                        .collect();
                    let caption_specs = (0..captions)
                        .map(|c| {
                            NodeSpec::imm_text(
                                format!("caption-{c}"),
                                format!("late story caption {c}"),
                            )
                            .on_channel("caption")
                            .lasting_ms(each_c)
                        })
                        .collect();
                    let spec = NodeSpec::par(
                        name.clone(),
                        vec![
                            NodeSpec::ext("narration", audio).on_channel("audio"),
                            NodeSpec::ext("film", video_key).on_channel("video"),
                            NodeSpec::seq("graphics", graphic_specs),
                            NodeSpec::seq("captions", caption_specs),
                            NodeSpec::imm_text("title", format!("Late story {inserted}"))
                                .on_channel("label")
                                .lasting_ms(TITLE_MS),
                        ],
                    );
                    stories.push(StoryModel {
                        name,
                        audio_ms: ms,
                        video_ms: ms,
                        graphics_ms: graphics * each_g,
                        graphics_offset: 0,
                        captions_ms: captions * each_c,
                        captions_offset: 0,
                        added_captions: 0,
                        title_channel: true,
                        captions_assigned: false,
                    });
                    EditSpec::Insert { parent: None, spec }
                }
                Kind::InsertCaption => {
                    let story = &mut stories[k];
                    let ms = rng.range(2, 16) * 500;
                    let name = format!("caption-x{}", story.added_captions);
                    story.added_captions += 1;
                    story.captions_ms += ms;
                    EditSpec::Insert {
                        parent: Some(format!("/{}/captions", story.name)),
                        spec: NodeSpec::imm_text(name, "a late caption")
                            .on_channel("caption")
                            .lasting_ms(ms),
                    }
                }
                Kind::RemoveStory => {
                    let story = stories.remove(k);
                    arcs.retain(|(owner, _)| *owner != story.name);
                    EditSpec::Remove(format!("/{}", story.name))
                }
                Kind::RetimeArc => {
                    let index = open_arcs[rng.below(open_arcs.len())];
                    let min = *rng.pick(&[0, -200]);
                    let max = *rng.pick(&[250, 500, 1_000]);
                    let offset = *rng.pick(&[0, 500, 1_000, 2_000]);
                    let (owner, track) = &arcs[index];
                    let story = stories
                        .iter_mut()
                        .find(|s| s.name == *owner)
                        .expect("arcs belong to live stories");
                    // The track starts with its story or at the arc's
                    // lower bound, whichever is later.
                    let start = (offset + min).max(0);
                    match track {
                        Track::Graphics => story.graphics_offset = start,
                        Track::Captions => story.captions_offset = start,
                    }
                    EditSpec::Retime {
                        index,
                        min,
                        max,
                        offset,
                    }
                }
                Kind::SwapDescriptor => {
                    let ms = *rng.pick(&STORY_MS);
                    let key = format!("{}/alt{ms}/audio", b.prefix);
                    catalog.upsert(audio_descriptor(&key, ms, b.audio_rate));
                    let story = &mut stories[k];
                    story.audio_ms = ms;
                    EditSpec::Swap {
                        path: format!("/{}/narration", story.name),
                        file: key,
                    }
                }
                Kind::AssignChannel => {
                    let story = &mut stories[k];
                    story.captions_assigned = true;
                    EditSpec::Assign {
                        path: format!("/{}/captions", story.name),
                        channel: "caption",
                    }
                }
                Kind::ClearChannel => {
                    let story = &mut stories[k];
                    if story.title_channel {
                        story.title_channel = false;
                        EditSpec::Clear(format!("/{}/title", story.name))
                    } else if story.captions_assigned {
                        story.captions_assigned = false;
                        EditSpec::Clear(format!("/{}/captions", story.name))
                    } else {
                        story.captions_assigned = true;
                        EditSpec::Assign {
                            path: format!("/{}/captions", story.name),
                            channel: "caption",
                        }
                    }
                }
            };
            Step {
                edit,
                advance_ms,
                expected_total_ms: total(&stories),
            }
        })
        .collect()
}

/// A document being edited while it plays.
struct Live<'r> {
    session: EditSession<'r>,
    player: PlayerSession,
    history: History,
    clock_ms: i64,
}

impl<'r> Live<'r> {
    /// Opens the edit session and starts playback at time 0.
    fn open(doc: &EditDoc, catalog: &'r DescriptorCatalog) -> Result<Live<'r>, SchedulerError> {
        let session = EditSession::begin(
            DocRevision::initial(Arc::clone(&doc.doc)),
            catalog,
            ScheduleOptions::default(),
        )?;
        let result = session.solve_result()?;
        let mut player = PlayerSession::new(&doc.doc, &result, catalog, &doc.jitter)?;
        player.tick(0)?;
        let mut history = History::default();
        history.record(&player.poll_events());
        Ok(Live {
            session,
            player,
            history,
            clock_ms: 0,
        })
    }

    /// One op: tick, apply, solve, swap — each in its span.
    fn step(
        &mut self,
        tr: &mut Tracer,
        catalog: &DescriptorCatalog,
        step: &Step,
        edit: &Edit,
    ) -> Result<(SolveResult, Vec<PlaybackEvent>), SchedulerError> {
        tr.enter(OP);
        let out = (|| {
            self.clock_ms += step.advance_ms;
            let now = self.clock_ms;
            let events = tr.span("scheduler.tick", || {
                self.player.tick(now)?;
                Ok::<_, SchedulerError>(self.player.poll_events())
            })?;
            tr.span("scheduler.edit_apply", || self.session.apply(edit))?;
            let stats = *self.session.stats();
            tr.count("scheduler.edit_updates", stats.last_updates as f64);
            tr.count(
                "scheduler.edit_reset_points",
                stats.last_reset_points as f64,
            );
            tr.count("scheduler.constraints", stats.constraints_total as f64);
            let result = tr.span("scheduler.edit_solve", || self.session.solve_result())?;
            let doc = Arc::clone(self.session.revision().doc());
            tr.span("scheduler.swap", || {
                self.player.swap_revision(&doc, &result, catalog)
            })?;
            Ok((result, events))
        })();
        tr.exit();
        out
    }
}

/// Checks (a), (b) and (g) after one op; `cold` adds the cold re-solve.
fn check_step(
    live: &Live<'_>,
    catalog: &DescriptorCatalog,
    step: &Step,
    result: &SolveResult,
    op: u64,
    config: &Config,
    cold: bool,
) -> Result<(), CheckFailure> {
    let doc = live.session.revision().doc();
    check::total(
        &result.schedule,
        step.expected_total_ms + config.total_skew_ms,
        op,
    )?;
    check::schedule_matches_reference(doc, &result.schedule, &result.constraints, op)?;
    live.history
        .unchanged_in(live.player.report_preview(), op)?;
    if cold {
        let fresh = ConstraintGraph::derive(doc, catalog, &ScheduleOptions::default())
            .and_then(|mut graph| graph.solve(doc, catalog))
            .map_err(|e| CheckFailure {
                check: "(g) edit = cold solve",
                op,
                detail: format!("cold solve failed: {e}"),
            })?;
        ensure(
            fresh.constraints == result.constraints
                && fresh.schedule.entries == result.schedule.entries
                && check::node_rows(&fresh.schedule) == check::node_rows(&result.schedule),
            "(g) edit = cold solve",
            op,
            || {
                "incremental solve differs from a cold derive + solve of the same revision"
                    .to_string()
            },
        )?;
    }
    Ok(())
}

struct State {
    docs: Vec<EditDoc>,
    probe: EditDoc,
    catalog: DescriptorCatalog,
}

fn setup(config: &Config) -> Result<State, CheckFailure> {
    let (docs, mut catalog) = scenario(config.seed, config.small);
    let probe = history_probe(&mut catalog);
    let state = State {
        docs,
        probe,
        catalog,
    };
    // Warm-up: open the first document and apply its first edit.
    let doc = &state.docs[0];
    let warm = (|| {
        let mut live = Live::open(doc, &state.catalog).map_err(|e| e.to_string())?;
        let edit = doc.script[0].edit.resolve(live.session.revision().doc())?;
        live.step(
            &mut Tracer::new(false),
            &state.catalog,
            &doc.script[0],
            &edit,
        )
        .map_err(|e| e.to_string())
    })();
    warm.map_err(|e| CheckFailure {
        check: "warm-up op",
        op: 0,
        detail: e,
    })?;
    Ok(state)
}

/// Runs the workload.
pub fn run(config: &Config) -> Result<Outcome, CheckFailure> {
    let (state, first_setup_s) = timed_setup(|| setup(config))?;
    let catalog = &state.catalog;
    let mut rec = Recorder::default();
    let mut tr = Tracer::new(config.trace);
    let mut quiet = Tracer::new(false);
    let mut traced_ms = Vec::new();
    let mut op = 0u64;
    let open_failed = |op: u64, e: SchedulerError| CheckFailure {
        check: "open session",
        op,
        detail: e.to_string(),
    };
    // The last failure of the probe's check (g); each one counts as a
    // failed op instead of stopping the run.
    let mut probe_failure: Option<CheckFailure> = None;
    let (done, setup_s) = rounds(
        config.seconds,
        first_setup_s,
        || setup(config),
        |_| {
            let docs = state.docs.iter().map(|doc| (doc, false));
            for (doc, probe) in docs.chain([(&state.probe, true)]) {
                let mut live = Live::open(doc, catalog).map_err(|e| open_failed(op, e))?;
                let mut twin = match config.trace {
                    true => Some(Live::open(doc, catalog).map_err(|e| open_failed(op, e))?),
                    false => None,
                };
                for (index, step) in doc.script.iter().enumerate() {
                    op += 1;
                    let edit = step
                        .edit
                        .resolve(live.session.revision().doc())
                        .map_err(|e| CheckFailure {
                            check: "edit script",
                            op,
                            detail: e,
                        })?;
                    let (result, events) =
                        match rec.op(|| live.step(&mut quiet, catalog, step, &edit)) {
                            Ok(out) => out,
                            Err(_) => {
                                // The session no longer follows the script: the
                                // rest of this document's edits fail with it.
                                rec.skip(doc.script.len() - index - 1);
                                break;
                            }
                        };
                    // History first records what the tick delivered before the
                    // swap, then the swap must have kept all of it.
                    live.history.record(&events);
                    match check_step(&live, catalog, step, &result, op, config, index % 4 == 0) {
                        Err(failure) if probe && failure.check == check::HISTORY => {
                            rec.reject_last();
                            rec.skip(doc.script.len() - index - 1);
                            probe_failure = Some(failure);
                            break;
                        }
                        checked => checked?,
                    }
                    if let Some(twin) = twin.as_mut() {
                        let started = std::time::Instant::now();
                        let traced = twin.step(&mut tr, catalog, step, &edit);
                        traced_ms.push(ms(started.elapsed()));
                        let (twin_result, _) = traced.map_err(|e| CheckFailure {
                            check: "traced = untraced",
                            op,
                            detail: format!(
                                "the traced edit failed where the untraced one succeeded: {e}"
                            ),
                        })?;
                        ensure(
                            twin_result == result
                                && twin.player.report_preview() == live.player.report_preview(),
                            "traced = untraced",
                            op,
                            || "traced and untraced sessions diverged".to_string(),
                        )?;
                    }
                }
            }
            Ok(())
        },
    )?;
    let probe_report: Vec<String> = probe_failure
        .iter()
        .map(|failure| format!("live_edit delivered-history probe failed: {failure}"))
        .collect();
    if !config.trace {
        return Ok(Outcome {
            attempted: rec.attempted,
            failed: rec.failed,
            metrics: end_to_end(&setup_s, &rec),
            report: probe_report,
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
    report.extend(probe_report);
    report.extend(crate::write_spans(config, &tr));
    Ok(Outcome {
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
        report,
    })
}
