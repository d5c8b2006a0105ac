//! The seeded scenario generator. Everything the program under test sees —
//! documents, media blocks, wire bytes, read orders, fault plans and edit
//! scripts — is made here from `--seed`, together with the facts the checks
//! compare against (closed-form totals, block checksums, canonical texts).
//!
//! Inputs are drawn by stratified sampling: a round's size ladder, shape mix
//! and encoding share are fixed multisets whose *arrangement* the seed
//! chooses. Different seeds give different documents and orders while every
//! run does comparable work, so medians from different seeds can be compared.

use cmif::core::channel::MediaKind;
use cmif::core::descriptor::DataDescriptor;
use cmif::core::prelude::{DelayMs, DocumentBuilder, MaxDelay, NodeBuilder, RateInfo, SyncArc};
use cmif::core::time::TimeMs;
use cmif::core::tree::Document;
use cmif::media::{MediaBlock, MediaGenerator, MediaPayload};

use crate::rng::Rng;

/// Presentation length of every story title, in milliseconds.
pub const TITLE_MS: i64 = 5_000;

/// Per-story narration/film lengths the generator draws from. Lengths below
/// [`TITLE_MS`] make the title the longest event of its story.
pub const STORY_MS: [i64; 8] = [3_000, 9_000, 15_000, 21_000, 27_000, 33_000, 39_000, 45_000];

/// `(captions, graphics)` per story. Every shape has the same leaf count per
/// story, so document size alone sets the amount of scheduling work.
pub const SHAPES: [(usize, usize); 4] = [(5, 3), (4, 4), (6, 2), (3, 5)];

/// Video geometry of a broadcast: `(width, height, fps, colour depth)`.
pub const VIDEO: [(u32, u32, f64, u8); 4] = [
    (320, 240, 25.0, 24),
    (480, 360, 12.5, 24),
    (320, 240, 12.0, 8),
    (704, 576, 25.0, 8),
];

/// Raster size of a broadcast's graphics.
pub const GRAPHICS: [(u32, u32); 3] = [(640, 480), (800, 600), (320, 240)];

/// Audio sampling rates.
pub const AUDIO_RATES: [u32; 2] = [8_000, 22_050];

/// One generated broadcast in the shape of `cmif::synthetic::SyntheticNews`:
/// a sequence of parallel stories, each with narration, film, a graphics
/// track, a captions track and a title; optionally the Figure 10 arcs
/// (graphics onto narration, captions onto film). Media keys carry a
/// per-document prefix, so many broadcasts share one store.
#[derive(Debug, Clone, PartialEq)]
pub struct Broadcast {
    /// Media-key prefix, unique per document.
    pub prefix: String,
    /// Narration/film length of each story, in milliseconds.
    pub story_ms: Vec<i64>,
    /// Captions per story.
    pub captions: usize,
    /// Graphics per story.
    pub graphics: usize,
    /// Whether each story carries the two explicit arcs.
    pub explicit_arcs: bool,
    /// Video geometry `(width, height, fps, depth)`.
    pub video: (u32, u32, f64, u8),
    /// Graphic raster size.
    pub graphic_res: (u32, u32),
    /// Audio sampling rate.
    pub audio_rate: u32,
}

impl Broadcast {
    /// Draws a broadcast of `stories` stories with the given shape. Story
    /// lengths cycle through [`STORY_MS`] in seeded order, so documents of
    /// one size have (nearly) the same total length.
    pub fn draw(
        rng: &mut Rng,
        prefix: String,
        stories: usize,
        shape: (usize, usize),
        explicit_arcs: bool,
    ) -> Broadcast {
        Broadcast {
            prefix,
            story_ms: stratified(rng, &STORY_MS, stories),
            captions: shape.0,
            graphics: shape.1,
            explicit_arcs,
            video: *rng.pick(&VIDEO),
            graphic_res: *rng.pick(&GRAPHICS),
            audio_rate: *rng.pick(&AUDIO_RATES),
        }
    }

    /// Number of stories.
    pub fn stories(&self) -> usize {
        self.story_ms.len()
    }

    /// Number of leaf events in the built document.
    pub fn leaves(&self) -> usize {
        self.stories() * (3 + self.captions + self.graphics)
    }

    /// Media key of one story's narration.
    pub fn audio_key(&self, story: usize) -> String {
        format!("{}/s{story}/audio", self.prefix)
    }

    /// Media key of one story's film.
    pub fn video_key(&self, story: usize) -> String {
        format!("{}/s{story}/video", self.prefix)
    }

    /// Media key of one story's `index`-th graphic.
    pub fn graphic_key(&self, story: usize, index: usize) -> String {
        format!("{}/s{story}/graphic-{index}", self.prefix)
    }

    /// The closed-form schedule total: stories play in sequence, and each
    /// lasts as long as its longest event. Narration and film last the
    /// story length, the graphics and captions tracks split it evenly
    /// (rounding down, so never longer), and the title lasts
    /// [`TITLE_MS`]. The arcs start their tracks with the story, so they
    /// do not change the total.
    pub fn expected_total_ms(&self) -> i64 {
        self.story_ms.iter().map(|&ms| ms.max(TITLE_MS)).sum()
    }

    /// Every data descriptor the document references, in key order of
    /// generation.
    pub fn descriptors(&self) -> Vec<DataDescriptor> {
        let (vw, vh, fps, depth) = self.video;
        let mut out = Vec::new();
        for (story, &ms) in self.story_ms.iter().enumerate() {
            out.push(audio_descriptor(
                &self.audio_key(story),
                ms,
                self.audio_rate,
            ));
            let frame_bytes = vw as u64 * vh as u64 * (depth as u64 / 8).max(1);
            out.push(
                DataDescriptor::new(self.video_key(story), MediaKind::Video, "raster-video")
                    .with_duration(TimeMs::from_millis(ms))
                    .with_size(frame_bytes * ((ms as f64 / 1000.0) * fps).round() as u64)
                    .with_resolution(vw, vh)
                    .with_color_depth(depth)
                    .with_rates(RateInfo::video(fps)),
            );
            for index in 0..self.graphics {
                let (gw, gh) = self.graphic_res;
                out.push(
                    DataDescriptor::new(
                        self.graphic_key(story, index),
                        MediaKind::Image,
                        "raster24",
                    )
                    .with_size(gw as u64 * gh as u64 * 3)
                    .with_resolution(gw, gh)
                    .with_color_depth(24),
                );
            }
        }
        out
    }

    /// Builds the document. The descriptors ride along in its catalog, so
    /// the wire form is self-describing; the pipeline resolves them against
    /// its store.
    pub fn build(&self) -> Document {
        let mut builder = DocumentBuilder::new(format!("broadcast {}", self.prefix))
            .channel("audio", MediaKind::Audio)
            .channel("video", MediaKind::Video)
            .channel("graphic", MediaKind::Image)
            .channel("caption", MediaKind::Text)
            .channel("label", MediaKind::Label);
        for descriptor in self.descriptors() {
            builder = builder.descriptor(descriptor);
        }
        builder
            .root_seq(|news| {
                for story in 0..self.stories() {
                    news.par(&format!("story-{story}"), |s| self.build_story(s, story));
                }
            })
            .build()
            .expect("generated broadcasts are valid by construction")
    }

    fn build_story(&self, s: &mut NodeBuilder<'_>, story: usize) {
        let ms = self.story_ms[story];
        s.ext("narration", "audio", &self.audio_key(story));
        s.ext("film", "video", &self.video_key(story));
        s.seq("graphics", |track| {
            let each_ms = ms / self.graphics as i64;
            for index in 0..self.graphics {
                track.ext_with(
                    &format!("graphic-{index}"),
                    "graphic",
                    &self.graphic_key(story, index),
                    |n| {
                        n.duration_ms(each_ms);
                    },
                );
            }
            if self.explicit_arcs {
                track.arc(
                    SyncArc::hard_start(format!("/story-{story}/narration").as_str(), "")
                        .with_window(DelayMs::ZERO, MaxDelay::Bounded(DelayMs::from_millis(500))),
                );
            }
        });
        s.seq("captions", |track| {
            let each_ms = ms / self.captions as i64;
            for index in 0..self.captions {
                track.imm_text(
                    &format!("caption-{index}"),
                    "caption",
                    format!("story {story} caption {index}: witnesses report new developments"),
                    each_ms,
                );
            }
            if self.explicit_arcs {
                track.arc(
                    SyncArc::hard_start(format!("/story-{story}/film").as_str(), "")
                        .with_window(DelayMs::ZERO, MaxDelay::Bounded(DelayMs::from_millis(250))),
                );
            }
        });
        s.imm_text("title", "label", format!("Story {story}"), TITLE_MS);
    }

    /// Small media blocks for every descriptor. The descriptors carry the
    /// nominal sizes; the payloads are kept small (a few KiB at most) so a
    /// corpus of thousands of blocks stays light. `scale` (≥ 1) multiplies
    /// the payload sizes.
    pub fn blocks(
        &self,
        media: &mut MediaGenerator,
        scale: u32,
    ) -> Vec<(MediaBlock, DataDescriptor)> {
        self.descriptors()
            .into_iter()
            .map(|descriptor| {
                let key = descriptor.key.as_str();
                let block = match descriptor.medium {
                    MediaKind::Audio => media.audio(key, 40 * scale as i64, 8_000),
                    MediaKind::Video => media.video(key, 80, 8 * scale, 6 * scale, 25.0, 24),
                    _ => media.image(key, 8 * scale, 6 * scale, 24),
                };
                (block, descriptor)
            })
            .collect()
    }
}

/// The descriptor of a narration track.
pub fn audio_descriptor(key: &str, ms: i64, rate: u32) -> DataDescriptor {
    DataDescriptor::new(key, MediaKind::Audio, "pcm8")
        .with_duration(TimeMs::from_millis(ms))
        .with_size(ms as u64 * rate as u64 / 1000)
        .with_rates(RateInfo::audio(rate, rate as u64))
}

/// A 64-bit FNV-1a checksum of a media payload: its variant, geometry and
/// bytes.
pub fn payload_checksum(payload: &MediaPayload) -> u64 {
    fn mix(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= b as u64;
            *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    match payload {
        MediaPayload::Audio {
            sample_rate,
            samples,
        } => {
            mix(&mut hash, b"audio");
            mix(&mut hash, &sample_rate.to_le_bytes());
            mix(&mut hash, samples);
        }
        MediaPayload::Video {
            width,
            height,
            fps,
            color_depth,
            frames,
            frame_count,
        } => {
            mix(&mut hash, b"video");
            mix(&mut hash, &width.to_le_bytes());
            mix(&mut hash, &height.to_le_bytes());
            mix(&mut hash, &fps.to_bits().to_le_bytes());
            mix(&mut hash, &[*color_depth]);
            mix(&mut hash, &frame_count.to_le_bytes());
            mix(&mut hash, frames);
        }
        MediaPayload::Image {
            width,
            height,
            color_depth,
            pixels,
        } => {
            mix(&mut hash, b"image");
            mix(&mut hash, &width.to_le_bytes());
            mix(&mut hash, &height.to_le_bytes());
            mix(&mut hash, &[*color_depth]);
            mix(&mut hash, pixels);
        }
        other => mix(&mut hash, format!("{other:?}").as_bytes()),
    }
    hash
}

/// Spreads `count` items over `values` as evenly as possible, then shuffles:
/// each value appears `count / len` or one more times.
pub fn stratified<T: Clone>(rng: &mut Rng, values: &[T], count: usize) -> Vec<T> {
    let mut out: Vec<T> = (0..count)
        .map(|i| values[i % values.len()].clone())
        .collect();
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmif::scheduler::{ConstraintGraph, ScheduleOptions};

    fn solve_total(doc: &Document) -> i64 {
        ConstraintGraph::derive(doc, &doc.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(doc, &doc.catalog)
            .unwrap()
            .schedule
            .total_duration
            .as_millis()
    }

    #[test]
    fn closed_form_total_matches_the_solver_on_varied_shapes() {
        let mut rng = Rng::new(11);
        for (i, shape) in SHAPES.iter().enumerate() {
            for arcs in [false, true] {
                let broadcast =
                    Broadcast::draw(&mut rng, format!("t{i}{arcs}"), 5 + i, *shape, arcs);
                let doc = broadcast.build();
                assert_eq!(doc.leaves().len(), broadcast.leaves());
                assert_eq!(
                    doc.arcs().len(),
                    if arcs { 2 * broadcast.stories() } else { 0 }
                );
                assert_eq!(solve_total(&doc), broadcast.expected_total_ms());
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Broadcast::draw(&mut Rng::new(5), "p".into(), 6, SHAPES[0], true);
        let b = Broadcast::draw(&mut Rng::new(5), "p".into(), 6, SHAPES[0], true);
        assert_eq!(a, b);
        let c = Broadcast::draw(&mut Rng::new(6), "p".into(), 6, SHAPES[0], true);
        assert_ne!(a, c);
    }

    #[test]
    fn stratified_keeps_the_multiset() {
        let mut rng = Rng::new(2);
        let mut drawn = stratified(&mut rng, &[1, 2, 3], 9);
        drawn.sort();
        assert_eq!(drawn, vec![1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }
}
