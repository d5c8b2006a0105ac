//! Output checks computed apart from the program. None compares against
//! stored output; each holds for any seed.
//!
//! * (a) the schedule total equals the generator's closed form;
//! * (b) a plain Bellman–Ford over the solve's constraints reproduces every
//!   node's begin and end;
//! * (c) the filter plan matches what the descriptors and device imply;
//! * (d) playback reports are complete, causal and worker-count independent;
//! * (e) decoded documents re-encode to the same bytes;
//! * (f) cluster reads return the published document and intact blocks, and
//!   repair restores the replication factor;
//! * (g) incremental edits match a cold solve, and a revision swap leaves the
//!   delivered history alone.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use cmif::core::channel::MediaKind;
use cmif::core::descriptor::DataDescriptor;
use cmif::core::node::NodeId;
use cmif::core::time::TimeMs;
use cmif::core::tree::Document;
use cmif::pipeline::{DeviceProfile, FilterPlan};
use cmif::scheduler::{Constraint, PlaybackEvent, PlaybackReport, Schedule};

/// A failed check: which one, on which op, and what differed.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckFailure {
    /// The check's letter and name, e.g. `(b) bellman-ford`.
    pub check: &'static str,
    /// The op (counted from 1 in the run) whose output failed.
    pub op: u64,
    /// What differed.
    pub detail: String,
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "check {} failed on op {}: {}",
            self.check, self.op, self.detail
        )
    }
}

/// The result of one check.
pub type Checked = Result<(), CheckFailure>;

/// Fails `check` on `op` unless `ok`.
pub fn ensure(ok: bool, check: &'static str, op: u64, detail: impl FnOnce() -> String) -> Checked {
    if ok {
        Ok(())
    } else {
        Err(CheckFailure {
            check,
            op,
            detail: detail(),
        })
    }
}

/// (a) The schedule's total equals the expected closed-form total.
pub fn total(schedule: &Schedule, expected_ms: i64, op: u64) -> Checked {
    let got = schedule.total_duration.as_millis();
    ensure(got == expected_ms, "(a) closed-form total", op, || {
        format!("schedule total {got} ms, closed form {expected_ms} ms")
    })
}

/// Sorted `(node index, begin, end)` rows of a schedule. `Schedule::node_times`
/// is a `HashMap`, so only a sorted view compares across processes.
pub fn node_rows(schedule: &Schedule) -> Vec<(usize, i64, i64)> {
    let mut rows: Vec<(usize, i64, i64)> = schedule
        .node_times
        .iter()
        .map(|(node, (begin, end))| (node.index(), begin.as_millis(), end.as_millis()))
        .collect();
    rows.sort_unstable();
    rows
}

/// Plain Bellman–Ford from zero over the constraints' lower bounds: every
/// event point of every node starts at 0 and is raised to
/// `t(source) + offset + min_delay` until nothing changes. Returns sorted
/// `(node index, begin, end)` rows, ends clamped to begins, or `None` when the
/// relaxation does not settle (a positive cycle).
pub fn bellman_ford(doc: &Document, constraints: &[Constraint]) -> Option<Vec<(usize, i64, i64)>> {
    let nodes = doc.preorder();
    let slots = nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0);
    let point = |p: &cmif::scheduler::EventPoint| -> usize {
        2 * p.node.index() + usize::from(p.anchor == cmif::core::arc::Anchor::End)
    };
    let mut t = vec![0i64; 2 * slots];
    let mut settled = false;
    for _ in 0..=2 * slots {
        let mut changed = false;
        for c in constraints {
            let (s, d) = (point(&c.source), point(&c.target));
            if s >= t.len() || d >= t.len() {
                return None;
            }
            let bound = t[s] + c.offset_ms + c.min_delay_ms;
            if bound > t[d] {
                t[d] = bound;
                changed = true;
            }
        }
        if !changed {
            settled = true;
            break;
        }
    }
    if !settled {
        return None;
    }
    let mut rows: Vec<(usize, i64, i64)> = nodes
        .iter()
        .map(|n| {
            let (b, e) = (t[2 * n.index()], t[2 * n.index() + 1]);
            (n.index(), b, e.max(b))
        })
        .collect();
    rows.sort_unstable();
    Some(rows)
}

/// (b) The reference relaxation reproduces the solver's node times.
pub fn schedule_matches_reference(
    doc: &Document,
    schedule: &Schedule,
    constraints: &[Constraint],
    op: u64,
) -> Checked {
    let reference = bellman_ford(doc, constraints);
    let got = node_rows(schedule);
    ensure(
        reference.as_ref() == Some(&got),
        "(b) bellman-ford",
        op,
        || match reference {
            None => "reference relaxation did not settle".to_string(),
            Some(rows) => {
                let first = rows.iter().zip(&got).find(|(a, b)| a != b);
                format!(
                    "{} reference rows vs {} solver rows; first difference {first:?}",
                    rows.len(),
                    got.len()
                )
            }
        },
    )
}

/// What a device's filter plan must contain, derived from descriptors and
/// the device's fields: the number of blocks needing any degradation, and
/// the channels whose medium the device cannot present at all.
pub fn expected_filter(
    descriptors: &[DataDescriptor],
    channels: &[(String, MediaKind)],
    device: &DeviceProfile,
) -> (usize, Vec<String>) {
    let presents = |medium: MediaKind| device.display.is_some() || medium == MediaKind::Audio;
    let mut seen = BTreeSet::new();
    let mut degraded = 0;
    for d in descriptors {
        if !seen.insert(d.key) {
            continue;
        }
        let dropped = !presents(d.medium) && d.medium != MediaKind::Generator;
        let too_big = match (d.resolution, device.display) {
            (Some((w, h)), Some((dw, dh))) => w > dw || h > dh,
            _ => false,
        };
        let too_deep = matches!((d.color_depth, device.color_depth), (Some(b), Some(db)) if b > db);
        let too_fast = match d.rates.frames_per_second {
            Some(fps) => device.max_frame_rate > 0.0 && fps > device.max_frame_rate,
            None => false,
        };
        let too_wide = d.medium == MediaKind::Audio
            && d.rates
                .samples_per_second
                .is_some_and(|rate| device.bandwidth_bps < rate as u64 * 4);
        if dropped || too_big || too_deep || too_fast || too_wide {
            degraded += 1;
        }
    }
    let mut dropped: Vec<String> = channels
        .iter()
        .filter(|(_, medium)| !presents(*medium))
        .map(|(name, _)| name.clone())
        .collect();
    dropped.sort();
    (degraded, dropped)
}

/// The channel dictionary of a document as `(name, medium)` pairs.
pub fn channels_of(doc: &Document) -> Vec<(String, MediaKind)> {
    doc.channels
        .iter()
        .map(|c| (c.name.as_str().to_string(), c.medium))
        .collect()
}

/// (c) The filter plan matches the derived expectation.
pub fn filter_plan(plan: &FilterPlan, expected: &(usize, Vec<String>), op: u64) -> Checked {
    let mut dropped: Vec<String> = plan
        .dropped_channels
        .iter()
        .map(|c| c.as_str().to_string())
        .collect();
    dropped.sort();
    let got = (plan.degraded_blocks(), dropped);
    ensure(&got == expected, "(c) filter plan", op, || {
        format!("plan (degraded, dropped) = {got:?}, derived {expected:?}")
    })
}

/// (d) One playback report: one event per leaf, none before its scheduled
/// begin, and a total no shorter than the schedule's.
pub fn playback(report: &PlaybackReport, schedule: &Schedule, leaves: usize, op: u64) -> Checked {
    ensure(report.events.len() == leaves, "(d) playback", op, || {
        format!("{} events for {leaves} leaves", report.events.len())
    })?;
    let scheduled: HashMap<NodeId, TimeMs> =
        schedule.entries.iter().map(|e| (e.node, e.begin)).collect();
    for event in &report.events {
        let begin = scheduled.get(&event.node).copied();
        ensure(
            begin.is_some_and(|b| event.actual_begin >= b && event.scheduled_begin == b),
            "(d) playback",
            op,
            || {
                format!(
                    "event {} began at {:?}, scheduled {begin:?}",
                    event.node, event.actual_begin
                )
            },
        )?;
    }
    ensure(
        report.total_duration >= schedule.total_duration,
        "(d) playback",
        op,
        || {
            format!(
                "report total {:?} shorter than schedule total {:?}",
                report.total_duration, schedule.total_duration
            )
        },
    )
}

/// (e) Decoding then re-encoding in the same wire form reproduces the bytes.
pub fn reencodes(bytes: &[u8], op: u64) -> Checked {
    let again = cmif::format::read_document_bytes(bytes)
        .and_then(|(doc, encoding)| cmif::format::document_to_bytes(&doc, encoding));
    ensure(
        again.as_deref().ok() == Some(bytes),
        "(e) re-encode",
        op,
        || match again {
            Ok(b) => format!("{} bytes in, {} bytes re-encoded", bytes.len(), b.len()),
            Err(e) => format!("decode/encode failed: {e}"),
        },
    )
}

/// Name of the check that a revision swap keeps delivered history.
pub const HISTORY: &str = "(g) swap keeps history";

/// Delivered playback history: every `Started`/`Ended` event polled so far.
#[derive(Debug, Default)]
pub struct History {
    delivered: HashMap<NodeId, (TimeMs, Option<TimeMs>)>,
}

impl History {
    /// Records polled events.
    pub fn record(&mut self, events: &[PlaybackEvent]) {
        for event in events {
            match event {
                PlaybackEvent::Started { node, at, .. } => {
                    self.delivered.insert(*node, (*at, None));
                }
                PlaybackEvent::Ended { node, at } => {
                    if let Some(entry) = self.delivered.get_mut(node) {
                        entry.1 = Some(*at);
                    }
                }
                _ => {}
            }
        }
    }

    /// (g) After a revision swap, every delivered begin (and end) is still
    /// what the report says.
    pub fn unchanged_in(&self, report: &PlaybackReport, op: u64) -> Checked {
        let events: HashMap<NodeId, (TimeMs, TimeMs)> = report
            .events
            .iter()
            .map(|e| (e.node, (e.actual_begin, e.actual_end)))
            .collect();
        for (node, (begin, end)) in &self.delivered {
            let now = events.get(node).copied();
            let kept = now.is_some_and(|(b, e)| b == *begin && end.is_none_or(|end| e == end));
            ensure(kept, HISTORY, op, || {
                format!("event {node} delivered as ({begin:?}, {end:?}), report now {now:?}")
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Broadcast, SHAPES};
    use crate::rng::Rng;
    use cmif::scheduler::{ConstraintGraph, ScheduleOptions};

    fn solved(b: &Broadcast) -> (Document, cmif::scheduler::SolveResult) {
        let doc = b.build();
        let result = ConstraintGraph::derive(&doc, &doc.catalog, &ScheduleOptions::default())
            .unwrap()
            .solve(&doc, &doc.catalog)
            .unwrap();
        (doc, result)
    }

    #[test]
    fn reference_relaxation_agrees_with_the_solver() {
        let b = Broadcast::draw(&mut Rng::new(4), "c".into(), 6, SHAPES[1], true);
        let (doc, result) = solved(&b);
        schedule_matches_reference(&doc, &result.schedule, &result.constraints, 1).unwrap();
        total(&result.schedule, b.expected_total_ms(), 1).unwrap();
    }

    #[test]
    fn a_wrong_expected_total_fails_check_a() {
        let b = Broadcast::draw(&mut Rng::new(4), "c".into(), 3, SHAPES[0], false);
        let (_, result) = solved(&b);
        let failure = total(&result.schedule, b.expected_total_ms() + 1, 7).unwrap_err();
        assert_eq!(failure.check, "(a) closed-form total");
        assert_eq!(failure.op, 7);
    }

    #[test]
    fn a_perturbed_schedule_fails_check_b() {
        let b = Broadcast::draw(&mut Rng::new(9), "c".into(), 2, SHAPES[2], true);
        let (doc, mut result) = solved(&b);
        let root = doc.root().unwrap();
        result.schedule.node_times.get_mut(&root).unwrap().1 = TimeMs::from_millis(1);
        assert!(
            schedule_matches_reference(&doc, &result.schedule, &result.constraints, 1).is_err()
        );
    }

    #[test]
    fn filter_expectation_follows_the_device() {
        let b = Broadcast {
            video: (704, 576, 25.0, 8),
            graphic_res: (640, 480),
            ..Broadcast::draw(&mut Rng::new(1), "f".into(), 2, SHAPES[0], false)
        };
        let doc = b.build();
        let channels = channels_of(&doc);
        let descriptors = b.descriptors();
        // Workstation: nothing degrades.
        assert_eq!(
            expected_filter(&descriptors, &channels, &DeviceProfile::workstation()).0,
            0
        );
        // Low-end PC: oversized, fast video and 24-bit graphics degrade.
        let low = expected_filter(&descriptors, &channels, &DeviceProfile::low_end_pc());
        assert_eq!(low, (2 + 2 * 3, vec![]));
        // Kiosk: everything but audio is dropped.
        let kiosk = expected_filter(&descriptors, &channels, &DeviceProfile::audio_kiosk());
        assert_eq!(kiosk.0, 2 + 2 * 3);
        assert_eq!(kiosk.1, vec!["caption", "graphic", "label", "video"]);
    }
}
