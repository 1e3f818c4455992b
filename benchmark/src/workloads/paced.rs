//! `paced_detect`: open loop. Pre-encoded frames of the faulty capture's
//! fault region leave on a fixed schedule, whatever the system does, and
//! each delay sample runs from the instant a window-closing frame was
//! *due* to the receipt of that window's first event.

use super::wire::{connect_and_warm_up, reactor_counters, Digest, EncodedStream, Pipeline};
use super::{detector_config, prepare, Ctx, MarkerTimes, Segment};
use crate::inputs::{fold, CloseLog};
use crate::sys;
use saad_core::batch::SynopsisBatch;
use saad_core::detector::AnomalyEvent;
use saad_core::synopsis::TaskSynopsis;
use saad_sim::SimDuration;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Synopses per frame.
pub const FRAME: usize = 64;
/// Detection windows of two seconds: every window gives one delay sample,
/// and the median of a few hundred wake-up chains repeats where the median
/// of a few dozen does not.
pub const WINDOW: SimDuration = SimDuration::from_secs(2);
/// `thread::sleep` overshoots by about this much; the sender sleeps to
/// this far short of a due time and spins the rest.
const SLEEP_MARGIN: Duration = Duration::from_micros(70);

/// One frame of the global schedule.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Offset of the due time from the first timed frame's, in seconds.
    due_s: f64,
    conn: usize,
    frame: usize,
}

/// Due offset of a frame whose last synopsis is number `position` of the
/// global stream, when synopses happen at `rate` per second and the first
/// timed frame completes at `first_position`.
fn due_offset_s(position: u64, first_position: u64, rate: u64) -> f64 {
    (position - first_position) as f64 / rate as f64
}

/// What the sender thread reports back.
struct Sent {
    closes: CloseLog,
    lag_us: Vec<f64>,
    origin: Instant,
}

/// Send every slot at its due time. A frame leaves as soon as it is due
/// and the socket takes it; how late it left is recorded, and a frame the
/// socket refuses holds back everything behind it, as one agent would.
fn send_on_schedule(
    streams: &[EncodedStream],
    sockets: &mut [TcpStream],
    schedule: &[Slot],
    window: SimDuration,
) -> Sent {
    let mut closes = CloseLog::new(window);
    let mut lag_us = Vec::with_capacity(schedule.len());
    let origin = Instant::now();
    for slot in schedule {
        let due = origin + Duration::from_secs_f64(slot.due_s);
        loop {
            let now = Instant::now();
            if now >= due {
                lag_us.push((now - due).as_secs_f64() * 1e6);
                break;
            }
            let left = due - now;
            if left > SLEEP_MARGIN {
                std::thread::sleep(left - SLEEP_MARGIN);
            } else {
                std::hint::spin_loop();
            }
        }
        let stream = &streams[slot.conn];
        let meta = stream.frames[slot.frame];
        // The delay clock of a window starts when its closing frame was
        // due, not when the sender got round to it.
        closes.observe(meta.max_start, || due);
        let mut offset = stream.frames[slot.frame - 1].end;
        while offset < meta.end {
            match sockets[slot.conn].write(&stream.wire[offset..meta.end]) {
                Ok(n) => offset += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => panic!("sender write failed: {e}"),
            }
        }
    }
    Sent {
        closes,
        lag_us,
        origin,
    }
}

/// One set-up pass and timed segment of `paced_detect`.
pub fn run(ctx: &Ctx) -> Segment {
    let mut seg = Segment::default();
    let setup_started = Instant::now();
    let conns = ctx.conns;
    let config = detector_config(WINDOW);

    let (trained, stream) = prepare(ctx, &mut seg, true, config.window);

    // The stream: a fixed count of synopses from a twelfth of the capture
    // before the fault begins, so the segment spans the fault region.
    let from = ctx.scale.capture.as_micros() / 3 - ctx.scale.capture.as_micros() / 12;
    let first = stream
        .iter()
        .position(|s| s.start.as_micros() >= from)
        .expect("the capture reaches its fault region");
    let total = ctx.scale.paced_synopses + (conns * FRAME) as u64;
    let selected: &[TaskSynopsis] = &stream[first..first + total as usize];

    // Frames per connection. A frame is complete, and due, when its last
    // synopsis has happened in the global stream.
    let mut encoders: Vec<_> = (0..conns).map(EncodedStream::new).collect();
    let mut pending: Vec<Vec<TaskSynopsis>> = vec![Vec::with_capacity(FRAME); conns];
    let mut source: Vec<SynopsisBatch> = vec![SynopsisBatch::new(); conns];
    let mut expected = Digest::default();
    for (i, s) in selected.iter().enumerate() {
        let conn = fold(s.host, conns);
        expected.add_synopsis(s, SimDuration::ZERO);
        source[conn].push_synopsis(s, &trained.interner);
        pending[conn].push(s.clone());
        if pending[conn].len() == FRAME {
            let (stream, sender) = &mut encoders[conn];
            stream.push_frame(sender, &pending[conn], i as u64 + 1);
            pending[conn].clear();
        }
    }
    for (conn, rest) in pending.iter().enumerate() {
        if !rest.is_empty() {
            let (stream, sender) = &mut encoders[conn];
            stream.push_frame(sender, rest, total);
        }
    }
    drop(stream);
    let streams: Vec<EncodedStream> = encoders.into_iter().map(|(s, _)| s).collect();
    let sent: Vec<u64> = streams.iter().map(|s| s.synopses).collect();
    let warmup: u64 = streams
        .iter()
        .map(|s| u64::from(s.frames[0].synopses))
        .sum();
    let timed_bytes: usize = streams.iter().map(|s| s.wire.len() - s.warmup_end()).sum();
    seg.bytes_per_synopsis = timed_bytes as f64 / (total - warmup) as f64;

    // Global schedule of the timed frames, by completion position.
    let mut schedule: Vec<(u64, usize, usize)> = streams
        .iter()
        .enumerate()
        .flat_map(|(conn, s)| {
            s.frames
                .iter()
                .enumerate()
                .skip(1)
                .map(move |(frame, m)| (m.position, conn, frame))
        })
        .collect();
    schedule.sort_unstable();
    let first_position = schedule.first().map_or(0, |s| s.0);
    let schedule: Vec<Slot> = schedule
        .into_iter()
        .map(|(position, conn, frame)| Slot {
            due_s: due_offset_s(position, first_position, ctx.scale.paced_rate),
            conn,
            frame,
        })
        .collect();

    let frames: usize = streams.iter().map(|s| s.frames.len()).sum();
    let pipeline = Pipeline::spawn(ctx, trained, config, frames);
    let addr = pipeline.collector.local_addr();
    let mut sockets: Vec<TcpStream> = streams
        .iter()
        .map(|s| connect_and_warm_up(addr, s))
        .collect();
    pipeline.await_warm(warmup);
    let go = Arc::new(Barrier::new(2));
    let sender = {
        let go = go.clone();
        let streams = Arc::new(streams);
        std::thread::Builder::new()
            .name("bench-sender".into())
            .spawn(move || {
                go.wait();
                send_on_schedule(&streams, &mut sockets, &schedule, WINDOW)
                // Sockets close here, after the last frame was written.
            })
            .expect("spawn sender")
    };
    seg.setup_s = setup_started.elapsed().as_secs_f64();
    seg.setup_span = Some((setup_started, Instant::now()));

    let before = pipeline.registry.render();
    let calib_before = sys::calib_ms();
    let cpu_before = sys::process_cpu_ns();
    let mut markers = MarkerTimes::new(config.window);
    let mut events: Vec<AnomalyEvent> = Vec::new();
    go.wait();
    let ended = pipeline.await_processed(total, &mut markers, &mut events);
    seg.cpu_ns = sys::process_cpu_ns() - cpu_before;
    let sent_log = sender.join().expect("sender thread");
    seg.wall_s = (ended - sent_log.origin).as_secs_f64();
    seg.calib_ms = (calib_before, sys::calib_ms());
    let after = pipeline.registry.render();

    seg.attempted = total;
    seg.synopses = total - warmup;
    let tap = pipeline.finish(
        &mut seg,
        &sent,
        &source,
        // Nothing is replayed: no connection cycles through its source.
        ctx.scale.capture,
        expected,
        events,
        &mut markers,
    );
    seg.delays_ms = markers.delays_ms(std::slice::from_ref(&sent_log.closes));
    seg.gen_lag_us = sent_log.lag_us;
    reactor_counters(&mut seg, &before, &after);
    if let Some(tracer) = ctx.tracer {
        let root = tracer.record("segment", sent_log.origin, ended, None, 0);
        let at_tap = CloseLog::merge(std::slice::from_ref(&tap.closes));
        for (k, due, received) in markers.samples(std::slice::from_ref(&sent_log.closes)) {
            let parent = tracer.record("hop.due_to_event", due, received, Some(root), k);
            if let Some(&at) = at_tap.get(&k) {
                tracer.record("hop.due_to_tap", due, at.max(due), Some(parent), k);
                tracer.record("hop.tap_to_event", at, received, Some(parent), k);
            }
        }
    }
    seg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_stream_positions_not_send_progress() {
        // 200 000 synopses/s: the frame completed by synopsis 64 064 is
        // due 0.32 s after the one completed by synopsis 64.
        assert_eq!(due_offset_s(64, 64, 200_000), 0.0);
        assert!((due_offset_s(64_064, 64, 200_000) - 0.32).abs() < 1e-12);
        // Due times depend on positions only, so a late sender cannot
        // push them back: the next offset is the same whatever happened.
        assert!((due_offset_s(128, 64, 200_000) - 0.00032).abs() < 1e-12);
    }
}
