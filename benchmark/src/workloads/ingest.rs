//! `collector_ingest`: pre-encoded frame streams written by one
//! non-blocking sender thread into `ReactorCollector::bind_soa`; the
//! benchmark drains and counts the SoA batches. Readiness, ring
//! reassembly, CRC, `decode_batch_into`, interning and admission do all the
//! work; tracker, agent and analyzer do none.

use super::wire::{
    bind_collector, connect_and_warm_up, hello_len, reactor_counters, verify_links, Digest,
    EncodedStream,
};
use super::{Ctx, Sabotage, Segment, CHANNEL_BOUND};
use crate::inputs::{capture, fold, CloseLog};
use crate::sys;
use crossbeam_channel::{bounded, unbounded};
use saad_core::batch::SynopsisBatch;
use saad_core::intern::SignatureInterner;
use saad_core::synopsis::TaskSynopsis;
use saad_core::transport::LossReport;
use saad_sim::SimDuration;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Synopses per frame, sized like a small agent flush.
pub const FRAME: usize = 32;
/// Boundaries the delivery-delay samples are taken at.
pub const WINDOW: SimDuration = SimDuration::from_secs(10);

/// Encode the stream of connection `conn`: every synopsis of `capture`
/// whose host folds onto it, replayed (each replay one capture length
/// later) until the connection has shipped its share of `total`.
fn encode_connection(
    capture: &[TaskSynopsis],
    period: SimDuration,
    conn: usize,
    conns: usize,
    share: u64,
) -> (EncodedStream, Digest) {
    let (mut stream, mut sender) = EncodedStream::new(conn);
    let mut digest = Digest::default();
    let mut frame: Vec<TaskSynopsis> = Vec::with_capacity(FRAME);
    let mut position = 0u64;
    'replays: for replay in 0u64.. {
        let shift = SimDuration::from_micros(period.as_micros() * replay);
        for s in capture.iter().filter(|s| fold(s.host, conns) == conn) {
            let mut s = s.clone();
            s.start += shift;
            digest.add_synopsis(&s, SimDuration::ZERO);
            frame.push(s);
            position += 1;
            if frame.len() == FRAME || position == share {
                stream.push_frame(&mut sender, &frame, position);
                frame.clear();
            }
            if position == share {
                break 'replays;
            }
        }
    }
    (stream, digest)
}

/// Write every stream to its socket, round-robin and non-blocking, so that all connections stay full at once; sleep when no
/// socket takes bytes so the collector gets the CPU.
fn send_all(streams: &[EncodedStream], sockets: &mut [TcpStream], window: SimDuration) -> CloseLog {
    let mut closes = CloseLog::new(window);
    let mut offsets: Vec<usize> = streams.iter().map(EncodedStream::warmup_end).collect();
    let ends: Vec<usize> = streams.iter().map(|s| s.wire.len()).collect();
    let mut next_frame = vec![1usize; streams.len()];
    let mut open = streams.len();
    while open > 0 {
        let mut progressed = false;
        for (conn, stream) in streams.iter().enumerate() {
            while offsets[conn] < ends[conn] {
                match sockets[conn].write(&stream.wire[offsets[conn]..ends[conn]]) {
                    Ok(n) => {
                        offsets[conn] += n;
                        progressed = true;
                        // Frames this write completed.
                        while let Some(f) = stream.frames.get(next_frame[conn]) {
                            if f.end > offsets[conn] {
                                break;
                            }
                            closes.observe(f.max_start, Instant::now);
                            next_frame[conn] += 1;
                        }
                        if offsets[conn] == ends[conn] {
                            open -= 1;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => panic!("sender write failed: {e}"),
                }
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    closes
}

/// One set-up pass and timed segment of `collector_ingest`.
pub fn run(ctx: &Ctx) -> Segment {
    let mut seg = Segment::default();
    let setup_started = Instant::now();
    let conns = ctx.conns;

    let t = Instant::now();
    let healthy = capture(ctx.seed, false, ctx.scale.capture);
    seg.capture_s = t.elapsed().as_secs_f64();

    // Every connection ships the same fixed share plus one warm-up frame.
    let share = ctx.scale.ingest_synopses / conns as u64 + FRAME as u64;
    let period = ctx.scale.capture;
    let mut encoded: Vec<(EncodedStream, Digest)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                let healthy = &healthy;
                scope.spawn(move || encode_connection(healthy, period, conn, conns, share))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("encoder thread"))
            .collect()
    });
    drop(healthy);
    if ctx.sabotage == Sabotage::FlipFrameByte {
        encoded[0].0.flip_a_byte();
    }
    let mut expected = Digest::default();
    encoded.iter().for_each(|(_, d)| expected.merge(*d));
    let streams: Vec<EncodedStream> = encoded.into_iter().map(|(s, _)| s).collect();
    let sent: Vec<u64> = streams.iter().map(|s| s.synopses).collect();
    let total: u64 = sent.iter().sum();
    let warmup = (conns * FRAME) as u64;
    let wire_bytes: usize = streams.iter().map(|s| s.wire.len() - hello_len()).sum();
    seg.bytes_per_synopsis = wire_bytes as f64 / total as f64;

    let (batch_tx, batch_rx) = bounded::<SynopsisBatch>(CHANNEL_BOUND);
    let (loss_tx, loss_rx) = unbounded::<LossReport>();
    let interner = Arc::new(SignatureInterner::new());
    let (collector, registry) = bind_collector(batch_tx, interner.clone(), loss_tx);
    let addr = collector.local_addr();

    // The drain: the benchmark's own consumer of the collector's output.
    let window = WINDOW;
    let drain = std::thread::Builder::new()
        .name("bench-drain".into())
        .spawn(move || {
            let mut digest = Digest::default();
            let mut arrivals = CloseLog::new(window);
            let mut last = Instant::now();
            for batch in batch_rx.iter() {
                last = Instant::now();
                digest.add_batch(&batch);
                let newest = *batch.watermarks.last().expect("no empty batch");
                arrivals.observe(newest, || last);
            }
            (digest, arrivals, last)
        })
        .expect("spawn drain");

    let mut sockets: Vec<TcpStream> = streams
        .iter()
        .map(|s| connect_and_warm_up(addr, s))
        .collect();
    while collector.stats().synopses < warmup {
        std::thread::sleep(Duration::from_micros(200));
    }
    let go = Arc::new(Barrier::new(2));
    let sender = {
        let go = go.clone();
        std::thread::Builder::new()
            .name("bench-sender".into())
            .spawn(move || {
                go.wait();
                send_all(&streams, &mut sockets, window)
                // Sockets close here, after everything was written.
            })
            .expect("spawn sender")
    };
    seg.setup_s = setup_started.elapsed().as_secs_f64();
    seg.setup_span = Some((setup_started, Instant::now()));

    let before = registry.render();
    let calib_before = sys::calib_ms();
    let cpu_before = sys::process_cpu_ns();
    let started = Instant::now();
    go.wait();
    // A frame with a flipped byte (sabotage) never arrives; the next frame
    // of its connection reveals the loss, so delivered + lost still gets
    // to the total.
    loop {
        let s = collector.stats();
        if s.synopses + s.lost_synopses >= total {
            break;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    seg.cpu_ns = sys::process_cpu_ns() - cpu_before;
    let after = registry.render();
    let written = sender.join().expect("sender thread");
    seg.calib_ms = (calib_before, sys::calib_ms());

    seg.attempted = total;
    seg.synopses = total - warmup;
    verify_links(&mut seg, &collector, &sent);
    let delivered = collector.stats().synopses;
    collector.shutdown();
    let (digest, arrivals, last_batch) = drain.join().expect("drain thread");
    // The drain stamps the last batch exactly; the poll above only bounds it.
    seg.wall_s = (last_batch - started).as_secs_f64();
    seg.timed_span = Some((started, last_batch));
    if delivered < seg.attempted {
        seg.fail_some(
            seg.attempted - delivered,
            format!(
                "collector delivered {delivered} of {} synopses",
                seg.attempted
            ),
        );
    }
    if digest != expected {
        seg.fail_all(format!(
            "drained batches differ from what was sent ({} of {} synopses, digest {})",
            digest.count,
            expected.count,
            if digest.sum == expected.sum {
                "equal"
            } else {
                "differs"
            }
        ));
    }
    if loss_rx.try_iter().count() > 0 {
        seg.fail_all("the collector reported loss on a clean wire".into());
    }
    reactor_counters(&mut seg, &before, &after);
    seg.counters.insert(
        "net.reactor_collector.ingest_ns",
        seg.wall_s * 1e9 / seg.synopses as f64,
    );
    seg.counters
        .insert("core.intern.signatures", interner.len() as f64);

    // Delay: frame fully written -> its batch out of the collector, at
    // every window boundary of the stream.
    let written = CloseLog::merge(std::slice::from_ref(&written));
    let arrived = CloseLog::merge(std::slice::from_ref(&arrivals));
    let mut samples: Vec<(u64, Instant, Instant)> = arrived
        .iter()
        .filter_map(|(&k, &at)| written.get(&k).map(|&due| (k, due, at.max(due))))
        .collect();
    samples.sort_unstable_by_key(|s| s.0);
    seg.delays_ms = samples
        .iter()
        .map(|(_, due, at)| (*at - *due).as_secs_f64() * 1e3)
        .collect();
    if let Some(tracer) = ctx.tracer {
        let root = tracer.record("segment", started, last_batch, None, 0);
        for (k, due, at) in samples {
            tracer.record("hop.written_to_drained", due, at, Some(root), k);
        }
    }
    seg
}
