//! Wire-path ingest throughput — pre-encoded frame streams → localhost
//! TCP → the readiness-driven collector, as a fan-in sweep.
//!
//! The aggregate synopsis ingest rate of one `ReactorCollector` (N event
//! loops: vectored reads into per-connection rings, in-place decode into
//! SoA `SynopsisBatch` columns, signatures interned at the collector) at
//! 1 → 4096 concurrent connections, written to `BENCH_net_ingest.json`.
//! Sender cost is kept off the books: every connection's entire byte
//! stream (handshake + length-prefixed frames) is encoded *before* the
//! clock starts, so sender threads do nothing but `write(2)` — the
//! measured path is the collector's accept, readiness, reassembly, CRC,
//! decode, and admission work, not `encode_frame`.
//!
//! The timed region is steady-state ingest only. Each sender ships one
//! warmup frame and parks on a barrier; the clock starts once every
//! connection is accepted, handshaken, and decoding (first admission
//! seen), and stops at the last admission. The waiter sleeps rather than
//! spins: a `yield_now` loop here steals the CPU from the loop threads on
//! a single-core box and deflates mid-size rows by ~40%.
//!
//! The whole process confines itself to CPU 0 before it spawns a thread:
//! the curve answers what one core's worth of collector can ingest when
//! thousands of connections share it. The JSON records `cores` as the
//! process saw them: 1 when the pin held.
//!
//! Asserted: every row exact (synopses, lost, corrupted, duplicates,
//! connections), and a flat per-synopsis cost from 16 to 4096
//! connections (≤ 2×) — readiness scheduling must not degrade with
//! fan-in. The reactor-vs-threaded floors this bench used to hold went
//! with the threaded collector: a ratio with no denominator cannot be
//! asserted (EXPERIMENTS.md, "One collector"). CI compares the best row
//! against the committed JSON, warn-only.

use crossbeam_channel::unbounded;
use saad_core::batch::SynopsisBatch;
use saad_core::intern::SignatureInterner;
use saad_core::synopsis::TaskSynopsis;
use saad_core::transport::FrameSender;
use saad_core::{HostId, StageId, TaskUid};
use saad_logging::LogPointId;
use saad_net::protocol::{
    decode_hello_ack, encode_hello, read_full, write_message, Hello, PeerRole, HELLO_ACK_LEN,
    PINNED_EPOCH, PROTOCOL_VERSION,
};
use saad_net::{ReactorCollector, ReactorCollectorConfig};
use saad_sim::{SimDuration, SimTime};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Synopses each connection ships at low connection counts.
const MAX_PER_CONN: u64 = 40_000;
/// Aggregate cap: high-fanout rows shrink the per-connection workload so
/// a 1024-connection row finishes in the same ballpark of wall time.
const TOTAL_CAP: u64 = 1_280_000;
/// Floor under the cap: every connection ships at least this much, so
/// each stream overflows the clamped kernel socket buffers many times
/// over and the high-fanout rows measure *sustained* ingest — without
/// the floor the whole workload of a 256-connection row fits in kernel
/// buffers, the senders exit, and the row degenerates into a
/// pre-buffered burst decode that hides all scheduling cost.
const MIN_PER_CONN: u64 = 10_000;
/// Relaxed floor for the widest rows: the multiplexed writer sweep
/// keeps every socket concurrently full regardless of stream length, so
/// past 256 connections the floor only needs to keep a row long enough
/// to time — and short enough that the 4096-connection row, which ships
/// 8× the aggregate cap, stays a matter of seconds.
const MIN_PER_CONN_WIDE: u64 = 2_500;
/// Synopses per frame — sized like a real agent's flush (the e2e tests
/// ship 48).
const BATCH: usize = 32;
/// Per-connection kernel receive-buffer clamp. Without it, Linux
/// autotuning absorbs a whole connection's stream into kernel memory on
/// some runs and not others, flipping high-fanout rows between "burst
/// decode of pre-buffered bytes" and "sustained streaming" — a bimodal
/// curve. The clamp pins every run to the sustained regime a real agent
/// fleet lives in (bounded kernel memory per connection).
const RECV_BUFFER: usize = 64 * 1024;

/// Per-connection workload for a row: flat until the aggregate cap,
/// never below the sustained-streaming floor.
fn per_conn(conns: usize) -> u64 {
    let floor = if conns > 256 {
        MIN_PER_CONN_WIDE
    } else {
        MIN_PER_CONN
    };
    MAX_PER_CONN.min(TOTAL_CAP / conns as u64).max(floor)
}

/// One host's workload: a realistic mixed-flow synopsis stream.
fn synopses_for(host: u16, per_conn: u64) -> Vec<TaskSynopsis> {
    let synopsis = |uid: u64| TaskSynopsis {
        host: HostId(host),
        stage: StageId((uid % 4) as u16),
        uid: TaskUid(uid),
        start: SimTime::from_millis(uid),
        duration: SimDuration::from_micros(700 + (uid % 131) * 5),
        log_points: match uid % 5 {
            0..=2 => vec![(LogPointId(1), 1), (LogPointId(2), 1)],
            3 => vec![(LogPointId(1), 1), (LogPointId(2), 1), (LogPointId(3), 2)],
            _ => (1..=8u16).map(|p| (LogPointId(100 + p), 1)).collect(),
        },
    };
    (0..per_conn).map(synopsis).collect()
}

/// One connection's full wire stream, encoded ahead of time: the Hello,
/// then every frame as a length-prefixed message. Returns the bytes and
/// the offset where the post-warmup remainder starts (hello + first
/// frame go out before the barrier).
fn encoded_stream(host: u16, per_conn: u64) -> (Vec<u8>, usize) {
    let mut wire = encode_hello(&Hello {
        version: PROTOCOL_VERSION,
        host: HostId(host),
        next_seq: 0,
        sent_cum: 0,
        written_cum: 0,
        epoch: PINNED_EPOCH,
        role: PeerRole::Agent,
    });
    let mut sender = FrameSender::new(HostId(host));
    let mut warmup_end = 0;
    for (i, batch) in synopses_for(host, per_conn).chunks(BATCH).enumerate() {
        let frame = sender.encode_frame(batch);
        write_message(&mut wire, &frame).expect("vec write");
        if i == 0 {
            warmup_end = wire.len();
        }
    }
    (wire, warmup_end)
}

struct Row {
    conns: usize,
    per_conn: u64,
    synopses: u64,
    secs: f64,
    rate: f64,
    /// Steady-state cost of one synopsis on the wire path.
    ns_per_synopsis: f64,
}

/// One row: bind a collector, stream `conns` pre-encoded connections
/// into it and time the steady state. The admitted output is drained on a
/// side thread so the pool-facing channel never backs up.
fn measure(conns: usize) -> Row {
    let (batch_tx, batch_rx) = unbounded::<SynopsisBatch>();
    let interner = Arc::new(SignatureInterner::new());
    let drain = std::thread::spawn(move || {
        let rows = |b: SynopsisBatch| {
            assert!(b.losses.is_empty(), "no loss on a clean wire");
            b.len() as u64
        };
        batch_rx.iter().map(rows).sum::<u64>()
    });
    // Size the loop pool to the machine: extra loop threads on a small
    // box only contend with each other.
    let config = ReactorCollectorConfig {
        loops: std::thread::available_parallelism().map_or(2, |p| p.get().min(4)),
        recv_buffer: Some(RECV_BUFFER),
        ..ReactorCollectorConfig::default()
    };
    let collector = ReactorCollector::bind("127.0.0.1:0", batch_tx, interner, config)
        .expect("bind reactor collector");
    let addr = collector.local_addr();

    let per_conn = per_conn(conns);
    let total = per_conn * conns as u64;

    // Senders: a small fixed pool of writer threads, each multiplexing a
    // slice of the connections with non-blocking round-robin writes. A
    // thread *per* sender would let the scheduler service connections in
    // producer→consumer pairs — effectively sequential service that
    // hides the fan-in concurrency a row claims to measure. The sweep
    // keeps every socket's buffer full simultaneously, which is what
    // "N concurrent connections" means from the collector's seat, and is
    // how a real fleet behaves: remote agents do not lend the collector
    // their CPU or their scheduler affinity.
    let sender_threads = conns.min(4);
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(sender_threads + 1));
    // Every connection's byte stream is encoded before anything starts:
    // sender threads only write bytes, so the collector is the only
    // moving part under measurement.
    let mut slices: Vec<Vec<(Vec<u8>, usize)>> = vec![Vec::new(); sender_threads];
    for host in 0..conns {
        slices[host % sender_threads].push(encoded_stream(host as u16, per_conn));
    }
    let senders: Vec<_> = slices
        .into_iter()
        .map(|slice| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                // Handshake each connection (blocking), one warmup frame
                // included, then flip to non-blocking for the sweep.
                let mut conns: Vec<(TcpStream, Vec<u8>, usize)> = slice
                    .into_iter()
                    .map(|(wire, warmup_end)| {
                        let mut stream = TcpStream::connect(addr).expect("connect");
                        stream.set_nodelay(true).ok();
                        // Clamp the send buffer too: sender-side
                        // autotuning can otherwise swallow a whole
                        // stream into kernel memory, flipping a row
                        // back into burst mode.
                        saad_net::set_send_buffer(&stream, RECV_BUFFER).expect("sndbuf");
                        stream.write_all(&wire[..warmup_end]).expect("hello+warmup");
                        let mut ack = [0u8; HELLO_ACK_LEN];
                        read_full(&mut stream, &mut ack, || true).expect("ack");
                        assert!(decode_hello_ack(&ack).expect("ack decodes").accept);
                        stream.set_nonblocking(true).expect("nonblocking");
                        (stream, wire, warmup_end)
                    })
                    .collect();
                barrier.wait();
                // Round-robin: push bytes into every socket that will
                // take them; when a full sweep moves nothing (all
                // buffers full), sleep so the collector gets the CPU.
                while !conns.is_empty() {
                    let mut progressed = false;
                    conns.retain_mut(|(stream, wire, off)| loop {
                        match stream.write(&wire[*off..]) {
                            Ok(n) => {
                                *off += n;
                                progressed = true;
                                if *off == wire.len() {
                                    return false;
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                return true;
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) => panic!("sender write: {e}"),
                        }
                    });
                    if !progressed {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                }
            })
        })
        .collect();
    let warmup = (conns * BATCH) as u64;
    let wait_for = |target: u64| {
        // Sleep, don't spin (see module docs).
        while collector.stats().synopses < target {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    };
    wait_for(warmup);

    let t0 = Instant::now();
    barrier.wait();
    wait_for(total);
    let secs = t0.elapsed().as_secs_f64();

    for sender in senders {
        sender.join().expect("sender thread");
    }

    let s = collector.stats();
    assert_eq!(s.synopses, total);
    assert_eq!(s.lost_synopses, 0);
    assert_eq!(s.corrupted_frames, 0);
    assert_eq!(s.duplicate_frames, 0);
    assert_eq!(s.connections_accepted, conns as u64);
    collector.shutdown();
    assert_eq!(drain.join().expect("drain thread"), total);

    let timed = total - warmup;
    Row {
        conns,
        per_conn,
        synopses: timed,
        secs,
        rate: timed as f64 / secs,
        ns_per_synopsis: secs * 1e9 / timed as f64,
    }
}

fn render_json(rows: &[Row]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"collector\": \"reactor\", \"connections\": {}, \"per_conn\": {}, \
                 \"synopses\": {}, \"secs\": {:.4}, \"synopses_per_sec\": {:.0}, \
                 \"ns_per_synopsis\": {:.1} }}",
                r.conns, r.per_conn, r.synopses, r.secs, r.rate, r.ns_per_synopsis
            )
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"net_ingest\",\n  \"cores\": {cores},\n  \"batch\": {BATCH},\n  \
         \"warmup_batches_per_conn\": 1,\n  \
         \"sender\": \"pre-encoded byte streams (collector-side cost only)\",\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

fn main() {
    // One CPU for the whole process (threads spawned below inherit the
    // mask; see the module docs).
    let pinned = saad_core::affinity::pin_current_thread(0);
    println!(
        "wire-path ingest: up to {MAX_PER_CONN} synopses/connection in frames of {BATCH}, \
         pre-encoded, over localhost TCP, {}\n",
        if pinned {
            "confined to CPU 0"
        } else {
            "NOT confined to one CPU (pinning refused)"
        }
    );
    println!("  conns   synopses      secs   synopses/s  ns/synopsis");
    let rows: Vec<Row> = [1usize, 4, 16, 64, 256, 1024, 4096]
        .into_iter()
        .map(|conns| {
            let row = measure(conns);
            println!(
                "{:>7} {:>10} {:>9.4} {:>12.0} {:>12.1}",
                row.conns, row.synopses, row.secs, row.rate, row.ns_per_synopsis
            );
            row
        })
        .collect();

    let json = render_json(&rows);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net_ingest.json");
    std::fs::write(path, json).expect("write BENCH_net_ingest.json");
    println!("\nwrote {path}");

    // Readiness scheduling must hold a flat per-synopsis cost as the
    // connections one core serves grow 256×.
    assert_eq!((rows[2].conns, rows[6].conns), (16, 4096));
    let (ns16, ns4096) = (rows[2].ns_per_synopsis, rows[6].ns_per_synopsis);
    assert!(
        ns4096 <= ns16 * 2.0,
        "reactor per-synopsis cost is not flat 16→4096: {ns16:.0}ns → {ns4096:.0}ns"
    );
}
