//! Helpers shared by integration tests (`mod common;` in each). A test
//! file uses some of them, hence the `dead_code` allowances.

use saad::core::batch::SynopsisBatch;
use saad::core::detector::{AnomalyDetector, AnomalyEvent};
use saad::core::intern::SignatureInterner;
use saad::core::synopsis::TaskSynopsis;
use saad::net::protocol::{
    decode_hello, encode_hello_ack, HelloAck, RejectReason, HELLO_LEN, NO_SEQ, PROTOCOL_VERSION,
};
use saad::sim::SimTime;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// `synopses` as one pool input batch, interned against `interner` — the
/// consuming pool's own (`PoolHandle::interner`).
#[allow(dead_code)]
pub fn soa(synopses: &[TaskSynopsis], interner: &SignatureInterner) -> SynopsisBatch {
    let mut batch = SynopsisBatch::with_capacity(synopses.len());
    for s in synopses {
        batch.push_synopsis(s, interner);
    }
    batch
}

/// THE reference every threaded analyzer path is compared with: one plain
/// detector driven element by element in stream order — a batch's gap
/// reports applied where they stand, then each row: advance to the
/// stream's running-maximum watermark, observe. Batches are interned
/// against the detector's own interner. Returns the events (final flush
/// included) and the detector.
#[allow(dead_code)]
pub fn reference_run(
    mut detector: AnomalyDetector,
    stream: &[SynopsisBatch],
) -> (Vec<AnomalyEvent>, AnomalyDetector) {
    let mut events = Vec::new();
    let mut watermark = SimTime::ZERO;
    for batch in stream {
        for r in &batch.losses {
            detector.record_loss(r.host, r.at, r.count);
        }
        for i in 0..batch.len() {
            let feature = batch.feature(i);
            watermark = watermark.max(feature.start);
            events.extend(detector.advance_watermark(watermark));
            events.extend(detector.observe_interned(&feature));
        }
    }
    events.extend(detector.flush());
    (events, detector)
}

/// Sorted `Debug` strings: the order-insensitive form two event streams
/// are compared in (shards interleave on the pool's event channel).
#[allow(dead_code)]
pub fn event_keys(events: &[AnomalyEvent]) -> Vec<String> {
    let mut keys: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
    keys.sort_unstable();
    keys
}

/// The collector's side of one agent connection, up to the first frame:
/// accept, read the hello, acknowledge it as a collector with no history
/// of the host would. What follows on the stream is `[u32 length][frame]`
/// messages until the agent's goodbye.
#[allow(dead_code)]
pub fn accept_agent(listener: &TcpListener) -> TcpStream {
    let (mut stream, _) = listener.accept().expect("accept");
    let mut hello = [0u8; HELLO_LEN];
    stream.read_exact(&mut hello).expect("hello");
    let hello = decode_hello(&hello).expect("well-formed hello");
    let ack = HelloAck {
        version: PROTOCOL_VERSION,
        accept: true,
        reason: RejectReason::None,
        last_seq: NO_SEQ,
        delivered_cum: 0,
        epoch: 0,
    };
    stream
        .write_all(&encode_hello_ack(&ack, hello.version))
        .expect("ack");
    stream
}
