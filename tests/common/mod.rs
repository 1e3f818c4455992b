//! What the wire tests share beyond `saad::core::testkit`: the collector's
//! side of an agent connection and the one poll loop (`mod common;` in
//! each; a suite uses what it needs of them).
#![allow(dead_code)]

use saad::net::protocol::{
    decode_hello, encode_hello_ack, HelloAck, RejectReason, HELLO_LEN, NO_SEQ, PROTOCOL_VERSION,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// The collector's side of one agent connection, up to the first frame:
/// accept, read the hello, acknowledge it as a collector with no history
/// of the host would. What follows on the stream is `[u32 length][frame]`
/// messages until the agent's goodbye.
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

/// Poll `done` every 2 ms until it holds, failing the test with `what` if
/// `deadline` passes first.
pub fn wait_for(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}
