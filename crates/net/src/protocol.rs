//! The SAAD wire protocol: a tiny versioned handshake followed by
//! length-prefixed transport frames.
//!
//! A connection starts with a fixed-size `Hello` from the peer declaring
//! its protocol version, [`HostId`], and resume position (next frame
//! sequence number plus cumulative sent/written synopsis counts). The
//! collector answers with a fixed-size `HelloAck` that either accepts the
//! connection — echoing what it already holds for that host — or rejects
//! it with a typed reason. After an accepting ack, the stream is a
//! sequence of `u32` big-endian length prefixes, each followed by one
//! frame exactly as produced by
//! [`FrameSender::encode_frame`](saad_core::transport::FrameSender::encode_frame).
//!
//! # Version 2: the federation extension
//!
//! Protocol v2 appends a separately-checksummed **extension block** to
//! both handshake messages: the `Hello` gains the control-plane ring
//! epoch the peer routed by and its [`PeerRole`] (agent or leaf
//! collector); the `HelloAck` gains the collector's current epoch. The
//! v1 prefix of a v2 message is byte-identical to a real v1 message —
//! including its own CRC — so a v2 collector decodes the 36-byte prefix
//! first, learns the announced version, and only then reads the
//! extension. A v1 agent therefore still receives a well-formed 28-byte
//! v1 reject it can decode, and terminates cleanly on version skew
//! instead of deadlocking on bytes that never come.
//!
//! # Version 3: payloads that define each signature once
//!
//! Version 3 changes no handshake byte: its hello and ack are v2's, the
//! extension included. It changes the frame payload, whose rows now name
//! per-payload definitions ([`saad_core::codec`]). One version is spoken
//! at a time, so there is no v2 payload parser: a v2 peer announces 2,
//! its hello decodes as v2's did, and it gets a `VersionMismatch` reject
//! in the v2 form it can read, as a v1 peer gets one in the v1 form.
//!
//! Everything is checksummed with the same CRC-32 the frame format uses,
//! so a flipped bit anywhere — handshake or payload — is detected, never
//! silently admitted.

use saad_core::transport::{crc32, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
use saad_core::HostId;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Current wire protocol version. A collector rejects peers announcing a
/// different version rather than guessing at frame semantics.
pub const PROTOCOL_VERSION: u16 = 3;

/// Magic prefix of a peer `Hello`.
pub(crate) const HELLO_MAGIC: [u8; 4] = *b"SAAD";

/// Magic prefix of a collector `HelloAck`.
pub(crate) const ACK_MAGIC: [u8; 4] = *b"SADA";

/// Encoded size of a protocol-v1 [`Hello`] — also the prefix length of a
/// v2 hello, which is what a collector reads before it knows the version.
pub(crate) const HELLO_V1_LEN: usize = 36;

/// Encoded size of the v2 hello extension block: epoch (8) + role (1) +
/// pad (1) + CRC-32 (4).
pub(crate) const HELLO_EXT_LEN: usize = 14;

/// Encoded size of a current-version [`Hello`] in bytes.
pub const HELLO_LEN: usize = HELLO_V1_LEN + HELLO_EXT_LEN;

/// Encoded size of a protocol-v1 [`HelloAck`].
pub(crate) const HELLO_ACK_V1_LEN: usize = 28;

/// Encoded size of the v2 ack extension block: epoch (8) + CRC-32 (4).
pub(crate) const HELLO_ACK_EXT_LEN: usize = 12;

/// Encoded size of a current-version [`HelloAck`] in bytes.
pub const HELLO_ACK_LEN: usize = HELLO_ACK_V1_LEN + HELLO_ACK_EXT_LEN;

/// Largest length-prefixed message body the collector will read: one full
/// transport frame (header + maximum payload). A prefix above this bound
/// means the stream is corrupt or hostile; the connection is dropped.
pub const MAX_MESSAGE_LEN: usize = FRAME_HEADER_LEN + MAX_FRAME_PAYLOAD;

/// `last_seq` value in a [`HelloAck`] meaning "never heard from this
/// host".
pub const NO_SEQ: u64 = u64::MAX;

/// [`Hello::epoch`] value meaning "not ring-routed": the peer connected
/// to a pinned address rather than resolving through a control plane, so
/// no epoch staleness check applies. Also what a v1 hello decodes to.
pub const PINNED_EPOCH: u64 = u64::MAX;

/// What kind of peer is opening the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PeerRole {
    /// A tracker-side agent streaming one host's synopses.
    Agent = 0,
    /// A leaf collector forwarding re-framed digests for many hosts.
    Leaf = 1,
}

impl PeerRole {
    fn from_u8(v: u8) -> PeerRole {
        match v {
            1 => PeerRole::Leaf,
            _ => PeerRole::Agent,
        }
    }
}

/// Peer-side opening message: who is connecting and where its frame
/// stream resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the peer speaks.
    pub version: u16,
    /// Host this peer frames synopses for (an agent's tracked host, or a
    /// leaf collector's own identity).
    pub host: HostId,
    /// Sequence number the next encoded frame will carry. Zero means a
    /// fresh sender with no history to resume.
    pub next_seq: u64,
    /// Cumulative synopses the peer has framed so far.
    pub sent_cum: u64,
    /// Cumulative synopses in frames fully written to a live socket. The
    /// difference `sent_cum − written_cum` is loss the peer already knows
    /// about and is reporting rather than retransmitting.
    pub written_cum: u64,
    /// Control-plane ring epoch the peer routed by ([`PINNED_EPOCH`] when
    /// it did not route through a ring; v2 only — v1 decodes to
    /// [`PINNED_EPOCH`]).
    pub epoch: u64,
    /// What kind of peer this is (v2 only — v1 decodes to
    /// [`PeerRole::Agent`]).
    pub role: PeerRole,
}

/// Why a collector refused a [`Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RejectReason {
    /// Not rejected.
    None = 0,
    /// Peer and collector disagree on [`PROTOCOL_VERSION`].
    VersionMismatch = 1,
    /// The `Hello` failed its magic or checksum.
    Malformed = 2,
    /// The peer routed by a ring epoch older than the collector's — its
    /// assignment may be obsolete. Non-terminal: refetch the ring and
    /// reconnect where it now points.
    StaleEpoch = 3,
}

impl RejectReason {
    fn from_u8(v: u8) -> RejectReason {
        match v {
            1 => RejectReason::VersionMismatch,
            2 => RejectReason::Malformed,
            3 => RejectReason::StaleEpoch,
            _ => RejectReason::None,
        }
    }
}

/// Collector-side handshake reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// Protocol version the collector speaks.
    pub version: u16,
    /// Whether the connection may proceed to frame streaming.
    pub accept: bool,
    /// Reason when `accept` is false.
    pub reason: RejectReason,
    /// Highest frame sequence number the collector has seen from this
    /// host, or [`NO_SEQ`] if it has none.
    pub last_seq: u64,
    /// Synopses the collector has delivered for this host so far.
    pub delivered_cum: u64,
    /// The collector's current control-plane ring epoch (0 when it
    /// enforces none; v2 only — v1 decodes to 0). On a
    /// [`RejectReason::StaleEpoch`] reject this is the epoch the peer
    /// must catch up to.
    pub epoch: u64,
}

/// A handshake message that could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// First four bytes were not the expected magic.
    BadMagic([u8; 4]),
    /// Stored and computed CRC-32 disagree.
    ChecksumMismatch {
        /// Checksum carried by the message.
        stored: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
    /// Buffer length matches no known encoding of the message.
    BadLength(usize),
}

impl fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandshakeError::BadMagic(m) => write!(f, "bad handshake magic {m:?}"),
            HandshakeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "handshake checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            HandshakeError::BadLength(n) => write!(f, "handshake message of impossible length {n}"),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Encode a [`Hello`] into its wire form: 36 bytes for `version <= 1`,
/// 36 + 14 for v2 and later (the v1 prefix stays byte-identical to a
/// real v1 hello, CRC included).
pub fn encode_hello(hello: &Hello) -> Vec<u8> {
    let mut buf = vec![0u8; HELLO_V1_LEN];
    buf[0..4].copy_from_slice(&HELLO_MAGIC);
    buf[4..6].copy_from_slice(&hello.version.to_be_bytes());
    buf[6..8].copy_from_slice(&hello.host.0.to_be_bytes());
    buf[8..16].copy_from_slice(&hello.next_seq.to_be_bytes());
    buf[16..24].copy_from_slice(&hello.sent_cum.to_be_bytes());
    buf[24..32].copy_from_slice(&hello.written_cum.to_be_bytes());
    let crc = crc32(&[&buf[..32]]);
    buf[32..36].copy_from_slice(&crc.to_be_bytes());
    if hello.version >= 2 {
        buf.extend_from_slice(&hello.epoch.to_be_bytes());
        buf.push(hello.role as u8);
        buf.push(0); // pad
        let ext_crc = crc32(&[&buf[..HELLO_V1_LEN + 10]]);
        buf.extend_from_slice(&ext_crc.to_be_bytes());
        debug_assert_eq!(buf.len(), HELLO_LEN);
    }
    buf
}

/// Decode the fixed 36-byte prefix every hello shares. For a v1 hello
/// this is the complete message; for v2 the caller must follow up with
/// [`apply_hello_ext`] (the returned hello announces its `version`, and
/// [`hello_ext_len`] says how many more bytes to read).
///
/// # Errors
///
/// Returns [`HandshakeError`] when the magic or prefix checksum is wrong.
/// Version agreement is the caller's policy decision, not a decode error.
pub(crate) fn decode_hello_prefix(buf: &[u8; HELLO_V1_LEN]) -> Result<Hello, HandshakeError> {
    if buf[0..4] != HELLO_MAGIC {
        return Err(HandshakeError::BadMagic(buf[0..4].try_into().expect("4")));
    }
    let stored = u32::from_be_bytes(buf[32..36].try_into().expect("4"));
    let computed = crc32(&[&buf[..32]]);
    if stored != computed {
        return Err(HandshakeError::ChecksumMismatch { stored, computed });
    }
    Ok(Hello {
        version: u16::from_be_bytes(buf[4..6].try_into().expect("2")),
        host: HostId(u16::from_be_bytes(buf[6..8].try_into().expect("2"))),
        next_seq: u64::from_be_bytes(buf[8..16].try_into().expect("8")),
        sent_cum: u64::from_be_bytes(buf[16..24].try_into().expect("8")),
        written_cum: u64::from_be_bytes(buf[24..32].try_into().expect("8")),
        epoch: PINNED_EPOCH,
        role: PeerRole::Agent,
    })
}

/// Extension bytes that follow the 36-byte prefix for `version` (0 for
/// v1, [`HELLO_EXT_LEN`] for v2 and later).
pub(crate) fn hello_ext_len(version: u16) -> usize {
    if version >= 2 {
        HELLO_EXT_LEN
    } else {
        0
    }
}

/// Fill a prefix-decoded [`Hello`] from its v2 extension block. The
/// extension CRC covers the whole message up to itself (prefix included),
/// so corruption anywhere is caught even though the prefix validated on
/// its own.
///
/// # Errors
///
/// Returns [`HandshakeError::ChecksumMismatch`] when the extension CRC
/// disagrees.
pub(crate) fn apply_hello_ext(
    hello: &mut Hello,
    prefix: &[u8; HELLO_V1_LEN],
    ext: &[u8; HELLO_EXT_LEN],
) -> Result<(), HandshakeError> {
    let stored = u32::from_be_bytes(ext[10..14].try_into().expect("4"));
    let computed = crc32(&[prefix, &ext[..10]]);
    if stored != computed {
        return Err(HandshakeError::ChecksumMismatch { stored, computed });
    }
    hello.epoch = u64::from_be_bytes(ext[0..8].try_into().expect("8"));
    hello.role = PeerRole::from_u8(ext[8]);
    Ok(())
}

/// Decode a complete [`Hello`] from a buffer holding either encoding (36
/// or 50 bytes).
///
/// # Errors
///
/// Returns [`HandshakeError`] on bad magic, checksum, or a length that
/// disagrees with the announced version.
pub fn decode_hello(buf: &[u8]) -> Result<Hello, HandshakeError> {
    let prefix: &[u8; HELLO_V1_LEN] = buf
        .get(..HELLO_V1_LEN)
        .and_then(|b| b.try_into().ok())
        .ok_or(HandshakeError::BadLength(buf.len()))?;
    let mut hello = decode_hello_prefix(prefix)?;
    let ext_len = hello_ext_len(hello.version);
    if buf.len() != HELLO_V1_LEN + ext_len {
        return Err(HandshakeError::BadLength(buf.len()));
    }
    if ext_len > 0 {
        let ext: &[u8; HELLO_EXT_LEN] = buf[HELLO_V1_LEN..].try_into().expect("ext length checked");
        apply_hello_ext(&mut hello, prefix, ext)?;
    }
    Ok(hello)
}

/// Encode a [`HelloAck`] in the wire form `wire_version` implies: the
/// 28-byte v1 form for `wire_version <= 1`, 28 + 12 for v2 and later.
///
/// `wire_version` is the **peer's announced version**, not the
/// collector's: the reply must be in a form the peer can read, which is
/// what makes a version-mismatch reject decodable by the very agent being
/// rejected.
pub fn encode_hello_ack(ack: &HelloAck, wire_version: u16) -> Vec<u8> {
    let mut buf = vec![0u8; HELLO_ACK_V1_LEN];
    buf[0..4].copy_from_slice(&ACK_MAGIC);
    buf[4..6].copy_from_slice(&ack.version.to_be_bytes());
    buf[6] = ack.accept as u8;
    buf[7] = ack.reason as u8;
    buf[8..16].copy_from_slice(&ack.last_seq.to_be_bytes());
    buf[16..24].copy_from_slice(&ack.delivered_cum.to_be_bytes());
    let crc = crc32(&[&buf[..24]]);
    buf[24..28].copy_from_slice(&crc.to_be_bytes());
    if wire_version >= 2 {
        buf.extend_from_slice(&ack.epoch.to_be_bytes());
        let ext_crc = crc32(&[&buf[..HELLO_ACK_V1_LEN + 8]]);
        buf.extend_from_slice(&ext_crc.to_be_bytes());
        debug_assert_eq!(buf.len(), HELLO_ACK_LEN);
    }
    buf
}

/// Decode a [`HelloAck`] from a buffer holding either encoding (28 or 40
/// bytes — the reader knows which to expect from the version it announced
/// in its own hello).
///
/// # Errors
///
/// Returns [`HandshakeError`] when the magic, either checksum, or the
/// buffer length is wrong.
pub fn decode_hello_ack(buf: &[u8]) -> Result<HelloAck, HandshakeError> {
    if buf.len() != HELLO_ACK_V1_LEN && buf.len() != HELLO_ACK_LEN {
        return Err(HandshakeError::BadLength(buf.len()));
    }
    if buf[0..4] != ACK_MAGIC {
        return Err(HandshakeError::BadMagic(buf[0..4].try_into().expect("4")));
    }
    let stored = u32::from_be_bytes(buf[24..28].try_into().expect("4"));
    let computed = crc32(&[&buf[..24]]);
    if stored != computed {
        return Err(HandshakeError::ChecksumMismatch { stored, computed });
    }
    let mut epoch = 0u64;
    if buf.len() == HELLO_ACK_LEN {
        let stored = u32::from_be_bytes(buf[36..40].try_into().expect("4"));
        let computed = crc32(&[&buf[..36]]);
        if stored != computed {
            return Err(HandshakeError::ChecksumMismatch { stored, computed });
        }
        epoch = u64::from_be_bytes(buf[28..36].try_into().expect("8"));
    }
    Ok(HelloAck {
        version: u16::from_be_bytes(buf[4..6].try_into().expect("2")),
        accept: buf[6] != 0,
        reason: RejectReason::from_u8(buf[7]),
        last_seq: u64::from_be_bytes(buf[8..16].try_into().expect("8")),
        delivered_cum: u64::from_be_bytes(buf[16..24].try_into().expect("8")),
        epoch,
    })
}

/// The client half of the handshake: write `hello`, then read and decode
/// the ack — sized by the version `hello` announces, because the collector
/// answers in the wire form of the peer it is talking to (28 bytes to a v1
/// peer, 40 from v2 on), accepting or not.
///
/// # Errors
///
/// Propagates the I/O error; EOF before a complete ack is
/// [`io::ErrorKind::UnexpectedEof`], an ack that fails its magic or
/// checksum [`io::ErrorKind::InvalidData`].
pub(crate) fn exchange_hello<S: Read + Write>(
    stream: &mut S,
    hello: &Hello,
) -> io::Result<HelloAck> {
    stream.write_all(&encode_hello(hello))?;
    stream.flush()?;
    let mut buf = [0u8; HELLO_ACK_LEN];
    let ack = if hello.version >= 2 {
        &mut buf[..]
    } else {
        &mut buf[..HELLO_ACK_V1_LEN]
    };
    if !read_full(stream, ack, || true)? {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    decode_hello_ack(ack).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Connect to `addr` and shake hands — the one place a sender (an agent's
/// worker, a leaf's uplink) dials. Whether the ack accepts is the caller's
/// to judge. The call is bounded: `read_timeout`, the time the peer is
/// allowed to answer a hello, is also the most the connect may take, so a
/// black-holed address costs at most twice that and never the OS's SYN
/// timeout; writes on the returned stream fail after `write_timeout`.
///
/// # Errors
///
/// The connect's or [`exchange_hello`]'s I/O error.
pub(crate) fn dial(
    addr: SocketAddr,
    hello: &Hello,
    write_timeout: Duration,
    read_timeout: Duration,
) -> io::Result<(TcpStream, HelloAck)> {
    let mut stream = TcpStream::connect_timeout(&addr, read_timeout)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = stream.set_read_timeout(Some(read_timeout));
    let ack = exchange_hello(&mut stream, hello)?;
    Ok((stream, ack))
}

/// Write one length-prefixed message: `u32` big-endian body length, then
/// the body. Prefix and body go out in one vectored write, so on a
/// `TCP_NODELAY` socket the prefix is not a 4-byte segment of its own; a
/// short write resumes where it stopped.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] (nothing written) when `body` is longer
/// than [`MAX_MESSAGE_LEN`] — every reader would drop the connection on
/// that prefix. Otherwise propagates the underlying I/O error; a partial
/// write leaves the stream desynchronized, so callers must treat any
/// error as fatal for the connection.
pub fn write_message<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_MESSAGE_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "message body exceeds MAX_MESSAGE_LEN",
        ));
    }
    let prefix = (body.len() as u32).to_be_bytes();
    let mut done = 0usize;
    while done < prefix.len() + body.len() {
        let wrote = if done < prefix.len() {
            w.write_vectored(&[IoSlice::new(&prefix[done..]), IoSlice::new(body)])
        } else {
            w.write(&body[done - prefix.len()..])
        };
        match wrote {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read exactly `buf.len()` bytes, retrying reads that hit a socket
/// read-timeout (`WouldBlock` / `TimedOut`) while `keep_going()` stays
/// true — the idiom a shutdown-aware connection handler needs, since a
/// plain `read_exact` would either block forever or lose already-consumed
/// bytes on timeout.
///
/// Returns `Ok(false)` on a clean EOF **before any byte was read** (the
/// peer closed at a message boundary).
///
/// # Errors
///
/// Mid-message EOF surfaces as [`io::ErrorKind::UnexpectedEof`]; a
/// `keep_going()` veto surfaces as [`io::ErrorKind::Interrupted`]; other
/// I/O errors propagate unchanged.
pub fn read_full<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    keep_going: impl Fn() -> bool,
) -> io::Result<bool> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-message",
                ));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if !keep_going() {
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "shutdown"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v2_hello() -> Hello {
        Hello {
            version: PROTOCOL_VERSION,
            host: HostId(42),
            next_seq: 1_000_000_007,
            sent_cum: 77_777,
            written_cum: 70_001,
            epoch: 9,
            role: PeerRole::Leaf,
        }
    }

    #[test]
    fn hello_round_trips() {
        let hello = v2_hello();
        let wire = encode_hello(&hello);
        assert_eq!(wire.len(), HELLO_LEN);
        assert_eq!(decode_hello(&wire).unwrap(), hello);
    }

    #[test]
    fn v1_hello_round_trips_with_default_extension_fields() {
        let hello = Hello {
            version: 1,
            epoch: PINNED_EPOCH,
            role: PeerRole::Agent,
            ..v2_hello()
        };
        let wire = encode_hello(&hello);
        assert_eq!(wire.len(), HELLO_V1_LEN);
        assert_eq!(decode_hello(&wire).unwrap(), hello);
    }

    #[test]
    fn v2_hello_prefix_is_a_valid_v1_hello() {
        // The property the back-compat path rests on: a v1-only reader
        // consuming the first 36 bytes of a v2 hello sees a well-formed
        // message announcing version 2.
        let wire = encode_hello(&v2_hello());
        let prefix: [u8; HELLO_V1_LEN] = wire[..HELLO_V1_LEN].try_into().unwrap();
        let seen = decode_hello_prefix(&prefix).unwrap();
        assert_eq!(seen.version, PROTOCOL_VERSION);
        assert_eq!(seen.host, HostId(42));
        assert_eq!(seen.epoch, PINNED_EPOCH, "prefix carries no epoch");
        // The streaming path: prefix first, then the extension.
        let mut hello = seen;
        let ext: [u8; HELLO_EXT_LEN] = wire[HELLO_V1_LEN..].try_into().unwrap();
        apply_hello_ext(&mut hello, &prefix, &ext).unwrap();
        assert_eq!(hello, v2_hello());
    }

    #[test]
    fn hello_ack_round_trips_in_both_forms() {
        let ack = HelloAck {
            version: PROTOCOL_VERSION,
            accept: false,
            reason: RejectReason::StaleEpoch,
            last_seq: NO_SEQ,
            delivered_cum: 123,
            epoch: 17,
        };
        let v2 = encode_hello_ack(&ack, 2);
        assert_eq!(v2.len(), HELLO_ACK_LEN);
        assert_eq!(decode_hello_ack(&v2).unwrap(), ack);
        // The v1 form drops the epoch but keeps everything else — what a
        // v1 agent sees when a v2 collector rejects it.
        let v1 = encode_hello_ack(&ack, 1);
        assert_eq!(v1.len(), HELLO_ACK_V1_LEN);
        let seen = decode_hello_ack(&v1).unwrap();
        assert_eq!(seen, HelloAck { epoch: 0, ..ack });
    }

    #[test]
    fn flipped_bit_fails_checksum_in_prefix_and_extension() {
        let mut wire = encode_hello(&v2_hello());
        wire[9] ^= 0x40; // prefix field
        assert!(matches!(
            decode_hello(&wire),
            Err(HandshakeError::ChecksumMismatch { .. })
        ));
        let mut wire = encode_hello(&v2_hello());
        wire[HELLO_V1_LEN + 2] ^= 0x01; // epoch byte: prefix CRC can't see it
        let prefix: [u8; HELLO_V1_LEN] = wire[..HELLO_V1_LEN].try_into().unwrap();
        assert!(decode_hello_prefix(&prefix).is_ok());
        assert!(matches!(
            decode_hello(&wire),
            Err(HandshakeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn wrong_magic_and_length_are_rejected() {
        let ack = HelloAck {
            version: PROTOCOL_VERSION,
            accept: true,
            reason: RejectReason::None,
            last_seq: 0,
            delivered_cum: 0,
            epoch: 0,
        };
        let mut wire = encode_hello_ack(&ack, 2);
        wire[0] = b'X';
        assert!(matches!(
            decode_hello_ack(&wire),
            Err(HandshakeError::BadMagic(_))
        ));
        assert!(matches!(
            decode_hello_ack(&[0u8; 30]),
            Err(HandshakeError::BadLength(30))
        ));
        // A v2 hello truncated to the v1 length contradicts its announced
        // version.
        let wire = encode_hello(&v2_hello());
        assert!(matches!(
            decode_hello(&wire[..HELLO_V1_LEN]),
            Err(HandshakeError::BadLength(HELLO_V1_LEN))
        ));
    }

    #[test]
    fn read_full_reports_clean_eof_only_at_boundary() {
        let data = [1u8, 2, 3];
        let mut cursor = io::Cursor::new(&data[..]);
        let mut buf = [0u8; 3];
        assert!(read_full(&mut cursor, &mut buf, || true).unwrap());
        assert_eq!(buf, data);
        // Boundary EOF: nothing left, zero-length read not required first.
        let mut empty = io::Cursor::new(&[][..]);
        assert!(!read_full(&mut empty, &mut buf, || true).unwrap());
        // Mid-message EOF: two bytes left, three wanted.
        let mut short = io::Cursor::new(&data[..2]);
        let err = read_full(&mut short, &mut buf, || true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A peer's view of a socket: scripted bytes to read, written bytes kept.
    struct Duplex {
        incoming: io::Cursor<Vec<u8>>,
        written: Vec<u8>,
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.incoming.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn exchange_hello_reads_the_ack_in_the_form_it_announced() {
        let ack = HelloAck {
            version: PROTOCOL_VERSION,
            accept: false,
            reason: RejectReason::VersionMismatch,
            last_seq: NO_SEQ,
            delivered_cum: 0,
            epoch: 6,
        };
        for version in [1u16, 2] {
            let hello = Hello {
                version,
                ..v2_hello()
            };
            // The ack, then bytes that are not the handshake's to read.
            let mut incoming = encode_hello_ack(&ack, version);
            let ack_len = incoming.len();
            incoming.extend_from_slice(b"next");
            let mut stream = Duplex {
                incoming: io::Cursor::new(incoming.clone()),
                written: Vec::new(),
            };
            let got = exchange_hello(&mut stream, &hello).unwrap();
            let epoch = if version >= 2 { 6 } else { 0 };
            assert_eq!(got, HelloAck { epoch, ..ack });
            assert_eq!(stream.written, encode_hello(&hello));
            assert_eq!(stream.incoming.position() as usize, ack_len);

            // Cut short, or damaged: an error, never a guess.
            let mut short = Duplex {
                incoming: io::Cursor::new(incoming[..ack_len - 1].to_vec()),
                written: Vec::new(),
            };
            let err = exchange_hello(&mut short, &hello).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            incoming[9] ^= 0x04;
            let mut damaged = Duplex {
                incoming: io::Cursor::new(incoming),
                written: Vec::new(),
            };
            let err = exchange_hello(&mut damaged, &hello).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
