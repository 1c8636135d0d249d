//! Framing robustness for the TCP transport: torn reads, hostile length
//! prefixes, mid-frame connection loss, and a seeded byte-level fuzz of
//! the frame codec. Raw `TcpStream`s are used here to play a hostile or
//! broken peer, so this file opts out of the workspace's raw-socket ban
//! (clippy `disallowed_types`), which confines sockets in library code to
//! `crates/soap/src/tcp.rs`.

#![allow(clippy::disallowed_types, reason = "plays a raw TCP peer against the transport")]

use dais::soap::bus::BusError;
use dais::soap::retry::is_retryable;
use dais::soap::tcp::{
    decode_frame, encode_frame, Frame, FrameBody, FrameError, FrameReader, TcpServer, TcpTransport,
    MAX_FRAME_LEN,
};
use dais::soap::{Bus, CallError, Envelope, SoapDispatcher, Transport};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

mod actions {
    dais::soap::actions! {
        ECHO = "urn:echo", Read;
    }
}

fn echo_bus() -> Bus {
    let bus = Bus::new();
    let mut d = SoapDispatcher::new();
    d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
    bus.register("bus://svc", Arc::new(d));
    bus
}

fn sample_frame(id: u64) -> Frame {
    Frame {
        id,
        body: FrameBody::Request {
            to: "bus://svc".into(),
            action: "urn:echo".into(),
            envelope: b"<Envelope><Body><m>payload</m></Body></Envelope>".to_vec(),
        },
    }
}

// ---------------------------------------------------------------------------
// Torn and partial reads
// ---------------------------------------------------------------------------

#[test]
fn every_torn_prefix_is_incomplete_never_malformed() {
    let mut wire = Vec::new();
    encode_frame(&sample_frame(42), &mut wire);
    for cut in 0..wire.len() {
        match decode_frame(&wire[..cut]) {
            Err(FrameError::Incomplete { needed }) => {
                assert!(needed > cut, "cut at {cut} asked for only {needed} bytes");
            }
            other => panic!("cut at {cut} produced {other:?}"),
        }
    }
    let (decoded, used) = decode_frame(&wire).unwrap();
    assert_eq!(used, wire.len());
    assert_eq!(decoded, sample_frame(42));
}

#[test]
fn reader_reassembles_across_arbitrary_chunking() {
    let frames: Vec<Frame> = (0..5).map(sample_frame).collect();
    let mut wire = Vec::new();
    for f in &frames {
        encode_frame(f, &mut wire);
    }
    // Several chunk sizes, including pathological one-byte delivery.
    for chunk in [1usize, 2, 3, 7, 64, 1024] {
        let mut reader = FrameReader::new();
        let mut seen = Vec::new();
        for piece in wire.chunks(chunk) {
            reader.feed(piece);
            while let Some(frame) = reader.next_frame().expect("valid stream never errors") {
                seen.push(frame);
            }
        }
        assert_eq!(seen, frames, "chunk size {chunk} corrupted reassembly");
        assert_eq!(reader.pending_bytes(), 0);
    }
}

// ---------------------------------------------------------------------------
// Hostile length prefixes
// ---------------------------------------------------------------------------

#[test]
fn oversized_length_prefix_is_rejected_with_the_bound() {
    let mut wire = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(&[0u8; 64]);
    match decode_frame(&wire) {
        Err(FrameError::TooLarge { len }) => assert_eq!(len, MAX_FRAME_LEN + 1),
        other => panic!("expected TooLarge, got {other:?}"),
    }
    // The largest legal prefix is still only Incomplete.
    let legal = (MAX_FRAME_LEN as u32).to_be_bytes().to_vec();
    assert!(matches!(decode_frame(&legal), Err(FrameError::Incomplete { .. })));
}

#[test]
fn server_drops_a_connection_announcing_an_oversized_frame() {
    let bus = echo_bus();
    let server = TcpServer::bind(&bus, "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // Announce a body far past the bound; the server must hang up
    // rather than try to buffer it.
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    stream.write_all(&[0u8; 32]).unwrap();
    let mut sink = [0u8; 16];
    let n = stream.read(&mut sink).unwrap_or(0);
    assert_eq!(n, 0, "the server kept talking to an oversized-frame peer");
}

// ---------------------------------------------------------------------------
// Mid-frame connection close → retryable error, not a hang
// ---------------------------------------------------------------------------

#[test]
fn mid_frame_close_surfaces_as_retryable_connection_lost() {
    // A server that reads the request, writes *half* a response frame,
    // and slams the connection.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let betrayer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut buf = [0u8; 4096];
        let _ = stream.read(&mut buf);
        let mut reply = Vec::new();
        encode_frame(
            &Frame { id: 1, body: FrameBody::Response(b"<Envelope/>".to_vec()) },
            &mut reply,
        );
        stream.write_all(&reply[..reply.len() / 2]).unwrap();
        // Dropping the stream closes it mid-frame.
    });

    let transport = TcpTransport::default();
    transport.set_default_route(addr);
    let mut response = Vec::new();
    let err = transport
        .call("bus://svc", "urn:echo", b"<Envelope/>", &mut response)
        .expect_err("half a frame is not a response");
    betrayer.join().unwrap();
    assert!(
        matches!(err, BusError::ConnectionLost(_)),
        "mid-frame close must be ConnectionLost, got {err:?}"
    );
    assert!(
        is_retryable(&CallError::Transport(err)),
        "connection loss must be retryable so the pool can reconnect"
    );
}

#[test]
fn connect_refused_surfaces_as_retryable_connection_lost() {
    // Bind-then-drop guarantees a port with no listener.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let transport = TcpTransport::default();
    transport.set_default_route(addr);
    let mut response = Vec::new();
    let err = transport.call("bus://svc", "urn:echo", b"<Envelope/>", &mut response).unwrap_err();
    assert!(matches!(err, BusError::ConnectionLost(_)), "got {err:?}");
    assert!(is_retryable(&CallError::Transport(err)));
}

// ---------------------------------------------------------------------------
// Seeded byte-level fuzz
// ---------------------------------------------------------------------------

/// SplitMix64 — the same deterministic generator the chaos layer uses.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    /// Up to `max` random bytes.
    fn blob(&mut self, max: usize) -> Vec<u8> {
        let len = self.below(max);
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// Up to `max` random lowercase letters.
    fn word(&mut self, max: usize) -> String {
        let len = self.below(max);
        (0..len).map(|_| char::from(b'a' + (self.next() % 26) as u8)).collect()
    }
}

fn random_frame(rng: &mut Rng) -> Frame {
    let id = rng.next();
    let body = match rng.below(7) {
        0 => FrameBody::Response(rng.blob(2048)),
        1 => FrameBody::Error(BusError::NoSuchEndpoint(rng.word(64))),
        2 => FrameBody::Error(BusError::MalformedEnvelope(rng.word(64))),
        3 => FrameBody::Error(BusError::Timeout(rng.word(64))),
        4 => FrameBody::Error(BusError::Overloaded {
            endpoint: rng.word(64),
            retry_after: Duration::from_nanos(rng.next() >> 1),
        }),
        5 => FrameBody::Error(BusError::ConnectionLost(rng.word(64))),
        _ => FrameBody::Request {
            to: rng.word(128),
            action: rng.word(128),
            envelope: rng.blob(2048),
        },
    };
    Frame { id, body }
}

#[test]
fn fuzzed_frames_round_trip_under_any_chunking() {
    for seed in [1u64, 0xF00D, 0xDA15_0B5E] {
        let mut rng = Rng(seed);
        let frames: Vec<Frame> = (0..40).map(|_| random_frame(&mut rng)).collect();
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        let mut reader = FrameReader::new();
        let mut seen = Vec::new();
        let mut offset = 0;
        while offset < wire.len() {
            let take = (rng.below(700) + 1).min(wire.len() - offset);
            reader.feed(&wire[offset..offset + take]);
            offset += take;
            while let Some(frame) = reader.next_frame().expect("valid stream never errors") {
                seen.push(frame);
            }
        }
        assert_eq!(seen, frames, "seed {seed:#x} failed the round trip");
    }
}

#[test]
fn fuzzed_garbage_never_panics_the_decoder() {
    // Random bytes and single-byte mutations of valid frames: the
    // decoder must always return — a frame, Incomplete, or an error —
    // and never panic or loop.
    let mut rng = Rng(0x0DD5_EED5);
    for _ in 0..200 {
        let garbage = rng.blob(512);
        let _ = decode_frame(&garbage);
    }
    for _ in 0..200 {
        let mut wire = Vec::new();
        encode_frame(&random_frame(&mut rng), &mut wire);
        let at = rng.below(wire.len());
        wire[at] ^= (rng.next() as u8) | 1;
        match decode_frame(&wire) {
            Ok((frame, used)) => {
                // A surviving decode must stay inside the input.
                assert!(used <= wire.len());
                drop(frame);
            }
            Err(FrameError::TooLarge { len }) => assert!(len > MAX_FRAME_LEN),
            Err(_) => {}
        }
    }
}
