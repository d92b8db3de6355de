//! Codec properties for both framings the crate speaks — the fabric wire
//! codec and the relay's edge codec: arbitrary frames round-trip across
//! size boundaries, survive any TCP chunking through the one shared
//! [`FrameAssembler`], and truncated / oversized / garbage /
//! cross-protocol inputs are rejected with a typed [`WireError`] — never
//! a panic.

use proptest::prelude::*;
use spindle_fabric::{NodeId, WriteOp};
use spindle_net::edge::{
    decode_edge_frame, encode_edge_frame, EdgeAssembler, EdgeFrame, MAX_EDGE_FRAME_LEN,
};
use spindle_net::wire::{
    decode_frame, encode_frame, Frame, FrameAssembler, Hello, StreamFrame, WireError, WriteFrame,
    KIND_WRITE, MAX_FRAME_LEN, PROTO_VERSION,
};

/// The chunk-boundary property, stated once for every codec: a stream of
/// frames delivered in arbitrary chunk sizes (the receiver's view of
/// short `writev`s, TCP segmentation, clients that dribble bytes — any
/// byte may land on a read boundary) reassembles through
/// [`FrameAssembler`] into the *identical* frame sequence. This is the
/// invariant that lets a poller flush a backlog as one vectored write
/// and resume mid-frame after a short write.
fn any_chunking_reassembles_identically<F: StreamFrame + PartialEq + std::fmt::Debug>(
    frames: Vec<F>,
    encode: impl Fn(&F, &mut Vec<u8>) -> usize,
    chunks: &[usize],
) -> Result<(), TestCaseError> {
    let mut stream = Vec::new();
    for f in &frames {
        encode(f, &mut stream);
    }
    // Feed the byte stream in the generated chunk sizes (cycled),
    // draining after every feed — exactly what an inbound path does per
    // readiness event.
    let mut asm = FrameAssembler::<F>::new();
    let mut got = Vec::new();
    let mut at = 0usize;
    for n in chunks.iter().cycle() {
        if at == stream.len() {
            break;
        }
        let n = (*n).min(stream.len() - at);
        asm.feed(&stream[at..at + n]);
        at += n;
        while let Some(f) = asm
            .next_frame()
            .expect("a cut of a valid stream never errors")
        {
            got.push(f);
        }
    }
    prop_assert_eq!(got, frames);
    prop_assert_eq!(asm.buffered(), 0);
    Ok(())
}

/// Word counts probing the interesting boundaries: single-word acks, the
/// 16 KiB read-buffer edge, and everything between.
fn arb_words() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 1..2050)
}

fn arb_write_frame() -> impl Strategy<Value = WriteFrame> {
    (arb_words(), 0u64..1_000_000, any::<u32>()).prop_map(|(words, offset, wire_bytes)| {
        WriteFrame {
            offset,
            wire_bytes,
            words,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity, and consumes exactly the encoded
    /// bytes, for arbitrary write frames across size boundaries.
    #[test]
    fn write_frames_roundtrip(frame in arb_write_frame()) {
        let mut buf = Vec::new();
        let n = encode_frame(&Frame::Write(frame.clone()), &mut buf);
        prop_assert_eq!(n, buf.len());
        let (back, used) = decode_frame(&buf).expect("well-formed frame decodes");
        prop_assert_eq!(used, n);
        prop_assert_eq!(back, Frame::Write(frame));
    }

    /// A logical `WriteOp` survives the op → frame → bytes → frame → op
    /// trip exactly (this is the invariant the TCP fabric rides on).
    #[test]
    fn write_ops_roundtrip(start in 0usize..10_000, len in 1usize..512, dst in 0usize..64) {
        let op = WriteOp::new(NodeId(dst), start..start + len);
        let words: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let frame = WriteFrame::for_op(&op, words.clone());
        let mut buf = Vec::new();
        encode_frame(&Frame::Write(frame), &mut buf);
        let (decoded, _) = decode_frame(&buf).expect("decodes");
        let Frame::Write(w) = decoded else {
            return Err(TestCaseError::fail("decoded to a non-write frame"));
        };
        prop_assert_eq!(w.to_op(NodeId(dst)), op);
        prop_assert_eq!(w.words, words);
    }

    /// Every strict prefix of a valid frame decodes to `Truncated` (the
    /// streaming decoder's "read more" signal) — and never panics.
    #[test]
    fn every_truncation_is_typed(frame in arb_write_frame(), cut_frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        encode_frame(&Frame::Write(frame), &mut buf);
        let cut = ((buf.len() - 1) as f64 * cut_frac) as usize;
        match decode_frame(&buf[..cut]) {
            Err(WireError::Truncated { have, need }) => {
                prop_assert_eq!(have, cut);
                prop_assert!(need > cut);
                prop_assert!(need <= buf.len());
            }
            other => return Err(TestCaseError::fail(format!(
                "prefix of {cut}/{} bytes decoded to {other:?}", buf.len()
            ))),
        }
    }

    /// The chunk-boundary property over the fabric codec.
    #[test]
    fn interleaved_partial_writes_reassemble_identically(
        specs in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u64>(), 1..32), 0u64..10_000, any::<u32>()),
            1..20,
        ),
        chunks in proptest::collection::vec(1usize..29, 1..64),
    ) {
        let frames: Vec<Frame> = specs
            .into_iter()
            .map(|(is_hello, words, offset, wire_bytes)| {
                if is_hello {
                    Frame::Hello(Hello {
                        version: PROTO_VERSION,
                        src: offset as u32 % 64,
                        nodes: 1 + wire_bytes % 62,
                        region_words: 1 + offset,
                        epoch: wire_bytes as u64 >> 16,
                    })
                } else {
                    Frame::Write(WriteFrame { offset, wire_bytes, words })
                }
            })
            .collect();
        any_chunking_reassembles_identically(frames, encode_frame, &chunks)?;
    }

    /// Arbitrary garbage never panics the decoder: it either reports a
    /// typed error or (by coincidence) frames something structurally
    /// valid and consumes no more than the buffer.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok((_, used)) = decode_frame(&bytes) {
            prop_assert!(used <= bytes.len());
        }
    }

    /// An unknown kind byte is rejected as `BadKind`, whatever the body
    /// (0x03–0x06 are the join control frames now).
    #[test]
    fn unknown_kind_is_typed(kind in 7u8..=255, body_len in 0usize..64) {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((body_len + 1) as u32).to_le_bytes());
        buf.push(kind);
        buf.extend(std::iter::repeat_n(0u8, body_len));
        prop_assert_eq!(decode_frame(&buf), Err(WireError::BadKind(kind)));
    }
}

#[test]
fn oversized_length_is_rejected_before_allocation() {
    // A length prefix claiming 4 GiB must be rejected from the 4-byte
    // prefix alone — not treated as "read 4 GiB more".
    let mut buf = Vec::new();
    buf.extend_from_slice(&u32::MAX.to_le_bytes());
    buf.push(KIND_WRITE);
    assert_eq!(
        decode_frame(&buf),
        Err(WireError::Oversized {
            len: u32::MAX as usize
        })
    );
    assert!(u32::MAX as usize > MAX_FRAME_LEN);
}

#[test]
fn write_frame_with_inconsistent_word_count_is_rejected() {
    let frame = WriteFrame {
        offset: 4,
        wire_bytes: 16,
        words: vec![1, 2],
    };
    let mut buf = Vec::new();
    encode_frame(&Frame::Write(frame), &mut buf);
    // Claim 3 words while carrying 2: LengthMismatch, not a bad read.
    let nwords_at = 4 + 1 + 8 + 4;
    buf[nwords_at] = 3;
    assert_eq!(
        decode_frame(&buf),
        Err(WireError::LengthMismatch {
            kind: KIND_WRITE,
            len: 17 + 2 * 8
        })
    );
}

#[test]
fn hello_with_wrong_version_is_rejected() {
    let mut buf = Vec::new();
    encode_frame(
        &Frame::Hello(Hello {
            version: PROTO_VERSION,
            src: 1,
            nodes: 3,
            region_words: 64,
            epoch: 0,
        }),
        &mut buf,
    );
    buf[5] = PROTO_VERSION as u8 + 1;
    assert_eq!(
        decode_frame(&buf),
        Err(WireError::BadVersion(PROTO_VERSION + 1))
    );
}

// ---- the relay's edge codec ------------------------------------------

fn arb_data() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..4096)
}

fn arb_edge_frame() -> impl Strategy<Value = EdgeFrame> {
    prop_oneof![
        (any::<u8>(), arb_data()).prop_map(|(topic, data)| EdgeFrame::Publish { topic, data }),
        any::<u8>().prop_map(|topic| EdgeFrame::Subscribe { topic }),
        (
            any::<u8>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            arb_data()
        )
            .prop_map(|(topic, publisher, index, epoch, data)| EdgeFrame::Sample {
                topic,
                publisher,
                index,
                epoch,
                data,
            }),
        (any::<u8>(), any::<u8>()).prop_map(|(topic, status)| EdgeFrame::PubAck { topic, status }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity and consumes exactly the encoded
    /// bytes, for every frame kind the relay speaks.
    #[test]
    fn edge_frames_roundtrip(frame in arb_edge_frame()) {
        let mut buf = Vec::new();
        let n = encode_edge_frame(&frame, &mut buf);
        prop_assert_eq!(n, buf.len());
        let (back, used) = decode_edge_frame(&buf).expect("well-formed frame decodes");
        prop_assert_eq!(used, n);
        prop_assert_eq!(back, frame);
    }

    /// The chunk-boundary property over the edge codec.
    #[test]
    fn any_edge_chunking_reassembles_identically(
        frames in proptest::collection::vec(arb_edge_frame(), 1..12),
        chunks in proptest::collection::vec(1usize..29, 1..64),
    ) {
        any_chunking_reassembles_identically(frames, encode_edge_frame, &chunks)?;
    }

    /// Every strict prefix of a valid frame is either "wait for more
    /// bytes" (assembler returns `None`) — never an error, never a
    /// partial decode.
    #[test]
    fn every_truncation_waits_for_more(frame in arb_edge_frame(), cut_frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        let n = encode_edge_frame(&frame, &mut buf);
        let cut = ((n as f64 * cut_frac) as usize).min(n - 1); // strict prefix
        let mut asm = EdgeAssembler::new();
        asm.feed(&buf[..cut]);
        prop_assert_eq!(asm.next_frame().expect("prefix is not an error"), None);
        prop_assert_eq!(asm.buffered(), cut);
        // Feeding the remainder completes the frame exactly.
        asm.feed(&buf[cut..]);
        prop_assert_eq!(asm.next_frame().expect("completed"), Some(frame));
    }

    /// Arbitrary garbage never panics the decoder: it yields a typed
    /// error or asks for more bytes, and declared lengths beyond the
    /// cap are rejected as `Oversized` before any allocation.
    #[test]
    fn edge_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        match decode_edge_frame(&bytes) {
            Ok((_, used)) => prop_assert!(used <= bytes.len()),
            Err(WireError::Oversized { len }) => {
                prop_assert!(len > MAX_EDGE_FRAME_LEN);
            }
            Err(_) => {} // any other typed error is acceptable
        }
    }

    /// A fabric frame kind fed to the edge decoder (a cross-wired
    /// connection) fails fast as `BadKind` — the kind ranges are
    /// disjoint by design.
    #[test]
    fn fabric_kinds_are_rejected(kind in 0x01u8..0x07, body in arb_data()) {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(1 + body.len() as u32).to_le_bytes());
        buf.push(kind);
        buf.extend_from_slice(&body);
        prop_assert_eq!(decode_edge_frame(&buf), Err(WireError::BadKind(kind)));
    }
}
