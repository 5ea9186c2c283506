//! Property tests for the federation service's wire protocol: random
//! messages round-trip bit-exactly through a checksummed frame, every
//! strict prefix of a valid frame is rejected with a typed truncation
//! error, hostile length prefixes are rejected before allocation, **every
//! single-bit corruption of a valid frame is caught** (a typed checksum /
//! length error — never a valid message, never a panic), **every error
//! burst of up to 32 bits inside a payload is a checksum mismatch**,
//! frames of the previous, FNV-1a-checksummed revision fail closed,
//! arbitrary bytes decode and serve to a value or a typed error, and a
//! golden byte-layout test with an independent bit-at-a-time CRC-32C
//! reference pins the format so it can't drift silently.

use ctfl::fl::server::FederationService;
use ctfl::fl::wire::{
    decode, decode_frame, encode, frame, frame_checksum, frame_payload, read_frame, JobSpec,
    Message, RejectCode, WireError, FRAME_HEADER, MAX_FRAME,
};
use ctfl_rng::Rng;
use ctfl_testkit::prop::check;
use ctfl_testkit::{prop_assert, prop_assert_eq};

const REJECT_CODES: [RejectCode; 9] = [
    RejectCode::Invalid,
    RejectCode::BadFrame,
    RejectCode::DuplicateJob,
    RejectCode::UnknownJob,
    RejectCode::Busy,
    RejectCode::Expired,
    RejectCode::DuplicateUpdate,
    RejectCode::UnknownSession,
    RejectCode::Protocol,
];

/// A random message exercising every variant, including non-finite floats
/// (the protocol must carry the NaNs a guard later judges).
fn arbitrary_message(g: &mut ctfl_testkit::prop::Gen) -> Message {
    fn float(g: &mut ctfl_testkit::prop::Gen) -> f32 {
        match g.usize_in(0, 9) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            _ => g.f64_in(-1e6, 1e6) as f32,
        }
    }
    fn params(g: &mut ctfl_testkit::prop::Gen) -> Vec<f32> {
        let len = g.len_in(0, 64);
        g.vec(len, float)
    }
    match g.usize_in(0, 12) {
        0 => Message::SubmitJob {
            job: g.u32_in(0, u32::MAX),
            spec: JobSpec {
                seed: g.rng().gen::<u64>(),
                n_clients: g.u32_in(0, 1000),
                rows_per_client: g.u32_in(0, 1000),
                rounds: g.u32_in(0, 100),
                local_epochs: g.u32_in(0, 16),
                parallel: g.bool(),
                dropout: g.f64_in(0.0, 1.0),
                straggler: g.f64_in(0.0, 1.0),
                corrupt: g.f64_in(0.0, 1.0),
                adversary_frac: g.f64_in(0.0, 1.0),
                attack: g.u32_in(0, 255) as u8,
                rule: g.u32_in(0, 255) as u8,
                schedule: g.u32_in(0, 255) as u8,
                sample_frac: g.f64_in(0.0, 1.0),
                max_staleness: g.u32_in(0, 16),
                stale_decay: g.f64_in(0.0, 1.0),
                topology: g.u32_in(0, 255) as u8,
                gossip_degree: g.u32_in(0, 16),
            },
        },
        1 => Message::JobDone {
            job: g.u32_in(0, u32::MAX),
            params_hash: g.rng().gen::<u64>(),
            log_hash: g.rng().gen::<u64>(),
            rounds: g.u32_in(0, 100),
            accuracy: g.f64_in(0.0, 1.0),
        },
        2 => Message::OpenSession {
            session: g.u32_in(0, u32::MAX),
            n_clients: g.u32_in(0, 1000),
            dim: g.u32_in(0, 1000),
        },
        3 => Message::SubmitUpdate {
            session: g.u32_in(0, u32::MAX),
            client: g.u32_in(0, 1000),
            weight: g.u32_in(0, 10_000),
            params: params(g),
        },
        4 => Message::Ack { session: g.u32_in(0, u32::MAX), client: g.u32_in(0, u32::MAX) },
        5 => Message::RoundComplete { session: g.u32_in(0, u32::MAX), params: params(g) },
        6 => {
            // Strings with multi-byte UTF-8 so the byte/char length split is
            // exercised.
            let len = g.len_in(0, 40);
            let detail: String = (0..len)
                .map(|_| match g.usize_in(0, 5) {
                    0 => 'é',
                    1 => '∅',
                    2 => '本',
                    _ => char::from(g.u32_in(0x20, 0x7E) as u8),
                })
                .collect();
            Message::Reject { code: REJECT_CODES[g.usize_in(0, REJECT_CODES.len() - 1)], detail }
        }
        7 => Message::Ping { nonce: g.rng().gen::<u64>() },
        8 => Message::Pong { nonce: g.rng().gen::<u64>() },
        9 => Message::PollJob { job: g.u32_in(0, u32::MAX) },
        10 => Message::ResumeSession { session: g.u32_in(0, u32::MAX) },
        11 => Message::SessionStatus {
            session: g.u32_in(0, u32::MAX),
            n_clients: g.u32_in(0, 1000),
            dim: g.u32_in(0, 1000),
            received: {
                let len = g.len_in(0, 32);
                g.vec(len, |g| g.u32_in(0, 1000))
            },
        },
        _ => Message::Shutdown,
    }
}

/// Every random message survives frame → decode_frame bit-exactly, and the
/// frame is consumed in full. Equality goes through `encode` because NaN
/// payloads defeat `PartialEq`.
#[test]
fn random_messages_round_trip_through_frames() {
    check(
        "wire-round-trip",
        256,
        arbitrary_message,
        |msg| {
            let bytes = frame(msg).map_err(|e| e.to_string())?;
            let (decoded, consumed) = decode_frame(&bytes).map_err(|e| e.to_string())?;
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(encode(&decoded), encode(msg));
            // The streaming face agrees with the pure one.
            let streamed = read_frame(&mut bytes.as_slice()).map_err(|e| e.to_string())?;
            prop_assert_eq!(encode(&streamed), encode(msg));
            Ok(())
        },
    );
}

/// Every strict prefix of a valid frame fails with a *typed* error — never a
/// panic, never a bogus success. Availability is checked before the
/// checksum, so a short buffer is specifically a truncation error, not a
/// misreported corruption.
#[test]
fn every_strict_prefix_is_rejected() {
    check(
        "wire-prefix-rejection",
        64,
        |g| {
            let msg = arbitrary_message(g);
            let bytes = frame(&msg).expect("messages under MAX_FRAME");
            // One representative cut per case keeps the runtime bounded but
            // the seeds cover all regions across cases.
            let cut = g.usize_in(0, bytes.len().saturating_sub(1));
            (bytes, cut)
        },
        |(bytes, cut)| {
            let err = match decode_frame(&bytes[..*cut]) {
                Err(e) => e,
                Ok((msg, consumed)) => {
                    return Err(format!(
                        "prefix of {cut}/{} bytes decoded to {msg:?} ({consumed} consumed)",
                        bytes.len()
                    ))
                }
            };
            prop_assert!(
                matches!(err, WireError::Truncated { .. }),
                "prefix of {cut}/{} bytes gave {err:?}, expected Truncated",
                bytes.len()
            );
            Ok(())
        },
    );
}

/// **Every** single-bit flip anywhere in a valid frame — length prefix,
/// checksum field, payload — is caught as a typed error, never decoded into
/// a valid message and never a panic. This is the property that makes the
/// chaos transport's bit-flip faults safe: corruption cannot silently
/// change a federation job.
#[test]
fn every_single_bit_flip_is_caught() {
    check(
        "wire-bit-flip-detection",
        48,
        |g| frame(&arbitrary_message(g)).expect("messages under MAX_FRAME"),
        |bytes| {
            let mut corrupt = bytes.clone();
            for bit in 0..bytes.len() * 8 {
                corrupt[bit / 8] ^= 1 << (bit % 8);
                match decode_frame(&corrupt) {
                    Ok((msg, _)) => {
                        return Err(format!("flipping bit {bit} yielded a valid {msg:?}"))
                    }
                    // A length-prefix flip can inflate past MAX_FRAME
                    // (Oversized) or past the buffer (Truncated); everything
                    // else must be caught by the checksum.
                    Err(
                        WireError::ChecksumMismatch { .. }
                        | WireError::Oversized { .. }
                        | WireError::Truncated { .. },
                    ) => {}
                    Err(other) => {
                        return Err(format!("flipping bit {bit} gave {other:?}, not a \
                                            corruption error"))
                    }
                }
                corrupt[bit / 8] ^= 1 << (bit % 8);
            }
            prop_assert_eq!(&corrupt, bytes); // flips were all undone
            Ok(())
        },
    );
}

/// A hostile length prefix is rejected with `Oversized` no matter what
/// follows it — before any payload allocation can happen.
#[test]
fn oversized_declared_lengths_are_rejected() {
    check(
        "wire-oversized-rejection",
        64,
        |g| {
            let len = (MAX_FRAME as u32).saturating_add(g.u32_in(1, u32::MAX - MAX_FRAME as u32));
            // At least 4 junk bytes so the streaming reader can complete the
            // 8-byte header — it judges the length only after reading it.
            let junk = g.len_in(4, 16);
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.extend(g.vec(junk, |g| g.u32_in(0, 255) as u8));
            (bytes, len)
        },
        |(bytes, len)| {
            prop_assert_eq!(
                decode_frame(bytes).unwrap_err(),
                WireError::Oversized { len: *len as usize, max: MAX_FRAME }
            );
            prop_assert_eq!(
                read_frame(&mut bytes.as_slice()).unwrap_err(),
                WireError::Oversized { len: *len as usize, max: MAX_FRAME }
            );
            Ok(())
        },
    );
}

/// Unknown tags and trailing garbage are typed errors on otherwise
/// well-formed frames.
#[test]
fn unknown_tags_and_trailing_bytes_are_typed_errors() {
    check(
        "wire-tag-and-trailing",
        64,
        |g| (g.u32_in(0x0E, 0xFF) as u8, arbitrary_message(g)),
        |(tag, msg)| {
            prop_assert_eq!(decode(&[*tag]).unwrap_err(), WireError::UnknownTag { tag: *tag });
            let mut payload = encode(msg);
            payload.push(0xAA);
            match decode(&payload).unwrap_err() {
                // Variants ending in a variable-length field may swallow the
                // byte into the count/content and fail as truncated instead;
                // both are typed rejections.
                WireError::Trailing { .. } | WireError::Truncated { .. } | WireError::BadValue { .. } => Ok(()),
                other => Err(format!("appended byte gave {other:?}")),
            }
        },
    );
}

/// Arbitrary bytes give a value or a typed error, never a panic, through
/// every decoding entry point and through a whole served conversation. Each
/// case is a stream of chunks, raw or wrapped in a frame with a valid
/// header so the payload decoder sees them; half of the framed payloads
/// start with a known tag, so decoding gets past the first byte.
#[test]
fn arbitrary_bytes_decode_and_serve_without_panicking() {
    check(
        "wire-arbitrary-bytes",
        256,
        |g| {
            let chunks = g.len_in(1, 6);
            g.vec(chunks, |g| {
                let len = g.len_in(0, 128);
                let mut bytes = g.vec(len, |g| g.u32_in(0, 255) as u8);
                let framed = g.bool();
                if framed && g.bool() {
                    if let Some(tag) = bytes.first_mut() {
                        *tag = g.u32_in(0x01, 0x0D) as u8;
                    }
                }
                (framed, bytes)
            })
        },
        |chunks| {
            let mut stream = Vec::new();
            for (framed, bytes) in chunks {
                let _ = decode(bytes);
                let _ = decode_frame(bytes);
                if *framed {
                    let frame = frame_payload(bytes).map_err(|e| e.to_string())?;
                    let _ = decode_frame(&frame);
                    stream.extend(frame);
                } else {
                    stream.extend_from_slice(bytes);
                }
            }
            let mut service = FederationService::new(1);
            let mut replies = Vec::new();
            let served = match service.serve(&mut stream.as_slice(), &mut replies) {
                Ok(summary) => Some(summary.served),
                // Only a stream cut mid-frame or an oversized length prefix
                // may end the connection; every decodable frame is answered.
                Err(WireError::Io { .. } | WireError::Oversized { .. }) => None,
                Err(other) => return Err(format!("serve failed with {other:?}")),
            };
            // Everything the server wrote is a well-formed reply frame.
            let mut r = replies.as_slice();
            let mut decoded = 0usize;
            while !r.is_empty() {
                read_frame(&mut r).map_err(|e| format!("reply {decoded} is malformed: {e}"))?;
                decoded += 1;
            }
            prop_assert!(
                served.is_none_or(|n| n == decoded),
                "served {served:?} requests but wrote {decoded} replies"
            );
            Ok(())
        },
    );
}

/// Independent bit-at-a-time CRC-32C: reflected Castagnoli polynomial
/// `0x82F6_3B78`, init and final XOR `0xFFFF_FFFF`. Deliberately *not* the
/// production table-driven code — if `frame_checksum` drifts, this catches
/// it.
fn crc32c_reference(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0x82F6_3B78 } else { crc >> 1 };
        }
    }
    !crc
}

/// The frame checksum by definition: CRC-32C of `len(payload) as u32 LE`
/// followed by the payload bytes.
fn reference_checksum(payload: &[u8]) -> u32 {
    let bytes: Vec<u8> =
        (payload.len() as u32).to_le_bytes().iter().chain(payload).copied().collect();
    crc32c_reference(&bytes)
}

/// The reference is CRC-32C: it reproduces the catalogue check value, the
/// CRC of the nine ASCII digits `123456789`.
#[test]
fn crc32c_reference_matches_the_catalogue_check_value() {
    assert_eq!(crc32c_reference(b"123456789"), 0xE306_9283);
}

/// `frame_checksum` equals the bit-at-a-time reference on random inputs of
/// 0–4 KB. Every prefix of up to 48 bytes is checked too, so each tail
/// length the 16-byte blocks leave over is covered on every case.
#[test]
fn frame_checksum_matches_the_bitwise_reference() {
    check(
        "wire-crc32c-reference",
        128,
        |g| {
            let len = g.len_in(0, 4096);
            g.vec(len, |g| g.u32_in(0, 255) as u8)
        },
        |bytes| {
            prop_assert_eq!(frame_checksum(bytes), reference_checksum(bytes));
            for cut in 0..=bytes.len().min(48) {
                let prefix = &bytes[..cut];
                prop_assert_eq!(frame_checksum(prefix), reference_checksum(prefix));
            }
            Ok(())
        },
    );
}

/// A revision-2 peer's frame: the same bytes, checksummed with FNV-1a-32
/// over the length prefix and payload. Every one fails closed against this
/// revision — a checksum mismatch, answered `BadFrame` by the server — and
/// never decodes to a message.
#[test]
fn revision_two_frames_fail_closed() {
    fn fnv1a_checksum(payload: &[u8]) -> u32 {
        let len = (payload.len() as u32).to_le_bytes();
        len.iter().chain(payload).fold(0x811C_9DC5, |h: u32, &b| {
            (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
        })
    }
    check(
        "wire-revision-two",
        64,
        arbitrary_message,
        |msg| {
            let mut bytes = frame(msg).map_err(|e| e.to_string())?;
            let old = fnv1a_checksum(&bytes[FRAME_HEADER..]);
            bytes[4..FRAME_HEADER].copy_from_slice(&old.to_le_bytes());
            match decode_frame(&bytes) {
                Err(WireError::ChecksumMismatch { expected, .. }) => prop_assert_eq!(expected, old),
                other => return Err(format!("a revision-2 frame gave {other:?}")),
            }
            let mut replies = Vec::new();
            FederationService::new(1)
                .serve(&mut bytes.as_slice(), &mut replies)
                .map_err(|e| e.to_string())?;
            match read_frame(&mut replies.as_slice()) {
                Ok(Message::Reject { code: RejectCode::BadFrame, .. }) => Ok(()),
                other => Err(format!("a revision-2 frame was answered {other:?}")),
            }
        },
    );
}

/// XORs the low `len` bits of `burst` into `bytes`, starting at bit
/// `first`. Bits count LSB first within each byte, the order in which the
/// reflected CRC consumes them, so consecutive positions are consecutive
/// coefficients of the error polynomial.
fn flip_burst(bytes: &mut [u8], first: usize, burst: u32, len: usize) {
    for i in (0..len).filter(|i| burst >> i & 1 == 1) {
        let bit = first + i;
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

/// **Every** error burst of 1–32 bits inside a valid frame's payload is a
/// checksum mismatch: a degree-32 CRC detects every burst no longer than
/// its degree. Each case fixes a random interior pattern; a burst of
/// length `L` flips its first and last bit and the pattern's bits between,
/// at every start position and every `L` that fits in the payload.
#[test]
fn every_short_burst_in_the_payload_is_caught() {
    check(
        "wire-burst-detection",
        16,
        |g| {
            let bytes = frame(&arbitrary_message(g)).expect("messages under MAX_FRAME");
            (bytes, g.rng().gen::<u32>())
        },
        |(bytes, pattern)| {
            let mut corrupt = bytes.clone();
            let payload_bits = (bytes.len() - FRAME_HEADER) * 8;
            for start in 0..payload_bits {
                for len in 1..=(payload_bits - start).min(32) {
                    let burst = (pattern | 1 | 1 << (len - 1)) & (u32::MAX >> (32 - len));
                    flip_burst(&mut corrupt, FRAME_HEADER * 8 + start, burst, len);
                    match decode_frame(&corrupt) {
                        Err(WireError::ChecksumMismatch { .. }) => {}
                        other => {
                            return Err(format!(
                                "burst {burst:#x} of {len} bits at payload bit {start} gave \
                                 {other:?}, not a checksum mismatch"
                            ))
                        }
                    }
                    flip_burst(&mut corrupt, FRAME_HEADER * 8 + start, burst, len);
                }
            }
            prop_assert_eq!(&corrupt, bytes); // bursts were all undone
            Ok(())
        },
    );
}

/// Golden byte layout: the exact frame bytes of representative messages,
/// with the checksum computed by an independent in-test reference. If this
/// test fails, the wire format changed — that is a protocol break, not a
/// refactor.
#[test]
fn golden_byte_layout() {
    // Header shape: 4 length bytes, then 4 checksum bytes over
    // (length LE ++ payload), then the payload.
    assert_eq!(FRAME_HEADER, 8);

    let ack_payload = [
        0x05u8, // Ack tag
        0x04, 0x03, 0x02, 0x01, // session LE
        0x0D, 0x0C, 0x0B, 0x0A, // client LE
    ];
    let ack = frame(&Message::Ack { session: 0x0102_0304, client: 0x0A0B_0C0D }).unwrap();
    let mut expected = vec![9, 0, 0, 0]; // payload length 9
    expected.extend(reference_checksum(&ack_payload).to_le_bytes());
    expected.extend(ack_payload);
    assert_eq!(ack, expected);
    assert_eq!(frame_checksum(&ack_payload), reference_checksum(&ack_payload));

    let round_payload = [
        0x06u8, // RoundComplete tag
        7, 0, 0, 0, // session LE
        2, 0, 0, 0, // params count LE
        0x00, 0x00, 0x80, 0x3F, // 1.0f32 bits LE
        0x00, 0x00, 0x00, 0xC0, // -2.0f32 bits LE
    ];
    let round = frame(&Message::RoundComplete { session: 7, params: vec![1.0, -2.0] }).unwrap();
    let mut expected = vec![17, 0, 0, 0];
    expected.extend(reference_checksum(&round_payload).to_le_bytes());
    expected.extend(round_payload);
    assert_eq!(round, expected);

    let reject_payload = [
        0x07u8, // Reject tag
        4, // Busy code
        2, 0, 0, 0, // detail byte count LE
        b'n', b'o',
    ];
    let reject =
        frame(&Message::Reject { code: RejectCode::Busy, detail: "no".into() }).unwrap();
    let mut expected = vec![8, 0, 0, 0];
    expected.extend(reference_checksum(&reject_payload).to_le_bytes());
    expected.extend(reject_payload);
    assert_eq!(reject, expected);

    let mut expected = vec![1, 0, 0, 0];
    expected.extend(reference_checksum(&[0x08]).to_le_bytes());
    expected.push(0x08);
    assert_eq!(frame(&Message::Shutdown).unwrap(), expected);

    let ping_payload = [
        0x09u8, // Ping tag
        0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, // nonce LE
    ];
    let ping = frame(&Message::Ping { nonce: 0x0123_4567_89AB_CDEF }).unwrap();
    let mut expected = vec![9, 0, 0, 0];
    expected.extend(reference_checksum(&ping_payload).to_le_bytes());
    expected.extend(ping_payload);
    assert_eq!(ping, expected);

    let status_payload = [
        0x0Du8, // SessionStatus tag
        3, 0, 0, 0, // session LE
        2, 0, 0, 0, // n_clients LE
        5, 0, 0, 0, // dim LE
        1, 0, 0, 0, // received count LE
        1, 0, 0, 0, // received[0] LE
    ];
    let status = frame(&Message::SessionStatus {
        session: 3,
        n_clients: 2,
        dim: 5,
        received: vec![1],
    })
    .unwrap();
    let mut expected = vec![21, 0, 0, 0];
    expected.extend(reference_checksum(&status_payload).to_le_bytes());
    expected.extend(status_payload);
    assert_eq!(status, expected);

    let job =
        frame(&Message::SubmitJob { job: 0x0B0C_0D0E, spec: JobSpec::clean(0x0102_0304_0506_0708, 4, 3) })
            .unwrap();
    // tag 1 + job 4 + seed 8 + 4*u32 + bool 1 + 4*f64 + 2*u8 (legacy 64
    // bytes), then the scheduling/topology extension: schedule u8 +
    // sample_frac f64 + max_staleness u32 + stale_decay f64 + topology u8 +
    // gossip_degree u32 (26 bytes).
    assert_eq!(&job[..4], [90, 0, 0, 0]);
    assert_eq!(job[4..8], frame_checksum(&job[8..]).to_le_bytes());
    assert_eq!(job[4..8], reference_checksum(&job[8..]).to_le_bytes());
    assert_eq!(job[8], 0x01); // SubmitJob tag
    assert_eq!(&job[9..13], [0x0E, 0x0D, 0x0C, 0x0B]); // job id LE
    assert_eq!(&job[13..21], [0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]); // seed LE
    assert_eq!(&job[21..25], [4, 0, 0, 0]); // n_clients
    assert_eq!(&job[25..29], [40, 0, 0, 0]); // rows_per_client
    assert_eq!(&job[29..33], [3, 0, 0, 0]); // rounds
    assert_eq!(&job[33..37], [1, 0, 0, 0]); // local_epochs
    assert_eq!(job[37], 0); // parallel = false
    assert_eq!(&job[38..70], [0u8; 32]); // four all-zero f64 probabilities
    assert_eq!(&job[70..72], [0, 0]); // attack, rule codes
    assert_eq!(job[72], 0); // schedule code (full)
    assert_eq!(&job[73..81], 0.5f64.to_le_bytes()); // sample_frac
    assert_eq!(&job[81..85], [2, 0, 0, 0]); // max_staleness
    assert_eq!(&job[85..93], 0.5f64.to_le_bytes()); // stale_decay
    assert_eq!(job[93], 0); // topology code (star)
    assert_eq!(&job[94..98], [2, 0, 0, 0]); // gossip_degree
    assert_eq!(job.len(), FRAME_HEADER + 90);
}
