//! Property-based tests on the `SWP1` wire protocol: encode → decode
//! is the identity for every message type, and hostile bytes —
//! truncation, bit-rot, length-flips, even CRC-fixed payload tampering
//! and raw byte soup — always surface as *typed* [`WireError`]s, never
//! as a panic. The codec faces the network; its failure mode is a
//! closed connection, not a crashed daemon.

use proptest::prelude::*;
use seculator::compute::quant::QTensor3;
use seculator::core::{crc32, splitmix as mix};
use seculator::wire::{
    decode_frame, encode_frame, FrameDecoder, Message, RequestState, WireError, MAX_FRAME,
};

fn detail_from(rng: &mut u64) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789 .;:()=-";
    let len = (mix(rng) % 61) as usize;
    (0..len)
        .map(|_| CHARS[(mix(rng) as usize) % CHARS.len()] as char)
        .collect()
}

fn tensor_from(rng: &mut u64) -> QTensor3 {
    let c = 1 + (mix(rng) % 4) as usize;
    let h = 1 + (mix(rng) % 4) as usize;
    let w = 1 + (mix(rng) % 4) as usize;
    QTensor3::seeded(c, h, w, mix(rng))
}

fn state_from(rng: &mut u64) -> RequestState {
    match mix(rng) % 6 {
        0 => RequestState::Unknown,
        1 => RequestState::Queued,
        2 => RequestState::Running {
            commits: mix(rng) as u32,
        },
        3 => RequestState::Completed {
            digest: mix(rng),
            output: tensor_from(rng),
        },
        4 => RequestState::Aborted {
            breach: mix(rng) & 1 == 1,
            detail: detail_from(rng),
        },
        _ => RequestState::Quarantined {
            detail: detail_from(rng),
        },
    }
}

/// One of the 15 `SWP1` message types (chosen by `selector`), with
/// arbitrary field contents expanded from `seed` inside the codec's
/// documented bounds.
fn message_from(selector: u8, seed: u64) -> Message {
    let mut state = seed;
    let rng = &mut state;
    match selector % 15 {
        0 => Message::ClientHello {
            tenant: mix(rng) as u32,
            client_nonce: mix(rng),
        },
        1 => Message::ServerChallenge {
            challenge: mix(rng),
            server_nonce: mix(rng),
        },
        2 => {
            let mut tag = [0u8; 32];
            for b in &mut tag {
                *b = mix(rng) as u8;
            }
            Message::AuthProof { tag }
        }
        3 => Message::AuthOk {
            tenant: mix(rng) as u32,
        },
        4 => Message::AuthReject {
            reason: detail_from(rng),
        },
        5 => Message::Submit {
            request_id: mix(rng),
            model: detail_from(rng),
            input: tensor_from(rng),
        },
        6 => Message::SubmitAck {
            request_id: mix(rng),
            queued_round: mix(rng),
        },
        7 => Message::SubmitReject {
            request_id: mix(rng),
            reason: detail_from(rng),
        },
        8 => Message::Poll {
            request_id: mix(rng),
        },
        9 => Message::Status {
            request_id: mix(rng),
            state: state_from(rng),
        },
        10 => Message::Abort {
            request_id: mix(rng),
        },
        11 => Message::AbortAck {
            request_id: mix(rng),
            cancelled: mix(rng) & 1 == 1,
        },
        12 => Message::Drain,
        13 => Message::DrainAck { flushed: mix(rng) },
        _ => Message::ProtocolError {
            detail: detail_from(rng),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode is the identity for every message type, both at
    /// the payload layer and through full `SWP1` framing. The selector
    /// walks every tag; the seed varies the contents.
    #[test]
    fn every_message_round_trips_bit_identically(selector in 0u8..15, seed in any::<u64>()) {
        let msg = message_from(selector, seed);
        let payload = msg.encode();
        prop_assert_eq!(&Message::decode(&payload).expect("own encoding decodes"), &msg);

        let framed = encode_frame(&payload);
        let recovered = decode_frame(&framed).expect("own framing decodes");
        prop_assert_eq!(&recovered, &payload);
        prop_assert_eq!(&Message::decode(&recovered).expect("framed payload decodes"), &msg);
    }

    /// The streaming decoder reassembles back-to-back frames delivered
    /// one byte at a time — worst-case TCP fragmentation.
    #[test]
    fn streaming_reassembly_survives_any_fragmentation(
        sel_a in 0u8..15, seed_a in any::<u64>(),
        sel_b in 0u8..15, seed_b in any::<u64>(),
    ) {
        let msg = message_from(sel_a, seed_a);
        let msg2 = message_from(sel_b, seed_b);
        let mut stream = encode_frame(&msg.encode());
        stream.extend_from_slice(&encode_frame(&msg2.encode()));
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for byte in &stream {
            dec.push(std::slice::from_ref(byte));
            while let Some(p) = dec.next_frame().expect("clean stream never errors") {
                got.push(Message::decode(&p).expect("clean payload decodes"));
            }
        }
        prop_assert_eq!(got, vec![msg, msg2]);
    }

    /// Truncation at any point yields either "need more bytes" (the
    /// streaming decoder waits) or a typed error — and `decode_frame`,
    /// which demands a complete frame, always errors. Never a panic.
    #[test]
    fn truncation_is_a_typed_failure(
        selector in 0u8..15, seed in any::<u64>(), frac in 0u64..1000,
    ) {
        let framed = encode_frame(&message_from(selector, seed).encode());
        let cut = ((framed.len() as u64 - 1) * frac / 1000) as usize;
        let partial = &framed[..cut];
        prop_assert!(decode_frame(partial).is_err(), "short frame must not decode");
        let mut dec = FrameDecoder::new();
        dec.push(partial);
        // Prefix of a valid frame: the stream is incomplete, not broken.
        prop_assert_eq!(dec.next_frame().expect("prefix is not an error"), None);
    }

    /// A single flipped bit anywhere in the frame is always caught:
    /// magic, length, and CRC fields each defend their span, and CRC32
    /// catches every single-bit payload flip by construction.
    #[test]
    fn single_bit_rot_is_always_detected(
        selector in 0u8..15, seed in any::<u64>(),
        pos in any::<prop::sample::Index>(), bit in 0u8..8,
    ) {
        let mut framed = encode_frame(&message_from(selector, seed).encode());
        let i = pos.index(framed.len());
        framed[i] ^= 1 << bit;
        let outcome = decode_frame(&framed);
        let typed = matches!(
            outcome,
            Err(WireError::BadMagic { .. }
                | WireError::BadCrc { .. }
                | WireError::FrameTooLarge { .. }
                | WireError::TrailingBytes { .. }
                | WireError::Malformed { .. })
        );
        prop_assert!(typed, "a flipped bit must fail typed, got {:?}", outcome);
    }

    /// Rewriting the length field to an arbitrary value never decodes
    /// the frame and never panics — oversized claims are rejected
    /// before any allocation.
    #[test]
    fn length_flips_never_decode(
        selector in 0u8..15, seed in any::<u64>(), claimed in any::<u32>(),
    ) {
        let payload = message_from(selector, seed).encode();
        let mut framed = encode_frame(&payload);
        prop_assume!(claimed as usize != payload.len());
        framed[4..8].copy_from_slice(&claimed.to_le_bytes());
        prop_assert!(decode_frame(&framed).is_err());
        if claimed as usize > MAX_FRAME {
            let oversized = matches!(
                decode_frame(&framed),
                Err(WireError::FrameTooLarge { .. })
            );
            prop_assert!(oversized, "oversized length claim must fail as FrameTooLarge");
        }
    }

    /// The strongest tamper: corrupt the payload, then *fix the CRC* so
    /// framing passes. The message codec itself must then either decode
    /// some message or fail typed — bounds-checked reads everywhere,
    /// no panic on any byte value.
    #[test]
    fn crc_fixed_tamper_never_panics(
        selector in 0u8..15, seed in any::<u64>(),
        pos in any::<prop::sample::Index>(), xor in 1u8..=255,
    ) {
        let mut payload = message_from(selector, seed).encode();
        let i = pos.index(payload.len());
        payload[i] ^= xor;
        let mut framed = encode_frame(&payload);
        let fixed = crc32(&payload);
        framed[8..12].copy_from_slice(&fixed.to_le_bytes());
        let recovered = decode_frame(&framed).expect("CRC-fixed framing passes");
        prop_assert_eq!(&recovered, &payload);
        let codec = Message::decode(&recovered);
        let typed = matches!(
            codec,
            Ok(_) | Err(WireError::UnknownTag { .. }
                | WireError::Malformed { .. }
                | WireError::TrailingBytes { .. })
        );
        prop_assert!(typed, "untyped codec failure: {:?}", codec);
    }

    /// Raw byte soup through the streaming decoder: every outcome is a
    /// frame, a wait, or a typed error — and once the stream errors it
    /// stays poisoned (a desynced framing stream cannot be trusted to
    /// resync on garbage).
    #[test]
    fn byte_soup_yields_only_typed_outcomes(chunks in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..64), 1..8,
    )) {
        let mut dec = FrameDecoder::new();
        let mut poisoned = false;
        for chunk in &chunks {
            dec.push(chunk);
            loop {
                match dec.next_frame() {
                    Ok(Some(payload)) => {
                        let _ = Message::decode(&payload);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        poisoned = true;
                        break;
                    }
                }
            }
            if poisoned {
                // Sticky poison: every later call must keep failing.
                dec.push(&[0u8; 4]);
                prop_assert!(dec.next_frame().is_err());
                break;
            }
        }
    }
}

/// Distinct request ids draw distinct nonce spaces. A tenant serves
/// request 0, request 1, and then the id whose splitmix image is 0 (a
/// hashed salt would hand it request 0's nonce); the daemon-lifetime pad
/// ledger must still count no CTR pad issued twice.
#[test]
fn request_ids_never_share_a_nonce_space() {
    use seculator::client::Client;
    use seculator::core::campaign_models;
    use seculator::wire::{wire_identity, DaemonConfig, LoopbackNet};

    let seed = 7;
    let (root, _) = wire_identity(seed);
    let mlp = campaign_models()
        .into_iter()
        .find(|m| m.name == "mlp")
        .expect("mlp is a campaign model");
    let net = LoopbackNet::new(&DaemonConfig::new(seed), seed);
    let mut client = Client::new(LoopbackNet::connect(&net), 0);
    client
        .authenticate(&root.derive_tenant(0), seed)
        .expect("handshake");
    for request_id in [0, 1, 0x61C8_8646_80B5_83EB] {
        client
            .submit(request_id, mlp.name, mlp.input.clone())
            .expect("admitted");
        let state = client.wait_terminal(request_id, 1 << 16).expect("served");
        assert!(
            matches!(state, RequestState::Completed { .. }),
            "request {request_id:#x}: {state:?}"
        );
    }
    let net = net.borrow();
    assert!(net.daemon().pads_issued() > 0);
    assert_eq!(
        net.daemon().pad_collisions(),
        0,
        "a request reissued another request's CTR pads"
    );
}

/// A reply detail that quotes a hostile message still fits the codec.
/// The model name is 256 four-byte characters (1,024 bytes, the most
/// `Message::decode` accepts), so the detail the daemon builds from it
/// runs past 1,024 bytes before it is cut. Sent before authentication,
/// and as a message no authenticated client may send, each gets a
/// `ProtocolError` that survives `encode_frame` → `decode_frame` →
/// `Message::decode`, and the connection closes.
#[test]
fn protocol_error_details_fit_the_codec_whatever_the_client_sent() {
    use seculator::wire::{auth_tag, wire_identity, Daemon, DaemonConfig};

    let wide = "\u{1D11E}".repeat(256);
    assert_eq!(wide.len(), 1024);
    let submit = Message::Submit {
        request_id: 0,
        model: wide.clone(),
        input: QTensor3::seeded(1, 1, 1, 1),
    };
    let submit = Message::decode(&submit.encode()).expect("a 1,024-byte name is in bounds");

    let seed = 7;
    let (root, _) = wire_identity(seed);
    let mut daemon = Daemon::new(&DaemonConfig::new(seed));

    // Conn 0: out of order before the handshake.
    daemon.on_connect(0);
    let fresh = daemon.on_message(0, submit);

    // Conn 1: authenticate tenant 0, then send a server-only message.
    daemon.on_connect(1);
    let client_nonce = 11;
    let reply = daemon.on_message(
        1,
        Message::ClientHello {
            tenant: 0,
            client_nonce,
        },
    );
    let Message::ServerChallenge {
        challenge,
        server_nonce,
    } = reply.msgs[0]
    else {
        panic!("expected a challenge, got {:?}", reply.msgs);
    };
    let tag = auth_tag(
        &root.derive_tenant(0),
        0,
        challenge,
        client_nonce,
        server_nonce,
    );
    let reply = daemon.on_message(1, Message::AuthProof { tag });
    assert_eq!(reply.msgs, vec![Message::AuthOk { tenant: 0 }]);
    let authed = daemon.on_message(1, Message::AuthReject { reason: wide });

    for reply in [fresh, authed] {
        assert!(reply.close, "a protocol violation closes the connection");
        assert_eq!(reply.msgs.len(), 1);
        let msg = &reply.msgs[0];
        let Message::ProtocolError { detail } = msg else {
            panic!("expected a protocol error, got {msg:?}");
        };
        assert!(detail.len() <= 512, "{} bytes", detail.len());
        let payload = decode_frame(&encode_frame(&msg.encode())).expect("frame round-trips");
        assert_eq!(&Message::decode(&payload).expect("message decodes"), msg);
    }
}
