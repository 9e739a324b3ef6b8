//! Fuzz target: the TCP transport's wire codec. Every byte of a frame
//! — length prefix, CRC, tag, string lengths, map/vec counts — comes
//! off a socket an attacker (or a `kill -9` torn write) controls, so
//! `decode_frame` must return a typed [`FrameError`] for anything that
//! is not an exact encoding: never panic, never allocate from an
//! unvalidated length, never read past the buffer. Round-trips of
//! honest frames must be identity, including after re-encode.
//!
//! The frame itself is `gozer_compress::frame`, the decoder `log_replay`
//! drives from the disk side: wherever it refuses a buffer,
//! `decode_frame` must refuse it with the same error.

use bluebox::wire::{
    decode_frame, encode_frame, FrameError, SettleBody, WireMsg, WirePayload, MAX_FRAME_LEN,
};
use gozer_compress::frame;
use gozer_fuzz::{drive, mutate, random_bytes};
use proptest::TestRng;

/// A pseudo-random (but seed-deterministic) honest message to mutate.
fn arbitrary_msg(rng: &mut TestRng) -> WireMsg {
    let string = |rng: &mut TestRng, max: u64| -> String {
        let len = rng.below(max);
        (0..len)
            .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
            .collect()
    };
    let payload = |rng: &mut TestRng| -> WirePayload {
        let mut headers = std::collections::BTreeMap::new();
        for _ in 0..rng.below(4) {
            headers.insert(string(rng, 12), string(rng, 20));
        }
        WirePayload {
            service: string(rng, 16),
            operation: string(rng, 16),
            headers,
            body: random_bytes(rng, 200),
            priority: rng.next_u64() as i32,
            hold_until: rng.next_u64(),
        }
    };
    match rng.below(9) {
        0 => WireMsg::Hello {
            worker: string(rng, 24),
            node: rng.next_u64() as u32,
        },
        1 => WireMsg::HelloAck {
            heartbeat_ms: rng.next_u64() % 100_000,
        },
        2 => WireMsg::Register {
            service: string(rng, 16),
            instances: rng.next_u64() as u32 % 1000,
        },
        3 => WireMsg::Registered {
            service: string(rng, 16),
            ids: (0..rng.below(16)).map(|_| rng.next_u64()).collect(),
        },
        4 => WireMsg::Delivery {
            lease: rng.next_u64(),
            redeliveries: rng.next_u64() as u32 % 64,
            payload: payload(rng),
        },
        5 => WireMsg::Settle {
            lease: rng.next_u64(),
            body: if rng.below(2) == 0 {
                SettleBody::Ok(random_bytes(rng, 200))
            } else {
                SettleBody::Fault(string(rng, 24), string(rng, 48))
            },
        },
        6 => WireMsg::Send {
            payload: payload(rng),
        },
        7 => WireMsg::Heartbeat {
            seq: rng.next_u64(),
        },
        _ => WireMsg::Bye,
    }
}

fn main() {
    drive("frame_decode", |rng| {
        let msg = arbitrary_msg(rng);
        let honest = encode_frame(&msg);

        // Honest frames decode to the same message, consuming exactly
        // the frame; a re-encode is byte-identical.
        let (decoded, used) = decode_frame(&honest).expect("honest frame decodes");
        assert_eq!(used, honest.len(), "honest frame fully consumed");
        let (payload, framed) = frame::decode(&honest, MAX_FRAME_LEN).expect("honest frame");
        assert_eq!((payload.len() + frame::HEADER_LEN, framed), (used, used));
        assert_eq!(encode_frame(&decoded), honest, "re-encode is identity");

        // Every proper prefix is Truncated/Eof — never Ok, never panic.
        if !honest.is_empty() {
            let cut = rng.below(honest.len() as u64) as usize;
            match decode_frame(&honest[..cut]) {
                Err(FrameError::Truncated { .. }) | Err(FrameError::Eof) => {}
                Err(other) => panic!("prefix of len {cut} gave {other:?}"),
                Ok(_) => panic!("prefix of len {cut} decoded"),
            }
        }

        // Arbitrary corruption: typed error or an honest re-decode (a
        // flip may hit bytes the codec legitimately ignores — there are
        // none today, but the contract is only "no panic, no lie").
        let corrupt = mutate(rng, &honest, 8);
        if let Ok((remsg, used)) = decode_frame(&corrupt) {
            assert!(used <= corrupt.len(), "decoder consumed past the buffer");
            // Whatever decoded must survive its own round-trip.
            let reencoded = encode_frame(&remsg);
            let (again, _) = decode_frame(&reencoded).expect("decoded msg re-decodes");
            assert_eq!(encode_frame(&again), reencoded);
        }

        // Pure garbage, including hostile length prefixes: typed errors
        // only, and TooLarge before any allocation happens.
        let garbage = random_bytes(rng, 256);
        if let Err(e) = frame::decode(&garbage, MAX_FRAME_LEN) {
            assert_eq!(decode_frame(&garbage).err(), Some(e));
        }
        // Any payload round-trips through the frame under any bound it
        // fits, and is refused, leaving the buffer as it was, under one
        // it does not.
        let payload = random_bytes(rng, 256);
        let max = rng.below(300) as u32;
        let mut buf = garbage.clone();
        match frame::encode(&mut buf, max, |out| out.extend_from_slice(&payload)) {
            Ok(()) => {
                let (back, used) = frame::decode(&buf[garbage.len()..], max).unwrap();
                assert_eq!(
                    (back, used),
                    (&payload[..], payload.len() + frame::HEADER_LEN)
                );
            }
            Err(_) => assert!(payload.len() > max as usize && buf == garbage),
        }
        let mut hostile = Vec::from(u32::MAX.to_le_bytes());
        hostile.extend(random_bytes(rng, 64));
        match decode_frame(&hostile) {
            Err(FrameError::TooLarge { .. }) => {}
            other => panic!("4 GiB length prefix gave {other:?}"),
        }
    });
}
