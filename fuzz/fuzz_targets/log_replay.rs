//! Fuzz target: LogStore crash recovery. A segment directory seeded
//! with adversarial bytes — random garbage, forged magics, mutated and
//! truncated valid logs, mangled checkpoints — must always open to
//! either a working store (torn tails truncated) or a typed
//! `StoreError`; never a panic, never an abort. The length and count
//! fields inside log frames are attacker-controlled and must not drive
//! allocation or indexing. Frames are decoded by
//! `gozer_compress::frame`, the decoder `frame_decode` drives from the
//! wire side.
//!
//! One case is exact: a record header that claims more than the frame
//! bound, behind honest records. In the tail segment the log is cut at
//! it; in a segment the log has rotated past, open fails as `Corrupt`.

use std::path::{Path, PathBuf};

use gozer_compress::frame::MAX_FRAME_LEN;
use gozer_fuzz::{drive, mutate, random_bytes};
use proptest::TestRng;
use vinz::{LogStore, StateStore, StoreError};

const SEG_MAGIC: &[u8; 8] = b"GZLOG1\0\0";

/// Build one honest segment + checkpoint to mutate: a store with a few
/// committed records, compacted so a checkpoint exists, then crashed.
fn fixture(dir: &PathBuf) -> (Vec<u8>, Vec<u8>) {
    let store = LogStore::builder(dir)
        .segment_bytes(256)
        .compact_min_bytes(64)
        .compact_dead_ratio(0.05)
        .build()
        .unwrap();
    for i in 0..8 {
        store.put(&format!("fiber/{i}"), &[i as u8; 40]).unwrap();
        store.put("fiber/hot", &[0xEE; 40]).unwrap();
    }
    store.delete("fiber/0").unwrap();
    store.flush().unwrap();
    // Give the writer thread a moment to run its compaction step so the
    // checkpoint file appears (flush returns at the durability point,
    // which precedes compaction in the same cycle).
    for _ in 0..200 {
        if dir.join("checkpoint").exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    store.simulate_crash();
    drop(store);
    let seg = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .max()
        .expect("fixture segment");
    let ckpt = std::fs::read(dir.join("checkpoint")).unwrap_or_default();
    (std::fs::read(seg).unwrap(), ckpt)
}

/// Honest records, then a header claiming `MAX_FRAME_LEN + 1..` bytes:
/// cut off in the tail segment, `Corrupt` in an earlier one.
fn hostile_length(rng: &mut TestRng, dir: &Path, honest: &[u8]) {
    let mut hostile = honest.to_vec();
    let claim = MAX_FRAME_LEN + 1 + rng.below(1 << 20) as u32;
    hostile.extend(claim.to_le_bytes());
    hostile.extend(random_bytes(rng, 64));
    let seg = dir.join("seg-0000000001.log");
    std::fs::write(&seg, &hostile).unwrap();
    if rng.below(2) == 0 {
        let store = LogStore::builder(dir).build().expect("a torn tail opens");
        assert_eq!(store.get("fiber/2").unwrap(), Some(vec![2; 40]));
        drop(store);
        assert_eq!(
            std::fs::read(&seg).unwrap(),
            honest,
            "tail cut at the hostile record"
        );
    } else {
        std::fs::write(dir.join("seg-0000000002.log"), SEG_MAGIC).unwrap();
        match LogStore::builder(dir).build() {
            Err(StoreError::Corrupt { .. }) => {}
            Err(other) => panic!("hostile record before the tail gave {other:?}"),
            Ok(_) => panic!("hostile record before the tail opened"),
        }
    }
}

fn main() {
    let base = std::env::temp_dir().join(format!("gozer-fuzz-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let fixture_dir = base.join("fixture");
    let (valid_seg, valid_ckpt) = fixture(&fixture_dir);
    // A log of three puts and nothing else, replayable from its first
    // segment alone.
    let plain_dir = base.join("plain");
    let store = LogStore::builder(&plain_dir).build().unwrap();
    for i in 0..3u8 {
        store.put(&format!("fiber/{i}"), &[i; 40]).unwrap();
    }
    store.flush().unwrap();
    drop(store);
    let plain_seg = std::fs::read(plain_dir.join("seg-0000000001.log")).unwrap();

    let mut case = 0u64;
    drive("log_replay", |rng| {
        case += 1;
        let dir = base.join(format!("case-{case}"));
        std::fs::create_dir_all(&dir).unwrap();
        if rng.below(8) == 0 {
            hostile_length(rng, &dir, &plain_seg);
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }

        // The segment under attack.
        let seg_bytes = match rng.below(4) {
            // Pure garbage, no magic.
            0 => random_bytes(rng, 512),
            // Honest magic, garbage frames: the frame parser's food.
            1 => {
                let mut b = SEG_MAGIC.to_vec();
                b.extend(random_bytes(rng, 512));
                b
            }
            // Mutations / truncations of a genuine crashed log.
            _ => mutate(rng, &valid_seg, 6),
        };
        std::fs::write(dir.join("seg-0000000001.log"), &seg_bytes).unwrap();

        // Sometimes a second, older segment (recovery walks them in
        // order; damage in a non-tail segment must surface as Corrupt,
        // not a panic).
        if rng.below(3) == 0 {
            let older = mutate(rng, &valid_seg, 2);
            std::fs::write(dir.join("seg-0000000000.log"), &older).unwrap();
        }

        // Sometimes a mangled checkpoint on top.
        if rng.below(3) == 0 {
            let ckpt = if valid_ckpt.is_empty() || rng.below(2) == 0 {
                random_bytes(rng, 256)
            } else {
                mutate(rng, &valid_ckpt, 4)
            };
            std::fs::write(dir.join("checkpoint"), &ckpt).unwrap();
        }

        // The contract: open either fails with a typed error or yields
        // a store that can serve reads and writes.
        if let Ok(store) = LogStore::builder(&dir).build() {
            let _ = store.get("fiber/1");
            let _ = store.get("fiber/hot");
            let _ = store.list("fiber/");
            let _ = store.put("fiber/new", b"post-recovery write");
            let _ = store.flush();
            drop(store);
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
    let _ = std::fs::remove_dir_all(&base);
}
