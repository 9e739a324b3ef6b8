//! Golden bytes: a wire frame, a log segment and a checkpoint are
//! pinned byte for byte. The wire and the log share one frame codec
//! (`gozer_compress::frame`); these values were taken before they did,
//! so a change to that codec that moves a single byte on the wire or on
//! disk fails here.

use std::path::{Path, PathBuf};
use std::time::Duration;

use bluebox::wire::{encode_frame, SettleBody, WireMsg, WirePayload};
use gozer_compress::crc32;
use vinz::{LogStore, StateStore};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gozer-golden-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A file's bytes as `(length, crc32)`.
fn digest(path: &Path) -> (usize, u32) {
    let bytes = std::fs::read(path).unwrap();
    (bytes.len(), crc32(&bytes))
}

#[test]
fn wire_frames_are_pinned() {
    let delivery = WireMsg::Delivery {
        lease: 7,
        redeliveries: 1,
        payload: WirePayload {
            service: "svc".into(),
            operation: "Op".into(),
            headers: [("task-id".to_string(), "task-1".to_string())]
                .into_iter()
                .collect(),
            body: vec![1, 2, 3],
            priority: -2,
            hold_until: 9,
        },
    };
    assert_eq!(
        hex(&encode_frame(&delivery)),
        "4600000040f80a120507000000000000000100000003000000737663020000004f\
         7001000000070000007461736b2d6964060000007461736b2d3103000000010203\
         feffffff0900000000000000"
    );
    let fault = WireMsg::Settle {
        lease: 7,
        body: SettleBody::Fault("{urn:x}Bad".into(), "boom".into()),
    };
    assert_eq!(
        hex(&encode_frame(&fault)),
        "2000000032aa4932060700000000000000010a0000007b75726e3a787d42616404\
         000000626f6f6d"
    );
}

#[test]
fn log_segment_is_pinned() {
    let dir = temp_dir("segment");
    let store = LogStore::builder(&dir).build().unwrap();
    store.put("fiber/1", b"first").unwrap();
    store
        .put_batch(&[("fiber/2", b"second"), ("fiber-v/2", b"v1")])
        .unwrap();
    store.delete("fiber/1").unwrap();
    store.flush().unwrap();
    drop(store);
    let seg = std::fs::read(dir.join("seg-0000000001.log")).unwrap();
    assert_eq!(
        hex(&seg),
        "475a4c4f473100001f000000d66142ae01000000000000000100000001070066\
         696265722f3105000000666972737432000000d5e33136020000000000000002\
         00000001070066696265722f32060000007365636f6e6401090066696265722d\
         762f320200000076311a00000035b4b540030000000000000001000000020700\
         66696265722f3100000000"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn checkpoint_is_pinned() {
    let dir = temp_dir("checkpoint");
    let store = LogStore::builder(&dir)
        .group_commit_window(Duration::ZERO)
        .compact_min_bytes(1)
        .compact_dead_ratio(0.25)
        .build()
        .unwrap();
    // One group per step: the compaction decision after each group is
    // the same on every run, and so is the checkpoint it publishes.
    for (key, val) in [
        ("task-def/task-1", &b"(defun main () 1)"[..]),
        ("fiber/task-1", b"snapshot-1"),
        ("result/task-1", b"1"),
        ("fiber/task-1", b"snapshot-2"),
    ] {
        store.put(key, val).unwrap();
        store.flush().unwrap();
    }
    store.delete("result/task-1").unwrap();
    store.flush().unwrap();
    // Dropping joins the commit thread, compaction included.
    drop(store);
    assert_eq!(digest(&dir.join("checkpoint")), (166, 0xa7e8_1146));
    let _ = std::fs::remove_dir_all(dir);
}
