//! E4 — §4.2 serialization & compression study.
//!
//! The paper: "compressing the serialized data before writing it to NFS
//! was a net win by reducing IO costs considerably ... plain deflate can
//! be made to perform approximately 30% better than the more robust and
//! space-efficient gzip format for this data."
//!
//! Prints persisted sizes for raw/deflate/gzip over realistic fiber
//! states of three sizes (asserted: deflate is smaller than both raw and
//! gzip), then the persist cost (serialize + compress + simulated NFS
//! write) and the reconstitution cost of each. Expected timing shape:
//! with IO cost modeled, Deflate beats None (the "net win") and Gzip
//! (framing + CRC overhead).

use std::time::Duration;

use gozer::Codec;
use gozer_bench::{suspended_state, workflow_gvm, Table};
use gozer_serial::{deserialize_state, serialize_state};
use vinz::{MemStore, StateStore};

use super::time_it;

const CODECS: [Codec; 3] = [Codec::None, Codec::Deflate, Codec::Gzip];

pub fn run(smoke: bool) {
    let samples = if smoke { 3 } else { 20 };
    let gvm = workflow_gvm();
    let states: Vec<_> = [("small", 10i64), ("medium", 100), ("large", 600)]
        .into_iter()
        .map(|(label, n)| (label, suspended_state(&gvm, n)))
        .collect();

    let mut sizes = Table::new(
        "sec4.2 — persisted fiber state size by codec",
        &["state", "raw B", "deflate B", "gzip B", "deflate ratio", "gzip-vs-deflate"],
    );
    for (label, state) in &states {
        let [raw, defl, gz] = CODECS.map(|c| serialize_state(state, c).unwrap().len());
        assert!(defl < raw && defl < gz, "{label}: deflate {defl} B vs raw {raw} B, gzip {gz} B");
        sizes.row(&[
            label.to_string(),
            raw.to_string(),
            defl.to_string(),
            gz.to_string(),
            format!("{:.2}x", raw as f64 / defl as f64),
            format!("+{} B", gz - defl),
        ]);
    }
    sizes.print();

    // Simulated NFS: 60 ns/byte write cost (~16 MB/s effective — typical
    // for 2009-era NFS with synchronous writes), the regime where the
    // paper found compression "a net win by reducing IO costs
    // considerably".
    let store = MemStore::with_io_latency(60);
    let headers = ["state", "None", "Deflate", "Gzip"];
    let mut persist = Table::new("sec4.2 — persist cost, median (60 ns/byte IO)", &headers);
    // Reconstitution (the paper: "reconstituting a fiber from its
    // persisted state is still relatively slow" — motivating the cache).
    let mut reconstitute = Table::new("sec4.2 — reconstitute cost, median", &headers);
    let cell = |d: Duration| format!("{d:.2?}");
    for (label, state) in &states {
        let mut persist_row = vec![label.to_string()];
        let mut reconstitute_row = vec![label.to_string()];
        for codec in CODECS {
            persist_row.push(cell(time_it(samples, || {
                let bytes = serialize_state(state, codec).unwrap();
                store.put("fiber/bench", &bytes).unwrap();
            })));
            let bytes = serialize_state(state, codec).unwrap();
            reconstitute_row.push(cell(time_it(samples, || {
                deserialize_state(&bytes, &gvm).unwrap();
            })));
        }
        persist.row(&persist_row);
        reconstitute.row(&reconstitute_row);
    }
    persist.print();
    reconstitute.print();
}
