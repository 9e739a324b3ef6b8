//! Shared driver for the offline fuzz targets.
//!
//! Real cargo-fuzz feeds targets from libFuzzer, which needs registry
//! crates and an instrumented build. This workspace is offline, so each
//! target is a plain binary that generates its own inputs from the
//! proptest shim's seeded splitmix64 RNG and loops a bounded number of
//! iterations. A finding is a plain panic (abort the process, nonzero
//! exit); a clean run exits 0 — which is what `make fuzz-smoke` checks.
//!
//! Knobs (environment):
//! * `FUZZ_ITERS` — iterations per target (default 2000).
//! * `FUZZ_SEED`  — base seed (default 0); each iteration derives its
//!   own case seed, printed on entry when `FUZZ_VERBOSE` is set, so a
//!   crashing case replays with `FUZZ_SEED=<case> FUZZ_ITERS=1`.

use proptest::TestRng;

/// Iterations for this run.
pub fn iters() -> u64 {
    std::env::var("FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000)
}

/// Base seed for this run.
pub fn base_seed() -> u64 {
    std::env::var("FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Run `body` over `iters()` derived case seeds, printing progress and
/// the per-case replay seed when `FUZZ_VERBOSE` is set.
pub fn drive(target: &str, mut body: impl FnMut(&mut TestRng)) {
    let n = iters();
    let base = base_seed();
    let verbose = std::env::var("FUZZ_VERBOSE").is_ok();
    for i in 0..n {
        // Derive a per-case seed so any case replays in isolation.
        let case = TestRng::new(base.wrapping_add(i)).next_u64();
        if verbose {
            eprintln!("{target}: case {i} seed {case}");
        }
        let mut rng = TestRng::new(case);
        body(&mut rng);
    }
    println!("{target}: {n} iterations, 0 findings");
}

/// Random bytes of length < `max_len`.
pub fn random_bytes(rng: &mut TestRng, max_len: u64) -> Vec<u8> {
    let len = rng.below(max_len) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Mutate up to `max_flips` bytes of `base` in place.
pub fn mutate(rng: &mut TestRng, base: &[u8], max_flips: u64) -> Vec<u8> {
    let mut out = base.to_vec();
    if out.is_empty() {
        return out;
    }
    for _ in 0..=rng.below(max_flips) {
        let i = rng.below(out.len() as u64) as usize;
        out[i] = rng.next_u64() as u8;
    }
    // Occasionally truncate as well — length corruption is its own bug
    // class.
    if rng.below(4) == 0 {
        let cut = rng.below(out.len() as u64 + 1) as usize;
        out.truncate(cut);
    }
    out
}
