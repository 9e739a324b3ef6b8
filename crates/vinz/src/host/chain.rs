//! The persistence chain: how a fiber's continuation is written to and
//! read back from the store — a birth record, then full snapshots with
//! delta records stacked on them, named by a meta record (DESIGN §11).
//! The keys are the host's.

use std::sync::atomic::Ordering;
use std::time::Instant;

use gozer_obs::{EventKind, Phase};
use gozer_serial::{
    deserialize_state, deserialize_state_delta_costed, serialize_state_base,
    serialize_state_delta_costed, serialize_state_sized, SeedUse,
};
use gozer_vm::FiberState;

use super::{base_key, crumb_key, delta_key, meta_key, Wait};
use crate::service::{Inner, NodeRuntime, VinzError};

/// Per-fiber routing and sizing hints, kept in memory beside the store:
/// the node that last persisted the fiber (stamped on resume messages
/// as the broker affinity hint) and the sizes of its last full and last
/// delta record (the serializer's output-buffer hint for the next record
/// of the same kind, so steady-state saves neither reallocate mid-write
/// nor allocate a snapshot-sized buffer for a delta a fraction of it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FiberHot {
    node: u32,
    last_size: usize,
    last_delta_size: usize,
}

/// `(version, generation, chain_len)` of a fiber's snapshot chain, as
/// kept under `fiber-v/{id}`; see [`Inner::fiber_meta`].
pub(super) type FiberMeta = (u64, u64, u64);

/// Output-buffer hint for a fiber's first record of a kind, before there
/// is a previous one to go by.
const FIRST_SAVE_HINT: usize = 256;

/// Delta records a fiber's chain may stack on its full snapshot; the
/// save after that compacts the chain into a fresh full snapshot.
/// Compaction is also forced when the fiber migrates nodes (its next
/// loader replays the chain cold anyway, so the chain stops paying for
/// itself).
const COMPACT_EVERY: u64 = 8;

impl Inner {
    /// The node that last persisted the fiber, if it has been saved
    /// since it first ran.
    pub(crate) fn last_node(&self, fiber_id: &str) -> Option<u32> {
        self.hot.read().get(fiber_id).map(|h| h.node)
    }

    /// Snapshot-chain metadata for a fiber: `(version, generation,
    /// chain_len)`. The *version* increments on every save (the cache
    /// validity token); the *generation* names the current full-snapshot
    /// base key (bumped on compaction so a crashed compaction can never
    /// pair a new base with stale deltas); *chain_len* counts the delta
    /// records stacked on that base. A 24-byte little-endian record; a
    /// shorter one (damaged, or written by something else) reads its
    /// missing bytes as zero rather than failing the parse.
    ///
    /// The record is first written by a fiber's first *suspension*:
    /// `None` means the fiber has never suspended, and its continuation
    /// — if it has one — is the birth record, version 0 under the
    /// generation-0 key.
    pub(super) fn fiber_meta(&self, fiber_id: &str) -> Result<Option<FiberMeta>, VinzError> {
        Ok(self.store.get(&meta_key(fiber_id))?.map(|b| {
            let word = |i: usize| {
                let mut buf = [0u8; 8];
                let src = b.get(i * 8..i * 8 + 8).unwrap_or(&[]);
                buf[..src.len()].copy_from_slice(src);
                u64::from_le_bytes(buf)
            };
            (word(0), word(1), word(2))
        }))
    }

    /// Persist a fiber that has never run: its generation-0 base and
    /// nothing else. No meta record (absent *is* version 0), so nothing
    /// is read first, and no routing entry — until it has run somewhere
    /// any node is as cold as any other.
    pub(crate) fn save_newborn(
        &self,
        rt: &NodeRuntime,
        instance: u64,
        fiber_id: &str,
        state: FiberState,
    ) -> Result<(), VinzError> {
        self.tracker
            .note_phase(Inner::task_of(fiber_id), Phase::Serialize);
        let start = Instant::now();
        let bytes = serialize_state_sized(&state, self.config.codec, FIRST_SAVE_HINT)
            .map_err(|e| VinzError(format!("persist {fiber_id}: {e}")))?;
        let nanos = nanos_since(start);
        self.store.put(&base_key(fiber_id, 0), &bytes)?;
        self.metrics
            .full_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.note_saved(rt, instance, fiber_id, 0, state, bytes.len(), nanos);
        Ok(())
    }

    /// The tail every save shares: the state just persisted *is* the new
    /// snapshot — every frame is clean relative to it until the fiber
    /// runs again — so it goes into the node cache under its version.
    /// Also the one place a save is counted: `saved_len` bytes written,
    /// `nanos` spent serializing them.
    #[allow(
        clippy::too_many_arguments,
        reason = "one save's facts, counted in one place"
    )]
    fn note_saved(
        &self,
        rt: &NodeRuntime,
        instance: u64,
        fiber_id: &str,
        version: u64,
        mut state: FiberState,
        saved_len: usize,
        nanos: u64,
    ) {
        state.clean_prefix = state.frames.len();
        rt.cache.put_fiber(fiber_id, version, state);
        let m = &self.metrics;
        m.persist_count.fetch_add(1, Ordering::Relaxed);
        m.persist_bytes
            .fetch_add(saved_len as u64, Ordering::Relaxed);
        m.serialize_nanos.fetch_add(nanos, Ordering::Relaxed);
        let _ = m
            .min_serialize_nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |min| {
                (min == 0 || nanos < min).then_some(nanos)
            });
        self.emit(rt.node_id, instance, fiber_id, || {
            EventKind::FiberPersisted { bytes: saved_len }
        });
    }

    /// Persist the continuation of a fiber that just suspended (under
    /// the fiber lock), as one batch with the meta record that names it
    /// and the `susp/` crumb saying what it waits on. `meta` is what the
    /// entry read under the same lock.
    ///
    /// Steady state writes a *delta* record (the frames above the VM's
    /// clean prefix plus the dynamic state) stacked on the fiber's last
    /// full snapshot; the chain is compacted back into a full snapshot
    /// every [`COMPACT_EVERY`] saves, on node migration, or
    /// whenever a delta would be unsound (no clean prefix, mutable
    /// object reachable from a clean frame). A first suspension has no
    /// snapshot of this run to be a delta of and replaces the birth
    /// record.
    ///
    /// Crash atomicity: the batch is all or nothing, so recovery sees a
    /// meta record only with the snapshot it names and the crumb the
    /// orphan scan needs; a compaction additionally writes the new base
    /// under a fresh generation key, so even the "nothing" outcome
    /// leaves the old base + chain fully intact.
    ///
    /// The save is not waited for. Whatever it causes inside the
    /// deployment (RunFiber for a fresh child, AwakeFiber/JoinProcess on
    /// completion) only leads to later records of the same log, which a
    /// crash cannot keep without keeping this one (DESIGN.md §13).
    pub(super) fn save_fiber(
        &self,
        rt: &NodeRuntime,
        instance: u64,
        fiber_id: &str,
        state: FiberState,
        meta: Option<FiberMeta>,
        wait: &Wait,
    ) -> Result<(), VinzError> {
        self.tracker
            .note_phase(Inner::task_of(fiber_id), Phase::Serialize);
        let (version, generation, chain) = meta.unwrap_or_default();
        let hot = self.hot.read().get(fiber_id).copied();
        let migrated = hot.is_some_and(|h| h.node != rt.node_id);
        let mut hot = hot.unwrap_or(FiberHot {
            node: rt.node_id,
            last_size: FIRST_SAVE_HINT,
            last_delta_size: FIRST_SAVE_HINT,
        });
        // The affinity stamp moves to this node whatever gets written.
        hot.node = rt.node_id;

        let mut delta = None;
        if self.config.delta_snapshots && version > 0 && !migrated && chain < COMPACT_EVERY {
            let start = Instant::now();
            let (bytes, seeds) = serialize_state_delta_costed(
                &state,
                state.clean_prefix,
                self.config.codec,
                hot.last_delta_size,
            )
            .map_err(|e| VinzError(format!("persist {fiber_id}: {e}")))?;
            delta = bytes.map(|bytes| (bytes, nanos_since(start)));
            self.note_seeding(seeds);
        }
        let meta_key = meta_key(fiber_id);
        let crumb_key = crumb_key(fiber_id);
        let crumb = wait.encode();
        let (saved_len, nanos) = match delta {
            Some((bytes, nanos)) => {
                let meta = meta_rec(version + 1, generation, chain + 1);
                self.store.put_batch(&[
                    (&delta_key(fiber_id, chain), &bytes),
                    (&meta_key, &meta),
                    (&crumb_key, crumb.as_bytes()),
                ])?;
                self.metrics.delta_saves.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .delta_bytes
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                hot.last_delta_size = bytes.len();
                (bytes.len(), nanos)
            }
            None => {
                let start = Instant::now();
                // The base of the chain to come: its tables stay in
                // `state.seed`, so the next delta has no prefix to walk.
                let bytes = serialize_state_base(&state, self.config.codec, hot.last_size)
                    .map_err(|e| VinzError(format!("persist {fiber_id}: {e}")))?;
                let nanos = nanos_since(start);
                let new_gen = if chain > 0 {
                    generation + 1
                } else {
                    generation
                };
                let meta = meta_rec(version + 1, new_gen, 0);
                self.store.put_batch(&[
                    (&base_key(fiber_id, new_gen), &bytes),
                    (&meta_key, &meta),
                    (&crumb_key, crumb.as_bytes()),
                ])?;
                // Garbage, not state: the old base and its deltas are
                // unreachable once the meta names the new generation.
                if new_gen != generation {
                    let _ = self.store.delete(&base_key(fiber_id, generation));
                    for k in 0..chain {
                        let _ = self.store.delete(&delta_key(fiber_id, k));
                    }
                }
                self.metrics
                    .full_bytes
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                hot.last_size = bytes.len();
                (bytes.len(), nanos)
            }
        };
        self.hot.write().insert(fiber_id.to_string(), hot);
        self.note_saved(rt, instance, fiber_id, version + 1, state, saved_len, nanos);
        Ok(())
    }

    /// Load a fiber continuation, taking it from the node cache first
    /// (§4.2); a miss reads the full-snapshot base and replays any delta
    /// chain on top, which reconstitutes the state bit-identically to the
    /// last save. Either way the cache no longer holds the fiber: its
    /// next save puts it back, and a caller that stops short of running
    /// it hands it back with [`Inner::keep_loaded`].
    pub(super) fn load_fiber(
        &self,
        rt: &NodeRuntime,
        instance: u64,
        fiber_id: &str,
        meta: Option<FiberMeta>,
    ) -> Result<FiberState, VinzError> {
        self.tracker
            .note_phase(Inner::task_of(fiber_id), Phase::Deserialize);
        let (version, generation, chain) = meta.unwrap_or_default();
        if let Some(state) = rt.cache.get_fiber(fiber_id, version) {
            self.emit(rt.node_id, instance, fiber_id, || EventKind::FiberLoaded {
                cache_hit: true,
            });
            return Ok(state);
        }
        let bytes = self
            .store
            .get(&base_key(fiber_id, generation))?
            .ok_or_else(|| VinzError(format!("fiber {fiber_id} has no persisted state")))?;
        let start = Instant::now();
        let mut state = deserialize_state(&bytes, &rt.gvm)
            .map_err(|e| VinzError(format!("load {fiber_id}: {e}")))?;
        self.note_loaded(bytes.len(), start);
        for k in 0..chain {
            let dbytes = self
                .store
                .get(&delta_key(fiber_id, k))?
                .ok_or_else(|| VinzError(format!("fiber {fiber_id} is missing delta {k}")))?;
            let start = Instant::now();
            let (next, seeds) = deserialize_state_delta_costed(&dbytes, &rt.gvm, &state)
                .map_err(|e| VinzError(format!("load {fiber_id} delta {k}: {e}")))?;
            state = next;
            self.note_loaded(dbytes.len(), start);
            self.note_seeding(seeds);
        }
        self.metrics.load_count.fetch_add(1, Ordering::Relaxed);
        self.emit(rt.node_id, instance, fiber_id, || EventKind::FiberLoaded {
            cache_hit: false,
        });
        Ok(state)
    }

    /// Count one continuation record deserialized since `start`.
    fn note_loaded(&self, bytes: usize, start: Instant) {
        let m = &self.metrics;
        m.deserialize_count.fetch_add(1, Ordering::Relaxed);
        m.deserialize_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        m.deserialize_nanos
            .fetch_add(nanos_since(start), Ordering::Relaxed);
    }

    /// Count where one delta save or load got its seeding tables.
    fn note_seeding(&self, seeds: SeedUse) {
        let m = &self.metrics;
        m.seed_frames_reused
            .fetch_add(seeds.reused, Ordering::Relaxed);
        m.seed_frames_walked
            .fetch_add(seeds.walked, Ordering::Relaxed);
    }

    /// Return a state [`Inner::load_fiber`] handed out, unrun and
    /// unchanged, to the node cache under the version it was loaded at.
    pub(super) fn keep_loaded(
        &self,
        rt: &NodeRuntime,
        fiber_id: &str,
        meta: Option<FiberMeta>,
        state: FiberState,
    ) {
        let (version, _, _) = meta.unwrap_or_default();
        rt.cache.put_fiber(fiber_id, version, state);
    }
}

/// Wall nanos since `start`, at least 1, so a counted sample is never
/// mistaken for "none yet".
fn nanos_since(start: Instant) -> u64 {
    (start.elapsed().as_nanos() as u64).max(1)
}

/// Encode the 24-byte meta record; saved atomically *with* the data key
/// it names via `put_batch`, so no crash can publish a meta record
/// pointing at an unwritten snapshot.
fn meta_rec(version: u64, generation: u64, chain: u64) -> [u8; 24] {
    let mut rec = [0u8; 24];
    rec[0..8].copy_from_slice(&version.to_le_bytes());
    rec[8..16].copy_from_slice(&generation.to_le_bytes());
    rec[16..24].copy_from_slice(&chain.to_le_bytes());
    rec
}
