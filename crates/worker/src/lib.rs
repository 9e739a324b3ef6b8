#![warn(missing_docs)]

//! # gozer-worker
//!
//! The worker *process* side of the multi-process cluster transport.
//! Where every other crate in this workspace runs instances as threads
//! inside one OS process, this crate packages the same compute as a
//! standalone binary that connects to a [`bluebox::TcpBroker`] over
//! TCP — so the chaos harness can kill a worker with a real `kill -9`
//! and prove that the broker-side recovery machinery (lease reaper,
//! dead-letter quarantine, supervisor respawn, `hold_until` parking)
//! survives genuine process death, not just a simulated one.
//!
//! Three pieces:
//!
//! * [`ComputeHandler`] — the value-protocol request handler the
//!   `gozer-worker` binary serves (the same `{:n <int>}` square/work
//!   shapes the in-process test services speak), with opt-in chaos
//!   hooks driven by message headers.
//! * [`ProcessSupervisor`] — spawns, kills (SIGKILL), and respawns
//!   worker processes; the harness-side analogue of a process manager.
//! * [`KillPlan`] — a seeded, deterministic schedule of which worker
//!   dies when, so the 16-seed survivability sweep is replayable.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bluebox::{Fault, RemoteDelivery, RemoteHandler, WorkerCtx};
use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_serial::{deserialize_value, serialize_value};
use gozer_vm::Gvm;

/// Message headers that trigger worker-side chaos. Honored only when
/// the handler was built with chaos enabled (the binary's `--chaos`
/// flag), so an in-thread worker inside a test process can never be
/// tricked into aborting the test runner.
pub mod chaos_headers {
    /// Abort the whole process before handling (sudden death mid-lease).
    pub const ABORT: &str = "x-worker-abort";
    /// Write half a frame, then kill the socket (torn write).
    pub const TORN_FRAME: &str = "x-worker-torn-frame";
    /// Drop the connection before handling (clean network loss).
    pub const DROP_CONN: &str = "x-worker-drop";
}

/// Decode a value-protocol delivery, compute the reply, and re-encode.
///
/// Operations:
///
/// * `Square` — `{:n <int>}` → `n * n`.
/// * `Work` — `{:n <int> :spin_ms <int>}` → busy-work for `spin_ms`
///   milliseconds, then `n * n`. The spin keeps a delivery in flight
///   long enough for a seeded `kill -9` to land mid-lease.
pub fn compute_reply(delivery: &RemoteDelivery, gvm: &Arc<Gvm>) -> Result<Vec<u8>, Fault> {
    let request = if delivery.body.is_empty() {
        Value::Nil
    } else {
        deserialize_value(&delivery.body, gvm)
            .map_err(|e| Fault::new("{worker}BadRequest", e.to_string()))?
    };
    let field = |name: &str| -> Option<i64> {
        request
            .as_map()
            .and_then(|m| m.get(&Value::str(name)).cloned())
            .and_then(|v| v.as_int())
    };
    let reply = match delivery.operation.as_str() {
        "Square" => {
            let n = field("n").ok_or_else(|| Fault::new("{worker}BadArg", "need n"))?;
            Value::Int(n * n)
        }
        "Work" => {
            let n = field("n").ok_or_else(|| Fault::new("{worker}BadArg", "need n"))?;
            let spin = field("spin_ms").unwrap_or(0).clamp(0, 10_000) as u64;
            let deadline = std::time::Instant::now() + Duration::from_millis(spin);
            while std::time::Instant::now() < deadline {
                std::hint::spin_loop();
            }
            Value::Int(n * n)
        }
        other => return Err(Fault::new("{worker}NoSuchOp", other)),
    };
    serialize_value(&reply, Codec::Deflate)
        .map_err(|e| Fault::new("{worker}BadReply", e.to_string()))
}

/// The `gozer-worker` binary's request handler: value-protocol compute
/// (see [`compute_reply`]) plus header-driven chaos hooks. Each chaos
/// hook fires at most once per process so the post-respawn redelivery
/// of the same message succeeds.
pub struct ComputeHandler {
    gvm: Arc<Gvm>,
    chaos_enabled: bool,
    aborted: AtomicBool,
    torn: AtomicBool,
    dropped: AtomicBool,
}

impl ComputeHandler {
    /// A handler; `chaos_enabled` gates the [`chaos_headers`] hooks.
    pub fn new(chaos_enabled: bool) -> ComputeHandler {
        ComputeHandler {
            gvm: Gvm::with_pool_size(1),
            chaos_enabled,
            aborted: AtomicBool::new(false),
            torn: AtomicBool::new(false),
            dropped: AtomicBool::new(false),
        }
    }
}

impl RemoteHandler for ComputeHandler {
    fn handle(&self, ctx: &WorkerCtx, delivery: &RemoteDelivery) -> Result<Vec<u8>, Fault> {
        if self.chaos_enabled {
            if delivery.headers.contains_key(chaos_headers::ABORT)
                && !self.aborted.swap(true, Ordering::Relaxed)
            {
                // Real process death: no unwinding, no cleanup, the
                // lease stays un-settled until the broker notices.
                std::process::abort();
            }
            if delivery.headers.contains_key(chaos_headers::TORN_FRAME)
                && !self.torn.swap(true, Ordering::Relaxed)
            {
                ctx.write_torn_frame();
            }
            if delivery.headers.contains_key(chaos_headers::DROP_CONN)
                && !self.dropped.swap(true, Ordering::Relaxed)
            {
                ctx.drop_connection();
            }
        }
        compute_reply(delivery, &self.gvm)
    }
}

// ---- process supervision ---------------------------------------------

/// The spec a worker process was spawned from, kept so the same worker
/// can be respawned after a kill.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// `--name`: worker identity (diagnostics, backoff seed salt).
    pub name: String,
    /// `--node`: logical node id for affinity routing.
    pub node: u32,
    /// `--service`: `(service, instance_count)` slots.
    pub services: Vec<(String, u32)>,
    /// `--seed`: reconnect-jitter seed.
    pub seed: u64,
}

struct WorkerSlot {
    spec: WorkerSpec,
    child: Option<Child>,
}

/// Spawns `gozer-worker` binaries as real OS child processes and kills
/// them with SIGKILL — the harness-side process manager the
/// multi-process survivability sweeps drive. Any children still alive
/// when the supervisor drops are killed and reaped, so a panicking
/// test cannot leak orphan workers.
pub struct ProcessSupervisor {
    bin: PathBuf,
    broker: String,
    chaos: bool,
    workers: Mutex<Vec<WorkerSlot>>,
}

impl ProcessSupervisor {
    /// A supervisor launching `bin` against `broker` (`host:port`).
    /// `chaos` passes `--chaos` so workers honor [`chaos_headers`].
    pub fn new(
        bin: impl Into<PathBuf>,
        broker: impl Into<String>,
        chaos: bool,
    ) -> ProcessSupervisor {
        ProcessSupervisor {
            bin: bin.into(),
            broker: broker.into(),
            chaos,
            workers: Mutex::new(Vec::new()),
        }
    }

    fn launch(&self, spec: &WorkerSpec) -> std::io::Result<Child> {
        let mut cmd = Command::new(&self.bin);
        cmd.arg("--broker")
            .arg(&self.broker)
            .arg("--name")
            .arg(&spec.name)
            .arg("--node")
            .arg(spec.node.to_string())
            .arg("--seed")
            .arg(spec.seed.to_string());
        for (service, count) in &spec.services {
            cmd.arg("--service").arg(format!("{service}:{count}"));
        }
        if self.chaos {
            cmd.arg("--chaos");
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        cmd.spawn()
    }

    /// Spawn a worker process; returns its slot index.
    pub fn spawn(&self, spec: WorkerSpec) -> std::io::Result<usize> {
        let child = self.launch(&spec)?;
        let mut workers = self.workers.lock().unwrap();
        workers.push(WorkerSlot {
            spec,
            child: Some(child),
        });
        Ok(workers.len() - 1)
    }

    /// The OS pid of the worker in `slot`, if it is currently running.
    pub fn pid(&self, slot: usize) -> Option<u32> {
        let workers = self.workers.lock().unwrap();
        workers
            .get(slot)
            .and_then(|w| w.child.as_ref())
            .map(|c| c.id())
    }

    /// `kill -9` the worker in `slot` and reap it. Returns `true` if a
    /// process was actually killed. `Child::kill` delivers SIGKILL on
    /// Unix: no signal handler, no flush, no goodbye frame — the
    /// broker learns of the death only from the socket.
    pub fn kill(&self, slot: usize) -> bool {
        let mut workers = self.workers.lock().unwrap();
        let Some(worker) = workers.get_mut(slot) else {
            return false;
        };
        let Some(mut child) = worker.child.take() else {
            return false;
        };
        let killed = child.kill().is_ok();
        let _ = child.wait();
        killed
    }

    /// Relaunch the worker in `slot` from its original spec (after a
    /// [`kill`](ProcessSupervisor::kill)). A still-running occupant is
    /// killed first.
    pub fn respawn(&self, slot: usize) -> std::io::Result<()> {
        self.kill(slot);
        let mut workers = self.workers.lock().unwrap();
        let Some(worker) = workers.get_mut(slot) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "no such worker slot",
            ));
        };
        worker.child = Some(self.launch(&worker.spec)?);
        Ok(())
    }

    /// Number of worker slots (spawned, whether currently alive or not).
    pub fn len(&self) -> usize {
        self.workers.lock().unwrap().len()
    }

    /// True if no workers were ever spawned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Kill and reap every remaining worker process.
    pub fn shutdown(&self) {
        let mut workers = self.workers.lock().unwrap();
        for worker in workers.iter_mut() {
            if let Some(mut child) = worker.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

impl Drop for ProcessSupervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---- seeded kill plans -----------------------------------------------

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scheduled `kill -9`: which worker slot dies, how long after the
/// workload starts, and how long the supervisor waits before respawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillEvent {
    /// Worker slot index to kill.
    pub victim: usize,
    /// Delay from workload start to the kill.
    pub after: Duration,
    /// Delay from the kill to the respawn.
    pub respawn_after: Duration,
}

/// A deterministic process-kill chaos preset: `kills` SIGKILLs spread
/// over the first ~200ms of a run, victims and timings derived purely
/// from the seed so a failing seed replays bit-identically.
#[derive(Debug, Clone)]
pub struct KillPlan {
    /// The schedule, sorted by [`KillEvent::after`].
    pub kills: Vec<KillEvent>,
}

impl KillPlan {
    /// The preset: `kills` events over `workers` slots from `seed`.
    pub fn from_seed(seed: u64, workers: usize, kills: usize) -> KillPlan {
        assert!(workers > 0, "kill plan needs at least one worker");
        let mut events = Vec::with_capacity(kills);
        for i in 0..kills {
            let h = splitmix64(seed ^ ((i as u64 + 1).wrapping_mul(0xA5A5_A5A5_A5A5_A5A5)));
            let victim = (h % workers as u64) as usize;
            // 20–200ms after start: inside the window where the sweep's
            // spin-heavy deliveries are in flight.
            let after = Duration::from_millis(20 + (h >> 8) % 180);
            // 10–60ms dead time before the replacement comes up.
            let respawn_after = Duration::from_millis(10 + (h >> 16) % 50);
            events.push(KillEvent {
                victim,
                after,
                respawn_after,
            });
        }
        events.sort_by_key(|e| e.after);
        KillPlan { kills: events }
    }

    /// Run the plan against `sup`, blocking the calling thread: sleep
    /// to each event's offset, `kill -9` the victim, wait the dead
    /// time, respawn. Returns the number of processes actually killed.
    pub fn execute(&self, sup: &ProcessSupervisor) -> usize {
        let start = std::time::Instant::now();
        let mut killed = 0;
        for event in &self.kills {
            if let Some(wait) = event.after.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            if sup.kill(event.victim) {
                killed += 1;
            }
            std::thread::sleep(event.respawn_after);
            // A failed respawn leaves the slot empty; the sweep's
            // completion assertions will catch the capacity loss.
            let _ = sup.respawn(event.victim);
        }
        killed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_plans_are_deterministic_and_bounded() {
        let a = KillPlan::from_seed(42, 3, 4);
        let b = KillPlan::from_seed(42, 3, 4);
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.kills.len(), 4);
        for e in &a.kills {
            assert!(e.victim < 3);
            assert!(e.after >= Duration::from_millis(20) && e.after < Duration::from_millis(200));
            assert!(e.respawn_after >= Duration::from_millis(10));
        }
        let c = KillPlan::from_seed(43, 3, 4);
        assert_ne!(a.kills, c.kills, "different seeds give different plans");
        // Sorted so execute() never sleeps backwards.
        assert!(a.kills.windows(2).all(|w| w[0].after <= w[1].after));
    }

    #[test]
    fn compute_reply_squares() {
        let gvm = Gvm::with_pool_size(1);
        let body = serialize_value(
            &Value::Map(Arc::new(gozer_lang::AssocMap::from_pairs(vec![(
                Value::str("n"),
                Value::Int(7),
            )]))),
            Codec::Deflate,
        )
        .unwrap();
        let delivery = RemoteDelivery {
            service: "Compute".into(),
            operation: "Square".into(),
            headers: Default::default(),
            body,
            redeliveries: 0,
        };
        let reply = compute_reply(&delivery, &gvm).unwrap();
        assert_eq!(deserialize_value(&reply, &gvm).unwrap(), Value::Int(49));
    }
}
