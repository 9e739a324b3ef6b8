//! The six workloads: what each deploys, the inputs it makes from the
//! seed, one task's operation, and the closed-form value that task must
//! return. Every deployment is one service named [`SERVICE`] with two
//! instances on node 0 (`.instances(0, 2)`), `Codec::None` (the
//! benchmark measures the engine, not the compressor) and supervision
//! off (the orphan scan is not on a task's path and its cost grows with
//! the number of tasks ever run, which would make a run's rate depend
//! on its length).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::{Cluster, Fault, Message, RemoteDelivery, TcpWorker, WorkerConfig, WorkerCtx};
use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_serial::{deserialize_value, serialize_value};
use gozer_vm::Gvm;
use gozer_xml::ServiceDescription;
use vinz::testing::register_remote_service_desc;
use vinz::{
    LogStore, MemStore, StateStore, SupervisorConfig, TaskStatus, VinzConfig, WorkflowService,
};

use crate::trace::TracedStore;

/// Name of the deployed workflow service.
pub const SERVICE: &str = "wf";
/// Client threads (closed loop) — at most `nproc` of the 2-core box.
pub const CLIENTS: usize = 2;
/// How long one task may take before the client counts it as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    QuickClosed,
    QuickOpen,
    ForkJoinLog,
    AwakeCold,
    Compute,
    SvcTcp,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::QuickClosed,
        Kind::QuickOpen,
        Kind::ForkJoinLog,
        Kind::AwakeCold,
        Kind::Compute,
        Kind::SvcTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::QuickClosed => "quick-closed",
            Kind::QuickOpen => "quick-open",
            Kind::ForkJoinLog => "forkjoin-log",
            Kind::AwakeCold => "awake-cold",
            Kind::Compute => "compute",
            Kind::SvcTcp => "svc-tcp",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Kind::QuickClosed => "trivial task, MemStore, 2 closed-loop clients: unloaded latency; queue hand-off and service orchestration dominate, VM and store must not show",
            Kind::QuickOpen => "same task sent open-loop at six fixed rates, timed from the due time: the throughput-latency curve and its knee",
            Kind::ForkJoinLog => "six sequential fork/join rounds over a 2k-element payload on LogStore with delta snapshots: serializer, group commit and durability hold dominate",
            Kind::AwakeCold => "awake parked fibers in random order from a LogStore far larger than the fiber cache: store get, deserialize and resume on a cold cache",
            Kind::Compute => "about 2 ms of pure interpretation per task on MemStore: the only workload where a GVM change can show",
            Kind::SvcTcp => "one non-blocking service call served by a TcpWorker over loopback: wire codec, TCP transport, lease settle and service wait, bypassed by the other five",
        }
    }

    pub fn uses_log(self) -> bool {
        matches!(self, Kind::ForkJoinLog | Kind::AwakeCold)
    }

    /// The function a client starts.
    pub fn function(self) -> &'static str {
        match self {
            Kind::QuickClosed | Kind::QuickOpen => "quick",
            Kind::ForkJoinLog | Kind::SvcTcp => "main",
            Kind::AwakeCold => "hold",
            Kind::Compute => "sum-squares",
        }
    }

    /// The side-effect-free function the ladder runs by hand for the
    /// VM's share. `main` of `forkjoin-log` and `svc-tcp` calls Vinz
    /// natives that fork and send, so those two carry a `probe` with
    /// the same pure work (build and sum the payload; marshal nothing).
    pub fn probe_function(self) -> &'static str {
        match self {
            Kind::ForkJoinLog | Kind::SvcTcp => "probe",
            other => other.function(),
        }
    }
}

// ---- seeded inputs ------------------------------------------------------

/// splitmix64: one multiply-xorshift round per draw, no state beyond
/// the counter, so any (seed, client, k) maps to its input directly.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn draw(seed: u64, stream: u64, k: u64, below: u64) -> u64 {
    mix(mix(seed ^ stream.rotate_left(32)) ^ k) % below
}

/// Elements a parked `awake-cold` fiber carries.
pub const PARK_PAYLOAD: usize = 48;
/// Iterations of `sum-squares`, sized to about 2 ms of interpretation.
pub const COMPUTE_N: u64 = 14_000;

/// Inputs fixed by the seed for a whole run.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    pub seed: u64,
    /// `forkjoin-log`: length of the payload the parent holds.
    pub payload_len: u64,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        Inputs {
            seed,
            payload_len: 1_900 + mix(seed) % 200,
        }
    }

    /// Argument of the `k`-th task of `client`.
    pub fn arg(&self, kind: Kind, client: u64, k: u64) -> i64 {
        let stream = 1 + client;
        (match kind {
            Kind::QuickClosed | Kind::QuickOpen | Kind::SvcTcp => {
                2 + draw(self.seed, stream, k, 1_000_000)
            }
            Kind::ForkJoinLog => 1 + draw(self.seed, stream, k, 1_000),
            Kind::Compute => COMPUTE_N + draw(self.seed, stream, k, COMPUTE_N / 16),
            Kind::AwakeCold => k,
        }) as i64
    }

    /// The value a task started with `arg` must complete with.
    pub fn expected(&self, kind: Kind, arg: i64) -> Value {
        match kind {
            Kind::QuickClosed | Kind::QuickOpen | Kind::SvcTcp => Value::Int(arg * arg),
            Kind::ForkJoinLog => {
                let l = self.payload_len as i64;
                Value::Int(6 * 7 * arg + 1 + l * (l - 1) / 2)
            }
            Kind::Compute => Value::Int(arg * (arg + 1) * (2 * arg + 1) / 6),
            Kind::AwakeCold => Value::list(vec![
                Value::Int(arg),
                Value::Int(self.park_payload(arg as u64).iter().sum()),
            ]),
        }
    }

    /// Payload of the `k`-th parked fiber.
    pub fn park_payload(&self, k: u64) -> Vec<i64> {
        (0..PARK_PAYLOAD as u64)
            .map(|i| draw(self.seed, 0, k * 64 + i, 1_000) as i64)
            .collect()
    }

    pub fn source(&self, kind: Kind) -> String {
        match kind {
            Kind::QuickClosed | Kind::QuickOpen => "(defun quick (n) (* n n))\n".to_string(),
            // The `DEEP_WORKFLOW` shape of the serialization experiment:
            // three frames above a payload at every suspension, so each
            // of the six joins re-saves only the leaf as a delta.
            Kind::ForkJoinLog => format!(
                "(defun child (n) (* n 7))
(defun step (n) (join-process (fork-and-exec #'child :argument n)))
(defun leaf (n) (+ (step n) (step n) (step n) (step n) (step n) (step n)))
(defun mid (n) (+ 1 (leaf n)))
(defun main (n)
  (let ((payload (range {len})))
    (+ (mid n) (apply #'+ payload))))
(defun probe (n)
  (let ((payload (range {len})))
    (+ (yield {{:reason :probe}}) (apply #'+ payload))))
",
                len = self.payload_len
            ),
            Kind::AwakeCold => "(defun hold (k payload)
  (yield {:reason :parked})
  (list k (apply #'+ payload)))
"
            .to_string(),
            Kind::Compute => {
                "(defun sum-squares (n) (loop for i from 1 to n sum (* i i)))\n".to_string()
            }
            Kind::SvcTcp => "(deflink CP :wsdl \"urn:compute\" :port \"Compute\")
(defun main (n) (CP-Square-Method :n n))
(defun probe (n) (yield {:reason :probe}) n)
"
            .to_string(),
        }
    }
}

/// Deterministic Fisher-Yates order of `0..n`.
pub fn shuffled(seed: u64, n: usize) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        v.swap(i, draw(seed, 7, i as u64, i as u64 + 1) as usize);
    }
    v
}

// ---- deployment ---------------------------------------------------------

fn config() -> VinzConfig {
    VinzConfig {
        codec: Codec::None,
        // The default fiber cache (64 entries): `awake-cold` parks
        // thousands of fibers per deployment, so the store is the
        // system of record and a random awake misses.
        supervision: SupervisorConfig {
            enabled: false,
            ..SupervisorConfig::default()
        },
        delta_snapshots: true,
        ..VinzConfig::default()
    }
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh directory under `.bench_tmp/` of the working directory: the
/// benchmark reads and writes only inside its checkout.
pub fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_tmp").join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

pub struct Deployment {
    pub kind: Kind,
    pub inputs: Inputs,
    pub cluster: Arc<Cluster>,
    pub wf: Arc<WorkflowService>,
    /// Present in a traced run: the store wrapper that counts and times
    /// every store call the service makes.
    pub traced_store: Option<Arc<TracedStore>>,
    dir: Option<PathBuf>,
    worker: Option<TcpWorker>,
    /// `awake-cold`: ids of the parked tasks in the seeded order they
    /// are awoken, the next one to hand out, and how many may be handed
    /// out for now (the warm-up gets a sixteenth).
    pub parked: Vec<u32>,
    pub next_parked: AtomicU64,
    pub parked_limit: AtomicU64,
}

fn square_desc() -> ServiceDescription {
    ServiceDescription::new("Compute", "urn:compute").operation(
        "Square",
        "Squares the field n.",
        &[("n", "int")],
    )
}

fn square_reply(d: &RemoteDelivery, gvm: &Arc<Gvm>) -> Result<Vec<u8>, Fault> {
    let request = deserialize_value(&d.body, gvm)
        .map_err(|e| Fault::new("{bench}BadRequest", e.to_string()))?;
    let n = request
        .as_map()
        .and_then(|m| m.get(&Value::str("n")).cloned())
        .and_then(|v| v.as_int())
        .ok_or_else(|| Fault::new("{bench}BadArg", "need n"))?;
    serialize_value(&Value::Int(n * n), Codec::None)
        .map_err(|e| Fault::new("{bench}BadReply", e.to_string()))
}

impl Deployment {
    /// Everything up to, not including, the first task: cluster, store,
    /// compile, instances, TCP worker, and `awake-cold`'s parked fibers.
    pub fn deploy(
        kind: Kind,
        inputs: Inputs,
        traced: bool,
        park: usize,
    ) -> Result<Deployment, String> {
        let cluster = Cluster::new();
        let mut dir = None;
        let base: Arc<dyn StateStore> = if kind.uses_log() {
            let d = scratch_dir(kind.name());
            let store = Arc::new(
                LogStore::builder(&d)
                    .build()
                    .map_err(|e| format!("open LogStore: {e}"))?,
            );
            dir = Some(d);
            store
        } else {
            Arc::new(MemStore::new())
        };
        let traced_store = traced.then(|| Arc::new(TracedStore::new(base.clone())));
        let store: Arc<dyn StateStore> = match &traced_store {
            Some(t) => t.clone(),
            None => base,
        };
        if kind == Kind::SvcTcp {
            register_remote_service_desc(&cluster, "Compute", square_desc());
        }
        let mut builder = WorkflowService::builder(&cluster, SERVICE)
            .source(&inputs.source(kind))
            .store(store)
            .config(config())
            .instances(0, 2);
        if kind == Kind::SvcTcp {
            builder = builder.tcp_listen("127.0.0.1:0");
        }
        let wf = Arc::new(builder.deploy().map_err(|e| e.to_string())?);
        let mut dep = Deployment {
            kind,
            inputs,
            cluster,
            wf,
            traced_store,
            dir,
            worker: None,
            parked: Vec::new(),
            next_parked: AtomicU64::new(0),
            parked_limit: AtomicU64::new(0),
        };
        if kind == Kind::SvcTcp {
            dep.connect_worker()?;
        }
        if kind == Kind::AwakeCold {
            dep.park(park)?;
        }
        Ok(dep)
    }

    fn connect_worker(&mut self) -> Result<(), String> {
        let gvm = Gvm::with_pool_size(1);
        let handler = Arc::new(move |_ctx: &WorkerCtx, d: &RemoteDelivery| square_reply(d, &gvm));
        let addr = self.wf.tcp_addr().ok_or("no TCP listener")?;
        let mut cfg = WorkerConfig::new(addr.to_string(), "Compute", 2);
        cfg.name = "taskbench".into();
        self.worker = Some(TcpWorker::spawn(cfg, handler));
        let broker = self.wf.tcp_broker().ok_or("no TCP broker")?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while broker.live_connections() < 1 {
            if Instant::now() > deadline {
                return Err("TCP worker never connected".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Park `n` `hold` fibers with fire-and-forget `Start`s, at most a
    /// bounded number in flight, until all are suspended with a
    /// persisted continuation.
    fn park(&mut self, n: usize) -> Result<(), String> {
        const IN_FLIGHT: u64 = 4_096;
        let obs = self.wf.obs();
        let suspended = || obs.counters().suspended_fibers.load(Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut sent = 0u64;
        while suspended() < n as u64 {
            while sent < n as u64 && sent < suspended() + IN_FLIGHT {
                let payload = self
                    .inputs
                    .park_payload(sent)
                    .into_iter()
                    .map(Value::Int)
                    .collect();
                let args = Value::list(vec![Value::Int(sent as i64), Value::list(payload)]);
                let body = serialize_value(&args, Codec::None).map_err(|e| e.to_string())?;
                self.cluster
                    .send(Message::new(SERVICE, "Start", body).header("function", "hold"));
                sent += 1;
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "parking wedged at {} of {n} suspended",
                    suspended()
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        // Parked means durable: wait out the group commits still in
        // flight, or their fsyncs would land in the measured window.
        self.wf.store().flush().map_err(|e| e.to_string())?;
        // Task ids are handed out from 1 in Start order; which `k` a
        // task carries is known only from the value it completes with.
        self.parked = shuffled(self.inputs.seed, n)
            .into_iter()
            .map(|i| i + 1)
            .collect();
        self.parked_limit = AtomicU64::new(n as u64 / 16);
        Ok(())
    }

    /// One task, start to `Completed`, checked against the oracle.
    /// `Err` is a counted failure: wrong value, `Failed`, rejected, or
    /// timed out.
    pub fn op(&self, client: u64, k: u64) -> Result<OpOutcome, String> {
        if self.kind == Kind::AwakeCold {
            return self.awake_op();
        }
        let arg = self.inputs.arg(self.kind, client, k);
        let t0 = Instant::now();
        let task = self
            .wf
            .start(self.kind.function(), vec![Value::Int(arg)], None)
            .map_err(|e| format!("start: {e}"))?;
        let started = Instant::now();
        let rec = self
            .wf
            .wait(&task, OP_TIMEOUT)
            .ok_or_else(|| format!("{task}: timed out"))?;
        let done = Instant::now();
        let want = self.inputs.expected(self.kind, arg);
        match rec.status {
            TaskStatus::Completed(ref v) if *v == want => Ok(OpOutcome {
                task,
                t0,
                started,
                done,
            }),
            other => Err(format!("{task}: {other:?}, want Completed({want:?})")),
        }
    }

    fn awake_op(&self) -> Result<OpOutcome, String> {
        if self.next_parked.load(Ordering::Relaxed) >= self.parked_limit.load(Ordering::Relaxed) {
            return Err(EXHAUSTED.to_string());
        }
        let i = self.next_parked.fetch_add(1, Ordering::Relaxed) as usize;
        let id = *self.parked.get(i).ok_or_else(|| EXHAUSTED.to_string())?;
        let task = format!("task-{id}");
        let t0 = Instant::now();
        self.cluster.send(
            Message::new(SERVICE, "AwakeFiber", Vec::new())
                .header("fiber-id", format!("{task}/f0")),
        );
        let started = Instant::now();
        let rec = self
            .wf
            .wait(&task, OP_TIMEOUT)
            .ok_or_else(|| format!("{task}: timed out"))?;
        let done = Instant::now();
        let k = match &rec.status {
            TaskStatus::Completed(v) => v.as_list().and_then(|l| l.first()).and_then(Value::as_int),
            _ => None,
        };
        match (k, &rec.status) {
            (Some(k), TaskStatus::Completed(v))
                if (0..self.parked.len() as i64).contains(&k)
                    && *v == self.inputs.expected(Kind::AwakeCold, k) =>
            {
                Ok(OpOutcome {
                    task,
                    t0,
                    started,
                    done,
                })
            }
            _ => Err(format!("{task}: {:?}", rec.status)),
        }
    }

    /// Failures visible only in the public snapshots: dead letters and
    /// duplicate settles. Zero on a clean run.
    pub fn hidden_failures(&self) -> u64 {
        let dup = self
            .wf
            .tcp_broker()
            .map_or(0, |b| b.transport_metrics().snapshot().duplicate_settles);
        self.cluster.dead_letter_total() + dup
    }

    pub fn shutdown(mut self) {
        if let Some(w) = self.worker.take() {
            w.stop();
        }
        self.cluster.shutdown();
        let dir = self.dir.take();
        // The LogStore's writer thread ends when the last handle drops.
        drop(self);
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

impl Deployment {
    /// `awake-cold`: the warm-up is over, hand out every parked fiber.
    pub fn release_parked(&self) {
        self.parked_limit
            .store(self.parked.len() as u64, Ordering::Relaxed);
    }

    /// `awake-cold`: no parked fiber left to hand out.
    pub fn parked_exhausted(&self) -> bool {
        !self.parked.is_empty()
            && self.next_parked.load(Ordering::Relaxed) >= self.parked_limit.load(Ordering::Relaxed)
    }
}

/// `awake-cold` ran out of parked fibers: the window ends early.
pub const EXHAUSTED: &str = "parked fibers exhausted";

/// Timestamps of one successful task as its client saw it.
pub struct OpOutcome {
    pub task: String,
    pub t0: Instant,
    /// When `start` returned the task id (`AwakeFiber` was sent).
    pub started: Instant,
    pub done: Instant,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let (a, b, c) = (Inputs::new(7), Inputs::new(7), Inputs::new(8));
        for kind in Kind::ALL {
            for k in 0..50 {
                assert_eq!(a.arg(kind, 0, k), b.arg(kind, 0, k));
            }
        }
        assert!((0..50).any(|k| a.arg(Kind::QuickClosed, 0, k) != c.arg(Kind::QuickClosed, 0, k)));
        assert!((0..50).any(|k| a.arg(Kind::QuickClosed, 0, k) != a.arg(Kind::QuickClosed, 1, k)));
        assert_eq!(a.park_payload(3), b.park_payload(3));
        assert_ne!(a.park_payload(3), a.park_payload(4));
    }

    #[test]
    fn oracle_is_closed_form() {
        let i = Inputs {
            seed: 1,
            payload_len: 2_000,
        };
        assert_eq!(i.expected(Kind::QuickClosed, 12), Value::Int(144));
        // DEEP_WORKFLOW's own figure: main(3) with a 2000-element payload.
        assert_eq!(
            i.expected(Kind::ForkJoinLog, 3),
            Value::Int(6 * 21 + 1 + 1999 * 2000 / 2)
        );
        assert_eq!(i.expected(Kind::Compute, 4), Value::Int(1 + 4 + 9 + 16));
        let sum: i64 = i.park_payload(5).iter().sum();
        assert_eq!(
            i.expected(Kind::AwakeCold, 5),
            Value::list(vec![Value::Int(5), Value::Int(sum)])
        );
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(3, 1000);
        assert_eq!(a, shuffled(3, 1000));
        assert_ne!(a, shuffled(4, 1000));
        let mut s = a.clone();
        s.sort_unstable();
        assert!(s.iter().copied().eq(0..1000));
    }
}
