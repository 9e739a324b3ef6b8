//! The layer ladder: each layer a task passes through, timed in
//! isolation from this file around the layer's public functions, on
//! inputs captured from the workload that just ran — its source, a
//! continuation it persisted, its message body, its kind of store.
//! Every figure is the median of `calls` calls (a fifth of that, at
//! least 20, for a call that waits out a group commit or compiles the
//! prelude).
//!
//! [`Rig::replay`] then walks one task's life by hand: each layer call
//! as often as the traced window saw it per task, in order, one child
//! span per call under one root span.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::wire::{decode_frame, encode_frame};
use bluebox::{
    Cluster, Message, Policy, RemoteDelivery, ServiceCtx, ServiceQueue, TcpBroker, TcpBrokerConfig,
    TcpWorker, WireMsg, WirePayload, WorkerConfig, WorkerCtx,
};
use gozer_compress::Codec;
use gozer_lang::{Reader, Value};
use gozer_serial::{
    deserialize_state, deserialize_state_delta, serialize_state_delta, serialize_state_sized,
    serialize_value,
};
use gozer_vm::{FiberState, Gvm, RunOutcome};
use vinz::{LogStore, MemStore, StateStore, VINZ_PRELUDE};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{mix, scratch_dir, Deployment, Kind, SERVICE};

/// The ladder's layers, in the order a task meets them.
pub const LAYERS: [&str; 13] = [
    "cluster.call_us",
    "serial.de_us",
    "serial.ser_full_us",
    "store.put_us",
    "queue.handoff_us.w2",
    "store.get_us",
    "vm.exec_us",
    "serial.ser_delta_us",
    "store.commit_us",
    "wire.codec_us",
    "tcp.rtt_us",
    "vm.resume_us",
    "queue.handoff_us.w1",
];

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median microseconds of `calls` timed calls of `f`, after one untimed.
fn median_us(calls: usize, mut f: impl FnMut() -> Duration) -> f64 {
    f();
    median(&(0..calls).map(|_| us(f())).collect::<Vec<_>>())
}

/// Time one call of `f`.
fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    black_box(f());
    t.elapsed()
}

/// `n` consumers parked in `pop_for` on one queue; [`Handoff::once`]
/// pushes one message and returns how long until a consumer had it.
struct Handoff {
    queue: Arc<ServiceQueue>,
    stop: Arc<AtomicBool>,
    got: mpsc::Receiver<Duration>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Handoff {
    fn new(consumers: usize) -> Handoff {
        let queue = Arc::new(ServiceQueue::new(Policy::Fcfs));
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, got) = mpsc::channel();
        let threads = (0..consumers)
            .map(|_| {
                let (queue, stop, tx) = (queue.clone(), stop.clone(), tx.clone());
                queue.register_consumer(0);
                std::thread::spawn(move || {
                    // SeqCst: the flag orders against `close`'s wake-up.
                    while !stop.load(Ordering::SeqCst) {
                        if let Some(m) = queue.pop_for(0, Duration::from_millis(50)) {
                            let waited = m.enqueued_at.elapsed();
                            queue.settle();
                            if tx.send(waited).is_err() {
                                return;
                            }
                        }
                    }
                })
            })
            .collect();
        Handoff {
            queue,
            stop,
            got,
            threads,
        }
    }

    fn once(&self) -> Duration {
        // Let the consumer that served the last push park again, so the
        // push below meets waiting threads, as an idle instance pool does.
        std::thread::sleep(Duration::from_micros(60));
        let mut m = Message::new("q", "op", Vec::new());
        m.enqueued_at = Instant::now();
        self.queue.push(m);
        self.got
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or(Duration::from_secs(5))
    }
}

impl Drop for Handoff {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.queue.close();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A cluster with an echo service: in-process instances, or one TCP
/// worker over loopback.
struct Echo {
    cluster: Arc<Cluster>,
    worker: Option<TcpWorker>,
    _broker: Option<Arc<TcpBroker>>,
}

impl Echo {
    fn in_process() -> Echo {
        let cluster = Cluster::new();
        cluster.register_service(
            "Echo",
            None,
            Arc::new(|_: &ServiceCtx, m: &Message| Ok(m.body.clone())),
        );
        cluster.spawn_instances("Echo", 0, 2);
        Echo {
            cluster,
            worker: None,
            _broker: None,
        }
    }

    fn over_tcp() -> Result<Echo, String> {
        let cluster = Cluster::new();
        cluster.register_service(
            "Echo",
            None,
            Arc::new(|_: &ServiceCtx, _: &Message| {
                Err(bluebox::Fault::new(
                    "{bench}RemoteOnly",
                    "served by the TCP worker",
                ))
            }),
        );
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default())
            .map_err(|e| format!("tcp listen: {e}"))?;
        let mut cfg = WorkerConfig::new(broker.addr().to_string(), "Echo", 1);
        cfg.name = "ladder-echo".into();
        let worker = TcpWorker::spawn(
            cfg,
            Arc::new(|_: &WorkerCtx, d: &RemoteDelivery| Ok(d.body.clone())),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while broker.live_connections() < 1 {
            if Instant::now() > deadline {
                return Err("ladder TCP worker never connected".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Echo {
            cluster,
            worker: Some(worker),
            _broker: Some(broker),
        })
    }

    fn call(&self, body: &[u8]) -> Duration {
        timed(|| {
            self.cluster
                .call(
                    Message::new("Echo", "Echo", body.to_vec()),
                    Duration::from_secs(5),
                )
                .expect("echo round trip")
        })
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        if let Some(w) = self.worker.take() {
            w.stop();
        }
        self.cluster.shutdown();
    }
}

/// Everything the ladder needs, captured once from a deployment whose
/// workload has run.
pub struct Rig {
    kind: Kind,
    calls: usize,
    source: String,
    gvm: Arc<Gvm>,
    func: Value,
    args: Vec<Value>,
    suspended: Option<FiberState>,
    /// A full snapshot the workload persisted, and its decoded state
    /// with every delta of its chain applied.
    base_bytes: Vec<u8>,
    state: FiberState,
    /// The last delta record of that chain and the clean-prefix length
    /// that reproduces it, if the workload wrote deltas.
    delta: Option<(Vec<u8>, usize)>,
    /// The body a message of this workload carries.
    body: Vec<u8>,
    /// A fresh store of the workload's kind, for the write path.
    bench_store: Arc<dyn StateStore>,
    bench_log: Option<Arc<LogStore>>,
    bench_dir: Option<std::path::PathBuf>,
    /// The workload's own store, for the read path.
    live_store: Arc<dyn StateStore>,
    tasks: u64,
    seq: std::cell::Cell<u64>,
    handoff1: Handoff,
    handoff2: Handoff,
    echo: Echo,
    echo_tcp: Echo,
    frame: WireMsg,
}

impl Rig {
    pub fn capture(dep: &Deployment, calls: usize) -> Result<Rig, String> {
        let kind = dep.kind;
        let rt = dep
            .wf
            .node_runtimes()
            .into_iter()
            .next()
            .ok_or("no node runtime")?;
        let gvm = rt.gvm.clone();
        let func = gvm
            .function(kind.probe_function())
            .ok_or_else(|| format!("{} is not defined", kind.probe_function()))?;
        let arg = dep.inputs.arg(kind, 0, 0);
        let args = match kind {
            Kind::AwakeCold => vec![
                Value::Int(arg),
                Value::list(
                    dep.inputs
                        .park_payload(0)
                        .into_iter()
                        .map(Value::Int)
                        .collect(),
                ),
            ],
            _ => vec![Value::Int(arg)],
        };
        let suspended = match gvm
            .call_fiber(&func, args.clone())
            .map_err(|e| e.to_string())?
        {
            RunOutcome::Suspended(s) => Some(s.state),
            RunOutcome::Done(_) => None,
        };

        // A continuation the workload itself persisted: the newest task
        // whose full-snapshot key is still live.
        let store = dep.wf.store().clone();
        let tasks = dep
            .wf
            .obs()
            .counters()
            .tasks_started
            .load(Ordering::Relaxed);
        let get = |key: &str| store.get(key).map_err(|e| e.to_string());
        let (fiber, base_bytes) = (1..=tasks)
            .rev()
            .take(64)
            .find_map(|id| {
                let fiber = format!("task-{id}/f0");
                // Generation 0 keeps the plain key; only a compacted
                // chain needs the (linear) key listing to find its base.
                if let Some(bytes) = store.get(&format!("fiber/{fiber}")).ok()? {
                    return Some((fiber, bytes));
                }
                let key = store
                    .list(&format!("fiber/{fiber}"))
                    .ok()?
                    .into_iter()
                    .next()?;
                Some((fiber, store.get(&key).ok()??))
            })
            .ok_or("no persisted continuation to capture")?;
        let mut state = deserialize_state(&base_bytes, &gvm).map_err(|e| e.to_string())?;
        let mut delta = None;
        for k in 0.. {
            let Some(bytes) = get(&format!("fiber-d/{fiber}/{k}"))? else {
                break;
            };
            state = deserialize_state_delta(&bytes, &gvm, &state).map_err(|e| e.to_string())?;
            delta = Some(bytes);
        }
        // Which clean prefix wrote that record? Re-serialization is
        // bit-identical, so try each and keep the one that reproduces it.
        let delta = delta.map(|bytes| {
            let prefix = (1..=state.frames.len())
                .rev()
                .find(|&p| {
                    matches!(serialize_state_delta(&state, p, Codec::None, bytes.len()),
                             Ok(Some(b)) if b == bytes)
                })
                .unwrap_or(state.frames.len().saturating_sub(1).max(1));
            (bytes, prefix)
        });

        let body = match kind {
            Kind::SvcTcp => {
                let mut m = gozer_lang::AssocMap::new();
                m.insert(Value::str("n"), Value::Int(arg));
                serialize_value(&Value::Map(Arc::new(m)), Codec::None)
            }
            _ => serialize_value(&Value::list(args.clone()), Codec::None),
        }
        .map_err(|e| e.to_string())?;

        let (bench_store, bench_log, bench_dir): (Arc<dyn StateStore>, _, _) = if kind.uses_log() {
            let dir = scratch_dir("ladder");
            let log = Arc::new(LogStore::builder(&dir).build().map_err(|e| e.to_string())?);
            (log.clone(), Some(log), Some(dir))
        } else {
            (Arc::new(MemStore::new()), None, None)
        };

        let mut headers = BTreeMap::new();
        headers.insert("task-id".to_string(), format!("task-{tasks}"));
        headers.insert("fiber-id".to_string(), fiber);
        let frame = WireMsg::Delivery {
            lease: tasks,
            redeliveries: 0,
            payload: WirePayload {
                service: "Compute".into(),
                operation: "Square".into(),
                headers,
                body: body.clone(),
                priority: 0,
                hold_until: 0,
            },
        };

        Ok(Rig {
            kind,
            calls,
            source: dep.inputs.source(kind),
            gvm,
            func,
            args,
            suspended,
            base_bytes,
            state,
            delta,
            body,
            bench_store,
            bench_log,
            bench_dir,
            live_store: store,
            tasks,
            seq: std::cell::Cell::new(0),
            handoff1: Handoff::new(1),
            handoff2: Handoff::new(2),
            echo: Echo::in_process(),
            echo_tcp: Echo::over_tcp()?,
            frame,
        })
    }

    fn next_seq(&self) -> u64 {
        self.seq.set(self.seq.get() + 1);
        self.seq.get()
    }

    /// One call into `layer`, timed. `None` when the workload has no
    /// input for it (no suspension to resume, no delta written).
    fn once(&self, layer: &str) -> Option<Duration> {
        Some(match layer {
            "cluster.call_us" => self.echo.call(&self.body),
            "tcp.rtt_us" => self.echo_tcp.call(&self.body),
            "queue.handoff_us.w1" => self.handoff1.once(),
            "queue.handoff_us.w2" => self.handoff2.once(),
            "serial.de_us" => timed(|| deserialize_state(&self.base_bytes, &self.gvm)),
            "serial.ser_full_us" => {
                timed(|| serialize_state_sized(&self.state, Codec::None, self.base_bytes.len()))
            }
            "serial.ser_delta_us" => {
                let (bytes, prefix) = self.delta.as_ref()?;
                timed(|| serialize_state_delta(&self.state, *prefix, Codec::None, bytes.len()))
            }
            "store.put_us" | "store.commit_us" => {
                // The pair a save writes: the snapshot and the 24-byte
                // meta record that names it, as one batch.
                let i = self.next_seq();
                let (key, meta_key) = (
                    format!("fiber/bench-{i}/f0"),
                    format!("fiber-v/bench-{i}/f0"),
                );
                let entries: [(&str, &[u8]); 2] =
                    [(&key, &self.base_bytes), (&meta_key, &[0u8; 24])];
                let commit = layer == "store.commit_us";
                timed(|| {
                    let ticket = self
                        .bench_store
                        .put_batch(&entries)
                        .expect("bench store put");
                    if commit {
                        self.bench_store.flush().expect("bench store flush");
                    }
                    ticket
                })
            }
            "store.get_us" => {
                let id = 1 + mix(self.next_seq()) % self.tasks.max(1);
                let key = format!("fiber/task-{id}/f0");
                timed(|| self.live_store.get(&key))
            }
            "vm.exec_us" => timed(|| self.gvm.call_fiber(&self.func, self.args.clone())),
            "vm.resume_us" => {
                let state = self.suspended.clone()?;
                timed(|| self.gvm.resume_fiber(state, Value::Int(0)))
            }
            "wire.codec_us" => timed(|| {
                let buf = encode_frame(&self.frame);
                decode_frame(&buf).expect("frame decodes")
            }),
            other => unreachable!("unknown ladder layer {other}"),
        })
    }

    /// Calls for `layer`: fewer for the two that take milliseconds.
    fn calls_for(&self, layer: &str) -> usize {
        match layer {
            "store.commit_us" if self.kind.uses_log() => (self.calls / 5).max(20),
            _ => self.calls,
        }
    }

    /// Every per-layer figure the ladder measures, by metric name.
    pub fn measure(&self) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        for layer in LAYERS {
            let v = match self.once(layer) {
                Some(_) => median_us(self.calls_for(layer), || self.once(layer).expect("checked")),
                None => 0.0,
            };
            out.push((layer, v));
        }

        let q = ServiceQueue::new(Policy::Fcfs);
        out.push((
            "queue.push_pop_us",
            median_us(self.calls, || {
                let m = Message::new("q", "op", Vec::new());
                timed(|| {
                    q.push(m);
                    let got = q.pop_for(0, Duration::from_secs(1));
                    q.settle();
                    got
                })
            }),
        ));

        out.push(("serial.full_bytes", self.base_bytes.len() as f64));
        out.push((
            "serial.delta_bytes",
            self.delta.as_ref().map_or(0.0, |(b, _)| b.len() as f64),
        ));
        out.push(("wire.frame_bytes", encode_frame(&self.frame).len() as f64));

        // Group commit: fsyncs the store issues for 100 back-to-back
        // saves followed by one flush.
        let fsyncs = |log: &LogStore| log.stats().fsyncs;
        let per_100: Vec<f64> = (0..5)
            .map(|_| {
                let before = self.bench_log.as_deref().map_or(0, fsyncs);
                for _ in 0..100 {
                    self.once("store.put_us");
                }
                self.bench_store.flush().expect("bench store flush");
                (self.bench_log.as_deref().map_or(0, fsyncs) - before) as f64
            })
            .collect();
        out.push(("store.fsyncs_per_100_puts", median(&per_100)));

        // Read and compile last: reloading the source bumps the VM's
        // global generation, which would cool the caches `vm.exec_us`
        // is measured with.
        let slow_calls = (self.calls / 5).max(20);
        let read = median_us(slow_calls, || {
            timed(|| {
                Reader::read_all_str(VINZ_PRELUDE).expect("prelude reads");
                Reader::read_all_str(&self.source).expect("workflow reads")
            })
        });
        let unit = format!("workflow:{SERVICE}");
        let load = median_us(slow_calls, || {
            timed(|| {
                self.gvm
                    .load_str(VINZ_PRELUDE, "vinz-prelude")
                    .expect("prelude loads");
                self.gvm
                    .load_str(&self.source, &unit)
                    .expect("workflow loads")
            })
        });
        out.push(("lang.read_us", read));
        out.push(("vm.compile_us", (load - read).max(0.0)));
        out
    }

    /// Walk one task's life by hand, `n` times: `per_task[layer]` calls
    /// of each layer (rounded), in ladder order, one child span each
    /// under a root span.
    pub fn replay(&self, tracer: &Tracer, per_task: &BTreeMap<&str, f64>, n: usize) {
        for i in 0..n {
            let trace = format!("ladder-{i}");
            let t0 = Instant::now();
            let mut children = Vec::new();
            for layer in LAYERS {
                for _ in 0..per_task.get(layer).map_or(0, |m| m.round() as usize) {
                    let start = Instant::now();
                    if let Some(d) = self.once(layer) {
                        // The span is the call itself; what `once` does
                        // around it (parking pause, key building) is the
                        // root's self time.
                        let end = Instant::now();
                        children.push((layer, end - d.min(end - start), end));
                    }
                }
            }
            let root = tracer.record(None, &trace, "ladder", t0, Instant::now());
            for (layer, start, end) in children {
                tracer.record(Some(root), &trace, layer, start, end);
            }
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        // Close the LogStore before its directory goes.
        self.bench_log = None;
        self.bench_store = Arc::new(MemStore::new());
        if let Some(dir) = self.bench_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
