//! The TCP transport: real worker processes over localhost sockets.
//!
//! Architecture: the broker process keeps *all* queueing, lease, and
//! recovery state. A remote worker never owns a queue — when it
//! connects and registers, the broker spawns one local **proxy
//! instance** thread per registered slot. The proxy competes on the
//! service queue exactly like an in-process instance, but instead of
//! invoking a handler it forwards the delivery over the connection and
//! waits for the worker's settle. The payoff is that every recovery
//! mechanism built for in-process instances — the lease reaper,
//! redelivery backoff, dead-letter quarantine, `hold_until` parking —
//! covers real process death with no parallel code path: `kill -9` on
//! a worker surfaces as a dead connection, which marks its proxies
//! dead, which expires their leases.
//!
//! Exactly-once discipline (at-least-once delivery + single effect):
//!
//! * Each forwarded delivery carries a broker-unique **delivery id**
//!   (not the message id). A settle must echo it. A worker that
//!   finishes *after* the reaper reclaimed its message can therefore
//!   never settle the message's next delivery — the stale id no longer
//!   maps to anything and is counted as a duplicate settle.
//! * A proxy applies a settle only if it still owns the lease
//!   ([`Cluster::take_lease`]); a reclaim between settle arrival and
//!   application is caught there.
//! * A connection that dies mid-delivery (torn frame, `kill -9`,
//!   half-written settle) causes the proxy to *abandon* the message:
//!   no settle, no requeue. The lease expires and the reaper
//!   redelivers — exactly the contract in-process crashes follow.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, RecvTimeoutError};
use parking_lot::Mutex;
use rustc_hash::FxHashMap;

use crate::cluster::{Cluster, InstanceControl, ReplySlot};
use crate::message::{Fault, Message};
use crate::metrics::TransportMetrics;
use crate::wire::{
    encode_frame, FrameError, FrameReader, SettleBody, WireMsg, WirePayload,
};

// ---- shared helpers ---------------------------------------------------

fn wire_payload_of(msg: &Message) -> WirePayload {
    WirePayload {
        service: msg.service.clone(),
        operation: msg.operation.clone(),
        headers: msg.headers.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        body: msg.body.clone(),
        priority: msg.priority,
        hold_until: msg.hold_until,
    }
}

fn message_from(p: WirePayload) -> Message {
    let mut msg = Message::new(&p.service, &p.operation, p.body)
        .with_priority(p.priority);
    if p.hold_until > 0 {
        msg = msg.with_hold_until(p.hold_until);
    }
    msg.headers = p.headers.into_iter().collect();
    msg
}

fn settle_result(body: SettleBody) -> Result<Vec<u8>, Fault> {
    match body {
        SettleBody::Ok(bytes) => Ok(bytes),
        SettleBody::Fault(code, message) => Err(Fault { code, message }),
    }
}

fn is_decode_error(e: &FrameError) -> bool {
    !matches!(e, FrameError::Eof | FrameError::Io(_))
}

fn is_read_timeout(e: &FrameError) -> bool {
    matches!(
        e,
        FrameError::Io(std::io::ErrorKind::WouldBlock)
            | FrameError::Io(std::io::ErrorKind::TimedOut)
    )
}

/// Deterministic reconnect backoff: exponential in `attempt` (1-based),
/// capped, plus 0–50% jitter hashed from `(seed, attempt)` so a fleet
/// of workers restarting together fans out instead of thundering.
pub fn backoff_with_jitter(
    base: Duration,
    max: Duration,
    seed: u64,
    attempt: u32,
) -> Duration {
    let exp = attempt.saturating_sub(1).min(16);
    let raw = base.saturating_mul(1u32 << exp).min(max);
    // splitmix64 over (seed, attempt): stable across runs of one seed.
    let mut z = seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let jitter_nanos = (raw.as_nanos() as u64 / 2).checked_rem(u64::MAX).unwrap_or(0);
    let jitter = if jitter_nanos == 0 { 0 } else { z % jitter_nanos.max(1) };
    raw + Duration::from_nanos(jitter.min(raw.as_nanos() as u64 / 2))
}

// ---- broker side ------------------------------------------------------

/// Tunables of the broker's listener side.
#[derive(Debug, Clone)]
pub struct TcpBrokerConfig {
    /// Heartbeat cadence announced to workers in the handshake.
    pub heartbeat: Duration,
    /// Socket read timeout per connection: a worker that produces no
    /// frame (not even a heartbeat) for this long is declared dead.
    pub liveness_timeout: Duration,
}

impl Default for TcpBrokerConfig {
    fn default() -> TcpBrokerConfig {
        TcpBrokerConfig {
            heartbeat: Duration::from_millis(250),
            liveness_timeout: Duration::from_secs(2),
        }
    }
}

/// One accepted worker connection, shared between its reader thread
/// and the proxy instances it registered.
struct Conn {
    worker: String,
    node: u32,
    /// Writer half; a [`Mutex`] so Delivery frames from concurrent
    /// proxies never interleave mid-frame.
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
    /// Outstanding forwarded deliveries by delivery id; the reader
    /// routes Settle frames here. Entries removed on settle, conn
    /// death, reclaim, or proxy exit — a lookup miss is a stale settle.
    pending: Mutex<FxHashMap<u64, ReplySlot>>,
    /// Controls of the proxy instances registered on this connection.
    instances: Mutex<Vec<Arc<InstanceControl>>>,
    tm: Arc<TransportMetrics>,
}

impl Conn {
    fn write(&self, msg: &WireMsg) -> bool {
        if self.dead.load(Ordering::Relaxed) {
            return false;
        }
        let frame = encode_frame(msg);
        // The guard must be dropped before `mark_dead`, which re-locks
        // `self.stream` to shut the socket down — holding it across the
        // error arm would self-deadlock on the first failed write.
        let res = {
            let mut stream = self.stream.lock();
            stream.write_all(&frame).and_then(|_| stream.flush())
        };
        match res {
            Ok(()) => {
                self.tm.frames_sent.fetch_add(1, Ordering::Relaxed);
                self.tm
                    .bytes_sent
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.mark_dead();
                false
            }
        }
    }

    /// Declare the connection dead (idempotent): wake every waiting
    /// proxy (dropping their settle senders), mark every registered
    /// instance not-alive so the reaper expires their leases, and
    /// close the socket.
    fn mark_dead(&self) {
        if !self.dead.swap(true, Ordering::SeqCst) {
            self.tm.worker_disconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.pending.lock().clear();
        for control in self.instances.lock().iter() {
            control.alive.store(false, Ordering::Relaxed);
        }
        let _ = self.stream.lock().shutdown(Shutdown::Both);
    }
}

/// The broker's TCP listener: accepts worker connections, and is shut
/// down with the cluster it serves. Services the embedder spawns
/// directly (e.g. the Vinz workflow service) still run as in-process
/// threads; only capacity *registered over a connection* is remote.
pub struct TcpBroker {
    cluster: Weak<Cluster>,
    addr: SocketAddr,
    cfg: TcpBrokerConfig,
    stop: AtomicBool,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    conns: Mutex<Vec<Arc<Conn>>>,
    next_delivery: AtomicU64,
    tmetrics: Arc<TransportMetrics>,
}

impl TcpBroker {
    /// Bind `addr` (use port 0 for an ephemeral port), start accepting
    /// workers, and hand the broker to `cluster` to shut down with it.
    pub fn start(
        cluster: &Arc<Cluster>,
        addr: &str,
        cfg: TcpBrokerConfig,
    ) -> std::io::Result<Arc<TcpBroker>> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let broker = Arc::new(TcpBroker {
            cluster: Arc::downgrade(cluster),
            addr,
            cfg,
            stop: AtomicBool::new(false),
            accept_thread: Mutex::new(None),
            conn_threads: Mutex::new(Vec::new()),
            conns: Mutex::new(Vec::new()),
            next_delivery: AtomicU64::new(1),
            tmetrics: Arc::new(TransportMetrics::default()),
        });
        *cluster.tcp.lock() = Some(broker.clone());
        let accept_broker = broker.clone();
        let thread = std::thread::Builder::new()
            .name("bb-tcp-accept".into())
            .spawn(move || accept_loop(accept_broker, listener))
            .expect("spawn tcp accept thread");
        *broker.accept_thread.lock() = Some(thread);
        Ok(broker)
    }

    /// The bound listen address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Transport-layer counters (framing, connection churn, settles).
    pub fn transport_metrics(&self) -> Arc<TransportMetrics> {
        self.tmetrics.clone()
    }

    /// Worker connections currently alive.
    pub fn live_connections(&self) -> usize {
        self.conns
            .lock()
            .iter()
            .filter(|c| !c.dead.load(Ordering::Relaxed))
            .count()
    }

    /// Names of the workers currently connected (health reporting).
    pub fn connected_workers(&self) -> Vec<String> {
        self.conns
            .lock()
            .iter()
            .filter(|c| !c.dead.load(Ordering::Relaxed))
            .map(|c| c.worker.clone())
            .collect()
    }

    fn closing(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
            || self.cluster.upgrade().is_none_or(|c| c.is_shutdown())
    }

    /// Whether the listener is still up (not shut down).
    pub fn alive(&self) -> bool {
        !self.stop.load(Ordering::Relaxed)
    }

    /// Stop accepting, kill every worker connection and join their
    /// threads. Called by [`Cluster::shutdown`]; idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.lock().take() {
            let _ = t.join();
        }
        // Kill every connection (wakes readers and waiting proxies).
        for conn in self.conns.lock().iter() {
            conn.mark_dead();
        }
        let threads: Vec<JoinHandle<()>> = self.conn_threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

fn accept_loop(broker: Arc<TcpBroker>, listener: TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if broker.closing() {
                    return;
                }
                continue;
            }
        };
        if broker.closing() {
            return;
        }
        let conn_broker = broker.clone();
        let thread = std::thread::Builder::new()
            .name("bb-tcp-conn".into())
            .spawn(move || conn_loop(conn_broker, stream))
            .expect("spawn tcp conn thread");
        // Reap completed connection threads on each accept so a
        // long-lived broker with churning workers does not accumulate
        // dead JoinHandles without bound.
        let mut threads = broker.conn_threads.lock();
        threads.retain(|t| !t.is_finished());
        threads.push(thread);
    }
}

/// One worker connection: handshake, then a frame-dispatch loop until
/// the connection dies or says goodbye.
fn conn_loop(broker: Arc<TcpBroker>, mut stream: TcpStream) {
    let tm = broker.tmetrics.clone();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(broker.cfg.liveness_timeout));
    // Timeout-safe framing: a read timeout mid-frame (large Delivery,
    // stalled worker) must not desynchronise the byte stream.
    let mut reader = FrameReader::new();
    // Handshake: Hello in, HelloAck out. Anything else is not a worker.
    let (worker, node) = match reader.read_frame(&mut stream) {
        Ok(WireMsg::Hello { worker, node }) => {
            tm.frames_received.fetch_add(1, Ordering::Relaxed);
            (worker, node)
        }
        Err(e) if is_read_timeout(&e) => {
            return; // silent peer: not a worker, drop it
        }
        Ok(_) => {
            tm.decode_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        Err(e) => {
            if is_decode_error(&e) {
                tm.decode_errors.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
    };
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(Conn {
        worker,
        node,
        stream: Mutex::new(writer),
        dead: AtomicBool::new(false),
        pending: Mutex::new(FxHashMap::default()),
        instances: Mutex::new(Vec::new()),
        tm: tm.clone(),
    });
    if !conn.write(&WireMsg::HelloAck {
        heartbeat_ms: broker.cfg.heartbeat.as_millis() as u64,
    }) {
        return;
    }
    tm.worker_connects.fetch_add(1, Ordering::Relaxed);
    broker.conns.lock().push(conn.clone());
    // Dispatch until death.
    loop {
        if broker.closing() || conn.dead.load(Ordering::Relaxed) {
            break;
        }
        let msg = match reader.read_frame(&mut stream) {
            Ok(msg) => {
                tm.frames_received.fetch_add(1, Ordering::Relaxed);
                msg
            }
            Err(e) if is_read_timeout(&e) => {
                // No frame for a whole liveness window — with workers
                // heartbeating at a fraction of it, the peer is gone or
                // wedged. Treat as dead (a SIGSTOPped or hung worker
                // must not hold leases forever).
                break;
            }
            Err(e) => {
                if is_decode_error(&e) {
                    tm.decode_errors.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
        };
        match msg {
            WireMsg::Register { service, instances } => {
                let Some(cluster) = broker.cluster.upgrade() else { break };
                let n = instances.min(256) as usize;
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    let proxy_broker = broker.clone();
                    let proxy_conn = conn.clone();
                    let proxy_cluster = cluster.clone();
                    let proxy_service = service.clone();
                    let id = cluster.register_remote_instance(
                        &service,
                        node,
                        |id, control| {
                            conn.instances.lock().push(control.clone());
                            std::thread::Builder::new()
                                .name(format!("bb-proxy-{proxy_service}-{id}"))
                                .spawn(move || {
                                    remote_instance_loop(
                                        proxy_cluster,
                                        proxy_broker,
                                        proxy_conn,
                                        proxy_service,
                                        id,
                                        control,
                                    )
                                })
                                .expect("spawn remote proxy thread")
                        },
                    );
                    ids.push(id);
                }
                if !conn.write(&WireMsg::Registered { service, ids }) {
                    break;
                }
            }
            WireMsg::Settle { lease, body } => {
                let slot = conn.pending.lock().remove(&lease);
                match slot {
                    Some(tx) => {
                        let _ = tx.send(settle_result(body));
                    }
                    None => {
                        // Stale: the lease was reclaimed (and possibly
                        // redelivered under a fresh delivery id) or the
                        // proxy gave up. Dropping it here is what keeps
                        // one delivery from taking effect twice.
                        tm.duplicate_settles.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            WireMsg::Send { payload } => {
                let Some(cluster) = broker.cluster.upgrade() else { break };
                cluster.send(message_from(payload));
            }
            WireMsg::Heartbeat { .. } => {
                tm.heartbeats.fetch_add(1, Ordering::Relaxed);
                // A heartbeat vouches for the *process*, not for
                // progress on any one delivery: only idle instances get
                // their lease clocks re-armed, so a wedged handler
                // still expires on TTL.
                let now = Instant::now();
                for control in conn.instances.lock().iter() {
                    if !control.busy.load(Ordering::Relaxed) {
                        *control.heartbeat.lock() = now;
                    }
                }
            }
            WireMsg::Bye => break,
            // A worker must never send broker-to-worker messages;
            // framing is intact but the protocol is not. Drop it.
            WireMsg::Hello { .. }
            | WireMsg::HelloAck { .. }
            | WireMsg::Registered { .. }
            | WireMsg::Delivery { .. } => {
                tm.decode_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    conn.mark_dead();
    broker.conns.lock().retain(|c| !Arc::ptr_eq(c, &conn));
}

/// A proxy instance: competes on the service queue on behalf of one
/// remote worker slot, forwarding deliveries and applying settles.
fn remote_instance_loop(
    cluster: Arc<Cluster>,
    broker: Arc<TcpBroker>,
    conn: Arc<Conn>,
    service: String,
    instance_id: u64,
    control: Arc<InstanceControl>,
) {
    let service: Arc<str> = service.into();
    let queue = cluster.service_queue(&service);
    let node_id = conn.node;
    queue.register_consumer(node_id);
    loop {
        if control.stop.load(Ordering::Relaxed)
            || conn.dead.load(Ordering::Relaxed)
            || cluster.is_shutdown()
        {
            break;
        }
        let Some(msg) = queue.pop_for(node_id, Duration::from_millis(50)) else {
            continue;
        };
        // Leased from here. Every exit path either settles exactly once
        // (lease taken first) or abandons the message with the lease
        // registered for the reaper — never both.
        let msg = Arc::new(msg);
        cluster.insert_lease(&msg, &service, instance_id);
        cluster.note_delivered(&msg, node_id, instance_id);
        let delivery_id = broker.next_delivery.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        conn.pending.lock().insert(delivery_id, tx);
        control.busy.store(true, Ordering::Relaxed);
        let forwarded = conn.write(&WireMsg::Delivery {
            lease: delivery_id,
            redeliveries: msg.redeliveries,
            payload: wire_payload_of(&msg),
        });
        if forwarded {
            broker
                .tmetrics
                .remote_deliveries
                .fetch_add(1, Ordering::Relaxed);
        }
        let outcome = if !forwarded {
            None
        } else {
            loop {
                match rx.recv_timeout(Duration::from_millis(25)) {
                    Ok(result) => break Some(result),
                    Err(RecvTimeoutError::Disconnected) => break None,
                    Err(RecvTimeoutError::Timeout) => {
                        if conn.dead.load(Ordering::Relaxed)
                            || control.stop.load(Ordering::Relaxed)
                            || cluster.is_shutdown()
                        {
                            break None;
                        }
                        if !cluster.lease_held(msg.id) {
                            // The reaper reclaimed the message out from
                            // under the (slow) worker; the redelivery
                            // is someone else's now.
                            break None;
                        }
                    }
                }
            }
        };
        control.busy.store(false, Ordering::Relaxed);
        conn.pending.lock().remove(&delivery_id);
        match outcome {
            Some(result) => {
                if cluster.take_lease(msg.id) {
                    broker
                        .tmetrics
                        .remote_settles
                        .fetch_add(1, Ordering::Relaxed);
                    cluster.route_reply(&msg, result);
                    cluster.metrics.add(&cluster.metrics.completed, 1);
                    queue.settle();
                } else {
                    // Settled after reclaim: result discarded, the
                    // reaper already returned the queue lease.
                    broker
                        .tmetrics
                        .duplicate_settles
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                if conn.dead.load(Ordering::Relaxed)
                    || control.stop.load(Ordering::Relaxed)
                    || cluster.is_shutdown()
                {
                    // Worker gone mid-delivery (torn frame, kill -9):
                    // abandon. The registered lease expires and the
                    // reaper redelivers or quarantines — a crashed
                    // process cannot return its own work.
                    control.alive.store(false, Ordering::Relaxed);
                    break;
                }
                // Lease reclaimed but the connection is healthy: keep
                // serving. A late settle for `delivery_id` no longer
                // resolves and is counted as a duplicate.
                continue;
            }
        }
    }
    queue.deregister_consumer(node_id);
}

// ---- worker side ------------------------------------------------------

/// What a remote worker's handler receives per delivery.
pub struct RemoteDelivery {
    /// Destination service (as registered).
    pub service: String,
    /// Destination operation.
    pub operation: String,
    /// Message headers.
    pub headers: BTreeMap<String, String>,
    /// Opaque body.
    pub body: Vec<u8>,
    /// How many times the broker has re-queued this message.
    pub redeliveries: u32,
}

/// A remote worker's request handler: the worker-process analogue of
/// [`crate::Handler`]. One handler serves every registered service.
pub trait RemoteHandler: Send + Sync {
    /// Process one delivery; the reply body or a fault.
    fn handle(&self, ctx: &WorkerCtx, delivery: &RemoteDelivery) -> Result<Vec<u8>, Fault>;
}

impl<F> RemoteHandler for F
where
    F: Fn(&WorkerCtx, &RemoteDelivery) -> Result<Vec<u8>, Fault> + Send + Sync,
{
    fn handle(&self, ctx: &WorkerCtx, delivery: &RemoteDelivery) -> Result<Vec<u8>, Fault> {
        self(ctx, delivery)
    }
}

struct WorkerSession {
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
}

impl WorkerSession {
    fn write(&self, msg: &WireMsg) -> bool {
        if self.dead.load(Ordering::Relaxed) {
            return false;
        }
        let frame = encode_frame(msg);
        // Guard dropped before `kill`, which re-locks `self.stream`.
        let res = {
            let mut stream = self.stream.lock();
            stream.write_all(&frame).and_then(|_| stream.flush())
        };
        if res.is_err() {
            self.kill();
            return false;
        }
        true
    }

    fn kill(&self) {
        self.dead.store(true, Ordering::Relaxed);
        let _ = self.stream.lock().shutdown(Shutdown::Both);
    }
}

/// Handler context on the worker side: fire-and-forget sends back into
/// the broker, plus fault-injection hooks the chaos harnesses use to
/// produce *real* torn frames and connection drops.
pub struct WorkerCtx {
    session: Arc<WorkerSession>,
}

impl WorkerCtx {
    /// Inject a fire-and-forget message into the broker's queues.
    pub fn send(&self, service: &str, operation: &str, body: Vec<u8>) {
        self.session.write(&WireMsg::Send {
            payload: WirePayload {
                service: service.to_string(),
                operation: operation.to_string(),
                headers: BTreeMap::new(),
                body,
                priority: 0,
                hold_until: 0,
            },
        });
    }

    /// Chaos hook: drop this worker's connection right now, as a
    /// network partition or peer reset would. The worker's reconnect
    /// loop takes over.
    pub fn drop_connection(&self) {
        self.session.kill();
    }

    /// Chaos hook: write half a frame, then die — the exact byte
    /// pattern a `kill -9` mid-write leaves on the broker's socket.
    /// The broker must treat it as a connection death (lease expiry),
    /// never block on it or apply a partial settle.
    pub fn write_torn_frame(&self) {
        let frame = encode_frame(&WireMsg::Heartbeat { seq: u64::MAX });
        let torn = &frame[..frame.len() / 2];
        {
            let mut stream = self.session.stream.lock();
            let _ = stream.write_all(torn);
            let _ = stream.flush();
        }
        self.session.kill();
    }
}

/// Worker-side counters, shared with the [`TcpWorker`] handle.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Sessions that completed the handshake.
    pub connects: AtomicU64,
    /// Handshakes after the first (i.e. successful reconnects).
    pub reconnects: AtomicU64,
    /// Deliveries received.
    pub deliveries: AtomicU64,
    /// Settles successfully written back.
    pub settles: AtomicU64,
    /// Failed connection attempts.
    pub connect_failures: AtomicU64,
}

/// Configuration of a [`TcpWorker`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Broker address (`host:port`).
    pub broker: String,
    /// Worker name (diagnostics).
    pub name: String,
    /// Logical node id for affinity routing.
    pub node: u32,
    /// `(service, instance_count)` slots to register.
    pub services: Vec<(String, u32)>,
    /// Jitter seed for reconnect backoff (derive from the worker's
    /// identity so a restarted fleet spreads out deterministically).
    pub seed: u64,
    /// Reconnect backoff floor.
    pub backoff_base: Duration,
    /// Reconnect backoff cap.
    pub backoff_max: Duration,
    /// Give up after this many *consecutive* failed connect attempts;
    /// 0 retries forever.
    pub max_attempts: u32,
}

impl WorkerConfig {
    /// A worker serving `instances` slots of `service` at `broker`.
    pub fn new(broker: impl Into<String>, service: &str, instances: u32) -> WorkerConfig {
        WorkerConfig {
            broker: broker.into(),
            name: "worker".into(),
            node: 100,
            services: vec![(service.to_string(), instances)],
            seed: 0,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
            max_attempts: 0,
        }
    }
}

enum SessionEnd {
    /// Broker said Bye or the stop flag was raised: do not reconnect.
    Finished,
    /// Connection lost: reconnect.
    Lost,
}

/// A remote worker: connects to a [`TcpBroker`], registers service
/// slots, processes deliveries with a [`RemoteHandler`], heartbeats,
/// and reconnects with exponential backoff + jitter when the
/// connection drops. Runs in-thread (tests, benches) or as the whole
/// of a worker process (the `gozer-worker` binary).
pub struct TcpWorker {
    stop: Arc<AtomicBool>,
    stats: Arc<WorkerStats>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl TcpWorker {
    /// Run the worker on a background thread; stop it with
    /// [`TcpWorker::stop`].
    pub fn spawn(config: WorkerConfig, handler: Arc<dyn RemoteHandler>) -> TcpWorker {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(WorkerStats::default());
        let run_stop = stop.clone();
        let run_stats = stats.clone();
        let thread = std::thread::Builder::new()
            .name(format!("bb-worker-{}", config.name))
            .spawn(move || worker_loop(config, handler, run_stop, run_stats))
            .expect("spawn tcp worker thread");
        TcpWorker {
            stop,
            stats,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Run the worker on the calling thread until the broker says Bye,
    /// the attempt budget is spent, or the process dies. This is the
    /// `gozer-worker` binary's main loop.
    pub fn run(config: WorkerConfig, handler: Arc<dyn RemoteHandler>) {
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(WorkerStats::default());
        worker_loop(config, handler, stop, stats);
    }

    /// Worker-side counters.
    pub fn stats(&self) -> &Arc<WorkerStats> {
        &self.stats
    }

    /// Signal the worker to stop and join its thread.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

fn worker_loop(
    config: WorkerConfig,
    handler: Arc<dyn RemoteHandler>,
    stop: Arc<AtomicBool>,
    stats: Arc<WorkerStats>,
) {
    let mut failures = 0u32;
    let mut sessions = 0u64;
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match run_session(&config, &handler, &stop, &stats, sessions > 0) {
            Ok(SessionEnd::Finished) => return,
            Ok(SessionEnd::Lost) => {
                sessions += 1;
                failures = 0;
            }
            Err(_) => {
                stats.connect_failures.fetch_add(1, Ordering::Relaxed);
                failures += 1;
                if config.max_attempts != 0 && failures >= config.max_attempts {
                    return;
                }
            }
        }
        // Back off before the next attempt; sleep in slices so a stop
        // request is honored promptly.
        let mut left = backoff_with_jitter(
            config.backoff_base,
            config.backoff_max,
            config.seed,
            failures.max(1),
        );
        while !left.is_zero() {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let slice = left.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
    }
}

fn run_session(
    config: &WorkerConfig,
    handler: &Arc<dyn RemoteHandler>,
    stop: &Arc<AtomicBool>,
    stats: &Arc<WorkerStats>,
    is_reconnect: bool,
) -> Result<SessionEnd, FrameError> {
    let mut stream = TcpStream::connect(&config.broker).map_err(FrameError::from)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut writer_stream = stream.try_clone().map_err(FrameError::from)?;
    write_frame(
        &mut writer_stream,
        &WireMsg::Hello {
            worker: config.name.clone(),
            node: config.node,
        },
    )?;
    // Timeout-safe framing: the 100ms read timeout routinely fires
    // mid-frame under load; partial bytes must be preserved across
    // ticks or the stream desynchronises.
    let mut reader = FrameReader::new();
    // Await HelloAck (tolerating read-timeout ticks).
    let heartbeat_ms = loop {
        match reader.read_frame(&mut stream) {
            Ok(WireMsg::HelloAck { heartbeat_ms }) => break heartbeat_ms,
            Err(e) if is_read_timeout(&e) => {
                if stop.load(Ordering::Relaxed) {
                    return Ok(SessionEnd::Finished);
                }
            }
            Ok(_) => return Err(FrameError::BadTag(0)),
            Err(e) => return Err(e),
        }
    };
    stats.connects.fetch_add(1, Ordering::Relaxed);
    if is_reconnect {
        stats.reconnects.fetch_add(1, Ordering::Relaxed);
    }
    let session = Arc::new(WorkerSession {
        stream: Mutex::new(writer_stream),
        dead: AtomicBool::new(false),
    });
    for (service, instances) in &config.services {
        if !session.write(&WireMsg::Register {
            service: service.clone(),
            instances: *instances,
        }) {
            return Ok(SessionEnd::Lost);
        }
    }
    // Heartbeat thread: vouches for this process at the cadence the
    // broker asked for.
    let hb_session = session.clone();
    let hb_stop = stop.clone();
    let hb_interval = Duration::from_millis(heartbeat_ms.clamp(20, 10_000));
    let heartbeat_thread = std::thread::Builder::new()
        .name("bb-worker-hb".into())
        .spawn(move || {
            let mut seq = 0u64;
            while !hb_session.dead.load(Ordering::Relaxed) && !hb_stop.load(Ordering::Relaxed)
            {
                std::thread::sleep(hb_interval);
                seq += 1;
                if !hb_session.write(&WireMsg::Heartbeat { seq }) {
                    return;
                }
            }
        })
        .expect("spawn worker heartbeat thread");
    // Dispatch deliveries until the connection ends.
    let end = loop {
        if stop.load(Ordering::Relaxed) {
            session.write(&WireMsg::Bye);
            break SessionEnd::Finished;
        }
        if session.dead.load(Ordering::Relaxed) {
            break SessionEnd::Lost;
        }
        match reader.read_frame(&mut stream) {
            Ok(WireMsg::Delivery {
                lease,
                redeliveries,
                payload,
            }) => {
                stats.deliveries.fetch_add(1, Ordering::Relaxed);
                let delivery = RemoteDelivery {
                    service: payload.service,
                    operation: payload.operation,
                    headers: payload.headers,
                    body: payload.body,
                    redeliveries,
                };
                let task_session = session.clone();
                let task_handler = handler.clone();
                let task_stats = stats.clone();
                // One thread per in-flight delivery; concurrency is
                // bounded broker-side by the registered instance count
                // (each proxy forwards one delivery at a time).
                let _ = std::thread::Builder::new()
                    .name("bb-worker-task".into())
                    .spawn(move || {
                        let ctx = WorkerCtx {
                            session: task_session.clone(),
                        };
                        let result = task_handler.handle(&ctx, &delivery);
                        let body = match result {
                            Ok(bytes) => SettleBody::Ok(bytes),
                            Err(fault) => SettleBody::Fault(fault.code, fault.message),
                        };
                        if task_session.write(&WireMsg::Settle { lease, body }) {
                            task_stats.settles.fetch_add(1, Ordering::Relaxed);
                        }
                    });
            }
            Ok(WireMsg::Registered { .. }) | Ok(WireMsg::Heartbeat { .. }) => {}
            Ok(WireMsg::Bye) => break SessionEnd::Finished,
            Ok(_) => break SessionEnd::Lost,
            Err(e) if is_read_timeout(&e) => continue,
            Err(_) => break SessionEnd::Lost,
        }
    };
    session.kill();
    let _ = heartbeat_thread.join();
    Ok(end)
}

fn write_frame(stream: &mut TcpStream, msg: &WireMsg) -> Result<(), FrameError> {
    crate::wire::write_frame(stream, msg)
}

/// Resolve `addr` to a [`SocketAddr`] (first match).
pub fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::RecoveryConfig;

    fn fast_recovery() -> RecoveryConfig {
        RecoveryConfig {
            lease_ttl: Duration::from_millis(400),
            scan_interval: Duration::from_millis(5),
            redelivery_budget: 8,
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(20),
        }
    }

    #[test]
    fn remote_worker_round_trip() {
        let cluster = Cluster::new();
        cluster.set_recovery(fast_recovery());
        let broker =
            TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
        assert!(broker.alive());
        let handler = Arc::new(
            |_ctx: &WorkerCtx, d: &RemoteDelivery| -> Result<Vec<u8>, Fault> {
                let mut reply = d.body.clone();
                reply.reverse();
                Ok(reply)
            },
        );
        let worker = TcpWorker::spawn(
            WorkerConfig::new(broker.addr().to_string(), "rev", 2),
            handler,
        );
        for i in 0..20u8 {
            let reply = cluster
                .call(
                    Message::new("rev", "Rev", vec![i, i + 1, i + 2]),
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(reply, vec![i + 2, i + 1, i]);
        }
        let tm = broker.transport_metrics().snapshot();
        assert!(tm.remote_deliveries >= 20);
        assert_eq!(tm.remote_settles, tm.remote_deliveries);
        assert_eq!(tm.duplicate_settles, 0);
        worker.stop();
        cluster.shutdown();
    }

    #[test]
    fn worker_fault_routes_back() {
        let cluster = Cluster::new();
        cluster.set_recovery(fast_recovery());
        let broker =
            TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
        let handler = Arc::new(
            |_ctx: &WorkerCtx, _d: &RemoteDelivery| -> Result<Vec<u8>, Fault> {
                Err(Fault::new("{urn:w}Boom", "nope"))
            },
        );
        let worker = TcpWorker::spawn(
            WorkerConfig::new(broker.addr().to_string(), "boom", 1),
            handler,
        );
        let err = cluster
            .call(Message::new("boom", "Go", vec![]), Duration::from_secs(5))
            .unwrap_err();
        match err {
            crate::CallError::Fault(f) => assert_eq!(f.code, "{urn:w}Boom"),
            other => panic!("expected fault, got {other:?}"),
        }
        worker.stop();
        cluster.shutdown();
    }

    #[test]
    fn dead_connection_surfaces_as_lease_expiry() {
        let cluster = Cluster::new();
        cluster.set_recovery(fast_recovery());
        let broker =
            TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
        // First delivery tears the connection mid-write; the reconnected
        // session must complete the redelivery.
        let torn = Arc::new(AtomicBool::new(false));
        let handler_torn = torn.clone();
        let handler = Arc::new(
            move |ctx: &WorkerCtx, d: &RemoteDelivery| -> Result<Vec<u8>, Fault> {
                if !handler_torn.swap(true, Ordering::SeqCst) {
                    ctx.write_torn_frame();
                    // The settle below is written to a dead socket and
                    // must vanish without effect.
                }
                Ok(d.body.clone())
            },
        );
        let worker = TcpWorker::spawn(
            WorkerConfig::new(broker.addr().to_string(), "echo", 1),
            handler,
        );
        let reply = cluster
            .call(Message::new("echo", "Echo", b"alive".to_vec()), Duration::from_secs(10))
            .unwrap();
        assert_eq!(reply, b"alive");
        let stats = cluster.recovery_stats();
        assert!(stats.reclaims >= 1, "lease expiry must drive the retry");
        let tm = broker.transport_metrics().snapshot();
        assert!(tm.worker_disconnects >= 1);
        worker.stop();
        cluster.shutdown();
    }

    /// Run `f` on a helper thread and panic if it has not finished
    /// within `limit` — turns a deadlock into a test failure instead of
    /// a hung suite.
    fn assert_finishes_within(limit: Duration, f: impl FnOnce() + Send + 'static) {
        let done = Arc::new(AtomicBool::new(false));
        let thread_done = done.clone();
        let t = std::thread::spawn(move || {
            f();
            thread_done.store(true, Ordering::SeqCst);
        });
        let deadline = Instant::now() + limit;
        while !done.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(done.load(Ordering::SeqCst), "deadlocked: did not finish in {limit:?}");
        t.join().unwrap();
    }

    /// A write can only fail with the stream mutex held; `mark_dead`
    /// re-locks that mutex to shut the socket down. Regression test for
    /// the recursive-lock deadlock: the first broker-side write failure
    /// after a worker `kill -9` must return, not wedge the proxy.
    #[test]
    fn broker_write_failure_marks_dead_without_deadlock() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        drop(accepted); // peer dies: writes will eventually fail
        let conn = Arc::new(Conn {
            worker: "t".into(),
            node: 0,
            stream: Mutex::new(client),
            dead: AtomicBool::new(false),
            pending: Mutex::new(FxHashMap::default()),
            instances: Mutex::new(Vec::new()),
            tm: Arc::new(TransportMetrics::default()),
        });
        let write_conn = conn.clone();
        assert_finishes_within(Duration::from_secs(10), move || {
            // Large frames defeat socket buffering so the dead peer
            // surfaces as a write error within a few attempts.
            let big = WireMsg::Settle {
                lease: 1,
                body: SettleBody::Ok(vec![0u8; 1 << 20]),
            };
            for _ in 0..64 {
                if !write_conn.write(&big) {
                    return;
                }
            }
            panic!("writes to a dead peer never failed");
        });
        assert!(conn.dead.load(Ordering::Relaxed));
    }

    /// Same recursive-lock shape on the worker side: a failed
    /// settle/heartbeat write calls `kill`, which re-locks the stream.
    #[test]
    fn worker_write_failure_kills_session_without_deadlock() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        drop(accepted);
        let session = Arc::new(WorkerSession {
            stream: Mutex::new(client),
            dead: AtomicBool::new(false),
        });
        let write_session = session.clone();
        assert_finishes_within(Duration::from_secs(10), move || {
            let big = WireMsg::Settle {
                lease: 1,
                body: SettleBody::Ok(vec![0u8; 1 << 20]),
            };
            for _ in 0..64 {
                if !write_session.write(&big) {
                    return;
                }
            }
            panic!("writes to a dead peer never failed");
        });
        assert!(session.dead.load(Ordering::Relaxed));
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let base = Duration::from_millis(10);
        let max = Duration::from_secs(1);
        let a = backoff_with_jitter(base, max, 7, 3);
        let b = backoff_with_jitter(base, max, 7, 3);
        assert_eq!(a, b, "same seed+attempt must agree");
        assert!(a >= Duration::from_millis(40) && a <= Duration::from_millis(60));
        let capped = backoff_with_jitter(base, max, 7, 30);
        assert!(capped <= max + max / 2);
        let other_seed = backoff_with_jitter(base, max, 8, 3);
        // Not a hard guarantee for every pair, but these seeds differ.
        assert_ne!(a, other_seed);
    }
}
