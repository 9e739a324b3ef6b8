//! The TCP transport: real worker processes over localhost sockets.
//!
//! Architecture: the broker process keeps *all* queueing, lease, and
//! recovery state. A remote worker never owns a queue — when it
//! connects and registers `n` slots of a service, the broker starts `n`
//! ordinary instances whose slot is the connection
//! (`Slot::Remote`). They run the one instance
//! loop in `cluster.rs`, so they pop, lease, take chaos and kill faults,
//! count as busy and in flight, and settle exactly as in-process
//! instances do; only the delivery step differs: it forwards the
//! message over the connection and waits for the worker's settle
//! (`Conn::deliver`). Every recovery mechanism — the lease reaper,
//! redelivery backoff, dead-letter quarantine, `hold_until` parking —
//! therefore covers real process death with no code of its own:
//! `kill -9` on a worker surfaces as a dead connection, which marks its
//! slots dead, which expires their leases.
//!
//! Exactly-once discipline (at-least-once delivery + single effect):
//!
//! * Each forwarded delivery carries a connection-unique **delivery
//!   id** (not the message id). A settle must echo it. A worker that
//!   finishes *after* the reaper reclaimed its message can therefore
//!   never settle the message's next delivery — the stale id no longer
//!   maps to anything and is counted as a duplicate settle.
//! * A slot applies a settle only if it still holds the lease (the
//!   settle rule every instance follows); a reclaim between settle
//!   arrival and application is caught there.
//! * A connection that dies mid-delivery (torn frame, `kill -9`,
//!   half-written settle) makes the slot *abandon* the message and
//!   die holding its lease: no settle, no requeue. The reaper
//!   redelivers — exactly what an in-process crash leads to.
//!
//! Each end writes through one `Link` (encode, write, flush, die on
//! error, under one lock) and reads through one [`FrameReader`]. A
//! frame over [`MAX_FRAME_LEN`] is refused at its sender, and the call
//! it belongs to fails once with a `payload-too-large` fault; the
//! receiver would otherwise drop the whole connection on it.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use rustc_hash::FxHashMap;

use crate::clock::Clock;
use crate::cluster::{Cluster, InstanceControl, ReplySlot, ServiceCtx, Slot};
use crate::message::{Fault, Message};
use crate::metrics::TransportMetrics;
use crate::wire::{
    encode_frame, encode_frame_within, FrameError, FrameReader, SettleBody, WireMsg, WirePayload,
    MAX_FRAME_LEN,
};

// ---- shared helpers ---------------------------------------------------

fn wire_payload_of(msg: &Message) -> WirePayload {
    WirePayload {
        service: msg.service.clone(),
        operation: msg.operation.clone(),
        headers: msg
            .headers
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        body: msg.body.clone(),
        priority: msg.priority,
        hold_until: msg.hold_until,
    }
}

/// The message a worker's `Send` asks for. Its `hold_until` is not
/// carried over: a worker holds no ticket of the broker's store (the
/// connection refuses a `Send` that names one).
fn message_from(p: WirePayload) -> Message {
    let mut msg = Message::new(&p.service, &p.operation, p.body).with_priority(p.priority);
    msg.headers = p.headers.into_iter().collect();
    msg
}

/// The fault code of a call whose request or reply is over
/// [`MAX_FRAME_LEN`].
const PAYLOAD_TOO_LARGE: &str = "payload-too-large";

/// Whether a write failed because its frame is over the bound (the
/// link is still up).
fn too_large(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::InvalidInput
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

/// A worker's first reconnect backoff, doubled per consecutive failure.
const RECONNECT_BACKOFF_BASE: Duration = Duration::from_millis(10);

/// The cap on a worker's reconnect backoff (before jitter).
const RECONNECT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Deterministic reconnect backoff: exponential in `attempt` (1-based),
/// capped, plus 0–50% jitter hashed from `(seed, attempt)` so a fleet
/// of workers restarting together fans out instead of thundering.
pub fn backoff_with_jitter(base: Duration, max: Duration, seed: u64, attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(16);
    let raw = base.saturating_mul(1u32 << exp).min(max);
    // splitmix64 over (seed, attempt): stable across runs of one seed.
    let mut z = seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let jitter_nanos = raw.as_nanos() as u64 / 2;
    let jitter = if jitter_nanos == 0 {
        0
    } else {
        z % jitter_nanos
    };
    raw + Duration::from_nanos(jitter)
}

// ---- broker side ------------------------------------------------------

/// How many slots one connection may register, over all its
/// `Register` frames.
const SLOT_BUDGET: u32 = 256;

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

/// The write half of a connection, shared by every thread that sends
/// on it: a frame is encoded, written and flushed under one lock, so
/// frames of concurrent writers never interleave, and the first failed
/// write kills the link. A frame over [`MAX_FRAME_LEN`] is never
/// written: it fails with `InvalidInput` and the link stays up. Both
/// ends use it: the broker's `Conn` and a worker's session.
struct Link {
    stream: Mutex<TcpStream>,
    dead: AtomicBool,
}

impl Link {
    fn new(stream: TcpStream) -> Link {
        Link {
            stream: Mutex::new(stream),
            dead: AtomicBool::new(false),
        }
    }

    /// Write one frame; its size in bytes. Fails at once on a dead link,
    /// and with `InvalidInput` on a frame over the bound.
    fn write(&self, msg: &WireMsg) -> std::io::Result<usize> {
        if self.is_dead() {
            return Err(std::io::ErrorKind::NotConnected.into());
        }
        let frame = encode_frame_within(msg, MAX_FRAME_LEN)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        // The guard must be dropped before `kill`, which re-locks the
        // stream to shut it down — holding it across the error arm
        // would self-deadlock on the first failed write.
        let res = {
            let mut stream = self.stream.lock();
            stream.write_all(&frame).and_then(|_| stream.flush())
        };
        match res {
            Ok(()) => Ok(frame.len()),
            Err(e) => {
                self.kill();
                Err(e)
            }
        }
    }

    /// Declare the link dead (idempotent) and close the socket.
    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.stream.lock().shutdown(Shutdown::Both);
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }
}

/// One accepted worker connection, shared between its reader thread
/// and the instances whose slot it is.
pub(crate) struct Conn {
    link: Link,
    worker: String,
    /// Delivery ids, unique on this connection.
    next_delivery: AtomicU64,
    /// Outstanding forwarded deliveries by delivery id; the reader
    /// routes Settle frames here. Entries removed on settle, conn
    /// death, reclaim, or slot exit — a lookup miss is a stale settle.
    pending: Mutex<FxHashMap<u64, ReplySlot>>,
    /// Controls of the instances registered on this connection.
    pub(crate) instances: Mutex<Vec<Arc<InstanceControl>>>,
    tm: Arc<TransportMetrics>,
}

impl Conn {
    fn new(worker: String, stream: TcpStream, tm: Arc<TransportMetrics>) -> Conn {
        Conn {
            link: Link::new(stream),
            worker,
            next_delivery: AtomicU64::new(1),
            pending: Mutex::new(FxHashMap::default()),
            instances: Mutex::new(Vec::new()),
            tm,
        }
    }

    /// Write one frame; whether it went out. Any failure but an
    /// over-bound frame kills the connection.
    fn write(&self, msg: &WireMsg) -> bool {
        match self.link.write(msg) {
            Ok(bytes) => {
                self.tm.frames_sent.fetch_add(1, Ordering::Relaxed);
                self.tm
                    .bytes_sent
                    .fetch_add(bytes as u64, Ordering::Relaxed);
                true
            }
            Err(e) => {
                if !too_large(&e) {
                    self.mark_dead();
                }
                false
            }
        }
    }

    /// Declare the connection dead (idempotent): close the socket,
    /// wake every waiting slot (dropping their settle senders) and mark
    /// every registered instance not-alive so the reaper expires their
    /// leases.
    fn mark_dead(&self) {
        self.link.kill();
        self.pending.lock().clear();
        for control in self.instances.lock().iter() {
            control.alive.store(false, Ordering::Relaxed);
        }
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.link.is_dead()
    }

    /// The remote slot's delivery step: forward `msg` to the worker and
    /// wait for its settle. `None` abandons the message — the worker is
    /// gone, the slot is stopping, or the reaper reclaimed the lease
    /// from under a slow worker (whose late settle then resolves
    /// nothing and counts as a duplicate).
    pub(crate) fn deliver(
        &self,
        ctx: &ServiceCtx,
        msg: &Message,
        control: &InstanceControl,
    ) -> Option<Result<Vec<u8>, Fault>> {
        let cluster = &ctx.cluster;
        let delivery = self.next_delivery.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        self.pending.lock().insert(delivery, tx);
        let forwarded = self.write(&WireMsg::Delivery {
            lease: delivery,
            redeliveries: msg.redeliveries,
            payload: wire_payload_of(msg),
        });
        let outcome = if forwarded {
            self.tm.remote_deliveries.fetch_add(1, Ordering::Relaxed);
            loop {
                match rx.recv_timeout(Duration::from_millis(25)) {
                    Ok(result) => break Some(result),
                    Err(RecvTimeoutError::Disconnected) => break None,
                    Err(RecvTimeoutError::Timeout) => {
                        if self.is_dead()
                            || control.stop.load(Ordering::Relaxed)
                            || cluster.is_shutdown()
                            || !cluster.lease_held(msg.id, ctx.instance_id)
                        {
                            break None;
                        }
                    }
                }
            }
        } else if self.is_dead() {
            None
        } else {
            // Refused with the link up: the request is over the bound.
            let why = format!("request over the {MAX_FRAME_LEN}-byte frame bound");
            Some(Err(Fault::new(PAYLOAD_TOO_LARGE, why)))
        };
        self.pending.lock().remove(&delivery);
        outcome
    }

    /// Count a worker's result: applied (its slot still held the
    /// lease) or dropped as a duplicate.
    pub(crate) fn note_settle(&self, applied: bool) {
        let counter = if applied {
            &self.tm.remote_settles
        } else {
            &self.tm.duplicate_settles
        };
        counter.fetch_add(1, Ordering::Relaxed);
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
    /// The cluster's clock: heartbeat frames stamp their slots with it.
    clock: Clock,
    stop: AtomicBool,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    conns: Mutex<Vec<Arc<Conn>>>,
    tmetrics: Arc<TransportMetrics>,
}

impl TcpBroker {
    /// Bind `addr` (use port 0 for an ephemeral port), start accepting
    /// workers, and hand the broker to `cluster` to shut down with it.
    /// A cluster has at most one broker: a second start fails with
    /// [`std::io::ErrorKind::AlreadyExists`].
    pub fn start(
        cluster: &Arc<Cluster>,
        addr: &str,
        cfg: TcpBrokerConfig,
    ) -> std::io::Result<Arc<TcpBroker>> {
        TcpBroker::serve(cluster, TcpListener::bind(addr)?, cfg)
    }

    /// [`start`](TcpBroker::start) on a `listener` bound already, so a
    /// caller can bind, and fail, before it commits anything else.
    pub fn serve(
        cluster: &Arc<Cluster>,
        listener: TcpListener,
        cfg: TcpBrokerConfig,
    ) -> std::io::Result<Arc<TcpBroker>> {
        let mut installed = cluster.tcp.lock();
        if installed.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "the cluster already has a TCP broker",
            ));
        }
        let addr = listener.local_addr()?;
        let broker = Arc::new(TcpBroker {
            cluster: Arc::downgrade(cluster),
            addr,
            cfg,
            clock: cluster.clock().clone(),
            stop: AtomicBool::new(false),
            accept_thread: Mutex::new(None),
            conn_threads: Mutex::new(Vec::new()),
            conns: Mutex::new(Vec::new()),
            tmetrics: Arc::new(TransportMetrics::default()),
        });
        broker.tmetrics.register(&cluster.obs().registry);
        *installed = Some(broker.clone());
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
        self.conns.lock().iter().filter(|c| !c.is_dead()).count()
    }

    /// Names of the workers currently connected (health reporting).
    pub fn connected_workers(&self) -> Vec<String> {
        self.conns
            .lock()
            .iter()
            .filter(|c| !c.is_dead())
            .map(|c| c.worker.clone())
            .collect()
    }

    fn closing(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.cluster.upgrade().is_none_or(|c| c.is_shutdown())
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
        // Kill every connection (wakes readers and waiting slots).
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
    let conn = Arc::new(Conn::new(worker, writer, tm.clone()));
    if !conn.write(&WireMsg::HelloAck {
        heartbeat_ms: broker.cfg.heartbeat.as_millis() as u64,
    }) {
        return;
    }
    tm.worker_connects.fetch_add(1, Ordering::Relaxed);
    broker.conns.lock().push(conn.clone());
    let mut slots = 0u32;
    // Dispatch until death.
    loop {
        if broker.closing() || conn.is_dead() {
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
                // Every slot is an instance thread here: a peer that
                // asks for more than the budget is not a worker.
                if instances > SLOT_BUDGET - slots {
                    tm.decode_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                slots += instances;
                let Some(cluster) = broker.cluster.upgrade() else {
                    break;
                };
                let ids = (0..instances)
                    .map(|_| cluster.spawn_instance(&service, node, Slot::Remote(conn.clone())))
                    .collect();
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
                        // slot gave up. Dropping it here is what keeps
                        // one delivery from taking effect twice.
                        tm.duplicate_settles.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            WireMsg::Send { payload } => {
                // A durability ticket names a save in the broker's own
                // store, which a worker never made: a message held on
                // one could park forever. Not a worker.
                if payload.hold_until != 0 {
                    tm.decode_errors.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                let Some(cluster) = broker.cluster.upgrade() else {
                    break;
                };
                cluster.send(message_from(payload));
            }
            WireMsg::Heartbeat { .. } => {
                tm.heartbeats.fetch_add(1, Ordering::Relaxed);
                // A heartbeat vouches for the *process*, not for
                // progress on any one delivery: only idle instances get
                // their clocks re-armed, so a wedged handler still
                // expires at the TTL counted from its lease's start.
                let now = broker.clock.now();
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
    // Every connection that completed its handshake ends here once.
    tm.worker_disconnects.fetch_add(1, Ordering::Relaxed);
    conn.mark_dead();
    broker.conns.lock().retain(|c| !Arc::ptr_eq(c, &conn));
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

/// Handler context on the worker side: fire-and-forget sends back into
/// the broker, plus fault-injection hooks the chaos harnesses use to
/// produce *real* torn frames and connection drops.
pub struct WorkerCtx {
    session: Arc<Link>,
}

impl WorkerCtx {
    /// Inject a fire-and-forget message into the broker's queues.
    pub fn send(&self, service: &str, operation: &str, body: Vec<u8>) {
        let _ = self.session.write(&WireMsg::Send {
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
            RECONNECT_BACKOFF_BASE,
            RECONNECT_BACKOFF_MAX,
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

/// One delivery thread of a session: serve `first`, then every
/// delivery the reader hands over through `queue`, until the session
/// drops the sender. The reader hands a delivery to an idle thread and
/// starts a new one only when none is, so a slow or wedged handler
/// never holds up the next delivery: a slot whose lease was reclaimed
/// keeps serving, so a one-slot worker can get a second delivery while
/// its first handler still runs, where a fixed pool would deadlock. The
/// broker bounds demand by the registered slot count, so the threads
/// need no limit of their own. A handler that panics ends its own
/// thread only; its unsettled delivery expires at the lease TTL.
fn serve_deliveries(
    first: (u64, RemoteDelivery),
    queue: Receiver<(u64, RemoteDelivery)>,
    idle: Arc<AtomicUsize>,
    ctx: WorkerCtx,
    handler: Arc<dyn RemoteHandler>,
    stats: Arc<WorkerStats>,
) {
    let mut job = Some(first);
    while let Some((lease, delivery)) = job.take().or_else(|| queue.recv().ok()) {
        let body = match handler.handle(&ctx, &delivery) {
            Ok(bytes) => SettleBody::Ok(bytes),
            Err(fault) => SettleBody::Fault(fault.code, fault.message),
        };
        // Idle before the settle goes out, so the next delivery of
        // this slot always finds this thread.
        idle.fetch_add(1, Ordering::AcqRel);
        let settled = match ctx.session.write(&WireMsg::Settle { lease, body }) {
            // A reply over the bound settles its lease once, as a fault.
            Err(e) if too_large(&e) => ctx.session.write(&WireMsg::Settle {
                lease,
                body: SettleBody::Fault(PAYLOAD_TOO_LARGE.into(), e.to_string()),
            }),
            settled => settled,
        };
        if settled.is_ok() {
            stats.settles.fetch_add(1, Ordering::Relaxed);
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
    let mut stream = TcpStream::connect(&config.broker)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let session = Arc::new(Link::new(stream.try_clone()?));
    session.write(&WireMsg::Hello {
        worker: config.name.clone(),
        node: config.node,
    })?;
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
    for (service, instances) in &config.services {
        let register = WireMsg::Register {
            service: service.clone(),
            instances: *instances,
        };
        if session.write(&register).is_err() {
            return Ok(SessionEnd::Lost);
        }
    }
    // Heartbeats vouch for this process at the cadence the broker asked
    // for. The reader loop sends them, so it wakes at least that often.
    let hb_interval = Duration::from_millis(heartbeat_ms.clamp(20, 10_000));
    let _ = stream.set_read_timeout(Some(hb_interval.min(Duration::from_millis(100))));
    let mut hb_seq = 0u64;
    let mut hb_last = Instant::now();
    // The delivery threads' hand-off, and how many of them are idle.
    // The channel carries the deliveries; the count only decides
    // whether a new thread is needed.
    let (jobs, queue) = unbounded();
    let idle = Arc::new(AtomicUsize::new(0));
    // Dispatch deliveries until the connection ends.
    let end = loop {
        if stop.load(Ordering::Relaxed) {
            let _ = session.write(&WireMsg::Bye);
            break SessionEnd::Finished;
        }
        if session.is_dead() {
            break SessionEnd::Lost;
        }
        if hb_last.elapsed() >= hb_interval {
            hb_seq += 1;
            hb_last = Instant::now();
            if session.write(&WireMsg::Heartbeat { seq: hb_seq }).is_err() {
                break SessionEnd::Lost;
            }
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
                let claimed = idle
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
                    .is_ok();
                if claimed {
                    let _ = jobs.send((lease, delivery));
                } else {
                    let (queue, idle) = (queue.clone(), idle.clone());
                    let ctx = WorkerCtx {
                        session: session.clone(),
                    };
                    let (handler, stats) = (handler.clone(), stats.clone());
                    // Detached: a wedged handler must not keep the
                    // session from ending and the worker from
                    // reconnecting. A failed spawn leaves the delivery
                    // unsettled: its lease expires and the broker
                    // redelivers it.
                    let _ = std::thread::Builder::new()
                        .name("bb-worker-task".into())
                        .spawn(move || {
                            serve_deliveries((lease, delivery), queue, idle, ctx, handler, stats)
                        });
                }
            }
            Ok(WireMsg::Registered { .. }) | Ok(WireMsg::Heartbeat { .. }) => {}
            Ok(WireMsg::Bye) => break SessionEnd::Finished,
            Ok(_) => break SessionEnd::Lost,
            Err(e) if is_read_timeout(&e) => continue,
            Err(_) => break SessionEnd::Lost,
        }
    };
    session.kill();
    Ok(end)
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
    use crate::recovery::{BACKOFF_BASE, LEASE_TTL, SCAN_INTERVAL};
    use crate::Deployment;

    /// Advance `clock` one reclaim backoff step per reaper scan until
    /// `done` holds; panic after ten seconds of real time.
    fn advance_until(clock: &Clock, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(
                Instant::now() < deadline,
                "not done after 10 s of real time"
            );
            clock.advance(BACKOFF_BASE);
            std::thread::sleep(SCAN_INTERVAL);
        }
    }

    #[test]
    fn remote_worker_round_trip() {
        let cluster = Cluster::new();
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
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
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
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
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
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
            .call(
                Message::new("echo", "Echo", b"alive".to_vec()),
                Duration::from_secs(10),
            )
            .unwrap();
        assert_eq!(reply, b"alive");
        let stats = cluster.recovery_stats();
        assert!(stats.reclaims >= 1, "lease expiry must drive the retry");
        let tm = broker.transport_metrics().snapshot();
        assert!(tm.worker_disconnects >= 1);
        worker.stop();
        cluster.shutdown();
    }

    /// Spawn a worker serving `slots` slots of `service` with `handler`
    /// and wait until the broker runs them.
    fn worker_on(
        cluster: &Arc<Cluster>,
        broker: &TcpBroker,
        service: &str,
        slots: u32,
        handler: Arc<dyn RemoteHandler>,
    ) -> TcpWorker {
        let worker = TcpWorker::spawn(
            WorkerConfig::new(broker.addr().to_string(), service, slots),
            handler,
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.live_instances(service) < slots as usize {
            assert!(
                Instant::now() < deadline,
                "the worker's slots never came up"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        worker
    }

    /// A worker reuses its delivery threads: 200 sequential deliveries
    /// to a 2-slot worker run on no more threads than it has slots, not
    /// on a fresh thread each.
    #[test]
    fn delivery_threads_are_reused() {
        let cluster = Cluster::new();
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
        let threads = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let seen = threads.clone();
        let handler = Arc::new(
            move |_ctx: &WorkerCtx, d: &RemoteDelivery| -> Result<Vec<u8>, Fault> {
                seen.lock().insert(std::thread::current().id());
                Ok(d.body.clone())
            },
        );
        let worker = worker_on(&cluster, &broker, "echo", 2, handler);
        for i in 0..200u32 {
            let body = i.to_le_bytes().to_vec();
            let reply = cluster
                .call(
                    Message::new("echo", "Echo", body.clone()),
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(reply, body);
        }
        let distinct = threads.lock().len();
        assert!(distinct <= 2, "200 deliveries ran on {distinct} threads");
        worker.stop();
        cluster.shutdown();
    }

    /// A handler that blocks never holds up the next delivery, even on
    /// a one-slot worker: the first delivery outlives its lease and
    /// waits until its redelivery, which the slot forwards over the
    /// same connection, has been handled. A fixed pool of one thread
    /// would deadlock here.
    #[test]
    fn a_blocked_handler_does_not_hold_up_the_next_delivery() {
        let clock = Clock::manual();
        let cluster = Cluster::with_clock(clock.clone());
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
        let (open, gate) = bounded::<()>(1);
        let (finished, first_done) = bounded::<bool>(1);
        let handler = Arc::new(
            move |_ctx: &WorkerCtx, d: &RemoteDelivery| -> Result<Vec<u8>, Fault> {
                if d.redeliveries == 0 {
                    let opened = gate.recv_timeout(Duration::from_secs(20)).is_ok();
                    let _ = finished.send(opened);
                } else {
                    let _ = open.send(());
                }
                Ok(d.body.clone())
            },
        );
        let worker = worker_on(&cluster, &broker, "wedge", 1, handler);
        let caller = cluster.clone();
        let call = std::thread::spawn(move || {
            caller.call(
                Message::new("wedge", "Go", b"x".to_vec()),
                Duration::from_secs(20),
            )
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.busy_instances("wedge") == 0 {
            assert!(
                Instant::now() < deadline,
                "the first delivery never went out"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        clock.advance(LEASE_TTL + Duration::from_millis(1));
        advance_until(&clock, || call.is_finished());
        assert_eq!(call.join().unwrap().unwrap(), b"x");
        assert_eq!(
            first_done.recv_timeout(Duration::from_secs(20)),
            Ok(true),
            "the first delivery was released by the second"
        );
        worker.stop();
        cluster.shutdown();
    }

    /// A handler that panics ends its own thread only: later
    /// deliveries are served, and the panicked one is redelivered after
    /// the lease TTL and settles once.
    #[test]
    fn a_panicking_handler_costs_only_its_own_delivery() {
        let clock = Clock::manual();
        let cluster = Cluster::with_clock(clock.clone());
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
        let booms = Arc::new(AtomicU64::new(0));
        let handler_booms = booms.clone();
        let handler = Arc::new(
            move |_ctx: &WorkerCtx, d: &RemoteDelivery| -> Result<Vec<u8>, Fault> {
                if d.body == b"boom" && handler_booms.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("handler panics on its first boom");
                }
                Ok(d.body.clone())
            },
        );
        let worker = worker_on(&cluster, &broker, "fragile", 2, handler);
        let boom_cluster = cluster.clone();
        let boom = std::thread::spawn(move || {
            let boom = Message::new("fragile", "Go", b"boom".to_vec());
            boom_cluster.call(boom, Duration::from_secs(20))
        });
        while booms.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 0..20u8 {
            let reply = cluster
                .call(
                    Message::new("fragile", "Go", vec![i]),
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(reply, vec![i]);
        }
        clock.advance(LEASE_TTL + Duration::from_millis(1));
        advance_until(&clock, || boom.is_finished());
        assert_eq!(boom.join().unwrap().unwrap(), b"boom");
        assert_eq!(
            booms.load(Ordering::SeqCst),
            2,
            "the panicked delivery came back once"
        );
        assert!(cluster.drain("fragile", Duration::from_secs(5)));
        let tm = broker.transport_metrics().snapshot();
        assert_eq!(tm.remote_settles, 21, "one applied settle per call");
        assert_eq!(tm.duplicate_settles, 0);
        assert!(cluster.recovery_stats().reclaims >= 1, "the lease expired");
        worker.stop();
        cluster.shutdown();
    }

    /// A frame over the bound is refused at its sender and fails its
    /// call once, as a `payload-too-large` fault: a reply (the worker's
    /// settle) and a request (the broker's delivery) alike. The link
    /// stays up, so nothing is reclaimed or redelivered, and the next
    /// call on the same worker succeeds.
    #[test]
    fn an_oversized_frame_fails_its_call_once_and_keeps_the_link() {
        let cluster = Cluster::new();
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
        let handled = Arc::new(AtomicU64::new(0));
        let count = handled.clone();
        let handler = Arc::new(
            move |_ctx: &WorkerCtx, d: &RemoteDelivery| -> Result<Vec<u8>, Fault> {
                count.fetch_add(1, Ordering::SeqCst);
                match d.body.as_slice() {
                    b"big" => Ok(vec![0; MAX_FRAME_LEN as usize + 1]),
                    body => Ok(body.to_vec()),
                }
            },
        );
        let worker = worker_on(&cluster, &broker, "echo", 1, handler);
        let call = |body: Vec<u8>| {
            cluster.call(Message::new("echo", "Echo", body), Duration::from_secs(10))
        };
        for body in [b"big".to_vec(), vec![1; MAX_FRAME_LEN as usize + 1]] {
            match call(body).map(|reply| reply.len()) {
                Err(crate::CallError::Fault(f)) => assert_eq!(f.code, PAYLOAD_TOO_LARGE, "{f}"),
                other => panic!("expected a payload-too-large fault, got {other:?}"),
            }
        }
        assert_eq!(call(b"small".to_vec()).unwrap(), b"small");
        assert_eq!(
            handled.load(Ordering::SeqCst),
            2,
            "the big reply was handled once, the big request never went out"
        );
        let tm = broker.transport_metrics().snapshot();
        assert_eq!((tm.decode_errors, tm.worker_disconnects), (0, 0));
        // One applied settle per call; the refused request is settled by
        // its slot without a delivery.
        assert_eq!((tm.remote_deliveries, tm.remote_settles), (2, 3));
        assert_eq!(tm.duplicate_settles, 0);
        assert_eq!(cluster.recovery_stats().reclaims, 0);
        worker.stop();
        cluster.shutdown();
    }

    /// One connection's slots share a budget: a peer that registers the
    /// whole budget and then one slot more is cut off, with no instance
    /// started beyond the budget.
    #[test]
    fn a_connection_registers_at_most_the_slot_budget() {
        let cluster = Cluster::new();
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
        let mut peer = TcpStream::connect(broker.addr()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = FrameReader::new();
        let send =
            |peer: &mut TcpStream, msg: WireMsg| peer.write_all(&encode_frame(&msg)).unwrap();
        send(
            &mut peer,
            WireMsg::Hello {
                worker: "greedy".into(),
                node: 1,
            },
        );
        assert!(matches!(
            reader.read_frame(&mut peer),
            Ok(WireMsg::HelloAck { .. })
        ));
        let register = |instances| WireMsg::Register {
            service: "greedy".into(),
            instances,
        };
        send(&mut peer, register(SLOT_BUDGET));
        match reader.read_frame(&mut peer) {
            Ok(WireMsg::Registered { ids, .. }) => assert_eq!(ids.len(), SLOT_BUDGET as usize),
            other => panic!("expected Registered, got {other:?}"),
        }
        assert_eq!(cluster.live_instances("greedy"), SLOT_BUDGET as usize);
        send(&mut peer, register(1));
        match reader.read_frame(&mut peer) {
            Err(FrameError::Eof) | Err(FrameError::Io(std::io::ErrorKind::ConnectionReset)) => {}
            other => panic!("expected the broker to close the connection, got {other:?}"),
        }
        assert_eq!(broker.transport_metrics().snapshot().decode_errors, 1);
        assert_eq!(cluster.instance_counts().1, SLOT_BUDGET as usize);
        cluster.shutdown();
    }

    /// A worker holds no ticket of the broker's store, so a `Send`
    /// held on one (which no commit would ever release) ends the
    /// connection as a protocol error; nothing is parked.
    #[test]
    fn a_worker_send_cannot_name_a_durability_ticket() {
        struct NothingDurable;
        impl Deployment for NothingDurable {
            fn name(&self) -> &str {
                "nothing-durable"
            }
            fn durable(&self, _: u64) -> bool {
                false
            }
        }
        let cluster = Cluster::new();
        cluster.attach(Arc::new(NothingDurable)).unwrap();
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
        let mut peer = TcpStream::connect(broker.addr()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = FrameReader::new();
        let send =
            |peer: &mut TcpStream, msg: WireMsg| peer.write_all(&encode_frame(&msg)).unwrap();
        send(
            &mut peer,
            WireMsg::Hello {
                worker: "forger".into(),
                node: 1,
            },
        );
        assert!(matches!(
            reader.read_frame(&mut peer),
            Ok(WireMsg::HelloAck { .. })
        ));
        let payload = WirePayload {
            service: "anything".into(),
            operation: "Op".into(),
            headers: BTreeMap::new(),
            body: Vec::new(),
            priority: 0,
            hold_until: u64::MAX,
        };
        send(&mut peer, WireMsg::Send { payload });
        match reader.read_frame(&mut peer) {
            Err(FrameError::Eof) | Err(FrameError::Io(std::io::ErrorKind::ConnectionReset)) => {}
            other => panic!("expected the broker to close the connection, got {other:?}"),
        }
        assert_eq!(
            cluster.held_count(),
            0,
            "nothing is parked on a worker's ticket"
        );
        assert_eq!(broker.transport_metrics().snapshot().decode_errors, 1);
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
        assert!(
            done.load(Ordering::SeqCst),
            "deadlocked: did not finish in {limit:?}"
        );
        t.join().unwrap();
    }

    /// A write can only fail with the stream mutex held; `mark_dead`
    /// re-locks that mutex to shut the socket down. Regression test for
    /// the recursive-lock deadlock: the first broker-side write failure
    /// after a worker `kill -9` must return, not wedge the slot.
    #[test]
    fn broker_write_failure_marks_dead_without_deadlock() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        drop(accepted); // peer dies: writes will eventually fail
        let conn = Arc::new(Conn::new("t".into(), client, Arc::default()));
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
        assert!(conn.is_dead());
    }

    /// Same recursive-lock shape on the worker side: a failed
    /// settle/heartbeat write kills the session, which re-locks the
    /// stream.
    #[test]
    fn worker_write_failure_kills_session_without_deadlock() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        drop(accepted);
        let session = Arc::new(Link::new(client));
        let write_session = session.clone();
        assert_finishes_within(Duration::from_secs(10), move || {
            let big = WireMsg::Settle {
                lease: 1,
                body: SettleBody::Ok(vec![0u8; 1 << 20]),
            };
            for _ in 0..64 {
                if write_session.write(&big).is_err() {
                    return;
                }
            }
            panic!("writes to a dead peer never failed");
        });
        assert!(session.is_dead());
    }

    /// A cluster has one broker: a second start must fail, not replace
    /// the first (whose listener and slots shutdown would then miss).
    #[test]
    fn second_broker_on_a_cluster_is_refused() {
        let cluster = Cluster::new();
        let first = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
        let err = TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default())
            .err()
            .expect("second start must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        let installed = cluster
            .tcp_broker()
            .expect("the first broker stays installed");
        assert!(Arc::ptr_eq(&installed, &first));
        cluster.shutdown();
        assert!(!first.alive(), "cluster shutdown stops the first listener");
    }

    /// `stop` ends the session at the worker's next read timeout, not
    /// at its next heartbeat: with a 2 s cadence it still returns well
    /// inside one interval.
    #[test]
    fn stop_does_not_wait_out_a_heartbeat_interval() {
        let cluster = Cluster::new();
        let config = TcpBrokerConfig {
            heartbeat: Duration::from_secs(2),
            ..TcpBrokerConfig::default()
        };
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", config).unwrap();
        let handler = Arc::new(
            |_ctx: &WorkerCtx, d: &RemoteDelivery| -> Result<Vec<u8>, Fault> { Ok(d.body.clone()) },
        );
        let worker = worker_on(&cluster, &broker, "echo", 1, handler);
        let t0 = Instant::now();
        worker.stop();
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(300), "stop took {took:?}");
        cluster.shutdown();
    }

    /// The reader loop sends the heartbeats, and a cadence shorter
    /// than its usual read timeout still holds.
    #[test]
    fn heartbeats_keep_a_short_cadence() {
        let cluster = Cluster::new();
        let config = TcpBrokerConfig {
            heartbeat: Duration::from_millis(20),
            ..TcpBrokerConfig::default()
        };
        let broker = TcpBroker::start(&cluster, "127.0.0.1:0", config).unwrap();
        let handler = Arc::new(
            |_ctx: &WorkerCtx, d: &RemoteDelivery| -> Result<Vec<u8>, Fault> { Ok(d.body.clone()) },
        );
        let worker = worker_on(&cluster, &broker, "echo", 1, handler);
        std::thread::sleep(Duration::from_millis(500));
        let heartbeats = broker.transport_metrics().snapshot().heartbeats;
        assert!(
            heartbeats >= 10,
            "{heartbeats} heartbeats in 500 ms at a 20 ms cadence"
        );
        worker.stop();
        cluster.shutdown();
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
