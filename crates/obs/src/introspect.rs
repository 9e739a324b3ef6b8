//! The per-node live introspection endpoint: a dependency-free HTTP/1.1
//! server over `std::net::TcpListener` that makes a node's
//! observability scrapable over the wire — the replacement for the
//! in-process `obs()` handle once nodes live in separate processes
//! (ROADMAP item 1).
//!
//! Routes (all `GET`, plain text):
//!
//! * `/metrics` — the Prometheus exposition text, byte-identical to
//!   [`crate::MetricsRegistry::render_text`] for the same snapshot.
//! * `/healthz` — `ok` (200) or `degraded` (503) plus one
//!   `key: value` line per liveness signal (reaper thread, instance
//!   counts, supervisor).
//! * `/tasks` — one line per tracked task:
//!   `<id> <status> <current-phase> fibers=<created>/<finished>`.
//! * `/timeline/<task-id>` — the Figure-1 report for one task,
//!   critical path included (404 when unknown or tracing is off).
//!
//! The server is deliberately minimal: one accept loop thread, one
//! short-lived thread and one request per connection
//! (`Connection: close`), no TLS, no keep-alive — it serves curl and
//! Prometheus scrapes, not browsers. Concurrent connections are capped
//! at [`MAX_CONNS`]; overflow is answered with an immediate `503`
//! instead of an unbounded thread pile-up, so a misbehaving scraper
//! cannot exhaust the node it is observing.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Concurrent-connection cap: the `MAX_CONNS + 1`-th simultaneous
/// client is answered `503 Service Unavailable` and closed without
/// touching the source.
pub const MAX_CONNS: usize = 32;

/// One liveness report, rendered by `/healthz`.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Overall verdict: every signal below is healthy.
    pub healthy: bool,
    /// `key: value` detail lines, in render order.
    pub details: Vec<(String, String)>,
}

impl HealthReport {
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(if self.healthy { "ok\n" } else { "degraded\n" });
        for (k, v) in &self.details {
            out.push_str(&format!("{k}: {v}\n"));
        }
        out
    }
}

/// One live task's row in `/tasks`.
#[derive(Debug, Clone)]
pub struct TaskSummary {
    /// Task id.
    pub id: String,
    /// `running`, `completed`, `terminated`, or `failed`.
    pub status: String,
    /// The phase the task is currently accumulating time in (the label
    /// of its ledger's open phase; final tasks report `-`).
    pub phase: String,
    /// Fibers created.
    pub fibers_created: u64,
    /// Fibers finished.
    pub fibers_finished: u64,
}

/// What a deployment exposes to its introspection server. Implemented
/// by the workflow layer over `Weak` references so a dropped deployment
/// degrades to empty responses instead of keeping itself alive.
pub trait IntrospectSource: Send + Sync {
    /// The Prometheus exposition text (`/metrics`).
    fn metrics_text(&self) -> String;
    /// Liveness signals (`/healthz`).
    fn health(&self) -> HealthReport;
    /// Live tracker rows (`/tasks`).
    fn tasks(&self) -> Vec<TaskSummary>;
    /// One task's rendered timeline (`/timeline/<id>`), if known.
    fn timeline(&self, task: &str) -> Option<String>;
}

/// The running server: an accept-loop thread bound to a local address.
/// Dropping it (or calling [`IntrospectServer::shutdown`]) stops the
/// loop and joins the thread.
pub struct IntrospectServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

impl IntrospectServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `source`, at most [`MAX_CONNS`] connections at a
    /// time. Returns the bound address — with port 0 the one the OS
    /// picked.
    pub fn start(
        addr: &str,
        source: Arc<dyn IntrospectSource>,
    ) -> std::io::Result<IntrospectServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let stop2 = stop.clone();
        let active2 = active.clone();
        let handle = std::thread::Builder::new()
            .name("gozer-introspect".into())
            .spawn(move || accept_loop(listener, source, stop2, active2))?;
        Ok(IntrospectServer {
            addr: bound,
            stop,
            active,
            handle: Some(handle),
        })
    }

    /// The address the server is actually listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently being served (excludes rejected overflow).
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Stop the accept loop and join its thread (idempotent).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for IntrospectServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    source: Arc<dyn IntrospectSource>,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        // Requests are tiny and local; short timeouts so a stuck client
        // cannot hold its slot forever.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        // Claim a slot before spawning; overflow is turned away at the
        // door with a 503 rather than queued behind slow scrapes.
        if active.fetch_add(1, Ordering::SeqCst) >= MAX_CONNS {
            active.fetch_sub(1, Ordering::SeqCst);
            // Drain the request head (briefly) before responding:
            // closing with unread data in the buffer would RST the
            // client instead of delivering the 503.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
            let _ = read_request_path(&mut stream);
            let body = "busy: connection limit reached\n";
            let _ = stream.write_all(
                format!(
                    "HTTP/1.1 503 Service Unavailable\r\n\
                     Content-Type: text/plain; charset=utf-8\r\n\
                     Content-Length: {}\r\n\
                     Connection: close\r\n\
                     \r\n{body}",
                    body.len(),
                )
                .as_bytes(),
            );
            continue;
        }
        let source = source.clone();
        let slot = active.clone();
        let spawned = std::thread::Builder::new()
            .name("gozer-introspect-conn".into())
            .spawn(move || {
                let _ = serve_one(stream, source.as_ref());
                slot.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            // Thread spawn failed (resource pressure): give the slot
            // back; the client sees a closed connection.
            active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn serve_one(mut stream: TcpStream, source: &dyn IntrospectSource) -> std::io::Result<()> {
    let path = match read_request_path(&mut stream)? {
        Some(p) => p,
        None => return Ok(()),
    };
    let (status, body) = route(&path, source);
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\
         \r\n",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Read up to the end of the request head and parse the request line.
/// Returns `None` for garbage that is not `GET <path> ...`.
fn read_request_path(stream: &mut TcpStream) -> std::io::Result<Option<String>> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 16 * 1024 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => Ok(Some(path.to_string())),
        _ => Ok(None),
    }
}

fn route(path: &str, source: &dyn IntrospectSource) -> (&'static str, String) {
    // Strip any query string; routes take none.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => ("200 OK", source.metrics_text()),
        "/healthz" => {
            let report = source.health();
            let status = if report.healthy {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            (status, report.render())
        }
        "/tasks" => {
            let mut out = String::new();
            for t in source.tasks() {
                out.push_str(&format!(
                    "{} {} {} fibers={}/{}\n",
                    t.id, t.status, t.phase, t.fibers_created, t.fibers_finished
                ));
            }
            ("200 OK", out)
        }
        _ => match path.strip_prefix("/timeline/") {
            Some(task) if !task.is_empty() => match source.timeline(task) {
                Some(text) => ("200 OK", text),
                None => ("404 Not Found", format!("no timeline for {task}\n")),
            },
            _ => (
                "404 Not Found",
                "routes: /metrics /healthz /tasks /timeline/<task-id>\n".into(),
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;

    impl IntrospectSource for Fixed {
        fn metrics_text(&self) -> String {
            "# HELP x X.\n# TYPE x counter\nx 1\n".into()
        }
        fn health(&self) -> HealthReport {
            HealthReport {
                healthy: true,
                details: vec![("reaper".into(), "alive".into())],
            }
        }
        fn tasks(&self) -> Vec<TaskSummary> {
            vec![TaskSummary {
                id: "task-1".into(),
                status: "running".into(),
                phase: "vm_exec".into(),
                fibers_created: 2,
                fibers_finished: 1,
            }]
        }
        fn timeline(&self, task: &str) -> Option<String> {
            (task == "task-1").then(|| "task task-1\n".to_string())
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        (head.lines().next().unwrap().to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_and_shuts_down() {
        let mut server = IntrospectServer::start("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, Fixed.metrics_text());

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.starts_with("ok\n") && body.contains("reaper: alive"));

        let (status, body) = get(addr, "/tasks");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "task-1 running vm_exec fibers=2/1\n");

        let (status, body) = get(addr, "/timeline/task-1");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "task task-1\n");

        let (status, _) = get(addr, "/timeline/task-404");
        assert_eq!(status, "HTTP/1.1 404 Not Found");

        let (status, body) = get(addr, "/nope");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        assert!(body.contains("/metrics"));

        server.shutdown();
        // The port is released: connects now fail (or are refused fast).
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err());
    }

    #[test]
    fn overflow_connections_get_503_without_touching_the_source() {
        /// [`Fixed`], counting the scrapes that reach it.
        struct Counted(AtomicUsize);
        impl IntrospectSource for Counted {
            fn metrics_text(&self) -> String {
                self.0.fetch_add(1, Ordering::SeqCst);
                Fixed.metrics_text()
            }
            fn health(&self) -> HealthReport {
                Fixed.health()
            }
            fn tasks(&self) -> Vec<TaskSummary> {
                Fixed.tasks()
            }
            fn timeline(&self, task: &str) -> Option<String> {
                Fixed.timeline(task)
            }
        }
        let source = Arc::new(Counted(AtomicUsize::new(0)));
        let server = IntrospectServer::start("127.0.0.1:0", source.clone()).unwrap();
        let addr = server.addr();
        let wait_for = |want: usize, what: &str| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while server.active_connections() != want {
                assert!(std::time::Instant::now() < deadline, "{what}");
                std::thread::sleep(Duration::from_millis(2));
            }
        };

        // Occupy every slot with connections that send nothing: their
        // serve threads park in read(), each holding its slot.
        let holders: Vec<TcpStream> = (0..MAX_CONNS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        wait_for(MAX_CONNS, "the holders never got every slot");

        // The next client is turned away at the door.
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
        assert!(body.contains("busy"));
        assert_eq!(source.0.load(Ordering::SeqCst), 0);

        // Once the holders go, the slots serve again.
        drop(holders);
        wait_for(0, "the slots were never released");
        let (status, _) = get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(source.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unhealthy_source_returns_503() {
        struct Sick;
        impl IntrospectSource for Sick {
            fn metrics_text(&self) -> String {
                String::new()
            }
            fn health(&self) -> HealthReport {
                HealthReport {
                    healthy: false,
                    details: vec![("reaper".into(), "dead".into())],
                }
            }
            fn tasks(&self) -> Vec<TaskSummary> {
                Vec::new()
            }
            fn timeline(&self, _: &str) -> Option<String> {
                None
            }
        }
        let server = IntrospectServer::start("127.0.0.1:0", Arc::new(Sick)).unwrap();
        let (status, body) = get(server.addr(), "/healthz");
        assert_eq!(status, "HTTP/1.1 503 Service Unavailable");
        assert!(body.starts_with("degraded\n"));
    }
}
