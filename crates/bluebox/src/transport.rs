//! The transport seam: how service instances attach to the broker.
//!
//! [`Cluster`] routes every message through in-memory [`ServiceQueue`]s
//! regardless of where the consuming instance's *code* runs. What a
//! [`Transport`] decides is the instance side of the contract: when the
//! embedder asks for `count` instances of a service, the transport
//! either spawns them as threads in this process (the deterministic
//! fast path every chaos/recovery suite runs on) or represents remote
//! OS processes with local proxy instances that forward deliveries over
//! a socket (see [`crate::tcp::TcpBroker`]).
//!
//! The broker's hot paths (send, delivery, reply routing) never consult
//! the transport: it is asked only to spawn instances, report liveness
//! and shut down.

use std::sync::Arc;

use crate::cluster::Cluster;

/// Where and how service instances run. Installed on a [`Cluster`] via
/// [`Cluster::set_transport`]; the default is [`InProcessTransport`].
pub trait Transport: Send + Sync {
    /// Short transport name for health reports ("in-process", "tcp").
    fn name(&self) -> &str;

    /// Provide `count` instances of `service` on `node_id`, returning
    /// their broker instance ids.
    fn spawn_instances(
        &self,
        cluster: &Arc<Cluster>,
        service: &str,
        node_id: u32,
        count: usize,
    ) -> Vec<u64>;

    /// Liveness signal for health endpoints: is the transport still
    /// able to move messages (listener up, not shut down)?
    fn alive(&self) -> bool {
        true
    }

    /// Tear down transport resources (listeners, connections, proxy
    /// threads). Called by [`Cluster::shutdown`] before instance
    /// threads are joined; must be idempotent.
    fn shutdown(&self) {}
}

/// The default transport: instances are threads inside this process,
/// driven by [`Cluster::spawn_local_instances`]. Deterministic-chaos
/// suites depend on this path staying exactly as it was before the
/// transport seam existed — it delegates and adds nothing.
pub struct InProcessTransport;

impl Transport for InProcessTransport {
    fn name(&self) -> &str {
        "in-process"
    }

    fn spawn_instances(
        &self,
        cluster: &Arc<Cluster>,
        service: &str,
        node_id: u32,
        count: usize,
    ) -> Vec<u64> {
        cluster.spawn_local_instances(service, node_id, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use std::time::Duration;

    #[test]
    fn default_transport_is_in_process() {
        let cluster = Cluster::new();
        assert_eq!(cluster.transport().name(), "in-process");
        assert!(cluster.transport().alive());
        cluster.register_service(
            "echo",
            None,
            Arc::new(|_: &crate::ServiceCtx, m: &Message| Ok(m.body.clone())),
        );
        // spawn_instances goes through the trait now; behavior holds.
        let ids = cluster.spawn_instances("echo", 0, 2);
        assert_eq!(ids.len(), 2);
        let reply = cluster
            .call(
                Message::new("echo", "Echo", b"hi".to_vec()),
                Duration::from_secs(2),
            )
            .unwrap();
        assert_eq!(reply, b"hi");
        cluster.shutdown();
    }
}
