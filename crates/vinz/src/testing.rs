//! Test/bench helpers: BlueBox services implemented in Rust that speak
//! serialized Gozer values — stand-ins for the platform services a
//! production workflow calls (security managers, pricing engines, ...).

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex as StdMutex, Once, Weak};
use std::time::Duration;

use bluebox::{Cluster, Fault, Message, ServiceCtx};
use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_serial::{deserialize_value, serialize_value};
use gozer_vm::{Gvm, ProfileReport};
use gozer_xml::ServiceDescription;

use crate::service::{VinzConfig, WorkflowObs, WorkflowService};
use crate::TaskStatus;

pub use bluebox::chaos::{
    ChaosConfig, ChaosPlan, ChaosRng, ChaosStatsSnapshot, FaultAction, FaultPoint,
};

/// Register a service whose handler takes `(operation, request-value)`
/// and returns a reply value or a fault. The request value is the
/// message's field map (the body Vinz's call natives send).
pub fn register_value_service(
    cluster: &Arc<Cluster>,
    name: &str,
    desc: Option<ServiceDescription>,
    f: impl Fn(&str, Value) -> Result<Value, Fault> + Send + Sync + 'static,
) {
    // A tiny VM used only to decode/encode values on the service side.
    let gvm = Gvm::with_pool_size(1);
    cluster.register_service(
        name,
        desc,
        Arc::new(move |_ctx: &ServiceCtx, msg: &Message| {
            let request = if msg.body.is_empty() {
                Value::Nil
            } else {
                deserialize_value(&msg.body, &gvm)
                    .map_err(|e| Fault::new("{vinz}BadRequest", e.to_string()))?
            };
            let reply = f(&msg.operation, request)?;
            serialize_value(&reply, Codec::Deflate)
                .map_err(|e| Fault::new("{vinz}BadReply", e.to_string()))
        }),
    );
}

/// A slow echo-ish "compute" service: takes `{:n <int>}`-shaped requests,
/// sleeps `latency`, replies with `n * n`. Used all over the benches.
pub fn register_square_service(
    cluster: &Arc<Cluster>,
    name: &str,
    instances_per_node: usize,
    nodes: u32,
    latency: Duration,
) {
    let desc = ServiceDescription::new(name, &format!("urn:{}", name.to_lowercase()))
        .operation("Square", "Squares the field n.", &[("n", "int")]);
    register_value_service(cluster, name, Some(desc), move |_op, req| {
        std::thread::sleep(latency);
        let n = req
            .as_map()
            .and_then(|m| m.get(&Value::str("n")).cloned())
            .and_then(|v| v.as_int())
            .ok_or_else(|| Fault::new("{square}BadArg", "request needs field \"n\""))?;
        Ok(Value::Int(n * n))
    });
    for node in 0..nodes {
        cluster.spawn_instances(name, node, instances_per_node);
    }
}

/// Register a service that exists on this cluster only as an interface
/// document plus a queue — its compute capacity is expected from
/// *remote worker processes* over the TCP transport. `deflink` resolves
/// the description as usual; the placeholder handler faults loudly if a
/// message is ever delivered to a locally spawned instance (none should
/// exist — spawn none, let workers register).
pub fn register_remote_service_desc(
    cluster: &Arc<Cluster>,
    name: &str,
    desc: ServiceDescription,
) {
    let service = name.to_string();
    cluster.register_service(
        name,
        Some(desc),
        Arc::new(move |_ctx: &ServiceCtx, _msg: &Message| -> Result<Vec<u8>, Fault> {
            Err(Fault::new(
                "{vinz}RemoteOnly",
                format!("service {service} is served by remote workers; no local instances expected"),
            ))
        }),
    );
}

/// The seeds a multi-process cluster sweep runs; same contract as
/// [`chaos_seeds`] but on its own `CLUSTER_SEED` / `CLUSTER_SEEDS`
/// knobs (and base), so process-kill sweeps are tuned independently of
/// the in-process chaos suites.
pub fn cluster_seeds(default_count: u64) -> Vec<u64> {
    seeds("CLUSTER", 0xC1_05_7E_00, default_count)
}

/// The seeds a chaos sweep runs.
///
/// * `CHAOS_SEED=<n>` — run exactly that seed (the replay knob printed
///   by failing tests).
/// * `CHAOS_SEEDS=<count>` — run `count` seeds from the default base.
/// * Otherwise — `default_count` seeds from the default base.
///
/// The default seeds are consecutive from a fixed base, so a sweep is
/// itself deterministic run to run.
pub fn chaos_seeds(default_count: u64) -> Vec<u64> {
    seeds("CHAOS", 0xB1EB_0B00, default_count)
}

/// `{knob}_SEED`, else `{knob}_SEEDS` (or `default_count`) consecutive
/// seeds from `base`.
fn seeds(knob: &str, base: u64, default_count: u64) -> Vec<u64> {
    let var = |name: String| std::env::var(name).ok().and_then(|s| s.trim().parse().ok());
    if let Some(seed) = var(format!("{knob}_SEED")) {
        return vec![seed];
    }
    let count = var(format!("{knob}_SEEDS")).unwrap_or(default_count);
    (0..count).map(|i| base + i).collect()
}

/// The one-line command that replays a failing seed, e.g.
/// `CHAOS_SEED=7 cargo test -p vinz --test chaos survives -- --exact`.
pub fn repro_command(scope: &str, test: &str, seed: u64) -> String {
    format!("CHAOS_SEED={seed} cargo test {scope} {test}")
}

/// Outcome of one seeded survivability run.
#[derive(Debug)]
pub struct ChaosRun {
    /// The seed that drove the fault schedule.
    pub seed: u64,
    /// The workflow's result value.
    pub value: Value,
    /// Faults actually injected.
    pub stats: ChaosStatsSnapshot,
    /// Whether the recovery layer had to intervene: broker lease
    /// reclaims, supervisor respawns, or supervisor-resumed orphans
    /// were observed during the run.
    pub recovered: bool,
    /// Whether the chaos plan was still armed when the task finished —
    /// the harness never disarms it, so this is false only for
    /// `ChaosConfig::off` plans.
    pub armed: bool,
    /// The merged execution profile of the run (the harness deploys
    /// with profiling on, so a sweep can assert opcode and call counts
    /// are schedule-independent).
    pub profile: ProfileReport,
    /// Fiber saves persisted as delta snapshot records.
    pub delta_saves: u64,
    /// Total fiber saves (delta + full).
    pub persists: u64,
}

/// Deploy `source` on a fresh 2-node cluster, run `function(args)`
/// under the given chaos plan — which stays armed for the whole run —
/// and enforce the survivability contract: the task completes without
/// any harness intervention, the recovery layer (broker lease reaper +
/// deployment supervisor) absorbing every crash and node kill, and the
/// value must be exactly what a fault-free run produces.
///
/// Returns `Err` (with diagnostics, not a panic) when the contract is
/// violated, so sweeps can attach the failing seed's repro command.
pub fn run_workflow_under_chaos(
    source: &str,
    function: &str,
    args: Vec<Value>,
    config: ChaosConfig,
) -> Result<ChaosRun, String> {
    let flight_base = std::env::var_os("GOZER_FLIGHT_DIR").map(PathBuf::from);
    run_workflow_under_chaos_store(source, function, args, config, VinzConfig::default(), None, flight_base)
}

/// [`run_workflow_under_chaos`] with every option explicit:
///
/// * `vinz` — the deployment's [`VinzConfig`], so sweeps can pit
///   variants (delta snapshots on/off, compaction cadence, codec)
///   against each other under the same fault schedule. Profiling is
///   forced on regardless.
/// * `store` — the [`StateStore`](crate::StateStore) (`None` = the
///   default in-memory store), e.g. to assert a [`crate::LogStore`]
///   deployment completes with the same value and opcode counts as a
///   [`crate::MemStore`] one.
/// * `flight_base` — when `Some`, the deployment's flight recorder is
///   armed there, so a task failure or a contract violation leaves a
///   complete black-box dump behind (events, timelines, metrics,
///   profile).
pub fn run_workflow_under_chaos_store(
    source: &str,
    function: &str,
    args: Vec<Value>,
    config: ChaosConfig,
    vinz: VinzConfig,
    store: Option<Arc<dyn crate::StateStore>>,
    flight_base: Option<PathBuf>,
) -> Result<ChaosRun, String> {
    const SERVICE: &str = "workflow";
    let seed = config.seed;
    let cluster = Cluster::new();
    let plan = ChaosPlan::new(config);
    cluster.set_chaos(plan.clone());
    let mut builder = WorkflowService::builder(&cluster, SERVICE)
        .source(source)
        .config(VinzConfig { profiling: true, ..vinz })
        .instances(0, 2)
        .instances(1, 2);
    if let Some(store) = store {
        builder = builder.store(store);
    }
    let workflow = builder
        .deploy()
        .map_err(|e| format!("seed {seed}: deploy failed: {e}"))?;
    // Record the full event stream so a failing seed can print the
    // task's causal timeline, injected faults included.
    workflow.obs().set_tracing(true);
    if let Some(base) = flight_base {
        workflow.obs().flight().arm(base);
    }
    let task = workflow
        .start(function, args, None)
        .map_err(|e| format!("seed {seed}: start failed: {e}"))?;

    // One armed wait: chaos is never disarmed and the harness never
    // spawns replacement instances. Crashed instances abandon their
    // leases to the broker's reaper; an extinguished deployment is
    // re-provisioned by the supervisor; orphaned continuations are
    // resumed from the store. Node failure is a non-event.
    let record = workflow.wait(&task, Duration::from_secs(45));

    let stats = plan.snapshot();
    let armed = plan.is_armed();
    let recovery = cluster.recovery_stats();
    let recovered = {
        let obs = workflow.obs();
        let counters = obs.counters();
        recovery.reclaims > 0
            || recovery.dead_letters > 0
            || counters.supervisor_respawns.load(Ordering::Relaxed) > 0
            || counters.orphans_resumed.load(Ordering::Relaxed) > 0
    };
    // Capture the causal timeline and the profile before shutdown so
    // failure messages can show exactly which operations and injected
    // faults the task went through (the Figure-1 view, chaos edition).
    let timeline = workflow
        .obs()
        .timeline(&task)
        .unwrap_or_else(|| "<no timeline recorded>".to_string());
    let profile = workflow.obs().profile();
    // A contract violation dumps the black box (when armed) before the
    // diagnostics are returned: the sweep's assertion message then
    // points at a directory with the full post-mortem.
    let violation = |msg: String| -> String {
        let obs = workflow.obs();
        if obs.flight().is_armed() {
            let dump = obs.flight_dump(&msg);
            if let Ok(Some(dir)) = obs.flight().record(&format!("chaos-seed-{seed}"), &dump) {
                return format!("{msg}\nflight dump: {}", dir.display());
            }
        }
        msg
    };
    let Some(record) = record else {
        let msg = violation(format!(
            "seed {seed}: task neither completed nor became resumable \
             (recovered={recovered}, faults={stats:?})\n{timeline}"
        ));
        cluster.shutdown();
        return Err(msg);
    };
    let counters = workflow.obs();
    let counters = counters.counters();
    let delta_saves = counters.delta_saves.load(Ordering::Relaxed);
    let persists = counters.persist_count.load(Ordering::Relaxed);
    match record.status {
        TaskStatus::Completed(value) => {
            cluster.shutdown();
            Ok(ChaosRun {
                seed,
                value,
                stats,
                recovered,
                armed,
                profile,
                delta_saves,
                persists,
            })
        }
        other => {
            let msg = violation(format!(
                "seed {seed}: task ended {other:?} instead of completing \
                 (recovered={recovered}, faults={stats:?})\n{timeline}"
            ));
            cluster.shutdown();
            Err(msg)
        }
    }
}

// ---- panic flight dumps ----------------------------------------------

/// Observability handles whose flight recorders should fire on panic.
/// `Weak` so a registered deployment can still be dropped normally.
static PANIC_DUMPERS: StdMutex<Vec<Weak<crate::service::Inner>>> = StdMutex::new(Vec::new());
static PANIC_HOOK: Once = Once::new();

/// Install (once) a chained panic hook that writes a flight dump for
/// every registered deployment whose recorder is armed, then defers to
/// the previous hook. Call it per deployment; registration is additive
/// and the process-wide hook is installed on the first call.
pub fn install_flight_panic_hook(obs: &WorkflowObs) {
    if let Ok(mut dumpers) = PANIC_DUMPERS.lock() {
        dumpers.retain(|w| w.strong_count() > 0);
        dumpers.push(obs.inner_weak());
    }
    PANIC_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let reason = format!("panic: {info}");
            if let Ok(dumpers) = PANIC_DUMPERS.lock() {
                for weak in dumpers.iter() {
                    if let Some(inner) = weak.upgrade() {
                        if inner.obs.flight.is_armed() {
                            let dump = inner.flight_dump(&reason);
                            let _ = inner.obs.flight.record("panic", &dump);
                        }
                    }
                }
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_service_round_trip() {
        let cluster = Cluster::new();
        register_value_service(&cluster, "adder", None, |_op, req| {
            let items = req.as_list().unwrap_or(&[]).to_vec();
            let sum: i64 = items.iter().filter_map(Value::as_int).sum();
            Ok(Value::Int(sum))
        });
        cluster.spawn_instances("adder", 0, 1);
        let gvm = Gvm::with_pool_size(1);
        let body = serialize_value(
            &Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            Codec::Deflate,
        )
        .unwrap();
        let reply = cluster
            .call(Message::new("adder", "Sum", body), Duration::from_secs(2))
            .unwrap();
        let v = deserialize_value(&reply, &gvm).unwrap();
        assert_eq!(v, Value::Int(6));
        cluster.shutdown();
    }
}
