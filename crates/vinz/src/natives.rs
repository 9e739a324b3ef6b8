//! The Vinz native functions installed into every node GVM: fiber
//! forking and joining, non-blocking service calls, task variables,
//! spawn-limit control, and the condition-handling actions.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Duration;

use bluebox::{CallError, Message};
use gozer_lang::{AssocMap, Symbol, Value};
use gozer_obs::EventKind;
use gozer_serial::{deserialize_value, serialize_value};
use gozer_vm::{
    Condition, Gvm, NativeCtx, NativeFn, NativeOutcome, ObjectVal, Unwind, VmError, VmResult,
};

use crate::calls::{self, CallReq};
use crate::locks::{JOIN_DEADLINE, LOCK_WAIT, SYNC_CALL_TIMEOUT};
use crate::service::{Inner, VinzError};
use crate::StoreError;

/// Natives raise what the host reports as a plain error condition.
impl From<VinzError> for VmError {
    fn from(e: VinzError) -> VmError {
        VmError::msg(e.0)
    }
}

impl From<StoreError> for VmError {
    fn from(e: StoreError) -> VmError {
        VmError::msg(e.to_string())
    }
}

/// Instance id recorded for events that originate inside fiber code
/// rather than an operation handler.
const IN_FIBER: u64 = u64::MAX;

fn up(inner: &Weak<Inner>) -> VmResult<Arc<Inner>> {
    inner
        .upgrade()
        .ok_or_else(|| VmError::msg("workflow service was dropped"))
}

fn ext_str(ctx: &NativeCtx<'_>, key: &str, what: &str) -> VmResult<String> {
    ctx.ext
        .get(key)
        .and_then(|v| v.as_str().map(str::to_owned))
        .ok_or_else(|| VmError::msg(format!("{what} is only available inside a workflow fiber")))
}

/// Parse `&key`-style arguments from a native's argument tail.
fn parse_kwargs(args: &[Value]) -> VmResult<Vec<(Symbol, Value)>> {
    if !args.len().is_multiple_of(2) {
        return Err(VmError::msg("odd number of keyword arguments"));
    }
    let mut out = Vec::with_capacity(args.len() / 2);
    let mut i = 0;
    while i < args.len() {
        let k = args[i]
            .as_keyword()
            .ok_or_else(|| VmError::type_error("keyword", &args[i]))?;
        out.push((k, args[i + 1].clone()));
        i += 2;
    }
    Ok(out)
}

fn kw<'a>(kwargs: &'a [(Symbol, Value)], name: &str) -> Option<&'a Value> {
    let sym = Symbol::intern(name);
    kwargs.iter().find(|(k, _)| *k == sym).map(|(_, v)| v)
}

fn reg(
    gvm: &Arc<Gvm>,
    name: &str,
    f: impl Fn(&mut NativeCtx<'_>, Vec<Value>) -> VmResult<NativeOutcome> + Send + Sync + 'static,
) {
    gvm.set_global(Symbol::intern(name), NativeFn::value(name, f));
}

/// Strip the `^...^` decoration from a task-variable name.
fn normalize_taskvar(name: Symbol) -> String {
    name.name().trim_matches('^').to_string()
}

/// Install all Vinz natives (capturing the owning service weakly — node
/// GVMs are owned by the service, so a strong reference would leak).
pub(crate) fn install_vinz(gvm: &Arc<Gvm>, inner: Weak<Inner>, node_id: u32) {
    // ---- identity -----------------------------------------------------
    reg(gvm, "get-process-id", |ctx, _args| {
        NativeOutcome::ok(
            ctx.ext
                .get("fiber-id")
                .cloned()
                .unwrap_or(Value::Nil),
        )
    });
    reg(gvm, "get-task-id", |ctx, _args| {
        NativeOutcome::ok(ctx.ext.get("task-id").cloned().unwrap_or(Value::Nil))
    });
    reg(gvm, "is-fiber-thread", |ctx, _args| {
        NativeOutcome::ok(Value::Bool(ctx.can_yield()))
    });

    // ---- forking (§3.4) -------------------------------------------------
    let w = inner.clone();
    reg(gvm, "fork-and-exec", move |ctx, args| {
        if args.is_empty() {
            return Err(VmError::msg("fork-and-exec requires a function"));
        }
        let func = args[0].clone();
        let kwargs = parse_kwargs(&args[1..])?;
        let call_args: Vec<Value> = if let Some(a) = kw(&kwargs, "argument") {
            vec![a.clone()]
        } else if let Some(a) = kw(&kwargs, "arguments") {
            a.as_seq()
                .ok_or_else(|| VmError::type_error("sequence", a))?
                .to_vec()
        } else {
            Vec::new()
        };
        let notify = kw(&kwargs, "notify-parent")
            .map(Value::is_truthy)
            .unwrap_or(false);

        let inner = up(&w)?;
        let task_id = ext_str(ctx, "task-id", "fork-and-exec")?;
        let parent_id = ext_str(ctx, "fiber-id", "fork-and-exec")?;
        let rt = inner.node_runtime(node_id)?;
        let child_id = inner.new_fiber_id(&task_id);
        // The child starts as a clone of the parent's environment in the
        // paper; by-value closure capture gives the same observable
        // semantics (mutations are invisible across the fork, §3.4).
        let mut state = rt.gvm.fiber_for(&func, call_args)?;
        state.ext.set("task-id", Value::str(&task_id));
        state.ext.set("fiber-id", Value::str(&child_id));
        state.ext.set("parent-id", Value::str(&parent_id));
        if notify {
            state.ext.set("notify-parent", Value::Bool(true));
        }
        if let Some(limit) = ctx.ext.get("spawn-limit") {
            state.ext.set("spawn-limit", limit.clone());
        }
        inner.tracker.fiber_created(&task_id);
        inner.save_newborn(&rt, IN_FIBER, &child_id, state)?;
        // The orphan scan re-sends AwakeFiber for the finished children
        // of a suspended parent it finds here.
        inner.register_child(&parent_id, &child_id)?;
        inner.emit(rt.node_id, IN_FIBER, &parent_id, || EventKind::FiberForked {
            child: child_id.clone(),
        });
        // Children inherit the task's deadline so deadline-aware queue
        // policies can order their RunFiber messages too.
        let deadline = inner.tracker.deadline(&task_id);
        inner.send_run_fiber(&child_id, deadline);
        NativeOutcome::ok(Value::str(child_id))
    });

    let w = inner.clone();
    reg(gvm, "join-process", move |ctx, args| {
        let Some(target) = args.first().and_then(Value::as_str) else {
            return Err(VmError::msg("join-process requires a fiber id"));
        };
        let inner = up(&w)?;
        if ctx.can_yield() {
            // Suspend; the service registers us as a waiter and
            // JoinProcess resumes us with the target's result (§3.4).
            let mut m = AssocMap::new();
            m.insert(Value::keyword("reason"), Value::str("join"));
            m.insert(Value::keyword("target"), Value::str(target));
            return Ok(NativeOutcome::Yield {
                payload: Value::Map(Arc::new(m)),
            });
        }
        // Background thread: only this thread blocks, the fiber is
        // unaffected (§3.4). The deadline is on the cluster's clock, and
        // a shutdown ends the wait too: the instance that touches this
        // future is one that shutdown joins.
        let deadline = inner.cluster.clock().now() + JOIN_DEADLINE;
        loop {
            if let Some(bytes) = inner.result_bytes(target)? {
                return NativeOutcome::ok(deserialize_value(&bytes, ctx.gvm)?);
            }
            if inner.cluster.clock().now() > deadline || inner.cluster.is_shutdown() {
                return Err(VmError::msg(format!("join-process: {target} never finished")));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    });

    let w = inner.clone();
    reg(gvm, "awake", move |ctx, args| {
        let Some(pid) = args.first().and_then(Value::as_str) else {
            return Err(VmError::msg("awake requires a fiber id"));
        };
        let inner = up(&w)?;
        let from = ext_str(ctx, "fiber-id", "awake").unwrap_or_default();
        inner.send_awake(pid, &from);
        NativeOutcome::ok(Value::Nil)
    });

    // ---- service calls (§3.2) --------------------------------------------
    let w = inner.clone();
    reg(gvm, "call-wsdl-operation-async", move |ctx, args| {
        let kwargs = parse_kwargs(&args)?;
        let inner = up(&w)?;
        let fiber_id = ext_str(ctx, "fiber-id", "call-wsdl-operation-async")?;
        let (service, operation, soap_action, body) = call_params(&kwargs, &inner)?;
        inner.emit(node_id, IN_FIBER, &fiber_id, || EventKind::ServiceCallDispatched {
            target: format!("{service}:{operation}"),
        });
        // The workflow ids ride on the request and, copied by the broker,
        // on its ResumeFromCall reply: faults injected into either leg
        // correlate back to this fiber's timeline.
        let task = ext_str(ctx, "task-id", "call").unwrap_or_default();
        let req = CallReq { service, operation, soap_action, task, fiber: fiber_id, attempts: 1, body };
        let correlation = calls::dispatch(&inner, req)?;
        NativeOutcome::ok(Value::Int(correlation as i64))
    });

    let w = inner.clone();
    reg(gvm, "call-wsdl-operation", move |ctx, args| {
        let kwargs = parse_kwargs(&args)?;
        let inner = up(&w)?;
        let (service, operation, soap_action, body) = call_params(&kwargs, &inner)?;
        let result = inner.cluster.call(
            Message::new(&service, &operation, body).header("soap-action", soap_action),
            SYNC_CALL_TIMEOUT,
        );
        let resp = match result {
            Ok(bytes) => calls::response(ctx.gvm, &bytes, None),
            Err(CallError::Fault(f)) => calls::response(ctx.gvm, &[], Some((&f.code, &f.message))),
            Err(e) => {
                return Err(ctx.raise(Condition::with_types(
                    vec!["service-timeout".into(), "error".into()],
                    format!("{service}:{operation}: {e}"),
                    Value::Nil,
                )));
            }
        };
        NativeOutcome::ok(resp?)
    });

    // ---- task variables (§3.6) --------------------------------------------
    let w = inner.clone();
    reg(gvm, "%get-task-var", move |ctx, args| {
        let Some(name) = args.first().and_then(Value::as_symbol) else {
            return Err(VmError::msg("%get-task-var requires a symbol"));
        };
        let inner = up(&w)?;
        let task_id = ext_str(ctx, "task-id", "task variables")?;
        let name = normalize_taskvar(name);
        let vkey = format!("taskvar-v/{task_id}/{name}");
        let dkey = format!("taskvar-d/{task_id}/{name}");
        let version = read_version(&inner, &vkey)?;
        if version == 0 {
            return NativeOutcome::ok(Value::Nil);
        }
        // Check the fiber-local cache against the store's version: each
        // fiber sees a self-consistent, latest value (§3.6).
        if let Some(cached) = taskvar_cache_get(ctx, &name, version) {
            inner.metrics.taskvar_hits.fetch_add(1, Ordering::Relaxed);
            return NativeOutcome::ok(cached);
        }
        inner.metrics.taskvar_misses.fetch_add(1, Ordering::Relaxed);
        let bytes = inner
            .store
            .get(&dkey)?
            .ok_or_else(|| VmError::msg(format!("task variable {name} has version but no data")))?;
        let v = deserialize_value(&bytes, ctx.gvm)?;
        taskvar_cache_put(ctx, &name, version, v.clone());
        NativeOutcome::ok(v)
    });

    let w = inner.clone();
    reg(gvm, "%set-task-var", move |ctx, args| {
        if args.len() != 2 {
            return Err(VmError::msg("%set-task-var requires a name and a value"));
        }
        let Some(name) = args[0].as_symbol() else {
            return Err(VmError::type_error("symbol", &args[0]));
        };
        let inner = up(&w)?;
        let task_id = ext_str(ctx, "task-id", "task variables")?;
        let name = normalize_taskvar(name);
        let vkey = format!("taskvar-v/{task_id}/{name}");
        let dkey = format!("taskvar-d/{task_id}/{name}");
        // Mutation takes the distributed lock (§3.6: "taking out
        // appropriate locks"; §5 calls this overhead out as future work).
        let _guard = inner
            .locks
            .acquire(format!("taskvar/{task_id}/{name}"), LOCK_WAIT)
            .ok_or_else(|| VmError::msg(format!("could not lock task variable {name}")))?;
        let version = read_version(&inner, &vkey)? + 1;
        let bytes = serialize_value(&args[1], inner.config.codec)?;
        // One atomic batch: the version key can never name data that a
        // crash failed to persist.
        inner
            .store
            .put_batch(&[(&dkey, &bytes), (&vkey, &version.to_le_bytes())])?;
        taskvar_cache_put(ctx, &name, version, args[1].clone());
        NativeOutcome::ok(args[1].clone())
    });

    reg(gvm, "%register-task-var", |_ctx, args| {
        // Declarative only: deftaskvar records the name and doc for
        // introspection; storage is created lazily on first set.
        let Some(name) = args.first().and_then(Value::as_symbol) else {
            return Err(VmError::msg("%register-task-var requires a symbol"));
        };
        NativeOutcome::ok(Value::Symbol(name))
    });

    // ---- children & results (§3.5) -----------------------------------------
    let w = inner.clone();
    reg(gvm, "collect-child-results", move |_ctx, args| {
        let Some(ids) = args.first().and_then(Value::as_seq) else {
            return Err(VmError::msg("collect-child-results requires a list of ids"));
        };
        let inner = up(&w)?;
        let rt = inner.node_runtime(node_id)?;
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let Some(id) = id.as_str() else {
                return Err(VmError::type_error("fiber id string", id));
            };
            out.push(inner.load_result(&rt, id)?);
        }
        NativeOutcome::ok(Value::list(out))
    });

    let w = inner.clone();
    reg(gvm, "%fiber-done?", move |_ctx, args| {
        let Some(id) = args.first().and_then(Value::as_str) else {
            return Err(VmError::msg("%fiber-done? requires a fiber id"));
        };
        let inner = up(&w)?;
        NativeOutcome::ok(Value::Bool(inner.fiber_done(id)?))
    });

    // ---- spawn limit (§3.5) -------------------------------------------------
    let w = inner.clone();
    reg(gvm, "%spawn-limit", move |ctx, _args| {
        if let Some(v) = ctx.ext.get("spawn-limit").and_then(Value::as_int) {
            return NativeOutcome::ok(Value::Int(v.max(1)));
        }
        let inner = up(&w)?;
        NativeOutcome::ok(Value::Int(inner.config.spawn_limit as i64))
    });
    reg(gvm, "set-spawn-limit", |ctx, args| {
        let Some(n) = args.first().and_then(Value::as_int) else {
            return Err(VmError::msg("set-spawn-limit requires an integer"));
        };
        ctx.ext.set("spawn-limit", Value::Int(n.max(1)));
        NativeOutcome::ok(Value::Int(n.max(1)))
    });

    // ---- chunking helper ------------------------------------------------------
    reg(gvm, "%chunk", |_ctx, args| {
        if args.len() != 2 {
            return Err(VmError::msg("%chunk requires a sequence and a size"));
        }
        let items = args[0]
            .as_seq()
            .ok_or_else(|| VmError::type_error("sequence", &args[0]))?;
        let n = args[1]
            .as_int()
            .filter(|n| *n > 0)
            .ok_or_else(|| VmError::msg("%chunk size must be positive"))?
            as usize;
        let chunks: Vec<Value> = items
            .chunks(n)
            .map(|c| Value::list(c.to_vec()))
            .collect();
        NativeOutcome::ok(Value::list(chunks))
    });

    // ---- handler actions (§3.7) --------------------------------------------
    reg(gvm, "%run-handler", |ctx, args| {
        if args.len() != 2 {
            return Err(VmError::msg("%run-handler requires a handler and a condition"));
        }
        run_handler(ctx, &args[0], &args[1])
    });

    // deflink (§3.3) is a macro, not a function.
    let w = inner.clone();
    gvm.define_macro(
        Symbol::intern("deflink"),
        NativeFn::value("deflink", move |ctx, args| {
            crate::deflink::expand_deflink(ctx, &up(&w)?, &args).map(NativeOutcome::Value)
        }),
    );

    // defhandler (§3.7, Listing 6): builds the handler object at macro
    // expansion time — the option forms are literals, not evaluated.
    gvm.define_macro(
        Symbol::intern("defhandler"),
        NativeFn::value("defhandler", move |_ctx, args| {
            expand_defhandler(&args).map(NativeOutcome::Value)
        }),
    );

    // with-retries: bounded retry with a give-up fallback around any
    // body (most usefully a synchronous service call). Like defhandler,
    // the options are literals consumed at macro-expansion time.
    gvm.define_macro(
        Symbol::intern("with-retries"),
        NativeFn::value("with-retries", move |_ctx, args| {
            expand_with_retries(&args).map(NativeOutcome::Value)
        }),
    );
}

fn read_version(inner: &Arc<Inner>, key: &str) -> VmResult<u64> {
    Ok(inner
        .store
        .get(key)?
        .map(|b| {
            // Length-tolerant: a truncated/corrupt version record reads
            // as a low version rather than panicking the instance.
            let mut buf = [0u8; 8];
            let src = &b[..8.min(b.len())];
            buf[..src.len()].copy_from_slice(src);
            u64::from_le_bytes(buf)
        })
        .unwrap_or(0))
}

/// Extract the common service-call parameters and serialize the message.
fn call_params(
    kwargs: &[(Symbol, Value)],
    inner: &Arc<Inner>,
) -> VmResult<(String, String, String, Vec<u8>)> {
    let service = kw(kwargs, "service")
        .and_then(|v| v.as_str().map(str::to_owned))
        .ok_or_else(|| VmError::msg("service call requires :service"))?;
    let operation = kw(kwargs, "operation")
        .and_then(|v| v.as_str().map(str::to_owned))
        .ok_or_else(|| VmError::msg("service call requires :operation"))?;
    let soap_action = kw(kwargs, "soap-action")
        .and_then(|v| v.as_str().map(str::to_owned))
        .unwrap_or_default();
    let message = kw(kwargs, "message").cloned().unwrap_or(Value::Nil);
    // Messages are mutable platform objects; snapshot to a plain map for
    // the wire (futures in fields are determined by serialization rules).
    let wire = match message.as_opaque::<ObjectVal>() {
        Some(obj) => Value::Map(Arc::new(obj.snapshot())),
        None => message,
    };
    let body = serialize_value(&wire, inner.config.codec)?;
    Ok((service, operation, soap_action, body))
}

// ---- task-variable cache in the fiber extension map -----------------------

fn taskvar_cache_get(ctx: &NativeCtx<'_>, name: &str, version: u64) -> Option<Value> {
    let cache = ctx.ext.get("taskvar-cache")?.as_map()?.clone();
    let entry = cache.get(&Value::str(name))?.as_seq()?.to_vec();
    let cached_version = entry.first()?.as_int()? as u64;
    (cached_version == version).then(|| entry.get(1).cloned().unwrap_or(Value::Nil))
}

fn taskvar_cache_put(ctx: &mut NativeCtx<'_>, name: &str, version: u64, v: Value) {
    let mut cache = ctx
        .ext
        .get("taskvar-cache")
        .and_then(Value::as_map)
        .cloned()
        .unwrap_or_default();
    cache.insert(
        Value::str(name),
        Value::list(vec![Value::Int(version as i64), v]),
    );
    ctx.ext.set("taskvar-cache", Value::Map(Arc::new(cache)));
}

/// Expand `(defhandler name :java (...) :code (...) :action retry :count 5)`
/// into `(%defparameter 'name '<handler-map>)`.
fn expand_defhandler(args: &[Value]) -> VmResult<Value> {
    let Some(name) = args.first().and_then(Value::as_symbol) else {
        return Err(VmError::Compile("defhandler requires a name symbol".into()));
    };
    let mut map = AssocMap::new();
    map.insert(Value::keyword("name"), Value::str(name.name()));
    let opts = &args[1..];
    if !opts.len().is_multiple_of(2) {
        return Err(VmError::Compile("defhandler options must be pairs".into()));
    }
    let mut i = 0;
    while i < opts.len() {
        let Some(k) = opts[i].as_keyword() else {
            return Err(VmError::Compile(format!(
                "defhandler: expected a keyword, got {:?}",
                opts[i]
            )));
        };
        let v = &opts[i + 1];
        match k.name() {
            "java" | "code" => {
                let items = v.as_list().ok_or_else(|| {
                    VmError::Compile(format!("defhandler :{} needs a list", k.name()))
                })?;
                if !items.iter().all(|d| d.as_str().is_some()) {
                    return Err(VmError::Compile(format!(
                        "defhandler :{} designators must be strings",
                        k.name()
                    )));
                }
                map.insert(Value::Keyword(k), v.clone());
            }
            "action" => {
                if v.as_symbol().is_none() {
                    return Err(VmError::Compile(
                        "defhandler :action must be a symbol".into(),
                    ));
                }
                map.insert(Value::keyword("action"), v.clone());
            }
            "count" => {
                if v.as_int().is_none() {
                    return Err(VmError::Compile(
                        "defhandler :count must be an integer".into(),
                    ));
                }
                map.insert(Value::keyword("count"), v.clone());
            }
            other => {
                return Err(VmError::Compile(format!(
                    "defhandler: unknown option :{other}"
                )));
            }
        }
        i += 2;
    }
    // (%defparameter 'name '<map>)
    Ok(Value::list(vec![
        Value::symbol("%defparameter"),
        Value::list(vec![Value::symbol("quote"), Value::Symbol(name)]),
        Value::list(vec![
            Value::symbol("quote"),
            Value::Map(Arc::new(map)),
        ]),
    ]))
}

/// Expand `(with-retries (:count N :name "n" :fallback EXPR [:on (...)])
/// body...)` into a `%retry-call` invocation carrying an inline retry
/// handler: BODY runs under a handler that retries matching conditions
/// up to N times, then transfers to the `give-up` restart, whose value
/// is EXPR (nil without a fallback). `:on` limits which condition
/// designators are retried (default: every error).
fn expand_with_retries(args: &[Value]) -> VmResult<Value> {
    let Some(opts) = args.first().map(|v| v.as_list().unwrap_or(&[]).to_vec()) else {
        return Err(VmError::Compile(
            "with-retries requires an options list".into(),
        ));
    };
    if !opts.len().is_multiple_of(2) {
        return Err(VmError::Compile("with-retries options must be pairs".into()));
    }
    let mut count = Value::Int(3);
    let mut name = Value::str("with-retries");
    let mut fallback = Value::Nil;
    let mut on = Value::Nil;
    let mut i = 0;
    while i < opts.len() {
        let Some(k) = opts[i].as_keyword() else {
            return Err(VmError::Compile(format!(
                "with-retries: expected a keyword, got {:?}",
                opts[i]
            )));
        };
        let v = opts[i + 1].clone();
        match k.name() {
            "count" => count = v,
            "name" => name = v,
            "fallback" => fallback = v,
            "on" => on = v,
            other => {
                return Err(VmError::Compile(format!(
                    "with-retries: unknown option :{other}"
                )));
            }
        }
        i += 2;
    }
    let mut handler = AssocMap::new();
    handler.insert(Value::keyword("name"), name);
    handler.insert(Value::keyword("action"), Value::symbol("retry"));
    handler.insert(Value::keyword("count"), count);
    if !on.is_nil() {
        handler.insert(Value::keyword("code"), on);
    }
    let mut thunk = vec![Value::symbol("lambda"), Value::Nil];
    thunk.extend_from_slice(&args[1..]);
    Ok(Value::list(vec![
        Value::symbol("%retry-call"),
        Value::list(thunk),
        Value::list(vec![
            Value::symbol("quote"),
            Value::Map(Arc::new(handler)),
        ]),
        Value::list(vec![Value::symbol("lambda"), Value::Nil, fallback]),
    ]))
}

// ---- defhandler / with-handler actions -------------------------------------

/// Run one named handler (created by `defhandler`) against a signaled
/// condition: match the designators, then perform the action.
fn run_handler(ctx: &mut NativeCtx<'_>, handler: &Value, condition: &Value) -> VmResult<NativeOutcome> {
    let Some(h) = handler.as_map() else {
        return Err(VmError::type_error("handler object", handler));
    };
    let cond = Condition::from_value(condition.clone());
    let mut designators: Vec<String> = Vec::new();
    for key in ["java", "code"] {
        if let Some(list) = h.get(&Value::keyword(key)).and_then(Value::as_seq) {
            designators.extend(list.iter().filter_map(|v| v.as_str().map(str::to_owned)));
        }
    }
    let matches = designators.is_empty() || designators.iter().any(|d| cond.matches(d));
    if !matches {
        // Decline: signal proceeds to the next handler (§3.7).
        return NativeOutcome::ok(Value::Nil);
    }
    let action = h
        .get(&Value::keyword("action"))
        .and_then(Value::as_symbol)
        .map(|s| s.name().to_string())
        .unwrap_or_else(|| "ignore".to_string());
    match action.as_str() {
        "ignore" => invoke_named_restart(ctx, "ignore"),
        "retry" => {
            // Bounded by :count (per handler name, per fiber).
            if let Some(limit) = h.get(&Value::keyword("count")).and_then(Value::as_int) {
                let hname = h
                    .get(&Value::keyword("name"))
                    .map(|v| format!("{v}"))
                    .unwrap_or_default();
                let key = format!("retries:{hname}");
                let used = ctx
                    .ext
                    .get(&key)
                    .and_then(Value::as_int)
                    .unwrap_or(0);
                if used >= limit {
                    // Budget spent: transfer to a `give-up` restart if
                    // one is established (e.g. by `with-retries`'
                    // fallback), otherwise decline to the next handler.
                    return invoke_named_restart(ctx, "give-up");
                }
                ctx.ext.set(&key, Value::Int(used + 1));
            }
            invoke_named_restart(ctx, "retry")
        }
        "give-up" => invoke_named_restart(ctx, "give-up"),
        "break" => Err(VmError::Unwind(Unwind::BreakFiber)),
        "terminate" => Err(VmError::Unwind(Unwind::TerminateTask(cond))),
        custom => {
            // Custom actions are functions named by the symbol (§3.7: "an
            // action is just a function").
            let func = ctx
                .gvm
                .get_global(Symbol::intern(custom))
                .ok_or_else(|| VmError::msg(format!("unknown handler action {custom}")))?;
            Ok(NativeOutcome::Invoke {
                func,
                args: vec![condition.clone()],
            })
        }
    }
}

/// Transfer to the innermost active restart with this name, declining
/// (nil) when none is established.
fn invoke_named_restart(ctx: &mut NativeCtx<'_>, name: &str) -> VmResult<NativeOutcome> {
    let sym = Symbol::intern(name);
    match ctx.ds.restarts.iter().rev().find(|r| r.name == sym) {
        Some(entry) => Err(VmError::Unwind(Unwind::Restart {
            id: entry.id,
            args: Vec::new(),
        })),
        None => NativeOutcome::ok(Value::Nil),
    }
}
