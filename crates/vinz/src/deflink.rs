//! `deflink` (paper §3.3): a macro that fetches a service's interface
//! document from the cluster registry at load time and generates one
//! Gozer function per published operation — with keyword arguments
//! mirroring the message parts, preserved documentation, automatic
//! non-blocking dispatch on fiber threads (sync fallback on background
//! threads), and `ignore`/`retry` restarts (Listing 2).
//!
//! Operations the bridge cannot support expand to a macro that signals at
//! *compile* time, so a workflow that never calls them loads fine and one
//! that does fails before it runs.

use std::sync::Arc;

use gozer_lang::{AssocMap, Value};
use gozer_vm::{NativeCtx, VmError, VmResult};
use gozer_xml::OperationDesc;

use crate::service::Inner;

fn sym(s: &str) -> Value {
    Value::symbol(s)
}

fn list(items: Vec<Value>) -> Value {
    Value::list(items)
}

/// Expand `(deflink PREFIX :wsdl "urn:..." :port "ServiceName")`.
pub(crate) fn expand_deflink(
    _ctx: &mut NativeCtx<'_>,
    inner: &Arc<Inner>,
    args: &[Value],
) -> VmResult<Value> {
    let Some(prefix) = args.first().and_then(Value::as_symbol) else {
        return Err(VmError::Compile("deflink requires a prefix symbol".into()));
    };
    let mut wsdl_urn = String::new();
    let mut port = String::new();
    let mut i = 1;
    while i + 1 < args.len() + 1 && i < args.len() {
        let Some(k) = args[i].as_keyword() else {
            return Err(VmError::Compile(format!(
                "deflink: expected a keyword, got {:?}",
                args[i]
            )));
        };
        let v = args
            .get(i + 1)
            .and_then(Value::as_str)
            .ok_or_else(|| VmError::Compile("deflink: keyword values must be strings".into()))?;
        match k.name() {
            "wsdl" => wsdl_urn = v.to_string(),
            "port" => port = v.to_string(),
            other => {
                return Err(VmError::Compile(format!("deflink: unknown key :{other}")));
            }
        }
        i += 2;
    }
    if port.is_empty() {
        return Err(VmError::Compile("deflink requires :port".into()));
    }
    // Fetch the interface document (evaluated when the workflow source is
    // loaded, so the stubs match the service version currently running —
    // §3.3).
    let desc = inner.cluster.wsdl(&port).ok_or_else(|| {
        VmError::Compile(format!(
            "deflink: service {port} (wsdl {wsdl_urn}) is not registered"
        ))
    })?;
    let mut forms = vec![sym("progn")];
    for op in &desc.operations {
        let fn_name = format!("{}-{}", prefix.name(), op.name);
        if op.unsupported {
            forms.push(unsupported_stub(&fn_name, op));
            continue;
        }
        forms.push(method_stub(&fn_name, op));
        forms.push(invoke_stub(&fn_name, &port, op));
    }
    forms.push(list(vec![sym("quote"), Value::Symbol(prefix)]));
    Ok(list(forms))
}

/// The high-level stub with keyword arguments (`SM-ListSessions-Method`
/// in Listing 2): builds the message and delegates.
fn method_stub(fn_name: &str, op: &OperationDesc) -> Value {
    let mut lambda_list = vec![sym("&key")];
    for p in &op.params {
        lambda_list.push(sym(&p.name));
    }
    let mut body = vec![
        sym("defun"),
        sym(&format!("{fn_name}-Method")),
        list(lambda_list),
        Value::str(&op.doc),
    ];
    // (let ((msg (create-message "<op>"))) (. msg (set "P" P)) ... (<fn> :message msg))
    let mut let_body = vec![
        sym("let"),
        list(vec![list(vec![
            sym("msg"),
            list(vec![sym("create-message"), Value::str(&op.name)]),
        ])]),
    ];
    for p in &op.params {
        let_body.push(list(vec![
            sym("."),
            sym("msg"),
            list(vec![sym("set"), Value::str(&p.name), sym(&p.name)]),
        ]));
    }
    let_body.push(list(vec![
        sym(fn_name),
        Value::keyword("message"),
        sym("msg"),
    ]));
    body.push(list(let_body));
    list(body)
}

/// The transport stub (`SM-ListSessions` in Listing 2): non-blocking on
/// fiber threads, synchronous on background threads, with `ignore` and
/// `retry` restarts bound around the response parse.
fn invoke_stub(fn_name: &str, service: &str, op: &OperationDesc) -> Value {
    let call_keys = |which: &str| -> Vec<Value> {
        vec![
            sym(which),
            Value::keyword("service"),
            Value::str(service),
            Value::keyword("operation"),
            Value::str(&op.name),
            Value::keyword("soap-action"),
            Value::str(&op.soap_action),
            Value::keyword("message"),
            sym("message"),
        ]
    };
    // (cond ((is-fiber-thread) (call-...-async ...) (yield {:reason :service-call}))
    //       (t (call-wsdl-operation ...)))
    // The reason is what banks the wait for the reply under
    // `service_wait`; a bare yield would count it as `suspended`.
    let mut waiting_on = AssocMap::new();
    waiting_on.insert(Value::keyword("reason"), Value::keyword("service-call"));
    let dispatch = list(vec![
        sym("cond"),
        list(vec![
            list(vec![sym("is-fiber-thread")]),
            list(call_keys("call-wsdl-operation-async")),
            list(vec![sym("yield"), Value::Map(Arc::new(waiting_on))]),
        ]),
        list(vec![
            Value::Bool(true),
            list(call_keys("call-wsdl-operation")),
        ]),
    ]);
    let parse = list(vec![sym("parse-wsdl-response"), dispatch]);
    // restart-case with ignore/retry (Listing 2).
    let restart_case = list(vec![
        sym("restart-case"),
        parse,
        list(vec![
            sym("ignore"),
            Value::Nil,
            list(vec![sym("log"), Value::str("Ignoring an exception")]),
            Value::Nil,
        ]),
        list(vec![
            sym("retry"),
            Value::Nil,
            list(vec![
                sym(fn_name),
                Value::keyword("message"),
                sym("message"),
            ]),
        ]),
    ]);
    list(vec![
        sym("defun"),
        sym(fn_name),
        list(vec![sym("&key"), sym("message")]),
        Value::str(&op.doc),
        restart_case,
    ])
}

/// Operations that cannot be bridged become macros that fail at
/// compile time if (and only if) the workflow tries to use them (§3.3).
fn unsupported_stub(fn_name: &str, op: &OperationDesc) -> Value {
    list(vec![
        sym("defmacro"),
        sym(fn_name),
        list(vec![sym("&rest"), sym("args")]),
        list(vec![
            sym("error"),
            Value::str(format!(
                "operation {} cannot be invoked from Gozer: {}",
                op.name, op.doc
            )),
        ]),
    ])
}
