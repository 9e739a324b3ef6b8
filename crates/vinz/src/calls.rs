//! The non-blocking service call (§3.2): a request goes out, the fiber
//! suspends, and a `ResumeFromCall` reply brings it back.
//!
//! A call in flight is one durable record, `call-req/<correlation>`: the
//! request to re-send plus the task and fiber it answers to. Four entry
//! points own its life:
//!
//! * [`dispatch`] writes the record and sends the request, held on the
//!   record's durability ticket (DESIGN §13);
//! * [`take_reply`] resumes the fiber named by the record and deletes it
//!   — or, for a faulted reply with attempts left, re-dispatches;
//! * [`redispatch`] re-sends the request after the backoff, one attempt
//!   further along;
//! * [`scan`] (the supervisor's, once a tick) re-dispatches calls left
//!   unanswered past [`RetryPolicy::call_timeout`], and once attempts run
//!   out synthesizes a `{vinz}CallTimeout` reply that [`take_reply`]
//!   surfaces to the fiber.
//!
//! A reply whose record is gone — a late original after a re-send was
//! answered, a duplicate, a repeated timeout — is dropped.
//!
//! [`RetryPolicy::call_timeout`]: crate::RetryPolicy::call_timeout

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use bluebox::{Message, ReplyTo, ServiceCtx};
use gozer_lang::{AssocMap, Value};
use gozer_obs::{Event, EventKind};
use gozer_serial::{deserialize_value, SerError};
use gozer_vm::Gvm;

use crate::locks::LOCK_WAIT;
use crate::service::{required_header, Inner, VinzError};

const PREFIX: &str = "call-req/";
const FIELD_SEP: &str = "\x1f";

/// The durable record of one in-flight async call: everything needed to
/// re-send it, and the fiber its reply resumes.
pub(crate) struct CallReq {
    pub service: String,
    pub operation: String,
    pub soap_action: String,
    pub task: String,
    pub fiber: String,
    pub attempts: u32,
    pub body: Vec<u8>,
}

impl CallReq {
    fn encode(&self) -> Vec<u8> {
        let fields: [&str; 5] =
            [&self.service, &self.operation, &self.soap_action, &self.task, &self.fiber];
        let mut out = format!("{}{FIELD_SEP}{}\n", fields.join(FIELD_SEP), self.attempts).into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// The header fields and the request body of an encoded record.
    fn split(bytes: &[u8]) -> Option<(std::str::Split<'_, &'static str>, &[u8])> {
        let nl = bytes.iter().position(|&b| b == b'\n')?;
        let head = std::str::from_utf8(&bytes[..nl]).ok()?;
        Some((head.split(FIELD_SEP), &bytes[nl + 1..]))
    }

    fn decode(bytes: &[u8]) -> Option<CallReq> {
        let (mut parts, body) = CallReq::split(bytes)?;
        Some(CallReq {
            service: parts.next()?.to_string(),
            operation: parts.next()?.to_string(),
            soap_action: parts.next()?.to_string(),
            task: parts.next()?.to_string(),
            fiber: parts.next()?.to_string(),
            attempts: parts.next()?.parse().ok()?,
            body: body.to_vec(),
        })
    }

    /// The calling fiber of an encoded record, without copying the body.
    fn fiber_of(bytes: &[u8]) -> Option<&str> {
        CallReq::split(bytes)?.0.nth(4)
    }

    /// The request this record sends, its reply routed back to
    /// `reply_service`'s ResumeFromCall under `correlation`.
    fn into_message(self, reply_service: &str, correlation: u64) -> Message {
        let mut msg = Message::new(&self.service, &self.operation, self.body)
            .header("soap-action", self.soap_action)
            .header("task-id", self.task)
            .header("fiber-id", self.fiber);
        msg.reply_to = ReplyTo::Service {
            service: reply_service.to_string(),
            operation: "ResumeFromCall".to_string(),
            correlation,
        };
        msg
    }
}

fn store_err(e: crate::StoreError) -> VinzError {
    VinzError(e.to_string())
}

/// Start a call: allocate its correlation, write its record as one
/// batch, and send the request held on that batch's ticket. The ticket
/// also covers everything the fiber wrote before the call (earlier saves
/// have lower seqs in the same log), so the service never sees a request
/// whose caller could vanish in a crash; a crash between the write and
/// the send leaves a record the [`scan`] re-sends, not a lost call.
pub(crate) fn dispatch(inner: &Inner, req: CallReq) -> Result<u64, VinzError> {
    let correlation = inner.cluster.allocate_correlation();
    let key = format!("{PREFIX}{correlation}");
    let ticket = inner.store.put_batch(&[(&key, &req.encode())]).map_err(store_err)?;
    inner.cluster.send(req.into_message(&inner.name, correlation).with_hold_until(ticket.0));
    Ok(correlation)
}

/// ResumeFromCall: hand a reply to the fiber whose call it answers. A
/// faulted reply with attempts left on the record is re-dispatched
/// (same correlation, so a late original reply still resumes the fiber)
/// instead of reaching the workflow, which sees the fault only once the
/// budget is spent.
pub(crate) fn take_reply(
    inner: &Arc<Inner>,
    ctx: &ServiceCtx,
    msg: &Message,
) -> Result<Vec<u8>, VinzError> {
    let Ok(correlation) = required_header(msg, "correlation")?.parse::<u64>() else {
        return Ok(Vec::new());
    };
    let key = format!("{PREFIX}{correlation}");
    let record = inner.store.get(&key).map_err(store_err)?;
    let Some(fiber_id) = record.as_deref().and_then(CallReq::fiber_of) else {
        // Unknown or used-up correlation (at-least-once delivery).
        return Ok(Vec::new());
    };
    let forget = || drop(inner.store.delete(&key));
    inner.enter_fiber(
        ctx,
        msg,
        fiber_id,
        LOCK_WAIT,
        "suspended",
        None,
        // Nobody is left to take the reply.
        |why| if why != "busy" { forget() },
        |rt| {
            if msg.get_header("fault-code").is_some() {
                // Re-read under the fiber lock: a redelivered fault may
                // already have spent an attempt.
                let req = inner.store.get(&key).ok().flatten();
                if let Some(req) = req.as_deref().and_then(CallReq::decode) {
                    if req.attempts < inner.config.retry.max_attempts {
                        redispatch(inner, correlation, req)?;
                        return Ok(None);
                    }
                }
            }
            forget();
            let message = msg.get_header("fault-message").unwrap_or("");
            let fault = msg.get_header("fault-code").map(|code| (code, message));
            let resp = response(&rt.gvm, &msg.body, fault)
                .map_err(|e| VinzError(format!("bad reply body: {e}")))?;
            Ok(Some(Some(("service-call", resp))))
        },
    )
}

/// The response map a service call resumes with, the one the generated
/// deflink stubs hand to parse-wsdl-response: `:body` (absent for an
/// empty reply) and, for a fault, `:fault-code` and `:fault-message`.
pub(crate) fn response(
    gvm: &Arc<Gvm>,
    body: &[u8],
    fault: Option<(&str, &str)>,
) -> Result<Value, SerError> {
    let mut resp = AssocMap::new();
    if !body.is_empty() {
        resp.insert(Value::keyword("body"), deserialize_value(body, gvm)?);
    }
    if let Some((code, message)) = fault {
        resp.insert(Value::keyword("fault-code"), Value::str(code));
        resp.insert(Value::keyword("fault-message"), Value::str(message));
    }
    Ok(Value::Map(Arc::new(resp)))
}

/// Re-send a call one attempt further along, after the backoff: rewrite
/// its record, count it, and send the same request under the same
/// correlation.
pub(crate) fn redispatch(inner: &Inner, correlation: u64, mut req: CallReq) -> Result<(), VinzError> {
    let delay = inner.config.retry.delay_for(req.attempts, correlation);
    req.attempts += 1;
    inner.store.put(&format!("{PREFIX}{correlation}"), &req.encode()).map_err(store_err)?;
    inner.metrics.calls_retried.fetch_add(1, Ordering::Relaxed);
    inner.obs.bus.emit(|| {
        Event::new(EventKind::CallRetried { attempt: req.attempts })
            .task(req.task.as_str())
            .fiber(req.fiber.as_str())
    });
    inner.cluster.send_after(req.into_message(&inner.name, correlation), delay);
    Ok(())
}

/// The supervisor's timeout scan over in-flight calls. `seen` holds
/// when each record was first seen (or last acted on): a record older
/// than the call timeout is re-dispatched, or, out of attempts, answered
/// with a synthesized `{vinz}CallTimeout` fault. That reply leaves the
/// record for [`take_reply`] to consume, so a lost one is sent again a
/// call timeout later.
pub(crate) fn scan(inner: &Inner, seen: &mut HashMap<String, Instant>) {
    let retry = &inner.config.retry;
    let Ok(keys) = inner.store.list(PREFIX) else { return };
    seen.retain(|k, _| keys.contains(k));
    for key in keys {
        let first = *seen.entry(key.clone()).or_insert_with(Instant::now);
        if first.elapsed() < retry.call_timeout {
            continue;
        }
        let Some(correlation) = key.strip_prefix(PREFIX).and_then(|c| c.parse::<u64>().ok()) else {
            continue;
        };
        let Ok(Some(bytes)) = inner.store.get(&key) else { continue };
        let Some(req) = CallReq::decode(&bytes) else { continue };
        seen.insert(key, Instant::now());
        if req.attempts < retry.max_attempts {
            let _ = redispatch(inner, correlation, req);
            continue;
        }
        let (service, operation, attempts) = (&req.service, &req.operation, req.attempts);
        let why = format!("{service}:{operation} unanswered after {attempts} attempt(s)");
        inner.cluster.send(
            Message::new(&inner.name, "ResumeFromCall", Vec::new())
                .header("correlation", correlation.to_string())
                .header("task-id", req.task)
                .header("fiber-id", req.fiber)
                .header("fault-code", "{vinz}CallTimeout")
                .header("fault-message", why),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_req_round_trips() {
        let req = CallReq {
            service: "pricing".into(),
            operation: "Quote".into(),
            soap_action: "urn:q".into(),
            task: "task-1".into(),
            fiber: "task-1/f0".into(),
            attempts: 2,
            body: vec![0, 1, 2, 0xff, b'\n', 3],
        };
        let bytes = req.encode();
        assert_eq!(CallReq::fiber_of(&bytes), Some("task-1/f0"));
        let back = CallReq::decode(&bytes).expect("decodes");
        assert_eq!(back.service, "pricing");
        assert_eq!(back.operation, "Quote");
        assert_eq!(back.soap_action, "urn:q");
        assert_eq!(back.task, "task-1");
        assert_eq!(back.fiber, "task-1/f0");
        assert_eq!(back.attempts, 2);
        assert_eq!(back.body, vec![0, 1, 2, 0xff, b'\n', 3]);
    }
}
