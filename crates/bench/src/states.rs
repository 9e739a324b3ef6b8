//! Builders producing realistic suspended fiber states of controllable
//! size, for the §4.2 serialization/compression measurements.

use std::sync::Arc;

use gozer_lang::Value;
use gozer_vm::{FiberState, Gvm, RunOutcome};

/// Source of the synthetic workflow whose suspension we serialize. The
/// locals mix strings, numbers, nested lists and maps — the shapes a real
/// workflow accumulates before a service call suspends it.
pub const STATE_WORKFLOW: &str = r#"
(defun build-positions (n)
  (loop for i in (range n)
        collect {:instrument (concat "instr-" i)
                 :quantity (* i 100)
                 :price (/ (+ i 1) 7)
                 :tags (list :equity :usd (concat "desk-" (mod i 5)))}))

(defun suspended-wf (n)
  (let ((positions (build-positions n))
        (run-id "risk-batch-2009-11-30")
        (totals (loop for p in (build-positions n)
                      collect (get p :quantity)))
        (chunk-count (max 1 (floor (/ n 10)))))
    (yield :snapshot)
    (list positions run-id totals chunk-count)))
"#;

/// A VM with [`STATE_WORKFLOW`] loaded.
pub fn workflow_gvm() -> Arc<Gvm> {
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(STATE_WORKFLOW, "state-workflow")
        .expect("state workflow loads");
    gvm
}

/// Run `suspended-wf` with `n` positions to its yield, returning the
/// captured continuation. Bigger `n`, bigger state.
pub fn suspended_state(gvm: &Arc<Gvm>, n: i64) -> FiberState {
    let f = gvm.function("suspended-wf").expect("function defined");
    match gvm.call_fiber(&f, vec![Value::Int(n)]).expect("runs") {
        RunOutcome::Suspended(susp) => susp.state,
        RunOutcome::Done(_) => panic!("workflow should suspend"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gozer_compress::Codec;
    use gozer_serial::serialize_state;

    #[test]
    fn state_size_scales_with_n() {
        let gvm = workflow_gvm();
        let small = serialize_state(&suspended_state(&gvm, 10), Codec::None).unwrap();
        let large = serialize_state(&suspended_state(&gvm, 200), Codec::None).unwrap();
        assert!(
            large.len() > small.len() * 5,
            "{} vs {}",
            small.len(),
            large.len()
        );
    }

    #[test]
    fn state_resumes_after_serialization() {
        let gvm = workflow_gvm();
        let state = suspended_state(&gvm, 20);
        let bytes = serialize_state(&state, Codec::Deflate).unwrap();
        let state2 = gozer_serial::deserialize_state(&bytes, &gvm).unwrap();
        let RunOutcome::Done(v) = gvm.resume_fiber(state2, Value::Nil).unwrap() else {
            panic!("should finish");
        };
        assert_eq!(v.as_list().unwrap().len(), 4);
    }
}
