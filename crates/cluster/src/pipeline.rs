//! A locality-oriented pipeline workload.
//!
//! Not from the paper's evaluation, but exactly the kind of application its
//! introduction motivates: a chain of processing stages where the programmer
//! knows which objects interact heavily and places neighbouring stages close
//! to each other (same cluster), letting only the cheap hand-off cross the
//! slow links. Used by the `pipeline_site` example and the locality
//! ablation.

use jsym_core::{encode_state, InvokeCtx, JsClass, JsError, Value};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The artifact carrying the pipeline classes.
pub const PIPELINE_ARTIFACT: &str = "pipeline-classes.jar";
/// Size of [`PIPELINE_ARTIFACT`].
pub const PIPELINE_ARTIFACT_BYTES: usize = 120_000;

/// One pipeline stage: transforms an item (modeled flops per element) and
/// forwards it to the next stage, if any.
#[derive(Debug, Serialize, Deserialize)]
pub struct Stage {
    stage_id: i64,
    flops_per_element: f64,
    next: Option<jsym_core::ObjectHandle>,
    processed: u64,
}

jsym_core::impl_state!(Stage {
    stage_id,
    flops_per_element,
    next,
    processed
});

impl Stage {
    /// Builds a stage from `[stage_id, flops_per_element, next_handle?]`.
    pub fn from_args(args: &[Value]) -> Self {
        Stage {
            stage_id: args.first().and_then(Value::as_i64).unwrap_or(0),
            flops_per_element: args.get(1).and_then(Value::as_f64).unwrap_or(1000.0),
            next: args.get(2).and_then(Value::as_handle),
            processed: 0,
        }
    }
}

impl JsClass for Stage {
    fn class_name(&self) -> &str {
        "Stage"
    }

    fn invoke(
        &mut self,
        method: &str,
        args: &[Value],
        ctx: &mut InvokeCtx<'_>,
    ) -> jsym_core::Result<Value> {
        match method {
            // process(item) → transformed item after the whole downstream
            // chain has run (synchronous hand-off).
            "process" => {
                let item = args
                    .first()
                    .and_then(Value::as_floats)
                    .ok_or_else(|| JsError::BadArguments("process(floats)".into()))?;
                ctx.compute(self.flops_per_element * item.len() as f64);
                // The "transformation": stage id stamped into the data so
                // tests can check ordering.
                let out: Vec<f32> = item
                    .iter()
                    .map(|v| v * 0.5 + self.stage_id as f32)
                    .collect();
                self.processed += 1;
                let out = Value::F32Vec(Arc::new(out));
                match self.next {
                    Some(next) => ctx.invoke(next, "process", &[out]),
                    None => Ok(out),
                }
            }
            "processed" => Ok(Value::I64(self.processed as i64)),
            "set_next" => {
                self.next = args.first().and_then(Value::as_handle);
                Ok(Value::Null)
            }
            _ => Err(JsError::NoSuchMethod {
                class: "Stage".into(),
                method: method.to_owned(),
            }),
        }
    }

    fn snapshot(&self) -> jsym_core::Result<Vec<u8>> {
        encode_state(self)
    }
}

/// Registers the pipeline classes with a deployment.
pub fn register_pipeline_classes(deployment: &jsym_core::Deployment) {
    deployment
        .classes()
        .register_class::<Stage, _>("Stage", Some(PIPELINE_ARTIFACT), |args| {
            Ok(Stage::from_args(args))
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_parses_args() {
        let s = Stage::from_args(&[Value::I64(3), Value::F64(500.0)]);
        assert_eq!(s.stage_id, 3);
        assert_eq!(s.flops_per_element, 500.0);
        assert!(s.next.is_none());
        assert_eq!(s.processed, 0);
    }
}
