//! The macro-gate lowering pass.
//!
//! The paper compiles a multi-controlled gate in stages: synthesis emits a
//! *macro circuit* (gates with at most two controls), which is lowered to
//! *elementary gates* (at most one control) with the Fig. 2 / Fig. 5
//! gadgets, then to the *G-gate set* `{Xij} ∪ {|0⟩-X01}`, and finally
//! cleaned up by inverse-pair cancellation:
//!
//! ```text
//!   macro circuit ──lower-to-elementary──▶ elementary ──lower-to-g-gates──▶
//!   G-gates ──cancel-inverse-pairs──▶ optimised G-gates
//! ```
//!
//! [`LowerToElementary`] wraps [`crate::lower::lower_to_elementary`] as a
//! [`qudit_core::pipeline::Pass`]; it is registered as the
//! `lower-to-elementary` stage of [`crate::compiler::registry`].  The other
//! stages live in [`qudit_core::pipeline`], and
//! [`CompileOptions`](crate::compiler::CompileOptions) assembles them into a
//! flow.

use qudit_core::cache::CacheCounters;
use qudit_core::pipeline::{Pass, PassContext};
use qudit_core::{Circuit, QuditError};

use crate::error::SynthesisError;
use crate::lower;

/// Converts a synthesis error into the core error type used by passes.
pub(crate) fn pass_error(pass: &str, error: SynthesisError) -> QuditError {
    match error {
        SynthesisError::Core(e) => e,
        other => QuditError::PassFailed {
            pass: pass.to_string(),
            reason: other.to_string(),
        },
    }
}

/// Pass lowering macro gates (two controls, value-controlled shifts) to
/// elementary gates with at most one control
/// (wraps [`crate::lower::lower_to_elementary`]).
///
/// Like `LowerToGGates`, the pass is cache-aware: with a lowering cache in
/// the run's [`PassContext`] every gadget expansion is computed once per
/// `(gate kind, dimension, width-class)`, with exactly the uncached output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowerToElementary;

impl Pass for LowerToElementary {
    fn name(&self) -> &str {
        "lower-to-elementary"
    }

    fn run(&self, circuit: Circuit) -> qudit_core::Result<Circuit> {
        lower::lower_to_elementary(&circuit).map_err(|e| pass_error(self.name(), e))
    }

    fn run_with(&self, circuit: Circuit, ctx: &mut PassContext) -> qudit_core::Result<Circuit> {
        let Some(cache) = ctx.cache().cloned() else {
            return self.run(circuit);
        };
        let mut counters = CacheCounters::default();
        let out = lower::lower_to_elementary_cached(&circuit, &cache, &mut counters)
            .map_err(|e| pass_error(self.name(), e))?;
        ctx.record(counters);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::CompileOptions;
    use qudit_core::{Circuit, Control, Dimension, Gate, QuditError, QuditId, SingleQuditOp};

    #[test]
    fn synthesis_errors_surface_as_pass_errors() {
        // A three-controlled gate cannot be lowered directly.
        let d = Dimension::new(3).unwrap();
        let mut circuit = Circuit::new(d, 4);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Swap(0, 1),
                QuditId::new(3),
                vec![
                    Control::zero(QuditId::new(0)),
                    Control::zero(QuditId::new(1)),
                    Control::zero(QuditId::new(2)),
                ],
            ))
            .unwrap();
        let result = CompileOptions::new().compiler().compile(&circuit);
        assert!(matches!(result, Err(QuditError::PassFailed { .. })));
    }
}
