//! Resource accounting for synthesised circuits.
//!
//! [`Resources::for_circuit`] counts without building the lowered circuits:
//! both lowering stages work gate by gate, and a macro gate's counts depend
//! only on its kind (operation, control predicates, dimension and
//! [`WidthClass`]), not on which wires it uses.  So each kind is lowered
//! once per call and its counts are summed for every gate of that kind.

use std::collections::HashMap;
use std::fmt;

use qudit_core::cache::{CacheKey, CanonicalSite, LoweringStage, WidthClass};
use qudit_core::lowering::lower_gate;
use qudit_core::pipeline::Pass;
use qudit_core::{AncillaUsage, Circuit, Dimension, Gate};

use crate::error::{Result, SynthesisError};
use crate::lower::lower_macro_gate;
use crate::pipeline::{pass_error, LowerToElementary};

/// Gate and ancilla counts of a synthesis, at the three circuit levels used
/// by the evaluation:
///
/// * **macro gates** — the gates emitted by the constructions (at most two
///   controls each);
/// * **elementary gates** — after expanding two-controlled gates with the
///   Fig. 2 / Fig. 5 gadgets (every gate touches at most two qudits);
/// * **G-gates** — after conjugating every controlled gate to `|0⟩-X01`
///   (the paper's elementary gate set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resources {
    /// Number of qudits in the circuit, including ancillas.
    pub width: usize,
    /// Number of macro gates (each with at most two controls).
    pub macro_gates: usize,
    /// Number of elementary gates (at most one control each).
    pub elementary_gates: usize,
    /// Number of elementary gates that touch exactly two qudits.
    pub two_qudit_gates: usize,
    /// Number of G-gates after full lowering.
    pub g_gates: usize,
    /// Ancillas used by the synthesis, by kind.
    pub ancillas: AncillaUsage,
}

/// The lowered counts of one macro gate.
#[derive(Debug, Clone, Copy)]
struct GateCost {
    elementary: usize,
    two_qudit: usize,
    g_gates: usize,
}

impl GateCost {
    /// Lowers `gate` through both stages and counts the output.
    ///
    /// An elementary-stage error is returned as the outer error.  A G-stage
    /// error is the inner one, because the staged compile reports it only
    /// when no gate of the circuit fails the elementary stage.
    fn of(gate: &Gate, dimension: Dimension, width: usize) -> Result<qudit_core::Result<GateCost>> {
        let elementary = lower_macro_gate(gate, dimension, width)
            .map_err(|e| SynthesisError::from(pass_error(LowerToElementary.name(), e)))?;
        let g_gates: qudit_core::Result<usize> = elementary
            .iter()
            .map(|g| lower_gate(g, dimension).map(|lowered| lowered.len()))
            .sum();
        Ok(g_gates.map(|g_gates| GateCost {
            elementary: elementary.len(),
            two_qudit: elementary.iter().filter(|g| g.arity() == 2).count(),
            g_gates,
        }))
    }
}

impl Resources {
    /// Computes the resources of a macro circuit.
    ///
    /// The counts equal those of an [`OptLevel::O0`](crate::OptLevel::O0)
    /// compile (the first stage's output for the elementary levels, the
    /// final circuit for the G-gates), but no lowered circuit is built:
    /// each gate kind is lowered once and its counts are memoised by the
    /// lowering cache's key.
    ///
    /// # Errors
    ///
    /// Returns the error the `O0` compile returns: for a gate the
    /// constructions cannot lower (three or more controls, an even-`d`
    /// two-controlled gate with no free wire), or for a general unitary
    /// gate, which has no G-gate expansion (use
    /// [`Resources::for_macro_only`] for those circuits).
    pub fn for_circuit(circuit: &Circuit, ancillas: AncillaUsage) -> Result<Self> {
        let (dimension, width) = (circuit.dimension(), circuit.width());
        let mut memo: HashMap<CacheKey, GateCost> = HashMap::new();
        let mut resources = Resources::for_macro_only(circuit, ancillas);
        let mut g_error = None;
        for gate in circuit.gates() {
            // General unitaries have no key and are never memoised.
            let site = CanonicalSite::of(
                LoweringStage::Elementary,
                gate,
                dimension,
                WidthClass::of(width),
                &[],
            );
            let cost = match site.as_ref().and_then(|site| memo.get(site.key())) {
                Some(cost) => *cost,
                None => match GateCost::of(gate, dimension, width)? {
                    Ok(cost) => {
                        if let Some(site) = site {
                            memo.insert(site.key().clone(), cost);
                        }
                        cost
                    }
                    Err(error) => {
                        g_error.get_or_insert(error);
                        continue;
                    }
                },
            };
            resources.elementary_gates += cost.elementary;
            resources.two_qudit_gates += cost.two_qudit;
            resources.g_gates += cost.g_gates;
        }
        match g_error {
            Some(error) => Err(SynthesisError::from(error)),
            None => Ok(resources),
        }
    }

    /// Computes macro-level resources only, for circuits containing general
    /// unitary gates (which cannot be lowered to G-gates).
    pub fn for_macro_only(circuit: &Circuit, ancillas: AncillaUsage) -> Self {
        Resources {
            width: circuit.width(),
            macro_gates: circuit.len(),
            elementary_gates: 0,
            two_qudit_gates: 0,
            g_gates: 0,
            ancillas,
        }
    }

    /// Total number of ancilla qudits.
    pub fn total_ancillas(&self) -> usize {
        self.ancillas.total()
    }

    /// Number of borrowed ancillas (the headline metric of the paper).
    pub fn borrowed_ancillas(&self) -> usize {
        self.ancillas.borrowed
    }

    /// Number of clean ancillas.
    pub fn clean_ancillas(&self) -> usize {
        self.ancillas.clean
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "width={}, macro={}, elementary={}, two-qudit={}, G-gates={}, ancillas: {}",
            self.width,
            self.macro_gates,
            self.elementary_gates,
            self.two_qudit_gates,
            self.g_gates,
            self.ancillas
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_core::{AncillaKind, Control, Dimension, Gate, QuditId, SingleQuditOp};

    #[test]
    fn resources_count_all_levels() {
        let d = Dimension::new(3).unwrap();
        let mut circuit = Circuit::new(d, 3);
        circuit
            .push(Gate::controlled(
                SingleQuditOp::Swap(0, 1),
                QuditId::new(2),
                vec![
                    Control::zero(QuditId::new(0)),
                    Control::zero(QuditId::new(1)),
                ],
            ))
            .unwrap();
        let resources =
            Resources::for_circuit(&circuit, AncillaUsage::of_kind(AncillaKind::Borrowed, 0))
                .unwrap();
        assert_eq!(resources.macro_gates, 1);
        assert_eq!(resources.elementary_gates, 5); // the Fig. 5 gadget
        assert!(resources.g_gates >= resources.elementary_gates);
        assert_eq!(resources.width, 3);
        assert_eq!(resources.borrowed_ancillas(), 0);
        assert!(resources.to_string().contains("G-gates"));
    }

    #[test]
    fn macro_only_resources_skip_lowering() {
        let d = Dimension::new(3).unwrap();
        let circuit = Circuit::new(d, 2);
        let resources =
            Resources::for_macro_only(&circuit, AncillaUsage::of_kind(AncillaKind::Clean, 1));
        assert_eq!(resources.g_gates, 0);
        assert_eq!(resources.clean_ancillas(), 1);
        assert_eq!(resources.total_ancillas(), 1);
    }
}
