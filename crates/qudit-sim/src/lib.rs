//! Simulation substrate for the *Optimal Synthesis of Multi-Controlled Qudit
//! Gates* reproduction.
//!
//! The crate provides:
//!
//! * [`basis`] — mixed-radix indexing of computational basis states;
//! * [`PermutationSimulator`] and [`permutation_sim`] — fast classical
//!   simulation of the permutation circuits produced by the synthesis
//!   algorithms, plus full permutation-table extraction;
//! * [`StateVector`] and [`statevector`] — state-vector simulation supporting
//!   arbitrary controlled unitaries (the scalar reference walk);
//! * [`FusedProgram`] and [`dense`] — the cache-blocked dense engine: gate
//!   fusion, split-complex panel kernels and pool-parallel block dispatch,
//!   exact (`==`-equal) against the reference walk;
//! * [`SparseState`], [`SimState`] and [`sparse`] — the sparse amplitude-map
//!   engine with a classical-gate fast path in `O(nnz)`, the hybrid
//!   sparse-then-dense engine behind it, and the [`SimBackend`] dispatch
//!   (`Dense | Sparse | Auto`) that picks an engine per circuit via a
//!   classicality scan;
//! * [`equivalence`] — specification checkers for multi-controlled gates with
//!   borrowed- or clean-ancilla semantics, and unitary equivalence up to
//!   global phase;
//! * [`pipeline`] — the [`VerifyEquivalence`] pass wrapper that makes any
//!   compilation pipeline self-check semantics preservation after each stage;
//! * [`stabilizer`] — the generalised-Pauli tableau engine for prime
//!   dimensions: Clifford gate classification, exact tableau equivalence up
//!   to global phase, and `O(n³)` basis-probability queries at widths far
//!   beyond dense reach ([`SimBackend::Stabilizer`]);
//! * [`random`] — random unitaries, permutations, reversible functions and
//!   Clifford circuits for workloads.
//!
//! # Example
//!
//! ```
//! use qudit_core::{Circuit, Control, Dimension, Gate, QuditId, SingleQuditOp};
//! use qudit_sim::equivalence::{verify_mct_exhaustive, MctSpec};
//! use qudit_sim::SimBackend;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let d = Dimension::new(3)?;
//! let mut circuit = Circuit::new(d, 2);
//! circuit.push(Gate::controlled(
//!     SingleQuditOp::Swap(0, 1),
//!     QuditId::new(1),
//!     vec![Control::zero(QuditId::new(0))],
//! ))?;
//! let spec = MctSpec::toffoli(vec![QuditId::new(0)], QuditId::new(1));
//! assert!(verify_mct_exhaustive(&circuit, &spec, SimBackend::Auto)?.is_pass());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod basis;
pub mod dense;
pub mod equivalence;
pub mod permutation_sim;
pub mod pipeline;
pub mod random;
mod sampling;
pub mod sparse;
pub mod stabilizer;
pub mod statevector;

pub use dense::FusedProgram;
pub use equivalence::{MctSpec, Verification};
pub use permutation_sim::{circuit_permutation, classical_circuits_equal, PermutationSimulator};
pub use pipeline::VerifyEquivalence;
pub use sparse::{
    circuit_unitary_with, classical_prefix_len, simulate_basis, SimBackend, SimState, SparseState,
};
pub use stabilizer::{
    classify_gate, clifford_circuits_equal, is_clifford_circuit, is_clifford_gate, CliffordTableau,
    StabilizerState,
};
pub use statevector::{circuit_unitary, StateVector};
