//! Quickstart: synthesise a multi-controlled Toffoli gate on qudits and
//! verify it with the bundled simulator.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qudit_core::Dimension;
use qudit_sim::equivalence::{verify_mct_exhaustive, MctSpec};
use qudit_sim::SimBackend;
use qudit_synthesis::KToffoli;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Odd dimension: ancilla-free (Theorem III.6) -----------------------
    let d3 = Dimension::new(3)?;
    let odd = KToffoli::new(d3, 4)?.synthesize()?;
    println!("4-controlled Toffoli on qutrits (d = 3):");
    println!(
        "  layout:      {} qudits, borrowed ancillas: {:?}",
        odd.layout().width,
        odd.layout().borrowed_ancilla
    );
    println!("  macro gates: {}", odd.resources().macro_gates);
    println!("  G-gates:     {}", odd.resources().g_gates);

    // Verify the construction exhaustively against its specification.
    let spec = MctSpec::toffoli(odd.layout().controls.clone(), odd.layout().target);
    let verdict = verify_mct_exhaustive(odd.circuit(), &spec, SimBackend::Auto)?;
    println!("  verified:    {}", verdict.is_pass());
    assert!(verdict.is_pass());

    // --- Even dimension: one borrowed ancilla (Theorem III.2) --------------
    let d4 = Dimension::new(4)?;
    let even = KToffoli::new(d4, 4)?.synthesize()?;
    println!("\n4-controlled Toffoli on ququarts (d = 4):");
    println!(
        "  layout:      {} qudits, borrowed ancilla: {:?}",
        even.layout().width,
        even.layout().borrowed_ancilla
    );
    println!("  G-gates:     {}", even.resources().g_gates);
    let spec = MctSpec::toffoli(even.layout().controls.clone(), even.layout().target);
    let verdict = verify_mct_exhaustive(even.circuit(), &spec, SimBackend::Auto)?;
    println!("  verified:    {}", verdict.is_pass());
    assert!(verdict.is_pass());

    // --- Linearity of the gate count (the headline claim) ------------------
    println!("\nG-gate count vs. number of controls (d = 3):");
    for k in [2usize, 4, 8, 16] {
        let synthesis = KToffoli::new(d3, k)?.synthesize()?;
        println!(
            "  k = {k:2}: {:6} G-gates ({:.1} per control)",
            synthesis.resources().g_gates,
            synthesis.resources().g_gates as f64 / k as f64
        );
    }

    // --- The compilation pipeline ------------------------------------------
    // The full paper flow (macro -> fusion -> elementary -> G-gates ->
    // cancellation) runs as a PassManager pipeline with per-pass statistics.
    println!("\nStandard pipeline on the 4-controlled Toffoli (d = 3):");
    let report = odd.compile()?;
    for stats in &report.stats {
        println!("  {stats}");
    }
    println!("  optimised: {} G-gates", report.circuit.len());
    Ok(())
}
