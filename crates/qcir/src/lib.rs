//! # qcir — quantum circuit intermediate representation
//!
//! This crate is the foundation of the TetrisLock reproduction: a small,
//! dependency-light IR for gate-level quantum circuits.
//!
//! It provides:
//!
//! * [`Gate`] — the gate set used by the RevLib benchmarks and the
//!   TetrisLock obfuscator (Pauli, Hadamard, phase, rotation, controlled and
//!   multi-controlled gates), with exact adjoints via [`Gate::adjoint`].
//! * [`Circuit`] — an ordered list of [`Instruction`]s over `n` qubits with a
//!   fluent builder API, structural helpers and [`Circuit::inverse`].
//! * [`BasisBits`] — limb-backed computational-basis states for registers
//!   wider than a `u64` index (witness replay at 64+ wires).
//! * [`dag`] — a dependency DAG over instructions with ASAP layering, the
//!   basis for depth computation and TetrisLock's empty-slot analysis.
//! * [`persist`] — versioned, checksummed binary persistence for any
//!   serde-encodable type (the batch service's checkpoint envelope).
//! * [`qasm`] — OpenQASM 2.0 emission and a parser for the subset this
//!   workspace produces.
//! * [`real`] — a parser/writer for the RevLib `.real` reversible-circuit
//!   format used by the paper's benchmark suite.
//! * [`display`] — ASCII rendering of circuits (used to reproduce the look of
//!   the paper's Figures 2 and 3 in the examples).
//!
//! # Example
//!
//! ```
//! use qcir::{Circuit, Gate};
//!
//! let mut bell = Circuit::new(2);
//! bell.h(0).cx(0, 1);
//! assert_eq!(bell.depth(), 2);
//! assert_eq!(bell.gate_count(), 2);
//!
//! // The inverse circuit undoes the Bell preparation.
//! let inv = bell.inverse();
//! assert_eq!(inv.instruction(0).unwrap().gate(), &Gate::CX);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bits;
pub mod circuit;
pub mod dag;
pub mod display;
pub mod error;
pub mod gate;
pub mod persist;
pub mod qasm;
pub mod qubit;
pub mod random;
pub mod real;
pub mod stats;

pub use bits::BasisBits;
pub use circuit::{Circuit, Instruction};
pub use dag::{CircuitDag, Layer};
pub use error::CircuitError;
pub use gate::Gate;
pub use qubit::Qubit;
