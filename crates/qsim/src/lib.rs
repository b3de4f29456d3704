//! # qsim — statevector simulation with device noise
//!
//! The simulation substrate for the TetrisLock reproduction. The paper
//! evaluates obfuscation quality by *running* circuits (Qiskit +
//! `FakeValencia`, 1000 shots) and comparing output distributions; this
//! crate provides the equivalent stack in Rust:
//!
//! * [`Statevector`] — dense pure-state simulation up to
//!   [`statevector::MAX_QUBITS`] qubits on a layered kernel engine:
//!   branch-free stride loops, diagonal/antidiagonal/permutation fast
//!   paths, single-qubit gate fusion, layer-blocked cache sweeps, and
//!   persistent-pool multi-threaded application for wide registers
//!   (see `docs/qsim.md` in the repository for the engine internals
//!   and the determinism contract).
//! * [`statevector::reference`] — the pre-engine naive full-scan loops,
//!   the one reference the kernel-equivalence suites check the engine
//!   against and the baseline its speedup is measured from.
//! * [`unitary`] — full-unitary extraction and equivalence checking used to
//!   *prove* de-obfuscation correctness in tests.
//! * [`mod@column`] — sparse single-column simulation
//!   ([`SparseColumn`]) for the verifier's column checks and witness
//!   replays: cost scales with amplitude support, not `2ⁿ`, with a
//!   tracked pruning error bound and a hard support budget.
//! * [`noise`] — stochastic Pauli + readout error model (the Monte-Carlo
//!   equivalent of Qiskit's depolarizing/readout noise).
//! * [`Device`] — backend models, including [`Device::fake_valencia`]
//!   mirroring the paper's 5-qubit backend.
//! * [`Sampler`] / [`sampler::Counts`] — shot-based execution producing
//!   Qiskit-style counts dictionaries.
//!
//! # Example
//!
//! ```
//! use qcir::Circuit;
//! use qsim::{Device, Sampler};
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//! let device = Device::fake_valencia();
//! let counts = Sampler::new(1000)
//!     .with_seed(1)
//!     .run_noisy(&c, device.noise())?;
//! assert_eq!(counts.total(), 1000);
//! # Ok::<(), qsim::SimError>(())
//! ```

// `deny`, not `forbid`: the persistent worker pool in `pool` needs one
// documented lifetime-erasure `unsafe` block (see `pool.rs` for the
// safety argument); everything else in the crate stays unsafe-free and
// any new `unsafe` outside that allow is a hard error.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod column;
pub mod complex;
pub mod device;
pub mod error;
pub(crate) mod exec;
pub(crate) mod fusion;
pub(crate) mod kernels;
pub mod matrix;
pub mod noise;
pub(crate) mod pool;
pub mod sampler;
pub mod statevector;
pub mod unitary;

pub use column::{ColumnProgram, SparseColumn, MAX_COLUMN_QUBITS};
pub use complex::C64;
pub use device::Device;
pub use error::SimError;
pub use sampler::{Counts, Sampler};
pub use statevector::{resolved_workers, Statevector};
