//! # tetrislock — quantum circuit split compilation with interlocking patterns
//!
//! Rust reproduction of *TetrisLock* (Wang, John, Dong, Liu — DAC 2025):
//! IP protection for quantum circuits against untrusted compilers.
//!
//! The flow (paper Figure 2):
//!
//! 1. **Obfuscate** — [`Obfuscator`] runs Algorithm 1: a random circuit
//!    `R` *and its inverse* are placed into the leading empty slots of the
//!    original circuit `C`, producing `R⁻¹RC` with **zero depth overhead**
//!    and the exact original function ([`insertion`]).
//! 2. **Split** — an [`interlock::InterlockPattern`] cuts the obfuscated
//!    circuit along a jagged, per-wire boundary into two segments with
//!    (generally) different qubit counts; every `R` gate is separated
//!    from its `R⁻¹` partner ([`interlock`]).
//! 3. **Compile** — each segment goes to a *different* untrusted compiler
//!    (see the `qcompile` crate); neither sees the whole design.
//! 4. **De-obfuscate** — the designer recombines the compiled segments;
//!    the `R`/`R⁻¹` halves cancel and functionality is restored exactly
//!    ([`recombine`]).
//!
//! Security analysis ([`attack`]) implements the paper's Eq. 1 collusion
//! complexity and the `kₙ·n!` baseline of prior cascading splits;
//! [`baselines`] implements those prior schemes for head-to-head
//! comparison.
//!
//! For many circuits at once, [`batch`] runs the whole pipeline as a
//! pool of crash-safe jobs: each [`job::JobState`] checkpoints to disk
//! after verify and at `Done` (via `qcir::persist`), and the stages
//! before verify recompute from pinned seeds, so a killed batch resumes
//! to bit-identical output. [`serve`] turns that machinery into a
//! long-running daemon: a watched intake directory, a priority queue
//! with cancellation, [`retry`]-governed backoff with a crash-loop
//! quarantine, and a graceful drain protocol.
//!
//! Equivalence claims (restoration works, wrong keys fail) are decided
//! by the tiered `qverify` engine, which scales past dense-unitary
//! extraction via a stabilizer tableau and a parallel random-stimulus
//! miter.
//!
//! # Example
//!
//! ```
//! use qcir::Circuit;
//! use qverify::Verifier;
//! use tetrislock::{Obfuscator, recombine::recombine};
//!
//! // The secret design.
//! let mut c = Circuit::new(4);
//! c.h(0).cx(0, 1).cx(1, 2).cx(0, 1);
//!
//! // Obfuscate and split with an interlocking pattern.
//! let obf = Obfuscator::new().with_seed(1).obfuscate(&c);
//! assert_eq!(obf.obfuscated().depth(), c.depth());
//! let split = obf.split(2);
//!
//! // Each segment goes to a different compiler... then recombine.
//! let restored = recombine(&split)?;
//! assert!(Verifier::new().check(&c, &restored).is_equivalent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod attack;
pub mod attack_sim;
pub mod baselines;
pub mod batch;
pub mod error;
pub mod insertion;
pub mod interlock;
pub mod job;
pub mod multiway;
pub mod obfuscate;
pub mod policy;
pub mod recombine;
pub mod retry;
pub mod serve;

pub use error::LockError;
pub use insertion::InsertionConfig;
pub use interlock::{InterlockPattern, SplitPair};
pub use obfuscate::{Obfuscation, Obfuscator};
pub use policy::GatePolicy;
