//! The miter `M = C₂†C₁` of one check, read from one place.
//!
//! Every tier asks one question of the miter: is it the identity up to
//! global phase? [`gates`] yields its gates in circuit order, `C₁ ; C₂†`
//! (`original`'s gates, then `candidate`'s reversed and adjointed), and
//! is the only code that reverses and adjoints the candidate. The
//! tableau tier compiles them into one op list, the ZX tier translates
//! them into one diagram, and [`MiterReplay::new`] cancels their
//! adjacent inverse pairs and lowers the result once.
//!
//! [`Miter`] holds a pair for one check and builds that replay on first
//! need, so the sparse dense pass, the ZX witness replay, the full dense
//! pass and the stimulus tier share one lowered miter, and a check that
//! an earlier tier decides builds none.

use crate::dense::MiterReplay;
use qcir::{Circuit, Instruction};
use qsim::SimError;
use std::borrow::Cow;

/// The gates of `C₁ ; C₂†`: `original`'s borrowed in order, then
/// `candidate`'s reversed and adjointed. Lazy, so a consumer that stops
/// early (the tableau at `original`'s first non-Clifford gate) never
/// adjoints a candidate gate.
pub(crate) fn gates<'a>(
    original: &'a Circuit,
    candidate: &'a Circuit,
) -> impl Iterator<Item = Cow<'a, Instruction>> {
    original.iter().map(Cow::Borrowed).chain(
        candidate
            .iter()
            .rev()
            .map(|inst| Cow::Owned(inst.adjoint())),
    )
}

/// One check's pair, with its [`MiterReplay`] built on first need.
pub(crate) struct Miter<'a> {
    pub(crate) original: &'a Circuit,
    pub(crate) candidate: &'a Circuit,
    replay: Option<MiterReplay>,
}

impl<'a> Miter<'a> {
    pub(crate) fn new(original: &'a Circuit, candidate: &'a Circuit) -> Self {
        Miter {
            original,
            candidate,
            replay: None,
        }
    }

    /// The miter's register width.
    pub(crate) fn num_qubits(&self) -> u32 {
        self.original.num_qubits()
    }

    /// The pair's cancelled, lowered miter, built on the first call and
    /// shared by every later one, walk progress and statevector switch
    /// included.
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] past [`qsim::MAX_COLUMN_QUBITS`].
    pub(crate) fn replay(&mut self) -> Result<&mut MiterReplay, SimError> {
        if self.replay.is_none() {
            self.replay = Some(MiterReplay::new(self.original, self.candidate)?);
        }
        Ok(self.replay.as_mut().expect("built above"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tier, Verifier, MAX_UNITARY_QUBITS};

    #[test]
    fn a_check_decided_before_any_replay_builds_none() {
        // The tableau decides a Clifford pair, and ZX reduces a
        // Clifford+T round trip past the dense cap: neither needs the
        // cancelled miter, so neither check lowers it.
        let mut clifford = Circuit::new(3);
        clifford.h(0).cx(0, 1).s(2);
        let n = MAX_UNITARY_QUBITS + 1;
        let mut clifford_t = Circuit::new(n);
        for q in 0..n - 1 {
            clifford_t.h(q).t(q).cx(q, q + 1);
        }
        let mut noisy = clifford_t.clone();
        noisy.s(4).sdg(4);
        for (a, b, tier) in [
            (&clifford, &clifford, Tier::Tableau),
            (&clifford_t, &noisy, Tier::Zx),
        ] {
            let mut miter = Miter::new(a, b);
            let report = Verifier::new().check_miter(&mut miter);
            assert_eq!(report.tier, tier);
            assert!(report.verdict.is_equivalent());
            assert!(miter.replay.is_none(), "{tier} built a replay");
        }
    }
}
