//! De-obfuscation: recombining split-compiled segments (§IV-B).
//!
//! The designer, holding the wire maps, concatenates the compiled
//! segments back onto the original register. Because every segment is
//! a per-wire interval of the obfuscated circuit, concatenating them in
//! order reproduces `R⁻¹RC = C` exactly; the `R` halves cancel against
//! their `R⁻¹` partners without any extra correction circuit — this is
//! the paper's "eliminating redundancies" step.
//!
//! Every recombination — raw or compiled, two-way or `k`-way, library,
//! batch job or CLI — is [`concatenate`], after [`assign_ancillas`]
//! when the segments went through a compiler.

use crate::error::LockError;
use crate::interlock::SplitPair;
use qcir::{Circuit, Qubit};
use std::collections::BTreeMap;

/// A segment circuit with the map from its wires to register wires.
pub type Placement<'a> = (&'a Circuit, BTreeMap<Qubit, Qubit>);

/// Remaps each segment through its map and concatenates the segments,
/// in order, onto a fresh `num_qubits`-wire circuit named `name`.
///
/// # Errors
///
/// Returns [`LockError::Recombine`] if a segment uses a wire its map
/// does not cover, or maps a wire past the register.
pub fn concatenate(
    name: &str,
    num_qubits: u32,
    segments: &[Placement<'_>],
) -> Result<Circuit, LockError> {
    let mut out = Circuit::with_name(num_qubits, name);
    for (circuit, map) in segments {
        for inst in circuit.iter() {
            let mapped = inst
                .remapped(map)
                .map_err(|e| LockError::Recombine(e.to_string()))?;
            out.push(mapped)
                .map_err(|e| LockError::Recombine(e.to_string()))?;
        }
    }
    Ok(out)
}

/// Gives every wire of a compiled segment that its map does not cover
/// (the compiler's routing ancillas) a fresh register wire past
/// `register`: the first segment's ancillas first, each segment's in
/// wire order. Returns the widened register size.
pub fn assign_ancillas(register: u32, segments: &mut [Placement<'_>]) -> u32 {
    let mut next = register;
    for (circuit, map) in segments.iter_mut() {
        for w in 0..circuit.num_qubits() {
            map.entry(Qubit::new(w)).or_insert_with(|| {
                let fresh = next;
                next += 1;
                Qubit::new(fresh)
            });
        }
    }
    next
}

/// Recombines a split back into a circuit over the original register.
///
/// # Errors
///
/// Returns [`LockError::Recombine`] if a segment references a wire that
/// its map does not cover.
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use qverify::Verifier;
/// use tetrislock::{Obfuscator, recombine::recombine};
///
/// let mut c = Circuit::new(4);
/// c.h(0).cx(0, 1).cx(1, 2).cx(0, 1);
/// let obf = Obfuscator::new().with_seed(3).obfuscate(&c);
/// let split = obf.split(9);
/// let restored = recombine(&split)?;
/// assert!(Verifier::new().check(&c, &restored).is_equivalent());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn recombine(split: &SplitPair) -> Result<Circuit, LockError> {
    let _span = qobs::span("core.recombine").attr("wires", split.original_qubits);
    concatenate(
        "recombined",
        split.original_qubits,
        &[split.left.placement(), split.right.placement()],
    )
}

/// Recombines independently *compiled* segments. Each segment comes
/// with the map from its wires to the `num_qubits`-wire register: the
/// split's inverse wire map, with the compiler's ancillas given fresh
/// wires by [`assign_ancillas`].
///
/// # Errors
///
/// Returns [`LockError::Recombine`] on incomplete maps or register
/// overflow.
pub fn recombine_compiled(
    num_qubits: u32,
    segments: &[Placement<'_>],
) -> Result<Circuit, LockError> {
    let _span = qobs::span("core.recombine_compiled")
        .attr("wires", num_qubits)
        .attr("segments", segments.len())
        .attr(
            "gates",
            segments.iter().map(|(c, _)| c.gate_count()).sum::<usize>(),
        );
    concatenate("recombined_compiled", num_qubits, segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obfuscate::Obfuscator;
    use qverify::Verifier;

    fn sample() -> Circuit {
        let mut c = Circuit::with_name(5, "rt");
        c.h(0).cx(0, 1).ccx(1, 2, 3).cx(3, 4).x(2).cx(0, 1);
        c
    }

    #[test]
    fn recombined_split_equals_original() {
        let verifier = Verifier::new();
        for seed in 0..15 {
            let c = sample();
            let obf = Obfuscator::new().with_seed(seed).obfuscate(&c);
            let split = obf.split(seed ^ 0xDEAD);
            let restored = recombine(&split).unwrap();
            assert!(verifier.check(&c, &restored).is_equivalent(), "seed {seed}");
        }
    }

    #[test]
    fn recombined_gate_count_matches_obfuscated() {
        let c = sample();
        let obf = Obfuscator::new().with_seed(4).obfuscate(&c);
        let split = obf.split(2);
        let restored = recombine(&split).unwrap();
        assert_eq!(restored.gate_count(), obf.obfuscated().gate_count());
        assert_eq!(restored.num_qubits(), c.num_qubits());
    }

    #[test]
    fn recombine_compiled_maps_wires() {
        // Identity maps → plain concatenation.
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cx(0, 1);
        let map: BTreeMap<Qubit, Qubit> = (0..2).map(|i| (Qubit::new(i), Qubit::new(i))).collect();
        let joined = recombine_compiled(2, &[(&a, map.clone()), (&b, map)]).unwrap();
        assert_eq!(joined.gate_count(), 2);

        // Unmapped wires become ancillas past the register, first
        // segment first.
        let a = Circuit::new(3);
        let b = Circuit::new(2);
        let map: BTreeMap<Qubit, Qubit> = [(Qubit::new(0), Qubit::new(1))].into();
        let mut segments = [(&a, map.clone()), (&b, map)];
        assert_eq!(assign_ancillas(2, &mut segments), 5);
        let wires = |m: &BTreeMap<Qubit, Qubit>| m.values().map(|q| q.raw()).collect::<Vec<_>>();
        assert_eq!(wires(&segments[0].1), [1, 2, 3]);
        assert_eq!(wires(&segments[1].1), [1, 4]);
    }

    #[test]
    fn recombine_compiled_rejects_missing_wire() {
        let mut a = Circuit::new(2);
        a.h(1);
        let b = Circuit::new(1);
        assert!(matches!(
            recombine_compiled(2, &[(&a, BTreeMap::new()), (&b, BTreeMap::new())]),
            Err(LockError::Recombine(_))
        ));
    }

    #[test]
    fn recombine_compiled_rejects_overflow() {
        let mut a = Circuit::new(2);
        a.h(0);
        let bad: BTreeMap<Qubit, Qubit> = [(Qubit::new(0), Qubit::new(9))].into();
        let b = Circuit::new(1);
        assert!(recombine_compiled(2, &[(&a, bad.clone()), (&b, bad)]).is_err());
    }
}
