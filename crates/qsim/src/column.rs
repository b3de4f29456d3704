//! Sparse single-column simulation: the exact-check engine.
//!
//! Two verifier questions need single columns `C|x⟩` of a circuit, not
//! the whole unitary: the dense tier compares two circuits column by
//! column, and the ZX tier's witness replay needs one diagonal entry
//! `⟨x|M|x⟩` of a miter. A dense statevector answers both by pushing
//! all `2ⁿ` amplitudes through every gate. But a column usually has
//! tiny support: permutation gates (X/CX/CCX/MCX/SWAP) move amplitudes
//! around, diagonal gates (Z/S/T/Rz/P and their controlled forms) only
//! rotate phases, and each branching gate (H/Sx/Rx/Ry/U, …) at most
//! doubles the number of non-zero amplitudes — and interference shrinks
//! it again. Sampled columns of the compiled Table I circuits peak at
//! 4–8 live amplitudes (rd84: 8 of 4096).
//!
//! [`SparseColumn`] exploits that: its state is a support map from `u64`
//! basis index to [`C64`]. A [`ColumnProgram`] lowers a circuit once to
//! single-target ops, so a check that runs many columns pays for the
//! lowering once. Two rules keep the map small and the result sound:
//!
//! * **Pruning.** An amplitude with `|a|² < 10⁻²⁶` is
//!   dropped (this is what removes the cancelled branches). Each op's
//!   dropped vector is orthogonal to what it keeps, and later gates are
//!   unitary, so the sum over ops of the dropped `ℓ₂` norms bounds
//!   `‖exact − kept‖₂`. [`SparseColumn::error_bound`] reports that sum,
//!   and callers charge it against their tolerance. Floating-point
//!   rounding is not part of the bound; the statevector path shares it.
//! * **Budget.** A column whose support would pass its budget fails
//!   with the typed [`SimError::SupportBudgetExceeded`] instead of
//!   growing without bound; the caller falls back to a statevector or
//!   reports the replay as infeasible.
//!
//! The width cap is [`MAX_COLUMN_QUBITS`] = 63: the only hard limit is
//! `u64` basis-index addressing, not memory.
//!
//! # Example
//!
//! ```
//! use qcir::Circuit;
//! use qsim::column::{ColumnProgram, SparseColumn};
//!
//! // A 40-qubit miter: a statevector is hopeless, the column keeps one
//! // amplitude.
//! let mut m = Circuit::new(40);
//! m.x(35).cx(35, 7).x(35).t(7);
//! let program = ColumnProgram::new(&m)?;
//! let mut column = SparseColumn::new(16);
//! column.run(&program, 0)?;
//! assert_eq!(column.support(), 1);
//! assert!(column.amplitude(0).abs() < 1e-12); // |0…0⟩ maps to |1₇⟩
//! assert!((column.amplitude(1 << 7).arg() - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
//! assert_eq!(column.error_bound(), 0.0);
//! # Ok::<(), qsim::SimError>(())
//! ```

use crate::complex::C64;
use crate::error::SimError;
use crate::matrix::gate_matrix;
use qcir::{Circuit, Gate, Instruction};

static COLUMN_RUNS: qobs::Counter = qobs::Counter::new("qsim.column.runs");
static COLUMN_OPS: qobs::Counter = qobs::Counter::new("qsim.column.ops");
static COLUMN_BUDGET_TRIPS: qobs::Counter = qobs::Counter::new("qsim.column.budget_trips");

/// Hard width cap for sparse columns: `u64` basis indices address at
/// most 63-qubit registers (the dense pairing key shifts an index left
/// by one bit). Feasibility below the cap is governed by the support
/// budget, not width.
pub const MAX_COLUMN_QUBITS: u32 = 63;

/// Amplitudes with `|a|²` below this are pruned (`|a| < 10⁻¹³`). Exact
/// cancellation leaves residues near `10⁻¹⁷`; a genuine amplitude this
/// small could not move any verdict at the verifier's `ε = 10⁻⁹`, and
/// the pruned norm is tracked anyway.
const PRUNE_NORM_SQR: f64 = 1e-26;

/// Largest support budget [`support_budget`] hands out: 2¹⁶ entries
/// (1.5 MiB), the bound for registers past every statevector.
pub const MAX_SUPPORT_BUDGET: usize = 1 << 16;

/// The support budget for an `n`-qubit column: `2ⁿ⁻⁴` live amplitudes,
/// clamped to `[2⁴, MAX_SUPPORT_BUDGET]`. It sits near the support at
/// which one sparse run costs as much as one statevector run of the
/// same circuit, so a budget trip wastes at most about one statevector
/// run before a caller falls back to one. Measured on a 2-vCPU x86
/// host (release build, two statevector workers) with an H layer on
/// `k` wires and then 200 random H/Sx/T/S/Rz/CX gates on them, the
/// sparse/statevector time ratio was 0.81 at support 256 and 1.51 at
/// 512 for 12 qubits (budget 256), and 0.68 at 16,384 and 1.94 at
/// 65,536 for 20 qubits (budget 65,536). Permutation and diagonal
/// gates cost the map less than this mix, which moves the crossover up.
pub fn support_budget(num_qubits: u32) -> usize {
    (1usize << num_qubits.saturating_sub(4).max(4)).min(MAX_SUPPORT_BUDGET)
}

/// The 2×2 action class of a lowered gate on its target qubit.
enum Kind {
    /// Diagonal: `amp(x) *= d[x_t]`. Never changes support.
    Diag([C64; 2]),
    /// Antidiagonal: `new(x_t=0) = a[0]·old(x_t=1)`,
    /// `new(x_t=1) = a[1]·old(x_t=0)`. Permutes support.
    Anti([C64; 2]),
    /// Full 2×2 — the only class that can double support.
    Dense([[C64; 2]; 2]),
}

/// A gate lowered to (control mask, target, 2×2 class) over full-width
/// `u64` basis indices.
struct Op {
    ctrl: u64,
    target: u32,
    kind: Kind,
}

fn classify(gate: &Gate) -> Kind {
    let m = gate_matrix(gate);
    debug_assert_eq!(m.dim(), 2, "classify is for single-qubit gates");
    let (a, b) = (m.get(0, 0), m.get(0, 1));
    let (c, d) = (m.get(1, 0), m.get(1, 1));
    if b == C64::ZERO && c == C64::ZERO {
        Kind::Diag([a, d])
    } else if a == C64::ZERO && d == C64::ZERO {
        Kind::Anti([b, c])
    } else {
        Kind::Dense([[a, b], [c, d]])
    }
}

fn cx_op(control: u32, target: u32) -> Op {
    Op {
        ctrl: 1u64 << control,
        target,
        kind: Kind::Anti([C64::ONE, C64::ONE]),
    }
}

/// Lowers one instruction to a sequence of [`Op`]s. Multi-target gates
/// decompose into CX conjugations so every op has exactly one target.
fn lower(inst: &Instruction) -> Vec<Op> {
    let q = |k: usize| inst.qubits()[k].index() as u32;
    match inst.gate() {
        Gate::I => vec![],
        // SWAP(a,b) = CX(a,b)·CX(b,a)·CX(a,b).
        Gate::Swap => vec![cx_op(q(0), q(1)), cx_op(q(1), q(0)), cx_op(q(0), q(1))],
        // Fredkin(c; a,b) = CX(b,a)·CCX(c,a,b)·CX(b,a).
        Gate::CSwap => vec![
            cx_op(q(2), q(1)),
            Op {
                ctrl: (1u64 << q(0)) | (1u64 << q(1)),
                target: q(2),
                kind: Kind::Anti([C64::ONE, C64::ONE]),
            },
            cx_op(q(2), q(1)),
        ],
        Gate::CCX => vec![Op {
            ctrl: (1u64 << q(0)) | (1u64 << q(1)),
            target: q(2),
            kind: Kind::Anti([C64::ONE, C64::ONE]),
        }],
        Gate::Mcx(_) => {
            let qs = inst.qubits();
            let (controls, target) = qs.split_at(qs.len() - 1);
            let ctrl = controls
                .iter()
                .fold(0u64, |m, qubit| m | (1u64 << qubit.index()));
            vec![Op {
                ctrl,
                target: target[0].index() as u32,
                kind: Kind::Anti([C64::ONE, C64::ONE]),
            }]
        }
        Gate::CX => vec![cx_op(q(0), q(1))],
        Gate::CY => vec![Op {
            ctrl: 1u64 << q(0),
            target: q(1),
            kind: classify(&Gate::Y),
        }],
        Gate::CZ => vec![Op {
            ctrl: 1u64 << q(0),
            target: q(1),
            kind: classify(&Gate::Z),
        }],
        Gate::CH => vec![Op {
            ctrl: 1u64 << q(0),
            target: q(1),
            kind: classify(&Gate::H),
        }],
        Gate::CP(a) => vec![Op {
            ctrl: 1u64 << q(0),
            target: q(1),
            kind: classify(&Gate::P(*a)),
        }],
        Gate::CRz(a) => vec![Op {
            ctrl: 1u64 << q(0),
            target: q(1),
            kind: classify(&Gate::Rz(*a)),
        }],
        single => vec![Op {
            ctrl: 0,
            target: q(0),
            kind: classify(single),
        }],
    }
}

/// A circuit lowered once to single-target ops over `u64` basis
/// indices, ready to run from any number of basis inputs.
pub struct ColumnProgram {
    num_qubits: u32,
    ops: Vec<Op>,
}

impl ColumnProgram {
    /// Lowers `circuit`.
    ///
    /// # Errors
    ///
    /// [`SimError::TooManyQubits`] past [`MAX_COLUMN_QUBITS`].
    pub fn new(circuit: &Circuit) -> Result<Self, SimError> {
        let num_qubits = circuit.num_qubits();
        if num_qubits > MAX_COLUMN_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
                max: MAX_COLUMN_QUBITS,
            });
        }
        Ok(ColumnProgram {
            num_qubits,
            ops: circuit.iter().flat_map(lower).collect(),
        })
    }
}

/// One column `C|x⟩` as a support map, reusable across runs so a
/// column-by-column check allocates once. See the module docs for the
/// pruning and budget rules.
#[derive(Debug)]
pub struct SparseColumn {
    max_support: usize,
    /// `(basis index, amplitude)`, sorted by index after every run.
    entries: Vec<(u64, C64)>,
    scratch: Vec<(u64, C64)>,
    error_bound: f64,
}

impl SparseColumn {
    /// An empty column that fails any run whose support would pass
    /// `max_support` amplitudes (at least 1).
    pub fn new(max_support: usize) -> Self {
        SparseColumn {
            max_support: max_support.max(1),
            entries: Vec::new(),
            scratch: Vec::new(),
            error_bound: 0.0,
        }
    }

    /// Resets the column to `|input⟩` and applies `program`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidState`] if `input` does not fit the register;
    /// [`SimError::SupportBudgetExceeded`] when the support passes the
    /// budget. After an error the column contents are unspecified.
    pub fn run(&mut self, program: &ColumnProgram, input: u64) -> Result<(), SimError> {
        let n = program.num_qubits;
        if input >> n != 0 {
            return Err(SimError::InvalidState(format!(
                "basis index {input:#b} does not fit {n} qubits"
            )));
        }
        COLUMN_RUNS.incr();
        COLUMN_OPS.add(program.ops.len() as u64);
        self.entries.clear();
        self.entries.push((input, C64::ONE));
        self.error_bound = 0.0;
        for op in &program.ops {
            self.apply(op)?;
        }
        self.entries.sort_unstable_by_key(|&(index, _)| index);
        Ok(())
    }

    /// The amplitude at basis index `index` (zero off the support).
    pub fn amplitude(&self, index: u64) -> C64 {
        match self.entries.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(k) => self.entries[k].1,
            Err(_) => C64::ZERO,
        }
    }

    /// `⟨self|other⟩`, a merge over the two sorted supports.
    pub fn inner(&self, other: &SparseColumn) -> C64 {
        let (mut j, mut sum) = (0, C64::ZERO);
        for &(index, a) in &self.entries {
            while j < other.entries.len() && other.entries[j].0 < index {
                j += 1;
            }
            if j < other.entries.len() && other.entries[j].0 == index {
                sum += a.conj() * other.entries[j].1;
            }
        }
        sum
    }

    /// Upper bound on `‖exact column − kept column‖₂` from pruning: the
    /// sum over ops of the `ℓ₂` norm each op dropped.
    pub fn error_bound(&self) -> f64 {
        self.error_bound
    }

    /// Live amplitudes after the last run.
    pub fn support(&self) -> usize {
        self.entries.len()
    }

    fn apply(&mut self, op: &Op) -> Result<(), SimError> {
        let (ctrl, bit) = (op.ctrl, 1u64 << op.target);
        match &op.kind {
            Kind::Diag(d) => {
                for (index, amp) in &mut self.entries {
                    if *index & ctrl == ctrl {
                        *amp *= d[(*index & bit != 0) as usize];
                    }
                }
            }
            Kind::Anti(a) => {
                // A permutation of the support: partners swap places.
                for (index, amp) in &mut self.entries {
                    if *index & ctrl == ctrl {
                        *amp *= a[(*index & bit == 0) as usize];
                        *index ^= bit;
                    }
                }
            }
            Kind::Dense(m) => self.apply_dense(ctrl, bit, m)?,
        }
        Ok(())
    }

    /// The one support-changing op: pairs each controlled entry with its
    /// partner across the target bit, mixes the pair, and prunes.
    fn apply_dense(&mut self, ctrl: u64, bit: u64, m: &[[C64; 2]; 2]) -> Result<(), SimError> {
        if self.entries.len() > 1 {
            // Partners sort next to each other, the target-clear one
            // first: the target bit becomes the lowest key bit.
            self.entries.sort_unstable_by_key(|&(index, _)| {
                (index & !bit) << 1 | (index & bit != 0) as u64
            });
        }
        let entries = &self.entries;
        let out = &mut self.scratch;
        out.clear();
        let mut dropped = 0.0;
        let mut k = 0;
        while k < entries.len() {
            let (index, amp) = entries[k];
            k += 1;
            if index & ctrl != ctrl {
                out.push((index, amp));
                continue;
            }
            let (x, y) = if index & bit != 0 {
                (C64::ZERO, amp)
            } else if k < entries.len() && entries[k].0 == index | bit {
                k += 1;
                (amp, entries[k - 1].1)
            } else {
                (amp, C64::ZERO)
            };
            let low = index & !bit;
            for (i, a) in [
                (low, m[0][0] * x + m[0][1] * y),
                (low | bit, m[1][0] * x + m[1][1] * y),
            ] {
                let p = a.norm_sqr();
                if p < PRUNE_NORM_SQR {
                    dropped += p;
                } else {
                    out.push((i, a));
                }
            }
        }
        std::mem::swap(&mut self.entries, &mut self.scratch);
        if dropped > 0.0 {
            self.error_bound += dropped.sqrt();
        }
        let support = self.entries.len();
        if support > self.max_support {
            COLUMN_BUDGET_TRIPS.incr();
            return Err(SimError::SupportBudgetExceeded {
                support,
                max: self.max_support,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::Statevector;

    fn mixed_circuit(n: u32, seed: u64) -> Circuit {
        // Deterministic gate soup covering every lowering class,
        // including controlled and multi-target forms.
        let mut c = Circuit::new(n);
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        for _ in 0..24 {
            let a = (next() % n as u64) as u32;
            let b = (next() % n as u64) as u32;
            match next() % 10 {
                0 => {
                    c.h(a);
                }
                1 => {
                    c.t(a);
                }
                2 => {
                    c.x(a);
                }
                3 => {
                    c.rz(0.37, a);
                }
                4 if a != b => {
                    c.cx(a, b);
                }
                5 if a != b => {
                    c.swap(a, b);
                }
                6 if a != b => {
                    c.cp(0.81, a, b);
                }
                7 => {
                    c.sx(a);
                }
                8 if a != b => {
                    c.ch(a, b);
                }
                _ => {
                    c.sdg(a);
                }
            }
        }
        c
    }

    fn run(circuit: &Circuit, input: u64) -> SparseColumn {
        let mut column = SparseColumn::new(MAX_SUPPORT_BUDGET);
        column
            .run(&ColumnProgram::new(circuit).unwrap(), input)
            .unwrap();
        column
    }

    fn assert_matches_statevector(circuit: &Circuit, input: u64) {
        let n = circuit.num_qubits();
        let mut sv = Statevector::basis(n, input as usize).unwrap();
        sv.apply_circuit(circuit).unwrap();
        let column = run(circuit, input);
        for index in 0..1u64 << n {
            let dense = sv.amplitudes()[index as usize];
            let sparse = column.amplitude(index);
            assert!(
                dense.approx_eq(sparse, 1e-10),
                "input={input} index={index}: dense {dense:?} vs sparse {sparse:?}"
            );
        }
    }

    #[test]
    fn column_agrees_with_dense_statevector() {
        for n in [4u32, 6, 8] {
            for seed in 0..4u64 {
                assert_matches_statevector(&mixed_circuit(n, seed ^ 0x9E37), seed % (1 << n));
            }
        }
    }

    #[test]
    fn full_support_h_ladder_stays_correct() {
        // H on every wire drives the support to all 2⁸ indices; the
        // second ladder interferes it back down.
        let n = 8u32;
        let mut circuit = Circuit::new(n);
        for q in 0..n {
            circuit.h(q);
        }
        circuit.t(7);
        for q in 0..n {
            circuit.h(q);
        }
        assert_matches_statevector(&circuit, 0);
        assert_eq!(run(&circuit, 0).support(), 2, "only wire 7 keeps a branch");
    }

    #[test]
    fn inner_product_matches_statevector() {
        let (a, b) = (mixed_circuit(6, 3), mixed_circuit(6, 4));
        for input in [0u64, 5, 63] {
            let mut sa = Statevector::basis(6, input as usize).unwrap();
            sa.apply_circuit(&a).unwrap();
            let mut sb = Statevector::basis(6, input as usize).unwrap();
            sb.apply_circuit(&b).unwrap();
            let sparse = run(&a, input).inner(&run(&b, input));
            assert!(sparse.approx_eq(sa.inner(&sb), 1e-10), "input {input}");
        }
    }

    #[test]
    fn cancelled_branches_are_pruned_into_the_error_bound() {
        // H·H is the identity, but the two paths to |1⟩ cancel only up
        // to rounding; the residue is pruned and charged to the bound.
        let mut c = Circuit::new(3);
        c.h(1).rz(0.3, 1).h(1).h(1).rz(-0.3, 1).h(1);
        let column = run(&c, 0);
        assert_eq!(column.support(), 1);
        assert!(column.amplitude(0).approx_eq(C64::ONE, 1e-12));
        assert!(column.error_bound() < 1e-12, "{}", column.error_bound());
    }

    #[test]
    fn wide_permutation_keeps_unit_support() {
        // 50-qubit reversible logic never branches the column.
        let mut c = Circuit::new(50);
        c.x(0)
            .cx(0, 45)
            .ccx(0, 45, 30)
            .swap(30, 3)
            .mcx(&[0, 3, 45], 49);
        c.cswap(0, 45, 49);
        let column = run(&c, 0);
        assert_eq!(column.support(), 1);
        // Follow the bit with the independent classical evaluator.
        let expected = revlib_free_eval(&c);
        assert!(column.amplitude(expected).approx_eq(C64::ONE, 1e-12));
    }

    /// Local classical evaluation (qsim cannot depend on revlib).
    fn revlib_free_eval(c: &Circuit) -> u64 {
        let mut s = 0u64;
        for inst in c.iter() {
            let q: Vec<u32> = inst.qubits().iter().map(|x| x.index() as u32).collect();
            let bit = |s: u64, i: u32| s >> i & 1 == 1;
            match inst.gate() {
                Gate::X => s ^= 1 << q[0],
                Gate::CX => {
                    if bit(s, q[0]) {
                        s ^= 1 << q[1]
                    }
                }
                Gate::CCX => {
                    if bit(s, q[0]) && bit(s, q[1]) {
                        s ^= 1 << q[2]
                    }
                }
                Gate::Mcx(_) => {
                    let (ctrl, t) = q.split_at(q.len() - 1);
                    if ctrl.iter().all(|&i| bit(s, i)) {
                        s ^= 1 << t[0]
                    }
                }
                Gate::Swap => {
                    if bit(s, q[0]) != bit(s, q[1]) {
                        s ^= (1 << q[0]) | (1 << q[1])
                    }
                }
                Gate::CSwap => {
                    if bit(s, q[0]) && bit(s, q[1]) != bit(s, q[2]) {
                        s ^= (1 << q[1]) | (1 << q[2])
                    }
                }
                other => panic!("non-classical gate {other}"),
            }
        }
        s
    }

    #[test]
    fn diagonal_gates_only_rotate_phase() {
        let mut c = Circuit::new(40);
        c.t(39).rz(0.25, 20).cp(0.5, 0, 39);
        let input = (1u64 << 39) | 1;
        let column = run(&c, input);
        assert_eq!(column.support(), 1);
        let amp = column.amplitude(input);
        // t(39) ⇒ π/4, rz(0.25; 20) on a clear bit ⇒ −0.125,
        // cp(0.5; 0,39) ⇒ 0.5 (both control and target set).
        let expected = std::f64::consts::FRAC_PI_4 - 0.125 + 0.5;
        assert!((amp.abs() - 1.0).abs() < 1e-12);
        assert!((amp.arg() - expected).abs() < 1e-12, "arg {}", amp.arg());
    }

    #[test]
    fn support_budget_is_a_typed_error() {
        let mut c = Circuit::new(30);
        for q in 15..25 {
            c.h(q); // 10 branchings ⇒ 2^10 amplitudes
        }
        let mut column = SparseColumn::new(8);
        let err = column.run(&ColumnProgram::new(&c).unwrap(), 0).unwrap_err();
        assert_eq!(
            err,
            SimError::SupportBudgetExceeded {
                support: 16,
                max: 8
            }
        );
    }

    #[test]
    fn support_budget_scales_with_width() {
        assert_eq!(support_budget(2), 16);
        assert_eq!(support_budget(12), 256);
        assert_eq!(support_budget(20), MAX_SUPPORT_BUDGET);
        assert_eq!(support_budget(63), MAX_SUPPORT_BUDGET);
    }

    #[test]
    fn width_cap_is_enforced() {
        let Err(err) = ColumnProgram::new(&Circuit::new(MAX_COLUMN_QUBITS + 1)) else {
            panic!("the width cap must be enforced");
        };
        assert_eq!(
            err,
            SimError::TooManyQubits {
                requested: MAX_COLUMN_QUBITS + 1,
                max: MAX_COLUMN_QUBITS,
            }
        );
        // And the cap itself is fine, even on the top wire.
        let mut c = Circuit::new(MAX_COLUMN_QUBITS);
        c.x(62).cx(62, 0).h(62);
        let column = run(&c, 0);
        assert!(column.amplitude(0).abs() < 1e-12);
        assert!((column.amplitude(1 | 1 << 62).abs() - 0.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn bad_basis_index_is_rejected() {
        let program = ColumnProgram::new(&Circuit::new(4)).unwrap();
        let mut column = SparseColumn::new(16);
        assert!(matches!(
            column.run(&program, 0b10000),
            Err(SimError::InvalidState(_))
        ));
        column.run(&program, 0b1001).unwrap();
        assert_eq!(column.amplitude(1 << 10), C64::ZERO);
    }
}
