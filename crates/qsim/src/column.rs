//! Sparse single-column simulation: the exact-check engine.
//!
//! The verifier's exact column check needs single columns `C|x⟩` of a
//! circuit, not the whole unitary: the dense tier and the ZX tier's
//! witness replay both judge diagonal entries `⟨x|M|x⟩` of a miter
//! `M = C₂†C₁`, one basis input at a time. A dense statevector answers
//! that by pushing all `2ⁿ` amplitudes through every gate. But a column usually has
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
//! # Blocks
//!
//! A check that runs many columns can [fuse](ColumnProgram::fuse) its
//! program: consecutive ops are grouped, in program order, into blocks
//! of at most [`fusion_width`] wires (`min(5, n − 3)`, so only registers
//! of 6 or more wires fuse), and each block is stored as the sparse
//! columns of its exact `2ᵏ×2ᵏ` local matrix. The build simulates the
//! block's ops on each of the `2ᵏ` local inputs and drops only exact
//! zeros. A run then groups the column's entries by their bits outside
//! the block and multiplies each group by the block's columns, so
//! rd84's restored miter (2,306 ops) runs as 15 block steps. An op on
//! more wires than the block width stays a single per-op step between
//! blocks.
//! The rules above move to block boundaries: a block prunes its outputs
//! once, by the same rule, and adds its dropped norm to the bound once
//! (the block is the unitary step of the orthogonality argument), and
//! the budget is checked after every block.
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
//! let mut program = ColumnProgram::new(&m)?;
//! let mut column = SparseColumn::new(16);
//! column.run(&program, 0)?;
//! assert_eq!(column.support(), 1);
//! assert!(column.amplitude(0).abs() < 1e-12); // |0…0⟩ maps to |1₇⟩
//! assert!((column.amplitude(1 << 7).arg() - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
//! assert_eq!(column.error_bound(), 0.0);
//! // The fused program runs the same column as two blocks.
//! assert!(program.fuse());
//! column.run(&program, 0)?;
//! assert!((column.amplitude(1 << 7).arg() - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
//! # Ok::<(), qsim::SimError>(())
//! ```

use crate::complex::C64;
use crate::error::SimError;
use crate::matrix::single_qubit_matrix;
use qcir::{Circuit, Gate, Instruction};

static COLUMN_RUNS: qobs::Counter = qobs::Counter::new("qsim.column.runs");
static COLUMN_OPS: qobs::Counter = qobs::Counter::new("qsim.column.ops");
static COLUMN_BUDGET_TRIPS: qobs::Counter = qobs::Counter::new("qsim.column.budget_trips");
static COLUMN_FUSIONS: qobs::Counter = qobs::Counter::new("qsim.column.fusions");
static COLUMN_BLOCKS: qobs::Counter = qobs::Counter::new("qsim.column.blocks");

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

/// Widest block a fused program builds: a block's local matrix has at
/// most `2⁵ = 32` columns.
const MAX_BLOCK_WIRES: u32 = 5;

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

/// The block width `w = min(5, n − 3)` of a fused `n`-qubit program, or
/// `None` when `w < 3` (fewer than 6 wires): such a register does not
/// fuse. Building a block simulates its `2ʷ` local columns, and
/// `2ʷ ≤ 2ⁿ/8` keeps that small next to the `2ⁿ`-column walk it
/// shortens; a caller that fuses after `2ʷ` columns pays at most about
/// what it has already spent.
pub fn fusion_width(num_qubits: u32) -> Option<u32> {
    let w = MAX_BLOCK_WIRES.min(num_qubits.saturating_sub(3));
    (w >= 3).then_some(w)
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

impl Op {
    /// The bits of every wire the op reads or writes.
    fn wires(&self) -> u64 {
        self.ctrl | 1u64 << self.target
    }
}

fn classify(gate: &Gate) -> Kind {
    let [[a, b], [c, d]] = single_qubit_matrix(gate).expect("classify is for single-qubit gates");
    if b == C64::ZERO && c == C64::ZERO {
        Kind::Diag([a, d])
    } else if a == C64::ZERO && d == C64::ZERO {
        Kind::Anti([b, c])
    } else {
        Kind::Dense([[a, b], [c, d]])
    }
}

/// An X on `target` under the control mask `ctrl`.
fn x_op(ctrl: u64, target: u32) -> Op {
    Op {
        ctrl,
        target,
        kind: Kind::Anti([C64::ONE, C64::ONE]),
    }
}

/// Lowers one instruction onto `ops`. Multi-target gates decompose into
/// CX conjugations so every op has exactly one target.
fn lower(inst: &Instruction, ops: &mut Vec<Op>) {
    let q = |k: usize| inst.qubits()[k].index() as u32;
    let controlled = |gate: &Gate| Op {
        ctrl: 1u64 << q(0),
        target: q(1),
        kind: classify(gate),
    };
    match inst.gate() {
        Gate::I => {}
        // SWAP(a,b) = CX(a,b)·CX(b,a)·CX(a,b).
        Gate::Swap => {
            let (a, b) = (q(0), q(1));
            ops.extend([x_op(1 << a, b), x_op(1 << b, a), x_op(1 << a, b)]);
        }
        // Fredkin(c; a,b) = CX(b,a)·CCX(c,a,b)·CX(b,a).
        Gate::CSwap => {
            let (c, a, b) = (q(0), q(1), q(2));
            ops.extend([x_op(1 << b, a), x_op(1 << c | 1 << a, b), x_op(1 << b, a)]);
        }
        Gate::CX | Gate::CCX | Gate::Mcx(_) => {
            let qs = inst.qubits();
            let (controls, target) = qs.split_at(qs.len() - 1);
            let ctrl = controls
                .iter()
                .fold(0u64, |m, qubit| m | (1u64 << qubit.index()));
            ops.push(x_op(ctrl, target[0].index() as u32));
        }
        Gate::CY => ops.push(controlled(&Gate::Y)),
        Gate::CZ => ops.push(controlled(&Gate::Z)),
        Gate::CH => ops.push(controlled(&Gate::H)),
        Gate::CP(a) => ops.push(controlled(&Gate::P(*a))),
        Gate::CRz(a) => ops.push(controlled(&Gate::Rz(*a))),
        single => ops.push(Op {
            ctrl: 0,
            target: q(0),
            kind: classify(single),
        }),
    }
}

/// A run of consecutive ops on at most [`MAX_BLOCK_WIRES`] wires, stored
/// as the sparse columns of its exact local matrix.
struct Block {
    /// The block's wires as global index bits.
    mask: u64,
    /// The block's wires in ascending order: local bit `j` is global
    /// bit `wires[j]`.
    wires: Vec<u32>,
    /// `spread[row]`: the global index bits of local index `row`.
    spread: Vec<u64>,
    /// Column `l` of the local matrix is `entries[starts[l]..starts[l + 1]]`.
    starts: Vec<usize>,
    /// `(local row, value)`, exact zeros dropped.
    entries: Vec<(u32, C64)>,
}

impl Block {
    /// The local matrix of `ops`, which touch only the wires in `mask`.
    /// Column `l` is a run of `ops` from the basis input whose block
    /// wires spell `l` and whose other bits are clear, on a column that
    /// prunes nothing; only exact zeros are dropped.
    fn new(ops: &[Op], mask: u64) -> Block {
        let wires: Vec<u32> = (0..64).filter(|&q| mask >> q & 1 == 1).collect();
        let spread: Vec<u64> = (0..1u64 << wires.len())
            .map(|row| {
                (0..)
                    .zip(&wires)
                    .fold(0, |bits, (j, &q)| bits | (row >> j & 1) << q)
            })
            .collect();
        let mut column = SparseColumn {
            prune_below: 0.0,
            ..SparseColumn::new(spread.len())
        };
        let mut starts = Vec::with_capacity(spread.len() + 1);
        let mut entries = Vec::new();
        for &input in &spread {
            starts.push(entries.len());
            column.entries.clear();
            column.entries.push((input, C64::ONE));
            for op in ops {
                column
                    .apply(op)
                    .expect("a block column has at most one entry per local row");
            }
            entries.extend(
                column
                    .entries
                    .iter()
                    .filter(|&&(_, a)| a != C64::ZERO)
                    .map(|&(index, a)| (gather(index, &wires) as u32, a)),
            );
        }
        starts.push(entries.len());
        Block {
            mask,
            wires,
            spread,
            starts,
            entries,
        }
    }

    /// The local column the global basis index `index` selects.
    fn column(&self, index: u64) -> &[(u32, C64)] {
        let l = gather(index, &self.wires);
        &self.entries[self.starts[l]..self.starts[l + 1]]
    }
}

/// The local index of `index` on `wires`: bit `j` is `index`'s bit
/// `wires[j]`.
fn gather(index: u64, wires: &[u32]) -> usize {
    (0..)
        .zip(wires)
        .fold(0, |l, (j, &q)| l | ((index >> q & 1) as usize) << j)
}

/// One step of a fused program.
enum Step {
    /// `ops[k]`, wider than the block width, applied on its own.
    Op(usize),
    Block(Block),
}

/// Groups `ops` in program order into blocks of at most `width` wires.
fn fuse_ops(ops: &[Op], width: u32) -> Vec<Step> {
    let mut steps = Vec::new();
    let (mut start, mut mask) = (0, 0u64);
    for (k, op) in ops.iter().enumerate() {
        if (mask | op.wires()).count_ones() <= width {
            mask |= op.wires();
            continue;
        }
        if start < k {
            steps.push(Step::Block(Block::new(&ops[start..k], mask)));
        }
        if op.wires().count_ones() > width {
            steps.push(Step::Op(k));
            (start, mask) = (k + 1, 0);
        } else {
            (start, mask) = (k, op.wires());
        }
    }
    if start < ops.len() {
        steps.push(Step::Block(Block::new(&ops[start..], mask)));
    }
    steps
}

/// A circuit lowered once to single-target ops over `u64` basis
/// indices, ready to run from any number of basis inputs.
pub struct ColumnProgram {
    num_qubits: u32,
    ops: Vec<Op>,
    /// The fused form of `ops`, once [`ColumnProgram::fuse`] built it.
    fused: Option<Vec<Step>>,
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
        let mut ops = Vec::with_capacity(circuit.gate_count());
        for inst in circuit.iter() {
            lower(inst, &mut ops);
        }
        Ok(ColumnProgram {
            num_qubits,
            ops,
            fused: None,
        })
    }

    /// Switches later runs to blocks of at most
    /// [`fusion_width`] wires (see the module docs), building them on
    /// the first call. Returns whether the program is fused: a register
    /// of fewer than 6 wires never is.
    pub fn fuse(&mut self) -> bool {
        let Some(width) = fusion_width(self.num_qubits) else {
            return false;
        };
        if self.fused.is_none() {
            let span = qobs::span("qsim.column.fuse")
                .attr("wires", u64::from(width))
                .attr("ops", self.ops.len() as u64);
            let steps = fuse_ops(&self.ops, width);
            let blocks = steps.iter().filter(|s| matches!(s, Step::Block(_))).count();
            let _span = span.attr("blocks", blocks as u64);
            COLUMN_FUSIONS.incr();
            self.fused = Some(steps);
        }
        true
    }

    /// Whether [`ColumnProgram::fuse`] has built the fused form.
    pub fn is_fused(&self) -> bool {
        self.fused.is_some()
    }
}

/// One column `C|x⟩` as a support map, reusable across runs so a
/// column-by-column check allocates once. See the module docs for the
/// pruning and budget rules.
#[derive(Debug)]
pub struct SparseColumn {
    max_support: usize,
    /// Amplitudes with `|a|²` below this are dropped after a
    /// support-changing step: [`PRUNE_NORM_SQR`], or `0` while a block
    /// builds its exact local columns.
    prune_below: f64,
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
            prune_below: PRUNE_NORM_SQR,
            entries: Vec::new(),
            scratch: Vec::new(),
            error_bound: 0.0,
        }
    }

    /// Resets the column to `|input⟩` and applies `program`, block by
    /// block once it is fused.
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
        match &program.fused {
            None => {
                for op in &program.ops {
                    self.apply(op)?;
                }
            }
            Some(steps) => {
                for step in steps {
                    match step {
                        Step::Op(k) => self.apply(&program.ops[*k])?,
                        Step::Block(block) => {
                            COLUMN_BLOCKS.incr();
                            self.apply_block(block)?;
                        }
                    }
                }
            }
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

    /// Upper bound on `‖exact column − kept column‖₂` from pruning: the
    /// sum over ops (or blocks) of the `ℓ₂` norm each one dropped.
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
                if p < self.prune_below {
                    dropped += p;
                } else {
                    out.push((i, a));
                }
            }
        }
        self.settle(dropped)
    }

    /// Applies a block: entries that differ only on the block's wires
    /// form one group, each group is multiplied by the block's local
    /// columns, and the outputs are pruned once.
    fn apply_block(&mut self, block: &Block) -> Result<(), SimError> {
        let outer = |index: u64| index & !block.mask;
        if self.entries.len() > 1 {
            self.entries
                .sort_unstable_by_key(|&(index, _)| outer(index));
        }
        let out = &mut self.scratch;
        out.clear();
        let mut sums = [C64::ZERO; 1 << MAX_BLOCK_WIRES];
        let mut dropped = 0.0;
        for group in self.entries.chunk_by(|a, b| outer(a.0) == outer(b.0)) {
            // Bit `row` is set once local row `row` has a sum.
            let mut rows = 0u32;
            for &(index, amp) in group {
                for &(row, value) in block.column(index) {
                    sums[row as usize] += value * amp;
                    rows |= 1 << row;
                }
            }
            let base = outer(group[0].0);
            while rows != 0 {
                let row = rows.trailing_zeros() as usize;
                rows &= rows - 1;
                let a = std::mem::replace(&mut sums[row], C64::ZERO);
                let p = a.norm_sqr();
                if p < self.prune_below {
                    dropped += p;
                } else {
                    out.push((base | block.spread[row], a));
                }
            }
        }
        self.settle(dropped)
    }

    /// Ends a support-changing step whose output is in `scratch`:
    /// charges the norm it pruned to the bound and checks the budget.
    fn settle(&mut self, dropped: f64) -> Result<(), SimError> {
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

    /// `mixed_circuit` plus the lowering classes it lacks: controlled
    /// diagonals, Y/CY, CCX, CSWAP and, from 8 wires on, an MCX with 7
    /// controls, wider than any block.
    fn fusion_circuit(n: u32, seed: u64) -> Circuit {
        let mut c = mixed_circuit(n, seed);
        let w = |k: u32| (seed as u32 + k) % n;
        c.cz(w(0), w(3))
            .crz(0.7, w(5), w(1))
            .y(w(2))
            .cy(w(4), w(0))
            .ccx(w(3), w(0), w(4))
            .cswap(w(1), w(2), w(5))
            .cp(1.1, w(2), w(4));
        if n >= 8 {
            c.mcx(&(0..7).map(w).collect::<Vec<_>>(), w(7));
        }
        c.extend(mixed_circuit(n, seed ^ 0x51).iter().cloned());
        c
    }

    #[test]
    fn fused_program_matches_the_per_op_program() {
        for n in [6u32, 7, 9, 12, 14] {
            for seed in 0..3u64 {
                let c = fusion_circuit(n, seed);
                let per_op = ColumnProgram::new(&c).unwrap();
                let mut fused = ColumnProgram::new(&c).unwrap();
                assert!(fused.fuse() && fused.is_fused() && !per_op.is_fused());
                let steps = fused.fused.as_ref().unwrap();
                assert_eq!(
                    steps.iter().any(|s| matches!(s, Step::Op(_))),
                    n >= 8,
                    "only the 8-wire MCX is wider than a block"
                );
                let (mut a, mut b) = (
                    SparseColumn::new(MAX_SUPPORT_BUDGET),
                    SparseColumn::new(MAX_SUPPORT_BUDGET),
                );
                for input in [0, 1, (1 << n) - 1, seed.wrapping_mul(0x9E37) % (1 << n)] {
                    a.run(&per_op, input).unwrap();
                    b.run(&fused, input).unwrap();
                    assert_eq!(a.support(), b.support(), "n={n} seed={seed} input={input}");
                    for &(index, amp) in &a.entries {
                        assert!(
                            amp.approx_eq(b.amplitude(index), 1e-12),
                            "n={n} seed={seed} input={input} index={index}"
                        );
                    }
                    assert!(b.error_bound() <= 1e-12, "{}", b.error_bound());
                }
            }
        }
    }

    #[test]
    fn fused_blocks_prune_cancelled_branches_into_the_error_bound() {
        // The cancelling H·Rz·H pairs of the per-op test, split over
        // several blocks by CX gates to far wires.
        let mut c = Circuit::new(10);
        c.h(1).rz(0.3, 1).h(1);
        for q in [9, 8, 7, 6, 5, 5, 6, 7, 8, 9] {
            c.cx(1, q);
        }
        c.h(1).rz(-0.3, 1).h(1);
        let mut program = ColumnProgram::new(&c).unwrap();
        assert!(program.fuse());
        assert!(program.fused.as_ref().unwrap().len() > 1);
        let mut column = SparseColumn::new(MAX_SUPPORT_BUDGET);
        column.run(&program, 0).unwrap();
        assert_eq!(column.support(), 1);
        assert!(column.amplitude(0).approx_eq(C64::ONE, 1e-12));
        assert!(column.error_bound() <= 1e-12, "{}", column.error_bound());
    }

    #[test]
    fn fused_budget_trip_is_the_same_typed_error() {
        let mut c = Circuit::new(30);
        for q in 15..25 {
            c.h(q);
        }
        let mut program = ColumnProgram::new(&c).unwrap();
        assert!(program.fuse());
        // The first 5-wire block already holds 2⁵ amplitudes.
        let err = SparseColumn::new(8).run(&program, 0).unwrap_err();
        assert_eq!(
            err,
            SimError::SupportBudgetExceeded {
                support: 32,
                max: 8
            }
        );
    }

    #[test]
    fn only_registers_of_six_wires_or_more_fuse() {
        assert_eq!(fusion_width(5), None);
        assert_eq!(fusion_width(6), Some(3));
        assert_eq!(fusion_width(7), Some(4));
        assert_eq!(fusion_width(12), Some(5));
        assert_eq!(fusion_width(MAX_COLUMN_QUBITS), Some(5));
        let mut narrow = ColumnProgram::new(&mixed_circuit(5, 1)).unwrap();
        assert!(!narrow.fuse());
        assert!(!narrow.is_fused());
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
