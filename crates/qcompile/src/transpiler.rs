//! The end-to-end transpilation pipeline.
//!
//! `decompose → layout → route → basis-translate → optimize`, mirroring
//! the stages of Qiskit's preset pass managers. This is the "untrusted
//! compiler" of the paper's threat model: it sees whatever circuit it is
//! given (a split segment, in TetrisLock's flow) and produces an
//! executable, device-conformant circuit.

use crate::coupling::DistanceMap;
use crate::decompose::{decompose_to_cx, to_u_params};
use crate::error::CompileError;
use crate::euler::u_to_zsx;
use crate::layout::{greedy_layout, Layout};
use crate::optimize::{optimize, optimize_aggressive};
use crate::routing::{route, Routed};
use qcir::{Circuit, Gate, Instruction, Qubit};
use qsim::Device;

/// How hard the transpiler tries to shrink the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizationLevel {
    /// Decompose + route only.
    None,
    /// Plus inverse cancellation and rotation merging.
    #[default]
    Light,
    /// Plus single-qubit resynthesis.
    Full,
}

/// Output of [`Transpiler::transpile`].
#[derive(Debug, Clone)]
pub struct Transpiled {
    /// Device-conformant circuit over physical wires.
    pub circuit: Circuit,
    /// Logical→physical map at circuit start.
    pub initial_layout: Layout,
    /// Logical→physical map at circuit end (after routing SWAPs are
    /// absorbed; measurements of logical qubit `l` should read physical
    /// wire `final_layout.physical(l)`).
    pub final_layout: Layout,
    /// SWAPs inserted by routing.
    pub swaps_inserted: usize,
}

/// A configurable compiler targeting a [`Device`].
///
/// # Example
///
/// ```
/// use qcir::Circuit;
/// use qsim::Device;
/// use qcompile::{Transpiler, transpiler::OptimizationLevel};
///
/// let mut c = Circuit::new(3);
/// c.h(0).ccx(0, 1, 2);
/// let compiler = Transpiler::new(Device::fake_valencia())
///     .with_optimization(OptimizationLevel::Full);
/// let out = compiler.transpile(&c)?;
/// assert!(out.circuit.num_qubits() == 5);
/// # Ok::<(), qcompile::CompileError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Transpiler {
    device: Device,
    level: OptimizationLevel,
    use_greedy_layout: bool,
}

impl Transpiler {
    /// Creates a transpiler for `device` at the default (light)
    /// optimization level with greedy layout.
    pub fn new(device: Device) -> Self {
        Transpiler {
            device,
            level: OptimizationLevel::default(),
            use_greedy_layout: true,
        }
    }

    /// Sets the optimization level.
    pub fn with_optimization(mut self, level: OptimizationLevel) -> Self {
        self.level = level;
        self
    }

    /// Forces the trivial (identity) initial layout.
    pub fn with_trivial_layout(mut self) -> Self {
        self.use_greedy_layout = false;
        self
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Compiles `circuit` for the target device.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::CircuitTooLarge`] if the circuit does not
    /// fit, [`CompileError::Unroutable`] for disconnected devices, and
    /// propagates internal failures.
    pub fn transpile(&self, circuit: &Circuit) -> Result<Transpiled, CompileError> {
        if circuit.num_qubits() > self.device.num_qubits() {
            return Err(CompileError::CircuitTooLarge {
                required: circuit.num_qubits(),
                available: self.device.num_qubits(),
            });
        }
        let span = qobs::span("compile.transpile")
            .attr("circuit", circuit.name())
            .attr("wires", circuit.num_qubits())
            .attr("gates_in", circuit.gate_count());
        let distances = DistanceMap::new(&self.device)?;

        // 1. Lower to {1q, CX}.
        let mut lowered = decompose_to_cx(circuit);
        if self.level != OptimizationLevel::None {
            optimize(&mut lowered);
        }

        // 2. Initial layout.
        let layout = if self.use_greedy_layout {
            greedy_layout(&lowered, &self.device, &distances)?
        } else {
            Layout::trivial(lowered.num_qubits(), self.device.num_qubits())
        };

        // 3. Route.
        let Routed {
            circuit: routed,
            initial_layout,
            final_layout,
            swaps_inserted,
        } = route(&lowered, layout, &distances)?;

        // 4. Basis translation (SWAP → 3 CX happens here too).
        let mut physical = translate_to_basis(routed)?;

        // 5. Final cleanup.
        match self.level {
            OptimizationLevel::None => {}
            OptimizationLevel::Light => optimize(&mut physical),
            OptimizationLevel::Full => optimize_aggressive(&mut physical),
        }

        let _span = span
            .attr("gates_out", physical.gate_count())
            .attr("swaps", swaps_inserted);
        Ok(Transpiled {
            circuit: physical,
            initial_layout,
            final_layout,
            swaps_inserted,
        })
    }
}

impl Transpiled {
    /// Converts the compiled physical circuit back to the *logical* wire
    /// numbering of the input circuit:
    ///
    /// 1. appends SWAPs undoing the routing permutation (final layout →
    ///    initial layout),
    /// 2. relabels wires so logical qubit `l` is wire `l`; physical wires
    ///    hosting no logical qubit become fresh wires `n_logical..`.
    ///
    /// The result acts on `num_physical` wires but, restricted to the
    /// first `n_logical` wires (others starting in `|0⟩` and returning to
    /// `|0⟩`), implements exactly the input circuit. This is the form the
    /// TetrisLock designer needs to recombine split-compiled segments.
    ///
    /// Consumes the compilation result: every gate moves once through a
    /// relabel table indexed by physical wire, so none is cloned. A
    /// caller that still needs the [`Transpiled`] fields reads them
    /// first, or clones it.
    pub fn into_logical_circuit(self) -> Circuit {
        let Transpiled {
            circuit: mut physical,
            initial_layout,
            final_layout,
            ..
        } = self;
        let np = initial_layout.num_physical();
        let nl = initial_layout.num_logical();

        // Relabel: physical initial_layout.physical(l) → l, spares → n_l…
        // in ascending physical order.
        let mut relabel: Vec<Option<u32>> = vec![None; np as usize];
        for l in 0..nl {
            relabel[initial_layout.physical(l) as usize] = Some(l);
        }
        let mut spares = nl..;
        let relabel: Vec<u32> = relabel
            .into_iter()
            .map(|wire| wire.unwrap_or_else(|| spares.next().expect("an unbounded range")))
            .collect();

        let mut out = Circuit::with_name(np, physical.name());
        for inst in physical.take_instructions() {
            let (gate, mut qubits) = inst.into_parts();
            for q in &mut qubits {
                *q = Qubit::new(relabel[q.index()]);
            }
            out.push(Instruction::new(gate, qubits).expect("relabelling is a bijection"))
                .expect("total wire map over the physical register");
        }

        // Undo the routing permutation with SWAPs: move each logical
        // qubit from final position back to its initial position.
        let mut pos: Vec<u32> = (0..nl).map(|l| final_layout.physical(l)).collect();
        for l in 0..nl {
            let home = initial_layout.physical(l);
            let cur = pos[l as usize];
            if cur != home {
                out.swap(relabel[cur as usize], relabel[home as usize]);
                // Whatever lived at `home` moves to `cur`.
                for p in pos.iter_mut() {
                    if *p == home {
                        *p = cur;
                        break;
                    }
                }
                pos[l as usize] = home;
            }
        }
        out
    }
}

/// Rewrites every gate into the IBM native basis {RZ, SX, X, CX},
/// consuming `circuit`: gates already native move through unchanged.
///
/// # Errors
///
/// Returns [`CompileError::UnsupportedGate`] for gates that should have
/// been decomposed earlier (arity ≥ 3).
pub fn translate_to_basis(mut circuit: Circuit) -> Result<Circuit, CompileError> {
    for inst in circuit.take_instructions() {
        match inst.gate() {
            Gate::CX | Gate::X | Gate::Sx | Gate::Rz(_) => circuit.push(inst)?,
            Gate::Swap => {
                let (a, b) = (inst.qubits()[0].raw(), inst.qubits()[1].raw());
                circuit.cx(a, b).cx(b, a).cx(a, b);
            }
            g if g.arity() == 1 => {
                let (t, p, l) =
                    to_u_params(g).ok_or_else(|| CompileError::UnsupportedGate(g.to_string()))?;
                let wire = inst.qubits()[0].raw();
                for native in u_to_zsx(t, p, l) {
                    circuit.append(native, &[wire])?;
                }
            }
            g => return Err(CompileError::UnsupportedGate(g.to_string())),
        }
    }
    Ok(circuit)
}

/// Checks that `circuit` conforms to `device`: every gate is in the native
/// basis and every CX operand pair is coupled.
pub fn conforms_to_device(circuit: &Circuit, device: &Device) -> bool {
    let basis = device.basis_gates();
    for inst in circuit.iter() {
        if !basis.contains(&inst.gate().name()) {
            return false;
        }
        if inst.qubits().len() == 2 {
            let (a, b) = (inst.qubits()[0].raw(), inst.qubits()[1].raw());
            if !device.are_coupled(a, b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::statevector::Statevector;
    use qsim::Sampler;

    fn check_semantics_on_zero(logical: &Circuit, result: &Transpiled) {
        // Simulate the physical circuit, then read logical qubits through
        // the final layout and compare with the logical simulation.
        let log_sv = Statevector::from_circuit(logical).unwrap();
        let log_counts = {
            let s = Sampler::new(0);
            let _ = s; // probabilities compared directly below
            log_sv.probabilities()
        };

        let phys_sv = Statevector::from_circuit(&result.circuit).unwrap();
        let phys_probs = phys_sv.probabilities();

        // Marginalize physical probabilities onto logical wires.
        let nl = logical.num_qubits();
        let mut mapped = vec![0.0f64; 1 << nl];
        for (idx, &p) in phys_probs.iter().enumerate() {
            if p < 1e-15 {
                continue;
            }
            let mut logical_idx = 0usize;
            for l in 0..nl {
                let phys = result.final_layout.physical(l);
                if idx >> phys & 1 == 1 {
                    logical_idx |= 1 << l;
                }
            }
            mapped[logical_idx] += p;
        }
        for i in 0..1usize << nl {
            assert!(
                (mapped[i] - log_counts[i]).abs() < 1e-9,
                "probability mismatch at basis {i}: {} vs {}",
                mapped[i],
                log_counts[i]
            );
        }
    }

    #[test]
    fn transpiles_bell_to_valencia() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let t = Transpiler::new(Device::fake_valencia());
        let out = t.transpile(&c).unwrap();
        assert!(conforms_to_device(&out.circuit, t.device()));
        check_semantics_on_zero(&c, &out);
    }

    #[test]
    fn transpiles_toffoli_network() {
        let mut c = Circuit::new(4);
        c.x(0).x(1).ccx(0, 1, 2).cx(2, 3).ccx(1, 2, 3);
        let t = Transpiler::new(Device::fake_valencia());
        let out = t.transpile(&c).unwrap();
        assert!(conforms_to_device(&out.circuit, t.device()));
        check_semantics_on_zero(&c, &out);
    }

    #[test]
    fn transpiles_mcx_with_far_qubits() {
        let mut c = Circuit::new(5);
        c.x(0).x(1).x(2).x(3).mcx(&[0, 1, 2, 3], 4);
        let t = Transpiler::new(Device::fake_valencia()).with_optimization(OptimizationLevel::Full);
        let out = t.transpile(&c).unwrap();
        assert!(conforms_to_device(&out.circuit, t.device()));
        check_semantics_on_zero(&c, &out);
    }

    #[test]
    fn all_optimization_levels_preserve_semantics() {
        let mut c = Circuit::new(3);
        c.h(0).t(0).cx(0, 2).s(2).ccx(0, 1, 2).h(1);
        for level in [
            OptimizationLevel::None,
            OptimizationLevel::Light,
            OptimizationLevel::Full,
        ] {
            let t = Transpiler::new(Device::fake_valencia()).with_optimization(level);
            let out = t.transpile(&c).unwrap();
            assert!(conforms_to_device(&out.circuit, t.device()), "{level:?}");
            check_semantics_on_zero(&c, &out);
        }
    }

    #[test]
    fn full_optimization_not_larger_than_none() {
        let mut c = Circuit::new(4);
        c.h(0).h(0).ccx(0, 1, 2).swap(2, 3).ccx(0, 1, 2).x(3).x(3);
        let base = Transpiler::new(Device::fake_valencia())
            .with_optimization(OptimizationLevel::None)
            .with_trivial_layout()
            .transpile(&c)
            .unwrap();
        let opt = Transpiler::new(Device::fake_valencia())
            .with_optimization(OptimizationLevel::Full)
            .with_trivial_layout()
            .transpile(&c)
            .unwrap();
        assert!(opt.circuit.gate_count() <= base.circuit.gate_count());
    }

    #[test]
    fn rejects_oversized_circuit() {
        let c = Circuit::new(6);
        let t = Transpiler::new(Device::fake_valencia());
        assert!(matches!(
            t.transpile(&c),
            Err(CompileError::CircuitTooLarge { .. })
        ));
    }

    #[test]
    fn extended_device_hosts_12_qubits() {
        let mut c = Circuit::new(12);
        c.h(0);
        for i in 0..11 {
            c.cx(i, i + 1);
        }
        let t = Transpiler::new(Device::fake_valencia_extended(12));
        let out = t.transpile(&c).unwrap();
        assert!(conforms_to_device(&out.circuit, t.device()));
    }

    #[test]
    fn basis_translation_rejects_multiqubit_leftovers() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        assert!(matches!(
            translate_to_basis(c),
            Err(CompileError::UnsupportedGate(_))
        ));
    }

    #[test]
    fn logical_circuit_matches_input_unitary() {
        use qsim::unitary::circuit_unitary;
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 2).ccx(0, 1, 2).t(1).cx(1, 0);
        for level in [OptimizationLevel::Light, OptimizationLevel::Full] {
            let out = Transpiler::new(Device::fake_valencia())
                .with_optimization(level)
                .transpile(&c)
                .unwrap();
            let logical = out.into_logical_circuit();
            // Pad the original onto the same register and compare.
            let mut padded = Circuit::new(logical.num_qubits());
            padded.compose(&c).unwrap();
            let ua = circuit_unitary(&padded).unwrap();
            let ub = circuit_unitary(&logical).unwrap();
            assert!(
                ua.approx_eq_up_to_phase(&ub, 1e-8),
                "{level:?}: logical reconstruction diverged"
            );
        }
    }

    #[test]
    fn trivial_layout_respected() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1);
        let t = Transpiler::new(Device::fake_valencia()).with_trivial_layout();
        let out = t.transpile(&c).unwrap();
        for l in 0..3 {
            assert_eq!(out.initial_layout.physical(l), l);
        }
    }
}
