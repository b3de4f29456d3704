//! Differential test of the compile passes against the implementations
//! they replaced.
//!
//! `route`, `cancel_inverse_pairs`, `merge_rotations`,
//! `translate_to_basis` and `Transpiled::into_logical_circuit` were
//! rewritten to run in linear time (per-wire queues and stacks) and to
//! move gates instead of cloning them. The module `reference` keeps the
//! earlier versions verbatim, on public APIs only: `route` decides
//! readiness by scanning every earlier gate, `cancel_inverse_pairs`
//! rescans backwards after each cancellation, and every pass copies the
//! circuit. Each pass's output must equal its reference instruction for
//! instruction, and so must a whole `Transpiler::transpile` against the
//! same pipeline built from the reference passes.
//!
//! Cases: both split segments of every RevLib benchmark under several
//! insertion seeds, on the ideal, Valencia and `linear:16` devices; and
//! seeded random circuits rich in inverse pairs (a random circuit
//! followed by its inverse, interleaved with another on disjoint wires,
//! plus multi-controlled X gates and zero-sum rotations).

use qcir::random::{random_reversible, random_unitary_circuit, RandomCircuitConfig};
use qcir::{Circuit, Instruction, Qubit};
use qcompile::coupling::DistanceMap;
use qcompile::decompose::decompose_to_cx;
use qcompile::layout::{greedy_layout, Layout};
use qcompile::optimize::{cancel_inverse_pairs, merge_rotations, optimize};
use qcompile::routing::{route, Routed};
use qcompile::transpiler::translate_to_basis;
use qcompile::Transpiler;
use qsim::Device;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tetrislock::job::device_for;
use tetrislock::Obfuscator;

/// The compile passes as they were before the linear-time rewrite,
/// kept verbatim (a method became a function of `this`).
mod reference {
    use qcir::{Circuit, Gate, Instruction, Qubit};
    use qcompile::coupling::DistanceMap;
    use qcompile::decompose::{decompose_to_cx, to_u_params};
    use qcompile::euler::u_to_zsx;
    use qcompile::layout::{greedy_layout, Layout};
    use qcompile::routing::Routed;
    use qcompile::{CompileError, Transpiled};
    use qsim::Device;
    use std::f64::consts::PI;

    /// Weight of the lookahead window in the SABRE score.
    const LOOKAHEAD_WEIGHT: f64 = 0.5;
    /// Size of the lookahead window (gates beyond the front layer).
    const LOOKAHEAD_WINDOW: usize = 20;

    /// SWAP routing that decides readiness by scanning every earlier
    /// gate.
    pub fn route(
        circuit: &Circuit,
        layout: Layout,
        distances: &DistanceMap,
    ) -> Result<Routed, CompileError> {
        for inst in circuit.iter() {
            if inst.gate().arity() > 2 {
                return Err(CompileError::UnsupportedGate(format!(
                    "{} (decompose before routing)",
                    inst.gate()
                )));
            }
        }

        let num_physical = layout.num_physical();
        let mut out = Circuit::with_name(num_physical, circuit.name());
        let initial_layout = layout.clone();
        let mut layout = layout;
        let mut swaps_inserted = 0usize;

        // Remaining gates in program order; `cursor` advances as gates commit.
        let gates: Vec<&Instruction> = circuit.iter().collect();
        let mut scheduled = vec![false; gates.len()];
        let mut cursor = 0usize;

        // Per-wire program order: gate i blocks gate j>i if they share a wire.
        // A gate is "ready" when all earlier gates on its wires are scheduled.
        let last_unscheduled_before = |idx: usize, scheduled: &[bool]| -> bool {
            let qs = gates[idx].qubits();
            for j in (0..idx).rev() {
                if scheduled[j] {
                    continue;
                }
                if gates[j].qubits().iter().any(|q| qs.contains(q)) {
                    return true;
                }
            }
            false
        };

        loop {
            // Commit every ready gate that is executable under the current
            // layout.
            let mut progressed = true;
            while progressed {
                progressed = false;
                for idx in cursor..gates.len() {
                    if scheduled[idx] || last_unscheduled_before(idx, &scheduled) {
                        continue;
                    }
                    let inst = gates[idx];
                    let executable = match inst.qubits() {
                        [a, b] => {
                            let pa = layout.physical(a.raw());
                            let pb = layout.physical(b.raw());
                            distances.distance(pa, pb) == 1
                        }
                        _ => true, // single-qubit gates always execute
                    };
                    if executable {
                        let mapped: Vec<Qubit> = inst
                            .qubits()
                            .iter()
                            .map(|q| Qubit::new(layout.physical(q.raw())))
                            .collect();
                        out.push(
                            Instruction::new(inst.gate().clone(), mapped)
                                .expect("mapped instruction valid"),
                        )?;
                        scheduled[idx] = true;
                        progressed = true;
                    }
                }
                while cursor < gates.len() && scheduled[cursor] {
                    cursor += 1;
                }
            }

            if cursor >= gates.len() {
                break;
            }

            // Front layer: ready but blocked two-qubit gates.
            let front: Vec<usize> = (cursor..gates.len())
                .filter(|&idx| {
                    !scheduled[idx]
                        && gates[idx].qubits().len() == 2
                        && !last_unscheduled_before(idx, &scheduled)
                })
                .collect();
            debug_assert!(!front.is_empty(), "stalled with no blocked 2q gates");

            // Lookahead window: next unscheduled 2q gates after the front.
            let lookahead: Vec<usize> = (cursor..gates.len())
                .filter(|&idx| !scheduled[idx] && gates[idx].qubits().len() == 2)
                .take(LOOKAHEAD_WINDOW)
                .collect();

            // Candidate SWAPs: physical edges touching a front-layer operand.
            let mut candidates: Vec<(u32, u32)> = Vec::new();
            for &idx in &front {
                for q in gates[idx].qubits() {
                    let p = layout.physical(q.raw());
                    for other in 0..num_physical {
                        if other != p && distances.distance(p, other) == 1 {
                            let edge = (p.min(other), p.max(other));
                            if !candidates.contains(&edge) {
                                candidates.push(edge);
                            }
                        }
                    }
                }
            }

            let score = |layout: &Layout| -> f64 {
                let front_cost: u32 = front
                    .iter()
                    .map(|&idx| {
                        let qs = gates[idx].qubits();
                        distances
                            .distance(layout.physical(qs[0].raw()), layout.physical(qs[1].raw()))
                    })
                    .sum();
                let look_cost: u32 = lookahead
                    .iter()
                    .map(|&idx| {
                        let qs = gates[idx].qubits();
                        distances
                            .distance(layout.physical(qs[0].raw()), layout.physical(qs[1].raw()))
                    })
                    .sum();
                front_cost as f64
                    + LOOKAHEAD_WEIGHT * look_cost as f64 / lookahead.len().max(1) as f64
            };

            let mut best: Option<(f64, (u32, u32))> = None;
            for &(a, b) in &candidates {
                let mut trial = layout.clone();
                trial.swap_physical(a, b);
                let s = score(&trial);
                if best.is_none_or(|(bs, _)| s < bs) {
                    best = Some((s, (a, b)));
                }
            }
            let (_, (a, b)) = best.expect("candidate set nonempty");
            out.append(Gate::Swap, &[a, b])?;
            layout.swap_physical(a, b);
            swaps_inserted += 1;
        }

        Ok(Routed {
            circuit: out,
            initial_layout,
            final_layout: layout,
            swaps_inserted,
        })
    }

    /// Cancels adjacent inverse pairs on identical wires. Returns the number
    /// of gates removed.
    pub fn cancel_inverse_pairs(circuit: &mut Circuit) -> usize {
        let insts = circuit.instructions().to_vec();
        let n_wires = circuit.num_qubits() as usize;
        let mut keep = vec![true; insts.len()];
        // Stack of visible (not-yet-cancelled) gate indices per wire.
        let mut frontier: Vec<Option<usize>> = vec![None; n_wires];
        let mut removed = 0usize;

        for (i, inst) in insts.iter().enumerate() {
            // The candidate predecessor must be the frontier of *all* wires.
            let wires: Vec<usize> = inst.qubits().iter().map(|q| q.index()).collect();
            let prev = frontier[wires[0]];
            let same_prev = prev.is_some() && wires.iter().all(|&w| frontier[w] == prev);
            if same_prev {
                let j = prev.expect("checked is_some");
                let p = &insts[j];
                if p.qubits() == inst.qubits() && p.gate().adjoint().approx_eq(inst.gate()) {
                    keep[i] = false;
                    keep[j] = false;
                    removed += 2;
                    // Recompute frontier for the affected wires by scanning
                    // back; simple and correct.
                    for &w in &wires {
                        frontier[w] = (0..j)
                            .rev()
                            .find(|&k| keep[k] && insts[k].qubits().iter().any(|q| q.index() == w));
                    }
                    continue;
                }
            }
            for &w in &wires {
                frontier[w] = Some(i);
            }
        }

        if removed > 0 {
            let mut out = Circuit::with_name(circuit.num_qubits(), circuit.name());
            for (i, inst) in insts.into_iter().enumerate() {
                if keep[i] {
                    out.push(inst).expect("same register");
                }
            }
            *circuit = out;
        }
        removed
    }

    fn merged_rotation(a: &Gate, b: &Gate) -> Option<Gate> {
        let norm = |x: f64| {
            let tau = 2.0 * PI;
            let mut v = x % tau;
            if v > PI {
                v -= tau;
            }
            if v < -PI {
                v += tau;
            }
            v
        };
        match (a, b) {
            (Gate::Rz(x), Gate::Rz(y)) => Some(Gate::Rz(norm(x + y))),
            (Gate::Rx(x), Gate::Rx(y)) => Some(Gate::Rx(norm(x + y))),
            (Gate::Ry(x), Gate::Ry(y)) => Some(Gate::Ry(norm(x + y))),
            (Gate::P(x), Gate::P(y)) => Some(Gate::P(norm(x + y))),
            (Gate::Rz(x), Gate::P(y)) | (Gate::P(y), Gate::Rz(x)) => {
                // Differ only by global phase; merge into P.
                Some(Gate::P(norm(x + y)))
            }
            _ => None,
        }
    }

    fn is_null_rotation(g: &Gate) -> bool {
        match g {
            Gate::Rz(a) | Gate::Rx(a) | Gate::Ry(a) | Gate::P(a) => a.abs() < 1e-12,
            Gate::I => true,
            _ => false,
        }
    }

    /// Merges same-axis rotations on one wire that are adjacent in the
    /// instruction list and deletes zero rotations. Returns the number of
    /// gates eliminated. Only directly consecutive instructions merge: a
    /// gate on another wire between two rotations keeps them apart.
    pub fn merge_rotations(circuit: &mut Circuit) -> usize {
        let before = circuit.gate_count();
        let insts = circuit.instructions().to_vec();
        let mut out: Vec<Instruction> = Vec::with_capacity(insts.len());

        for inst in insts {
            if inst.gate().arity() == 1 && is_null_rotation(inst.gate()) {
                continue;
            }
            if inst.gate().arity() == 1 {
                // Merge only with the previous output instruction overall
                // (`out.last()`), not the last one on this wire.
                if let Some(last) = out.last() {
                    if last.qubits() == inst.qubits() {
                        if let Some(merged) = merged_rotation(last.gate(), inst.gate()) {
                            let wires = inst.qubits().to_vec();
                            out.pop();
                            if !is_null_rotation(&merged) {
                                out.push(
                                    Instruction::new(merged, wires).expect("1q instruction valid"),
                                );
                            }
                            continue;
                        }
                    }
                }
            }
            out.push(inst);
        }

        let removed = before - out.len();
        if removed > 0 {
            let mut c = Circuit::with_name(circuit.num_qubits(), circuit.name());
            for inst in out {
                c.push(inst).expect("same register");
            }
            *circuit = c;
        }
        removed
    }

    pub fn translate_to_basis(circuit: &Circuit) -> Result<Circuit, CompileError> {
        let mut out = Circuit::with_name(circuit.num_qubits(), circuit.name());
        for inst in circuit.iter() {
            match inst.gate() {
                Gate::CX => out.push(inst.clone())?,
                Gate::X => out.push(inst.clone())?,
                Gate::Sx => out.push(inst.clone())?,
                Gate::Rz(_) => out.push(inst.clone())?,
                Gate::Swap => {
                    let (a, b) = (inst.qubits()[0].raw(), inst.qubits()[1].raw());
                    out.cx(a, b).cx(b, a).cx(a, b);
                }
                g if g.arity() == 1 => {
                    let (t, p, l) = to_u_params(g)
                        .ok_or_else(|| CompileError::UnsupportedGate(g.to_string()))?;
                    let wire = inst.qubits()[0];
                    for native in u_to_zsx(t, p, l) {
                        out.push(
                            Instruction::new(native, vec![Qubit::new(wire.raw())])
                                .expect("1q instruction valid"),
                        )?;
                    }
                }
                g => return Err(CompileError::UnsupportedGate(g.to_string())),
            }
        }
        Ok(out)
    }

    /// `Transpiled::into_logical_circuit`: a clone, undo swaps, then a
    /// relabel through a `BTreeMap`.
    pub fn into_logical_circuit(this: &Transpiled) -> Circuit {
        let np = this.initial_layout.num_physical();
        let nl = this.initial_layout.num_logical();
        let mut out = this.circuit.clone();

        // Undo the routing permutation with SWAPs: move each logical
        // qubit from final position back to its initial position.
        let mut pos: Vec<u32> = (0..nl).map(|l| this.final_layout.physical(l)).collect();
        for l in 0..nl {
            let home = this.initial_layout.physical(l);
            let cur = pos[l as usize];
            if cur != home {
                out.swap(cur, home);
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

        // Relabel: physical initial_layout.physical(l) → l, spares → n_l…
        let mut map: std::collections::BTreeMap<Qubit, Qubit> = std::collections::BTreeMap::new();
        for l in 0..nl {
            map.insert(Qubit::new(this.initial_layout.physical(l)), Qubit::new(l));
        }
        let mut next = nl;
        for p in 0..np {
            map.entry(Qubit::new(p)).or_insert_with(|| {
                let w = next;
                next += 1;
                Qubit::new(w)
            });
        }
        out.remapped(np, &map)
            .expect("total wire map over the physical register")
    }

    /// Runs the inverse-cancellation and merge passes to fixpoint
    /// (bounded at 20 iterations).
    pub fn optimize(circuit: &mut Circuit) {
        for _ in 0..20 {
            let removed = cancel_inverse_pairs(circuit) + merge_rotations(circuit);
            if removed == 0 {
                break;
            }
        }
    }

    /// `Transpiler::new(device).transpile(circuit)` (light optimization,
    /// greedy layout) built from the reference passes.
    pub fn transpile(device: &Device, circuit: &Circuit) -> Transpiled {
        let distances = DistanceMap::new(device).expect("connected device");
        let mut lowered = decompose_to_cx(circuit);
        optimize(&mut lowered);
        let layout = greedy_layout(&lowered, device, &distances).expect("circuit fits");
        let routed = route(&lowered, layout, &distances).expect("lowered circuit routes");
        let mut physical = translate_to_basis(&routed.circuit).expect("routed gates translate");
        optimize(&mut physical);
        Transpiled {
            circuit: physical,
            initial_layout: routed.initial_layout,
            final_layout: routed.final_layout,
            swaps_inserted: routed.swaps_inserted,
        }
    }
}

/// Asserts that two circuits agree instruction for instruction, naming
/// the first instruction where they part.
fn assert_same(case: &str, pass: &str, want: &Circuit, got: &Circuit) {
    assert_eq!(
        (want.num_qubits(), want.name()),
        (got.num_qubits(), got.name()),
        "{case}: {pass} changed the register or name"
    );
    if let Some(i) = (0..want.gate_count().max(got.gate_count()))
        .find(|&i| want.instruction(i) != got.instruction(i))
    {
        panic!(
            "{case}: {pass} parts from the reference at instruction {i} of {}/{}: \
             want {:?}, got {:?}",
            want.gate_count(),
            got.gate_count(),
            want.instruction(i),
            got.instruction(i),
        );
    }
    assert_eq!(
        want.single_qubit_gate_count(),
        got.single_qubit_gate_count(),
        "{case}: {pass} miscounts single-qubit gates"
    );
}

/// Runs `circuit` through each compile pass and its reference on
/// `device`, feeding both the reference's output, then compares whole
/// transpilations and their logical-frame circuits. Returns the number
/// of SWAPs routing inserted.
fn check_passes(case: &str, circuit: &Circuit, device: &Device) -> usize {
    // Both cancellation and merging on the raw circuit (which may hold
    // multi-controlled gates), then on the lowered one.
    let lowered = decompose_to_cx(circuit);
    for (stage, input) in [("raw", circuit), ("lowered", &lowered)] {
        let (mut want, mut got) = (input.clone(), input.clone());
        let removed = (
            reference::cancel_inverse_pairs(&mut want),
            cancel_inverse_pairs(&mut got),
        );
        assert_eq!(removed.0, removed.1, "{case}: cancel on {stage} removed");
        assert_same(
            case,
            &format!("cancel_inverse_pairs ({stage})"),
            &want,
            &got,
        );
        let removed = (
            reference::merge_rotations(&mut want),
            merge_rotations(&mut got),
        );
        assert_eq!(removed.0, removed.1, "{case}: merge on {stage} removed");
        assert_same(case, &format!("merge_rotations ({stage})"), &want, &got);
    }

    let mut optimized = lowered.clone();
    reference::optimize(&mut optimized);
    let mut got = lowered;
    optimize(&mut got);
    assert_same(case, "optimize", &optimized, &got);

    let distances = DistanceMap::new(device).expect("connected device");
    let layout = greedy_layout(&optimized, device, &distances).expect("circuit fits");
    let want = reference::route(&optimized, layout.clone(), &distances).expect("routes");
    let got = route(&optimized, layout, &distances).expect("routes");
    assert_same(case, "route", &want.circuit, &got.circuit);
    assert_eq!(
        want.initial_layout, got.initial_layout,
        "{case}: route initial layout"
    );
    assert_eq!(
        want.final_layout, got.final_layout,
        "{case}: route final layout"
    );
    assert_eq!(
        want.swaps_inserted, got.swaps_inserted,
        "{case}: route swaps"
    );

    let Routed {
        circuit: routed, ..
    } = want;
    let want = reference::translate_to_basis(&routed).expect("translates");
    let got = translate_to_basis(routed).expect("translates");
    assert_same(case, "translate_to_basis", &want, &got);

    let want = reference::transpile(device, circuit);
    let got = Transpiler::new(device.clone())
        .transpile(circuit)
        .expect("transpiles");
    assert_same(case, "transpile", &want.circuit, &got.circuit);
    assert_eq!(
        want.initial_layout, got.initial_layout,
        "{case}: initial layout"
    );
    assert_eq!(want.final_layout, got.final_layout, "{case}: final layout");
    assert_eq!(want.swaps_inserted, got.swaps_inserted, "{case}: swaps");
    let swaps = got.swaps_inserted;
    assert_same(
        case,
        "into_logical_circuit",
        &reference::into_logical_circuit(&want),
        &got.into_logical_circuit(),
    );
    swaps
}

/// The devices a protection job compiles for, as `JobConfig::device`
/// names them.
const DEVICES: [&str; 3] = ["ideal", "valencia", "linear:16"];

#[test]
fn passes_match_reference_on_revlib_split_segments() {
    let mut swaps = 0;
    for bench in revlib::all_benchmarks() {
        for seed in 0..4u64 {
            let split = Obfuscator::new()
                .with_seed(seed)
                .obfuscate(bench.circuit())
                .split(seed + 7);
            for (side, segment) in [("left", &split.left), ("right", &split.right)] {
                let segment = &segment.circuit;
                for spec in DEVICES {
                    let device = device_for(spec, segment.num_qubits()).expect("device fits");
                    let case = format!("{} seed {seed} {side} on {spec}", bench.name());
                    swaps += check_passes(&case, segment, &device);
                }
            }
        }
    }
    // The sparse devices make routing insert swaps, so the front-layer
    // and lookahead paths are compared too, not only the sweep.
    assert!(swaps > 1000, "only {swaps} swaps inserted");
}

/// A seeded circuit on `n` wires rich in inverse pairs: a random
/// circuit on the low wires followed by its inverse, interleaved with a
/// reversible one and its inverse on the high wires, with
/// multi-controlled X gates and zero-sum rotation pairs mixed in.
fn inverse_rich(n: u32, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let low = n / 2;
    let shift = |c: &Circuit, by: u32| -> Vec<Instruction> {
        c.iter()
            .map(|inst| {
                let qubits = inst
                    .qubits()
                    .iter()
                    .map(|q| Qubit::new(q.raw() + by))
                    .collect();
                Instruction::new(inst.gate().clone(), qubits).expect("shifted operands")
            })
            .collect()
    };
    let mut a = random_unitary_circuit(&RandomCircuitConfig::new(low, 12, seed));
    a.mcx(&(0..low - 1).collect::<Vec<_>>(), low - 1);
    let mut a = a.then(&a.inverse()).expect("same register");
    a.rz(0.25, 0).rz(-0.25, 0).rx(0.5, 1).rx(0.5, 1);
    let mut b = random_reversible(&RandomCircuitConfig::new(n - low, 12, seed + 1));
    b.mcx(&(1..n - low).collect::<Vec<_>>(), 0);
    let b = b.then(&b.inverse()).expect("same register");

    let (mut a, mut b) = (a.iter().cloned().collect::<Vec<_>>(), shift(&b, low));
    a.reverse();
    b.reverse();
    let mut c = Circuit::with_name(n, format!("inverse_rich_{seed}"));
    while !(a.is_empty() && b.is_empty()) {
        let from_a = !a.is_empty() && (b.is_empty() || rng.gen::<bool>());
        let inst = if from_a { a.pop() } else { b.pop() };
        c.push(inst.expect("non-empty side")).expect("in range");
    }
    c
}

#[test]
fn passes_match_reference_on_inverse_rich_random_circuits() {
    for seed in 0..12u64 {
        let n = 6 + (seed % 3) as u32;
        let circuit = inverse_rich(n, seed);
        // The pairs really are there to cancel.
        let mut cancelled = circuit.clone();
        assert!(cancel_inverse_pairs(&mut cancelled) >= 2, "seed {seed}");
        for spec in DEVICES {
            let device = device_for(spec, n).expect("device fits");
            check_passes(
                &format!("inverse_rich seed {seed} on {spec}"),
                &circuit,
                &device,
            );
        }
    }
}

#[test]
fn gate_on_both_wires_of_a_blocked_gate_routes_like_the_reference() {
    // cx(0,4) is blocked on Valencia; the swaps it needs and the gates
    // queued behind it on both wires are committed in program order.
    let mut c = Circuit::new(5);
    c.h(0)
        .cx(0, 4)
        .cx(0, 4)
        .cx(1, 2)
        .h(4)
        .cx(4, 0)
        .x(3)
        .cx(3, 1);
    let device = Device::fake_valencia();
    let distances = DistanceMap::new(&device).unwrap();
    let want = reference::route(&c, Layout::trivial(5, 5), &distances).unwrap();
    let got = route(&c, Layout::trivial(5, 5), &distances).unwrap();
    assert!(got.swaps_inserted > 0);
    assert_same("hand-built", "route", &want.circuit, &got.circuit);
    assert_eq!(want.final_layout, got.final_layout);
}
