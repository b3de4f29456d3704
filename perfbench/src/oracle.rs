//! The independent correctness oracle, run outside every timed region.
//!
//! For each distinct job it reloads the final checkpoint, checks the
//! paper's depth claim (obfuscated depth = original depth), parses the
//! emitted `<id>.restored.qasm` back, and replays seeded basis inputs
//! through a `qsim` statevector against revlib's independently coded
//! reference permutation (`Benchmark::eval`). Wrong-key known answers are
//! fixed at generation from the stripped key alone (see
//! `inputs::key_is_identity`), so they need nothing here.

use crate::inputs::{mix, JobInput};
use crate::stats::mean;
use crate::workload::{Ops, Prepared, WorkDirs};
use std::collections::BTreeMap;
use tetrislock::job::load_checkpoint;

/// Seeded basis inputs replayed per job (plus all-zeros and all-ones).
const REPLAY_INPUTS: u64 = 14;
/// A replayed basis input must land on the reference output with at
/// least this probability.
const MIN_PROBABILITY: f64 = 1.0 - 1e-6;

/// The oracle's findings over a run's distinct ops.
pub struct Summary {
    /// One message per distinct job that fails the oracle.
    pub failures: Vec<String>,
    /// Gate count of the emitted restored circuits (`wrong_key`: of the
    /// checked candidates): the mean per circuit, averaged over circuits.
    pub restored_gates_mean: f64,
    /// Table I gate change in % (each circuit's 20-draw mean), averaged
    /// over circuits, as Table I's column is per circuit.
    pub gate_overhead_pct: f64,
}

/// Checks every distinct job of the run; a `wrong_key` run has its
/// known answers from generation and only reports its circuit sizes.
pub fn check_all(prepared: &Prepared, seed: u64) -> Summary {
    // Per circuit: (restored gates, gate change %) of each op.
    let mut per_circuit: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut failures = Vec::new();
    match &prepared.ops {
        Ops::Jobs(jobs) => {
            for job in jobs {
                let check = check_job(job, &prepared.dirs, seed);
                failures.extend(check.failure);
                per_circuit
                    .entry(job.bench.name().to_string())
                    .or_default()
                    .push((check.restored_gates as f64, job.overhead_pct));
            }
        }
        Ops::Keys(cases) => {
            for case in cases {
                per_circuit
                    .entry(case.name.clone())
                    .or_default()
                    .push((case.candidate.gate_count() as f64, case.overhead_pct));
            }
        }
    }
    let circuit_means = |pick: fn(&(f64, f64)) -> f64| -> f64 {
        let means: Vec<f64> = per_circuit
            .values()
            .map(|ops| mean(&ops.iter().map(pick).collect::<Vec<_>>()))
            .collect();
        mean(&means)
    };
    Summary {
        failures,
        restored_gates_mean: circuit_means(|&(gates, _)| gates),
        gate_overhead_pct: circuit_means(|&(_, pct)| pct),
    }
}

/// The oracle's findings for one job.
struct JobCheck {
    /// Gate count of the emitted restored circuit.
    restored_gates: usize,
    /// Why the job fails the oracle, if it does.
    failure: Option<String>,
}

/// Checks one finished job's checkpoint and emitted output.
fn check_job(job: &JobInput, dirs: &WorkDirs, seed: u64) -> JobCheck {
    let mut check = JobCheck {
        restored_gates: 0,
        failure: None,
    };
    if let Err(message) = check_job_inner(job, dirs, seed, &mut check) {
        check.failure = Some(format!("{}: {message}", job.id));
    }
    check
}

fn check_job_inner(
    job: &JobInput,
    dirs: &WorkDirs,
    seed: u64,
    check: &mut JobCheck,
) -> Result<(), String> {
    let state = load_checkpoint(&dirs.jobs, &job.id)
        .map_err(|e| e.to_string())?
        .ok_or("no checkpoint")?;
    if !state.is_done() {
        return Err(format!("checkpoint stopped at stage {}", state.stage));
    }
    let insertion = state.insertion.as_ref().ok_or("no insertion product")?;
    let original = job.bench.circuit();
    if insertion.circuit.depth() != original.depth() {
        return Err(format!(
            "obfuscation changed depth {} -> {}",
            original.depth(),
            insertion.circuit.depth()
        ));
    }

    let path = state.output_path(&dirs.out);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let restored = qcir::qasm::from_qasm(&text).map_err(|e| format!("emitted qasm: {e}"))?;
    check.restored_gates = restored.gate_count();

    let n = original.num_qubits();
    let width = restored.num_qubits();
    if width < n {
        return Err(format!("restored register {width} < original {n}"));
    }
    let all = (1u64 << n) - 1;
    let inputs = [0, all]
        .into_iter()
        .chain((0..REPLAY_INPUTS).map(|i| mix(seed, i, 0x0AC1E) & all));
    for x in inputs {
        let mut sv = qsim::Statevector::basis(width, x as usize).map_err(|e| e.to_string())?;
        sv.apply_circuit(&restored).map_err(|e| e.to_string())?;
        let expected = job.bench.eval(x as usize);
        let p = sv.probability(expected);
        if p < MIN_PROBABILITY {
            return Err(format!(
                "input {x:#b}: reference output {expected:#b} has probability {p:.9}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrislock::batch::run_batch;

    #[test]
    fn passes_a_real_job_and_catches_a_tampered_output() {
        let root = std::env::temp_dir().join(format!("perfbench-oracle-{}", std::process::id()));
        let dirs = WorkDirs::fresh(&root).unwrap();
        // A seeded `table1` job on mini ALU, the suite's first circuit.
        let job = crate::inputs::table1_jobs(1).remove(0);
        let report = run_batch(
            vec![(job.id.clone(), job.bench.circuit().clone())],
            &dirs.batch_config(&job),
        )
        .unwrap();
        assert!(report.all_equivalent());
        let good = check_job(&job, &dirs, 9);
        assert!(good.failure.is_none(), "{:?}", good.failure);
        assert!(good.restored_gates > 0);

        // Append a stray X to the emitted circuit: the replay must see it.
        let path = dirs.out.join(format!("{}.restored.qasm", job.id));
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("x q[0];\n");
        std::fs::write(&path, text).unwrap();
        let bad = check_job(&job, &dirs, 9);
        assert!(bad.failure.is_some());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
