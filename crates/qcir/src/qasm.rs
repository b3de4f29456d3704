//! OpenQASM 2.0 emission and parsing.
//!
//! The emitter covers the whole [`Gate`] set (multi-controlled gates are
//! emitted via their standard-library names where they exist, otherwise as
//! comments plus decomposed forms are left to `qcompile`). The parser covers
//! the subset that this workspace itself produces, which is what the
//! split-compilation flow needs to hand circuits between "compilers".

use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::gate::Gate;
use std::fmt::Write as _;

/// Serializes a circuit as an OpenQASM 2.0 program.
///
/// # Example
///
/// ```
/// use qcir::{Circuit, qasm};
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let text = qasm::to_qasm(&c);
/// assert!(text.contains("h q[0];"));
/// assert!(text.contains("cx q[0], q[1];"));
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    // Writing into `out` formats nothing on the heap: a gate costs no
    // allocation beyond the amortized growth of `out` itself.
    let mut out = String::with_capacity(64 + 24 * circuit.gate_count());
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    if !circuit.name().is_empty() {
        let _ = writeln!(out, "// circuit: {}", circuit.name());
    }
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    for inst in circuit.iter() {
        match *inst.gate() {
            Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) | Gate::P(a) | Gate::CP(a) | Gate::CRz(a) => {
                let _ = write!(out, "{}({a})", inst.gate().name());
            }
            Gate::U(t, p, l) => {
                let _ = write!(out, "u({t},{p},{l})");
            }
            // qelib has c3x / c4x; larger fans out as a name the
            // transpiler must lower first.
            Gate::Mcx(3) => out.push_str("c3x"),
            Gate::Mcx(4) => out.push_str("c4x"),
            Gate::Mcx(n) => {
                let _ = write!(out, "mcx{n}");
            }
            ref g => out.push_str(g.name()),
        }
        out.push(' ');
        for (i, q) in inst.qubits().iter().enumerate() {
            out.push_str(if i == 0 { "q[" } else { ", q[" });
            let _ = write!(out, "{}", q.index());
            out.push(']');
        }
        out.push_str(";\n");
    }
    out
}

fn parse_angle(token: &str, line: usize) -> Result<f64, CircuitError> {
    let t = token.trim();
    // Support simple `pi`-expressions: pi, -pi, pi/2, 2*pi, -pi/4 ...
    let normalized = t.replace("pi", &std::f64::consts::PI.to_string());
    eval_simple(&normalized).ok_or_else(|| CircuitError::Parse {
        line,
        message: format!("cannot parse angle `{t}`"),
    })
}

/// Evaluates `a`, `a/b`, `a*b`, with optional leading `-`.
fn eval_simple(expr: &str) -> Option<f64> {
    let expr = expr.trim();
    if let Some(idx) = expr.rfind('/') {
        if idx > 0 {
            let lhs = eval_simple(&expr[..idx])?;
            let rhs = eval_simple(&expr[idx + 1..])?;
            return Some(lhs / rhs);
        }
    }
    if let Some(idx) = expr.rfind('*') {
        if idx > 0 {
            let lhs = eval_simple(&expr[..idx])?;
            let rhs = eval_simple(&expr[idx + 1..])?;
            return Some(lhs * rhs);
        }
    }
    expr.parse::<f64>().ok()
}

fn gate_from_name(name: &str, params: &[f64], line: usize) -> Result<Gate, CircuitError> {
    let need = |n: usize| -> Result<(), CircuitError> {
        if params.len() != n {
            Err(CircuitError::Parse {
                line,
                message: format!("gate {name} expects {n} parameter(s), got {}", params.len()),
            })
        } else {
            Ok(())
        }
    };
    let gate = match name {
        "id" => Gate::I,
        "x" => Gate::X,
        "y" => Gate::Y,
        "z" => Gate::Z,
        "h" => Gate::H,
        "s" => Gate::S,
        "sdg" => Gate::Sdg,
        "t" => Gate::T,
        "tdg" => Gate::Tdg,
        "sx" => Gate::Sx,
        "sxdg" => Gate::Sxdg,
        "rx" => {
            need(1)?;
            Gate::Rx(params[0])
        }
        "ry" => {
            need(1)?;
            Gate::Ry(params[0])
        }
        "rz" => {
            need(1)?;
            Gate::Rz(params[0])
        }
        "p" | "u1" => {
            need(1)?;
            Gate::P(params[0])
        }
        "u" | "u3" => {
            need(3)?;
            Gate::U(params[0], params[1], params[2])
        }
        "cx" | "CX" => Gate::CX,
        "cy" => Gate::CY,
        "cz" => Gate::CZ,
        "ch" => Gate::CH,
        "cp" | "cu1" => {
            need(1)?;
            Gate::CP(params[0])
        }
        "crz" => {
            need(1)?;
            Gate::CRz(params[0])
        }
        "swap" => Gate::Swap,
        "ccx" => Gate::CCX,
        "cswap" => Gate::CSwap,
        "c3x" => Gate::Mcx(3),
        "c4x" => Gate::Mcx(4),
        other => {
            if let Some(stripped) = other.strip_prefix("mcx") {
                let n: u32 = stripped.parse().map_err(|_| CircuitError::Parse {
                    line,
                    message: format!("unknown gate `{other}`"),
                })?;
                Gate::Mcx(n)
            } else {
                return Err(CircuitError::Parse {
                    line,
                    message: format!("unknown gate `{other}`"),
                });
            }
        }
    };
    Ok(gate)
}

/// Parses the OpenQASM 2.0 subset emitted by [`to_qasm`].
///
/// Supports a single quantum register, the qelib1 gate names used in this
/// workspace, `pi`-expression angles, and `//` comments. `barrier`,
/// `measure` and classical registers are ignored.
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] on malformed input and propagates
/// validation failures from circuit construction.
///
/// # Example
///
/// ```
/// use qcir::qasm;
///
/// let src = r#"
///     OPENQASM 2.0;
///     include "qelib1.inc";
///     qreg q[2];
///     h q[0];
///     rz(pi/2) q[1];
///     cx q[0], q[1];
/// "#;
/// let c = qasm::from_qasm(src)?;
/// assert_eq!(c.num_qubits(), 2);
/// assert_eq!(c.gate_count(), 3);
/// # Ok::<(), qcir::CircuitError>(())
/// ```
pub fn from_qasm(source: &str) -> Result<Circuit, CircuitError> {
    let mut circuit: Option<Circuit> = None;
    let mut name = String::new();

    for (lineno, raw_line) in source.lines().enumerate() {
        let line = lineno + 1;
        let mut text = raw_line;
        if let Some(idx) = text.find("//") {
            let comment = text[idx + 2..].trim();
            if let Some(n) = comment.strip_prefix("circuit:") {
                name = n.trim().to_string();
            }
            text = &text[..idx];
        }
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        for stmt in text.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty()
                || stmt.starts_with("OPENQASM")
                || stmt.starts_with("include")
                || stmt.starts_with("barrier")
                || stmt.starts_with("creg")
                || stmt.starts_with("measure")
            {
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("qreg") {
                let rest = rest.trim();
                let open = rest.find('[').ok_or_else(|| CircuitError::Parse {
                    line,
                    message: "qreg missing size".into(),
                })?;
                let close = rest.find(']').ok_or_else(|| CircuitError::Parse {
                    line,
                    message: "qreg missing `]`".into(),
                })?;
                let size: u32 = rest[open + 1..close]
                    .parse()
                    .map_err(|_| CircuitError::Parse {
                        line,
                        message: "qreg size is not an integer".into(),
                    })?;
                if size == 0 {
                    return Err(CircuitError::Parse {
                        line,
                        message: "qreg size must be positive".into(),
                    });
                }
                circuit = Some(Circuit::with_name(size, name.clone()));
                continue;
            }

            // Gate application: `name(params) q[i], q[j]`.
            let circuit = circuit.as_mut().ok_or_else(|| CircuitError::Parse {
                line,
                message: "gate before qreg declaration".into(),
            })?;
            let (head, operand_text) = match stmt.find([' ', '\t']) {
                Some(idx) if !stmt[..idx].contains('(') || stmt[..idx].contains(')') => {
                    (&stmt[..idx], &stmt[idx..])
                }
                _ => {
                    // Parameterized: split after the closing paren.
                    let close = stmt.find(')').ok_or_else(|| CircuitError::Parse {
                        line,
                        message: format!("malformed statement `{stmt}`"),
                    })?;
                    (&stmt[..=close], &stmt[close + 1..])
                }
            };

            let (gate_name, params) = if let Some(open) = head.find('(') {
                let close = head.rfind(')').ok_or_else(|| CircuitError::Parse {
                    line,
                    message: "unclosed parameter list".into(),
                })?;
                let params = head[open + 1..close]
                    .split(',')
                    .map(|p| parse_angle(p, line))
                    .collect::<Result<Vec<_>, _>>()?;
                (&head[..open], params)
            } else {
                (head, Vec::new())
            };

            let gate = gate_from_name(gate_name.trim(), &params, line)?;
            let mut qubits = Vec::new();
            for op in operand_text.split(',') {
                let op = op.trim();
                if op.is_empty() {
                    continue;
                }
                let open = op.find('[').ok_or_else(|| CircuitError::Parse {
                    line,
                    message: format!("operand `{op}` missing index"),
                })?;
                let close = op.find(']').ok_or_else(|| CircuitError::Parse {
                    line,
                    message: format!("operand `{op}` missing `]`"),
                })?;
                let idx: u32 = op[open + 1..close]
                    .parse()
                    .map_err(|_| CircuitError::Parse {
                        line,
                        message: format!("operand index in `{op}` is not an integer"),
                    })?;
                qubits.push(idx);
            }
            circuit.append(gate, &qubits)?;
        }
    }

    circuit.ok_or_else(|| CircuitError::Parse {
        line: 0,
        message: "no qreg declaration found".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    fn roundtrip(c: &Circuit) -> Circuit {
        from_qasm(&to_qasm(c)).expect("roundtrip parse")
    }

    #[test]
    fn emit_contains_header_and_gates() {
        let mut c = Circuit::with_name(3, "demo");
        c.h(0).cx(0, 1).ccx(0, 1, 2);
        let text = to_qasm(&c);
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[3];"));
        assert!(text.contains("ccx q[0], q[1], q[2];"));
        assert!(text.contains("// circuit: demo"));
    }

    #[test]
    fn roundtrip_plain_gates() {
        let mut c = Circuit::with_name(4, "rt");
        c.h(0)
            .x(1)
            .s(2)
            .tdg(3)
            .cx(0, 1)
            .cz(2, 3)
            .swap(0, 3)
            .ccx(1, 2, 0);
        let back = roundtrip(&c);
        assert_eq!(back.instructions(), c.instructions());
        assert_eq!(back.name(), "rt");
        assert_eq!(back.num_qubits(), 4);
    }

    #[test]
    fn roundtrip_parametric_gates() {
        let mut c = Circuit::new(2);
        c.rx(0.25, 0)
            .ry(-1.5, 1)
            .rz(3.0, 0)
            .p(0.125, 1)
            .cp(0.75, 0, 1)
            .crz(-0.5, 1, 0)
            .u(0.1, 0.2, 0.3, 0);
        let back = roundtrip(&c);
        assert_eq!(back.gate_count(), c.gate_count());
        for (a, b) in back.iter().zip(c.iter()) {
            assert!(a.gate().approx_eq(b.gate()), "{} vs {}", a.gate(), b.gate());
            assert_eq!(a.qubits(), b.qubits());
        }
    }

    #[test]
    fn roundtrip_mcx() {
        let mut c = Circuit::new(6);
        c.mcx(&[0, 1, 2], 3)
            .mcx(&[0, 1, 2, 3], 4)
            .mcx(&[0, 1, 2, 3, 4], 5);
        let back = roundtrip(&c);
        assert_eq!(back.instruction(0).unwrap().gate(), &Gate::Mcx(3));
        assert_eq!(back.instruction(1).unwrap().gate(), &Gate::Mcx(4));
        assert_eq!(back.instruction(2).unwrap().gate(), &Gate::Mcx(5));
    }

    #[test]
    fn parses_pi_expressions() {
        let src = "qreg q[1]; rz(pi) q[0]; rz(-pi/2) q[0]; rz(2*pi) q[0];";
        let c = from_qasm(src).unwrap();
        let angles: Vec<f64> = c
            .iter()
            .map(|i| match i.gate() {
                Gate::Rz(a) => *a,
                _ => panic!("expected rz"),
            })
            .collect();
        assert!((angles[0] - std::f64::consts::PI).abs() < 1e-12);
        assert!((angles[1] + std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((angles[2] - 2.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn rejects_unknown_gate() {
        let src = "qreg q[1]; frobnicate q[0];";
        let err = from_qasm(src).unwrap_err();
        assert!(err.to_string().contains("unknown gate"));
    }

    #[test]
    fn rejects_gate_before_qreg() {
        let src = "h q[0]; qreg q[1];";
        assert!(from_qasm(src).is_err());
    }

    #[test]
    fn rejects_missing_qreg() {
        assert!(from_qasm("OPENQASM 2.0;").is_err());
    }

    #[test]
    fn ignores_measure_and_barrier() {
        let src = "qreg q[2]; creg c[2]; h q[0]; barrier q[0], q[1]; measure q[0] -> c[0];";
        let c = from_qasm(src).unwrap();
        assert_eq!(c.gate_count(), 1);
    }
}
