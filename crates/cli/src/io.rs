//! Circuit file I/O: QASM and RevLib `.real`, chosen by extension.

use qcir::{qasm, real, Circuit};
use std::path::Path;

/// Reads a circuit from a `.qasm` or `.real` file.
///
/// # Errors
///
/// Returns a human-readable message on I/O or parse failure.
pub fn read_circuit(path: &Path) -> Result<Circuit, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let circuit = match extension(path) {
        "real" => real::from_real(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        _ => qasm::from_qasm(&text).map_err(|e| format!("{}: {e}", path.display()))?,
    };
    Ok(circuit)
}

/// Writes a circuit to a `.qasm` or `.real` file (format by extension).
///
/// # Errors
///
/// Returns a human-readable message on I/O failure or when a
/// non-classical circuit is written as `.real`.
pub fn write_circuit(path: &Path, circuit: &Circuit) -> Result<(), String> {
    let text = match extension(path) {
        "real" => real::to_real(circuit).map_err(|e| format!("{}: {e}", path.display()))?,
        _ => qasm::to_qasm(circuit),
    };
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn extension(path: &Path) -> &str {
    path.extension().and_then(|e| e.to_str()).unwrap_or("qasm")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;

    #[test]
    fn qasm_roundtrip_via_files() {
        let dir = TestDir::new();
        let path = dir.path("t.qasm");
        let mut c = Circuit::with_name(2, "t");
        c.h(0).cx(0, 1);
        write_circuit(&path, &c).unwrap();
        let back = read_circuit(&path).unwrap();
        assert_eq!(back.instructions(), c.instructions());
    }

    #[test]
    fn real_roundtrip_via_files() {
        let dir = TestDir::new();
        let path = dir.path("t.real");
        let mut c = Circuit::with_name(3, "t");
        c.ccx(0, 1, 2).cx(0, 1).x(2);
        write_circuit(&path, &c).unwrap();
        let back = read_circuit(&path).unwrap();
        assert_eq!(back.instructions(), c.instructions());
    }

    #[test]
    fn missing_file_reports_path() {
        let err = read_circuit(Path::new("/nonexistent/x.qasm")).unwrap_err();
        assert!(err.contains("x.qasm"));
    }

    #[test]
    fn real_rejects_quantum_gates() {
        let dir = TestDir::new();
        let path = dir.path("h.real");
        let mut c = Circuit::new(1);
        c.h(0);
        assert!(write_circuit(&path, &c).is_err());
    }
}
