//! OpenQASM 2.0 interchange.
//!
//! Exports circuits in the dialect understood by mainstream toolchains
//! (qiskit, pytket — the paper's framework is pytket-based) and imports
//! the same dialect back. The supported gate vocabulary is the library's
//! own gate set: `h x y z rx ry rz cx cz swap rxx ryy rzz`. Opaque
//! [`Gate::Unitary1`] gates are lowered through the ZYZ decomposition on
//! export (global phase dropped — irrelevant to kernel values);
//! [`Gate::Unitary2`] has no QASM spelling and is rejected.
//!
//! QASM is an exchange format for the *logical* circuit — export what
//! `feature_map_circuit` returns. Routing is the MPS engine's business
//! (`MpsSimulator::simulate` routes whatever it is given), and a routed
//! `d > 1` circuit carries fused SWAP-RXX `Unitary2` ops that export
//! rejects by the rule above.
//!
//! The parser accepts the angle grammar QASM files use in practice:
//! literals, `pi`, unary minus, `*`, `/`, and parentheses.

use crate::circuit::Circuit;
use crate::decompose::zyz_decompose;
use crate::gate::Gate;
use std::fmt;

/// Errors produced by QASM export or import.
#[derive(Debug, Clone, PartialEq)]
pub enum QasmError {
    /// A gate with no QASM spelling (e.g. a generic two-qubit unitary).
    Unsupported(String),
    /// Syntactic problem at import, with the offending statement.
    Parse(String),
    /// Semantic problem at import (bad qubit index, missing register...).
    Invalid(String),
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QasmError::Unsupported(s) => write!(f, "unsupported construct: {s}"),
            QasmError::Parse(s) => write!(f, "parse error: {s}"),
            QasmError::Invalid(s) => write!(f, "invalid program: {s}"),
        }
    }
}

impl std::error::Error for QasmError {}

/// Serializes a circuit as an OpenQASM 2.0 program.
pub fn to_qasm(circuit: &Circuit) -> Result<String, QasmError> {
    let mut out = String::with_capacity(64 + circuit.len() * 24);
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits()));
    for op in circuit.ops() {
        match (&op.gate, op.qubits.as_slice()) {
            (Gate::H, [q]) => out.push_str(&format!("h q[{q}];\n")),
            (Gate::X, [q]) => out.push_str(&format!("x q[{q}];\n")),
            (Gate::Y, [q]) => out.push_str(&format!("y q[{q}];\n")),
            (Gate::Z, [q]) => out.push_str(&format!("z q[{q}];\n")),
            (Gate::Rx(t), [q]) => out.push_str(&format!("rx({}) q[{q}];\n", fmt_angle(*t))),
            (Gate::Ry(t), [q]) => out.push_str(&format!("ry({}) q[{q}];\n", fmt_angle(*t))),
            (Gate::Rz(t), [q]) => out.push_str(&format!("rz({}) q[{q}];\n", fmt_angle(*t))),
            (Gate::Unitary1(u), [q]) => {
                // Lower through ZYZ; emission order = application order.
                let z = zyz_decompose(u);
                for g in z.to_gates() {
                    match g {
                        Gate::Rz(t) => out.push_str(&format!("rz({}) q[{q}];\n", fmt_angle(t))),
                        Gate::Ry(t) => out.push_str(&format!("ry({}) q[{q}];\n", fmt_angle(t))),
                        _ => unreachable!("ZYZ emits only Rz/Ry"),
                    }
                }
            }
            (Gate::Cx, [a, b]) => out.push_str(&format!("cx q[{a}],q[{b}];\n")),
            (Gate::Cz, [a, b]) => out.push_str(&format!("cz q[{a}],q[{b}];\n")),
            (Gate::Swap, [a, b]) => out.push_str(&format!("swap q[{a}],q[{b}];\n")),
            (Gate::Rxx(t), [a, b]) => {
                out.push_str(&format!("rxx({}) q[{a}],q[{b}];\n", fmt_angle(*t)))
            }
            (Gate::Ryy(t), [a, b]) => {
                out.push_str(&format!("ryy({}) q[{a}],q[{b}];\n", fmt_angle(*t)))
            }
            (Gate::Rzz(t), [a, b]) => {
                out.push_str(&format!("rzz({}) q[{a}],q[{b}];\n", fmt_angle(*t)))
            }
            (Gate::Unitary2(_), _) => {
                return Err(QasmError::Unsupported(
                    "generic two-qubit unitary has no QASM 2.0 spelling".into(),
                ))
            }
            (g, qs) => {
                return Err(QasmError::Unsupported(format!(
                    "gate {} on {qs:?}",
                    g.name()
                )))
            }
        }
    }
    Ok(out)
}

/// Round-trip-exact angle formatting (17 significant digits).
fn fmt_angle(t: f64) -> String {
    format!("{t:.17e}")
}

/// Parses an OpenQASM 2.0 program emitted by [`to_qasm`] (or any program
/// restricted to the same vocabulary) back into a [`Circuit`].
pub fn from_qasm(src: &str) -> Result<Circuit, QasmError> {
    let mut circuit: Option<Circuit> = None;
    let mut saw_header = false;

    for raw in src.split(';') {
        // Strip comments and whitespace.
        let stmt = raw
            .lines()
            .map(|l| l.split("//").next().unwrap_or(""))
            .collect::<Vec<_>>()
            .join(" ");
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        if let Some(version) = stmt.strip_prefix("OPENQASM") {
            let version = version.trim();
            if version != "2.0" {
                return Err(QasmError::Unsupported(format!("OPENQASM {version}")));
            }
            saw_header = true;
            continue;
        }
        if stmt.starts_with("include") {
            continue;
        }
        if let Some(decl) = stmt.strip_prefix("qreg") {
            if circuit.is_some() {
                return Err(QasmError::Invalid("multiple qreg declarations".into()));
            }
            let decl = decl.trim();
            let (name, size) = parse_indexed(decl)
                .ok_or_else(|| QasmError::Parse(format!("bad qreg declaration: {decl}")))?;
            if name != "q" {
                return Err(QasmError::Unsupported(format!("register name {name:?}")));
            }
            if size == 0 {
                return Err(QasmError::Invalid("empty quantum register".into()));
            }
            circuit = Some(Circuit::new(size));
            continue;
        }
        if stmt.starts_with("creg") || stmt.starts_with("barrier") {
            continue; // Harmless in this context.
        }
        if stmt.starts_with("measure") {
            return Err(QasmError::Unsupported("measurement".into()));
        }

        // Gate application: name[(params)] operands.
        let circuit = circuit
            .as_mut()
            .ok_or_else(|| QasmError::Invalid("gate before qreg declaration".into()))?;
        let (head, operands) = split_gate_statement(stmt)?;
        let (name, params) = split_params(head)?;
        let qubits = parse_operands(operands, circuit.num_qubits())?;
        apply_parsed(circuit, name, &params, &qubits, stmt)?;
    }

    if !saw_header {
        return Err(QasmError::Parse("missing OPENQASM 2.0 header".into()));
    }
    circuit.ok_or_else(|| QasmError::Invalid("no qreg declaration".into()))
}

/// Splits `name(params) q[i],q[j]` into head (`name(params)`) and the
/// operand text.
fn split_gate_statement(stmt: &str) -> Result<(&str, &str), QasmError> {
    // The operand list starts at the first whitespace outside parentheses.
    let mut depth = 0usize;
    for (i, ch) in stmt.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            c if c.is_whitespace() && depth == 0 => {
                return Ok((stmt[..i].trim(), stmt[i..].trim()));
            }
            _ => {}
        }
    }
    Err(QasmError::Parse(format!("gate without operands: {stmt}")))
}

/// Splits `name(p1,p2)` into the name and evaluated parameters.
fn split_params(head: &str) -> Result<(&str, Vec<f64>), QasmError> {
    match head.find('(') {
        None => Ok((head, Vec::new())),
        Some(open) => {
            let close = head
                .rfind(')')
                .ok_or_else(|| QasmError::Parse(format!("unbalanced parens: {head}")))?;
            let name = head[..open].trim();
            let params = head[open + 1..close]
                .split(',')
                .map(|p| eval_angle(p.trim()))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((name, params))
        }
    }
}

/// Parses `q[i],q[j]` into qubit indices, validating the register bound.
fn parse_operands(text: &str, num_qubits: usize) -> Result<Vec<usize>, QasmError> {
    let mut qubits = Vec::new();
    for part in text.split(',') {
        let part = part.trim();
        let (name, idx) =
            parse_indexed(part).ok_or_else(|| QasmError::Parse(format!("bad operand: {part}")))?;
        if name != "q" {
            return Err(QasmError::Invalid(format!("unknown register {name:?}")));
        }
        if idx >= num_qubits {
            return Err(QasmError::Invalid(format!(
                "qubit index {idx} out of range (register has {num_qubits})"
            )));
        }
        qubits.push(idx);
    }
    Ok(qubits)
}

/// Parses `name[index]`.
fn parse_indexed(text: &str) -> Option<(&str, usize)> {
    let open = text.find('[')?;
    let close = text.rfind(']')?;
    if close < open {
        return None;
    }
    let name = text[..open].trim();
    let idx = text[open + 1..close].trim().parse().ok()?;
    Some((name, idx))
}

fn apply_parsed(
    circuit: &mut Circuit,
    name: &str,
    params: &[f64],
    qubits: &[usize],
    stmt: &str,
) -> Result<(), QasmError> {
    let expect = |n_params: usize, n_qubits: usize| -> Result<(), QasmError> {
        if params.len() != n_params || qubits.len() != n_qubits {
            Err(QasmError::Parse(format!(
                "gate {name} expects {n_params} parameter(s) and {n_qubits} operand(s): {stmt}"
            )))
        } else {
            Ok(())
        }
    };
    match name {
        "h" => {
            expect(0, 1)?;
            circuit.push1(Gate::H, qubits[0]);
        }
        "x" => {
            expect(0, 1)?;
            circuit.push1(Gate::X, qubits[0]);
        }
        "y" => {
            expect(0, 1)?;
            circuit.push1(Gate::Y, qubits[0]);
        }
        "z" => {
            expect(0, 1)?;
            circuit.push1(Gate::Z, qubits[0]);
        }
        "rx" => {
            expect(1, 1)?;
            circuit.push1(Gate::Rx(params[0]), qubits[0]);
        }
        "ry" => {
            expect(1, 1)?;
            circuit.push1(Gate::Ry(params[0]), qubits[0]);
        }
        "rz" => {
            expect(1, 1)?;
            circuit.push1(Gate::Rz(params[0]), qubits[0]);
        }
        "u1" => {
            // u1(t) = diag(1, e^{it}) = Rz(t) up to global phase; kernel
            // values are phase-insensitive, so accept the alias.
            expect(1, 1)?;
            circuit.push1(Gate::Rz(params[0]), qubits[0]);
        }
        "cx" => {
            expect(0, 2)?;
            circuit.push2(Gate::Cx, qubits[0], qubits[1]);
        }
        "cz" => {
            expect(0, 2)?;
            circuit.push2(Gate::Cz, qubits[0], qubits[1]);
        }
        "swap" => {
            expect(0, 2)?;
            circuit.push2(Gate::Swap, qubits[0], qubits[1]);
        }
        "rxx" => {
            expect(1, 2)?;
            circuit.push2(Gate::Rxx(params[0]), qubits[0], qubits[1]);
        }
        "ryy" => {
            expect(1, 2)?;
            circuit.push2(Gate::Ryy(params[0]), qubits[0], qubits[1]);
        }
        "rzz" => {
            expect(1, 2)?;
            circuit.push2(Gate::Rzz(params[0]), qubits[0], qubits[1]);
        }
        other => return Err(QasmError::Unsupported(format!("gate {other:?}"))),
    }
    Ok(())
}

/// Evaluates the QASM angle expression grammar: float literals, `pi`,
/// unary `+`/`-`, binary `*`, `/`, `+`, `-`, and parentheses.
pub fn eval_angle(expr: &str) -> Result<f64, QasmError> {
    let tokens = tokenize(expr)?;
    let mut parser = ExprParser {
        tokens: &tokens,
        pos: 0,
    };
    let value = parser.sum()?;
    if parser.pos != tokens.len() {
        return Err(QasmError::Parse(format!(
            "trailing tokens in expression: {expr}"
        )));
    }
    Ok(value)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Number(f64),
    Pi,
    Plus,
    Minus,
    Star,
    Slash,
    Open,
    Close,
}

fn tokenize(expr: &str) -> Result<Vec<Token>, QasmError> {
    let bytes = expr.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '(' => {
                tokens.push(Token::Open);
                i += 1;
            }
            ')' => {
                tokens.push(Token::Close);
                i += 1;
            }
            'p' | 'P' => {
                if expr[i..].len() >= 2 && expr[i..i + 2].eq_ignore_ascii_case("pi") {
                    tokens.push(Token::Pi);
                    i += 2;
                } else {
                    return Err(QasmError::Parse(format!("bad token in: {expr}")));
                }
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    if ch.is_ascii_digit() || ch == '.' {
                        i += 1;
                    } else if (ch == 'e' || ch == 'E') && i + 1 < bytes.len() {
                        // Exponent, possibly signed.
                        let next = bytes[i + 1] as char;
                        if next.is_ascii_digit() || next == '+' || next == '-' {
                            i += 2;
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                let lit = &expr[start..i];
                let v: f64 = lit
                    .parse()
                    .map_err(|_| QasmError::Parse(format!("bad number {lit:?}")))?;
                tokens.push(Token::Number(v));
            }
            _ => return Err(QasmError::Parse(format!("bad character {c:?} in: {expr}"))),
        }
    }
    Ok(tokens)
}

struct ExprParser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl ExprParser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn sum(&mut self) -> Result<f64, QasmError> {
        let mut acc = self.product()?;
        while let Some(tok) = self.peek() {
            match tok {
                Token::Plus => {
                    self.pos += 1;
                    acc += self.product()?;
                }
                Token::Minus => {
                    self.pos += 1;
                    acc -= self.product()?;
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn product(&mut self) -> Result<f64, QasmError> {
        let mut acc = self.atom()?;
        while let Some(tok) = self.peek() {
            match tok {
                Token::Star => {
                    self.pos += 1;
                    acc *= self.atom()?;
                }
                Token::Slash => {
                    self.pos += 1;
                    let rhs = self.atom()?;
                    if rhs == 0.0 {
                        return Err(QasmError::Parse("division by zero".into()));
                    }
                    acc /= rhs;
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn atom(&mut self) -> Result<f64, QasmError> {
        match self.peek().cloned() {
            Some(Token::Number(v)) => {
                self.pos += 1;
                Ok(v)
            }
            Some(Token::Pi) => {
                self.pos += 1;
                Ok(std::f64::consts::PI)
            }
            Some(Token::Minus) => {
                self.pos += 1;
                Ok(-self.atom()?)
            }
            Some(Token::Plus) => {
                self.pos += 1;
                self.atom()
            }
            Some(Token::Open) => {
                self.pos += 1;
                let v = self.sum()?;
                match self.peek() {
                    Some(Token::Close) => {
                        self.pos += 1;
                        Ok(v)
                    }
                    _ => Err(QasmError::Parse("missing closing paren".into())),
                }
            }
            _ => Err(QasmError::Parse("expected a value".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn angle_expressions() {
        assert_eq!(eval_angle("1.5").unwrap(), 1.5);
        assert!((eval_angle("pi").unwrap() - PI).abs() < 1e-15);
        assert!((eval_angle("pi/2").unwrap() - PI / 2.0).abs() < 1e-15);
        assert!((eval_angle("-pi/4").unwrap() + PI / 4.0).abs() < 1e-15);
        assert!((eval_angle("2*pi").unwrap() - 2.0 * PI).abs() < 1e-15);
        assert!((eval_angle("3.5e-2").unwrap() - 0.035).abs() < 1e-15);
        assert!((eval_angle("(1+2)*pi/3").unwrap() - PI).abs() < 1e-12);
        assert!((eval_angle("1 - 2 - 3").unwrap() + 4.0).abs() < 1e-15);
        assert!(eval_angle("pie").is_err());
        assert!(eval_angle("1/0").is_err());
        assert!(eval_angle("(1").is_err());
        assert!(eval_angle("1 2").is_err());
    }

    #[test]
    fn export_has_header_and_register() {
        let mut c = Circuit::new(3);
        c.push1(Gate::H, 0);
        let q = to_qasm(&c).unwrap();
        assert!(q.starts_with("OPENQASM 2.0;"));
        assert!(q.contains("qreg q[3];"));
        assert!(q.contains("h q[0];"));
    }

    #[test]
    fn roundtrip_named_gates() {
        let mut c = Circuit::new(4);
        c.push1(Gate::H, 0)
            .push1(Gate::X, 1)
            .push1(Gate::Y, 2)
            .push1(Gate::Z, 3)
            .push1(Gate::Rx(0.7), 0)
            .push1(Gate::Ry(-1.1), 1)
            .push1(Gate::Rz(2.9), 2)
            .push2(Gate::Cx, 0, 1)
            .push2(Gate::Cz, 1, 2)
            .push2(Gate::Swap, 2, 3)
            .push2(Gate::Rxx(0.123456789012345), 0, 1)
            .push2(Gate::Ryy(1.5), 1, 2)
            .push2(Gate::Rzz(-0.25), 2, 3);
        let q = to_qasm(&c).unwrap();
        let back = from_qasm(&q).unwrap();
        assert_eq!(back.num_qubits(), 4);
        assert_eq!(back.ops(), c.ops());
    }

    #[test]
    fn roundtrip_ansatz_circuit() {
        use crate::ansatz::{feature_map_circuit, AnsatzConfig};
        let features = [0.3, 1.2, 0.8, 1.9, 0.1];
        let c = feature_map_circuit(&features, &AnsatzConfig::new(2, 2, 0.7));
        let back = from_qasm(&to_qasm(&c).unwrap()).unwrap();
        assert_eq!(back.ops(), c.ops());
        // The routed form is not exportable: it holds fused SWAP-RXX ops.
        assert!(matches!(
            to_qasm(&crate::route_for_mps(&c)),
            Err(QasmError::Unsupported(_))
        ));
    }

    #[test]
    fn unitary1_lowers_through_zyz() {
        use crate::test_dense::simulate_dense;
        let mut raw = Circuit::new(1);
        raw.push1(Gate::H, 0).push1(Gate::Rz(0.9), 0);
        let (fused, _) = crate::optimize::optimize(&raw);
        assert!(matches!(fused.ops()[0].gate, Gate::Unitary1(_)));
        let q = to_qasm(&fused).unwrap();
        let back = from_qasm(&q).unwrap();
        // Equivalent up to global phase: compare |<a|b>|.
        let a = simulate_dense(&fused);
        let b = simulate_dense(&back);
        let mut dot = qk_tensor::complex::Complex64::ZERO;
        for (x, y) in a.iter().zip(&b) {
            dot = dot.conj_mul_add(*x, *y);
        }
        assert!((dot.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn unitary2_is_rejected() {
        let mut entries = [qk_tensor::complex::Complex64::ZERO; 16];
        for i in 0..4 {
            entries[i * 4 + i] = qk_tensor::complex::Complex64::ONE;
        }
        let mut c = Circuit::new(2);
        c.push2(Gate::Unitary2(Box::new(entries)), 0, 1);
        assert!(matches!(to_qasm(&c), Err(QasmError::Unsupported(_))));
    }

    #[test]
    fn import_accepts_comments_and_whitespace() {
        let src = r#"
            OPENQASM 2.0; // header
            include "qelib1.inc";
            qreg q[2]; // two qubits
            h q[0]; // superpose
            rz(pi/2) q[1];
            cx q[0], q[1];
        "#;
        let c = from_qasm(src).unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.len(), 3);
        assert_eq!(c.ops()[1].gate, Gate::Rz(PI / 2.0));
    }

    #[test]
    fn import_rejects_malformed_programs() {
        assert!(matches!(
            from_qasm("qreg q[2]; h q[0];"),
            Err(QasmError::Parse(_))
        ));
        assert!(from_qasm("OPENQASM 2.0;").is_err());
        assert!(matches!(
            from_qasm("OPENQASM 2.0; qreg q[2]; h q[5];"),
            Err(QasmError::Invalid(_))
        ));
        assert!(matches!(
            from_qasm("OPENQASM 2.0; qreg q[2]; qreg q[3];"),
            Err(QasmError::Invalid(_))
        ));
        assert!(matches!(
            from_qasm("OPENQASM 2.0; qreg q[2]; ccx q[0],q[1];"),
            Err(QasmError::Unsupported(_))
        ));
        assert!(matches!(
            from_qasm("OPENQASM 2.0; qreg q[1]; measure q[0];"),
            Err(QasmError::Unsupported(_))
        ));
        assert!(matches!(
            from_qasm("OPENQASM 3.0; qreg q[1];"),
            Err(QasmError::Unsupported(_))
        ));
        assert!(matches!(
            from_qasm("OPENQASM 2.0; h q[0]; qreg q[1];"),
            Err(QasmError::Invalid(_))
        ));
        assert!(matches!(
            from_qasm("OPENQASM 2.0; qreg q[2]; rx() q[0];"),
            Err(QasmError::Parse(_))
        ));
    }

    #[test]
    fn u1_alias_maps_to_rz() {
        let c = from_qasm("OPENQASM 2.0; qreg q[1]; u1(0.5) q[0];").unwrap();
        assert_eq!(c.ops()[0].gate, Gate::Rz(0.5));
    }
}
