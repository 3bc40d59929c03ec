//! AST-walking reference interpreter: the independent oracle for the VM.
//!
//! A DML source is parsed and its statements are evaluated directly on
//! matrix values — no HOP DAG, rewrites, operator selection, runtime
//! program, lowering or bytecode — so a defect in any of those layers,
//! or in a VM opcode arm, shows up as a value difference. Only the
//! `reml::matrix` kernels are shared with the VM.
//!
//! The interpreter covers the language of the program generators in
//! `differential.rs` and `dml_gen.rs`: `read`/`write` through `$`
//! parameters, `+ - * /`, comparisons and `& |` on scalars and
//! same-shaped matrices, `%*%`, `t`, `sum`/`rowSums`/`colSums`,
//! `abs`/`round`/`sign`/`exp`, `ppred(X, s, ">")`,
//! `append`/`cbind`/`rbind`, `matrix`, `seq`, `print` with string
//! concatenation, and `while`/`if` on scalar predicates. Anything else
//! panics, so a generator that outgrows the reference fails loudly.
//!
//! Results are compared within a relative tolerance ([`close`]): the
//! compiler may legitimately reassociate floating-point work.

use std::collections::HashMap;

use reml::lang::ast::{BinOp, Expr, Statement};
use reml::matrix::{AggOp, BinaryOp, DenseMatrix, Matrix, UnaryOp};

/// Hard bound on `while` iterations; generated programs run a handful.
const MAX_ITERATIONS: usize = 10_000;

/// A DML value.
#[derive(Clone, Debug)]
pub enum Value {
    M(Matrix),
    Num(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    fn num(&self) -> f64 {
        match self {
            Value::Num(v) => *v,
            Value::Bool(b) => f64::from(u8::from(*b)),
            Value::M(m) if m.rows() == 1 && m.cols() == 1 => m.get(0, 0),
            other => panic!("expected a scalar, got {other:?}"),
        }
    }

    fn truth(&self) -> bool {
        self.num() != 0.0
    }

    fn into_matrix(self) -> Matrix {
        match self {
            Value::M(m) => m,
            scalar => Matrix::constant(1, 1, scalar.num()),
        }
    }

    fn render(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            scalar => format!("{}", scalar.num()),
        }
    }
}

/// Everything one interpreted run produced.
#[derive(Default)]
pub struct Run {
    /// Variables live at exit.
    pub env: HashMap<String, Value>,
    /// Lines printed by `print`, in order.
    pub printed: Vec<String>,
    /// Matrices written by `write`, by resolved path.
    pub written: HashMap<String, Matrix>,
}

/// Interpret `source`. `params` binds `$name` parameters to strings;
/// `inputs` binds the paths `read` may load.
pub fn interpret(source: &str, params: &[(&str, &str)], inputs: &[(&str, &Matrix)]) -> Run {
    let program = reml::lang::parse(source).expect("reference: source parses");
    let mut interp = Interpreter {
        params: params
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        inputs: inputs
            .iter()
            .map(|(k, m)| (k.to_string(), (*m).clone()))
            .collect(),
        run: Run::default(),
    };
    interp.block(&program.statements);
    interp.run
}

struct Interpreter {
    params: HashMap<String, String>,
    inputs: HashMap<String, Matrix>,
    run: Run,
}

impl Interpreter {
    fn block(&mut self, statements: &[Statement]) {
        for stmt in statements {
            self.statement(stmt);
        }
    }

    fn statement(&mut self, stmt: &Statement) {
        match stmt {
            Statement::Assign {
                target,
                index: None,
                expr,
                ..
            } => {
                let value = self.eval(expr);
                self.run.env.insert(target.clone(), value);
            }
            Statement::ExprStmt {
                expr: Expr::Call { name, args, .. },
                ..
            } if name == "print" => {
                let line = self.eval(&args[0]).render();
                self.run.printed.push(line);
            }
            Statement::ExprStmt {
                expr: Expr::Call { name, args, .. },
                ..
            } if name == "write" => {
                let m = self.eval(&args[0]).into_matrix();
                let Value::Str(path) = self.eval(&args[1]) else {
                    panic!("reference: write path must be a string")
                };
                self.run.written.insert(path, m);
            }
            Statement::If {
                pred,
                then_branch,
                else_branch,
                ..
            } => {
                if self.eval(pred).truth() {
                    self.block(then_branch);
                } else {
                    self.block(else_branch);
                }
            }
            Statement::While { pred, body, .. } => {
                let mut iterations = 0;
                while self.eval(pred).truth() {
                    iterations += 1;
                    assert!(iterations <= MAX_ITERATIONS, "reference: runaway loop");
                    self.block(body);
                }
            }
            other => panic!("reference: unsupported statement {other:?}"),
        }
    }

    fn eval(&mut self, expr: &Expr) -> Value {
        match expr {
            Expr::Num(v) => Value::Num(*v),
            Expr::Str(s) => Value::Str(s.clone()),
            Expr::Ident(name) => self
                .run
                .env
                .get(name)
                .unwrap_or_else(|| panic!("reference: undefined variable {name}"))
                .clone(),
            Expr::Param(name) => Value::Str(
                self.params
                    .get(name)
                    .unwrap_or_else(|| panic!("reference: unbound parameter ${name}"))
                    .clone(),
            ),
            Expr::Binary { op, lhs, rhs, .. } => {
                let (l, r) = (self.eval(lhs), self.eval(rhs));
                binary(*op, l, r)
            }
            Expr::Call {
                name, args, named, ..
            } => self.call(name, args, named),
            other => panic!("reference: unsupported expression {other:?}"),
        }
    }

    fn matrix_arg(&mut self, expr: &Expr) -> Matrix {
        match self.eval(expr) {
            Value::M(m) => m,
            other => panic!("reference: expected a matrix, got {other:?}"),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr], named: &[(String, Expr)]) -> Value {
        match name {
            "read" => {
                let Value::Str(path) = self.eval(&args[0]) else {
                    panic!("reference: read path must be a string")
                };
                Value::M(
                    self.inputs
                        .get(&path)
                        .unwrap_or_else(|| panic!("reference: no input at {path}"))
                        .clone(),
                )
            }
            "matrix" => {
                let v = self.eval(&args[0]).num();
                let mut dim = |key: &str| {
                    let (_, e) = named
                        .iter()
                        .find(|(n, _)| n == key)
                        .unwrap_or_else(|| panic!("reference: matrix() needs {key}="));
                    self.eval(e).num() as usize
                };
                let (rows, cols) = (dim("rows"), dim("cols"));
                Value::M(Matrix::constant(rows, cols, v))
            }
            "seq" => {
                let from = self.eval(&args[0]).num();
                let to = self.eval(&args[1]).num();
                let by = match args.get(2) {
                    Some(e) => self.eval(e).num(),
                    None if from <= to => 1.0,
                    None => -1.0,
                };
                let n = ((to - from) / by).floor() as usize + 1;
                let data = (0..n).map(|k| from + k as f64 * by).collect();
                Value::M(Matrix::Dense(
                    DenseMatrix::from_vec(n, 1, data).expect("seq shape"),
                ))
            }
            "sum" => Value::Num(
                self.matrix_arg(&args[0])
                    .aggregate(AggOp::Sum)
                    .as_scalar()
                    .expect("full reduction"),
            ),
            "rowSums" => Value::M(self.matrix_arg(&args[0]).aggregate(AggOp::RowSums)),
            "colSums" => Value::M(self.matrix_arg(&args[0]).aggregate(AggOp::ColSums)),
            "t" => Value::M(self.matrix_arg(&args[0]).transpose()),
            "abs" | "round" | "sign" | "exp" => {
                let op = match name {
                    "abs" => UnaryOp::Abs,
                    "round" => UnaryOp::Round,
                    "sign" => UnaryOp::Sign,
                    _ => UnaryOp::Exp,
                };
                match self.eval(&args[0]) {
                    Value::M(m) => Value::M(m.unary(op)),
                    s => Value::Num(op.apply(s.num())),
                }
            }
            "ppred" => {
                let m = self.matrix_arg(&args[0]);
                let s = self.eval(&args[1]).num();
                let Value::Str(op) = self.eval(&args[2]) else {
                    panic!("reference: ppred operator must be a string")
                };
                assert_eq!(op, ">", "reference: ppred supports \">\" only");
                Value::M(m.binary_scalar(BinaryOp::Greater, s))
            }
            "append" | "cbind" => {
                let a = self.matrix_arg(&args[0]);
                let b = self.matrix_arg(&args[1]);
                Value::M(a.cbind(&b).expect("rows agree"))
            }
            "rbind" => {
                let a = self.matrix_arg(&args[0]);
                let b = self.matrix_arg(&args[1]);
                Value::M(a.rbind(&b).expect("columns agree"))
            }
            other => panic!("reference: unsupported call {other}"),
        }
    }
}

fn binary(op: BinOp, l: Value, r: Value) -> Value {
    if op == BinOp::Add && (matches!(l, Value::Str(_)) || matches!(r, Value::Str(_))) {
        return Value::Str(l.render() + &r.render());
    }
    if op == BinOp::MatMul {
        let (a, b) = (l.into_matrix(), r.into_matrix());
        return Value::M(a.matmult(&b).expect("matmult conforms"));
    }
    let bop = match op {
        BinOp::Add => BinaryOp::Add,
        BinOp::Sub => BinaryOp::Sub,
        BinOp::Mul => BinaryOp::Mul,
        BinOp::Div => BinaryOp::Div,
        BinOp::Eq => BinaryOp::Eq,
        BinOp::NotEq => BinaryOp::NotEq,
        BinOp::Lt => BinaryOp::Less,
        BinOp::LtEq => BinaryOp::LessEq,
        BinOp::Gt => BinaryOp::Greater,
        BinOp::GtEq => BinaryOp::GreaterEq,
        BinOp::And => BinaryOp::And,
        BinOp::Or => BinaryOp::Or,
        BinOp::Pow | BinOp::Mod | BinOp::MatMul => {
            panic!("reference: unsupported operator {op:?}")
        }
    };
    match (l, r) {
        (Value::M(a), Value::M(b)) => Value::M(a.binary(bop, &b).expect("shapes agree")),
        (Value::M(a), s) => Value::M(a.binary_scalar(bop, s.num())),
        (s, Value::M(b)) => Value::M(b.scalar_binary(bop, s.num())),
        (a, b) => {
            let v = bop.apply(a.num(), b.num());
            match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => Value::Num(v),
                _ => Value::Bool(v != 0.0),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tolerant comparison.
// ---------------------------------------------------------------------

/// `actual` is within 1e-6 of `expected`, relative to `max(|expected|, 1)`;
/// equal infinities and NaN against NaN count as equal.
pub fn close(expected: f64, actual: f64) -> bool {
    if expected.is_nan() || actual.is_nan() {
        return expected.is_nan() && actual.is_nan();
    }
    if expected.is_infinite() || actual.is_infinite() {
        return expected == actual;
    }
    (expected - actual).abs() <= 1e-6 * expected.abs().max(1.0)
}

/// Cell-wise [`close`] with equal dimensions.
pub fn matrices_close(expected: &Matrix, actual: &Matrix) -> Result<(), String> {
    if (expected.rows(), expected.cols()) != (actual.rows(), actual.cols()) {
        return Err(format!(
            "dims {}x{} vs {}x{}",
            expected.rows(),
            expected.cols(),
            actual.rows(),
            actual.cols()
        ));
    }
    for r in 0..expected.rows() {
        for c in 0..expected.cols() {
            let (e, a) = (expected.get(r, c), actual.get(r, c));
            if !close(e, a) {
                return Err(format!("cell ({r}, {c}): reference {e} vs {a}"));
            }
        }
    }
    Ok(())
}

#[derive(Debug)]
enum Token<'a> {
    Text(&'a str),
    Num(f64),
}

/// Length of the number token at the start of `s`, if one starts there.
fn number_len(s: &str) -> Option<usize> {
    if let Some(word) = ["-inf", "inf", "NaN"].iter().find(|w| s.starts_with(**w)) {
        return Some(word.len());
    }
    let b = s.as_bytes();
    let mut i = usize::from(b.first() == Some(&b'-'));
    let digits = i;
    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
        i += 1;
    }
    if i == digits {
        return None;
    }
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        let mut j = i + 1;
        if j < b.len() && (b[j] == b'-' || b[j] == b'+') {
            j += 1;
        }
        let exponent = j;
        while j < b.len() && b[j].is_ascii_digit() {
            j += 1;
        }
        if j > exponent {
            i = j;
        }
    }
    s[..i].parse::<f64>().is_ok().then_some(i)
}

fn tokens(line: &str) -> Vec<Token<'_>> {
    let mut out = Vec::new();
    let (mut i, mut text_start) = (0, 0);
    while i < line.len() {
        match number_len(&line[i..]) {
            Some(n) => {
                if text_start < i {
                    out.push(Token::Text(&line[text_start..i]));
                }
                out.push(Token::Num(line[i..i + n].parse().expect("checked")));
                i += n;
                text_start = i;
            }
            None => i += line[i..].chars().next().map_or(1, char::len_utf8),
        }
    }
    if text_start < line.len() {
        out.push(Token::Text(&line[text_start..]));
    }
    out
}

/// The same text with every number [`close`] to its counterpart.
pub fn lines_match(expected: &str, actual: &str) -> bool {
    let (e, a) = (tokens(expected), tokens(actual));
    e.len() == a.len()
        && e.iter().zip(&a).all(|pair| match pair {
            (Token::Text(x), Token::Text(y)) => x == y,
            (Token::Num(x), Token::Num(y)) => close(*x, *y),
            _ => false,
        })
}

impl Run {
    /// Check what a compiled run observed against this reference run:
    /// printed lines match ([`lines_match`]) and every matrix the
    /// compiled run holds is [`matrices_close`] to the same-named
    /// reference value.
    pub fn check(&self, printed: &[String], matrices: &[(String, Matrix)]) -> Result<(), String> {
        if printed.len() != self.printed.len()
            || !self
                .printed
                .iter()
                .zip(printed)
                .all(|(e, a)| lines_match(e, a))
        {
            return Err(format!(
                "printed lines differ\n  reference: {:?}\n  compiled:  {printed:?}",
                self.printed
            ));
        }
        for (name, actual) in matrices {
            let Some(expected) = self.env.get(name) else {
                return Err(format!(
                    "compiled run holds '{name}', the reference does not"
                ));
            };
            let expected = expected.clone().into_matrix();
            matrices_close(&expected, actual).map_err(|e| format!("matrix '{name}': {e}"))?;
        }
        Ok(())
    }
}
