//! AST, evaluation, and display for formulas.

use crate::{EvalError, Scope};
use std::fmt;

/// Built-in unary functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Func1 {
    Sqrt,
    Log2,
    Ln,
    Ceil,
    Floor,
    Abs,
}

impl Func1 {
    /// The surface-syntax name of this function.
    pub fn name(self) -> &'static str {
        match self {
            Func1::Sqrt => "sqrt",
            Func1::Log2 => "log2",
            Func1::Ln => "ln",
            Func1::Ceil => "ceil",
            Func1::Floor => "floor",
            Func1::Abs => "abs",
        }
    }

    fn apply(self, x: f64) -> f64 {
        match self {
            Func1::Sqrt => x.sqrt(),
            Func1::Log2 => x.log2(),
            Func1::Ln => x.ln(),
            Func1::Ceil => x.ceil(),
            Func1::Floor => x.floor(),
            Func1::Abs => x.abs(),
        }
    }
}

/// Built-in binary functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Func2 {
    Min,
    Max,
    Pow,
}

impl Func2 {
    /// The surface-syntax name of this function.
    pub fn name(self) -> &'static str {
        match self {
            Func2::Min => "min",
            Func2::Max => "max",
            Func2::Pow => "pow",
        }
    }

    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            Func2::Min => a.min(b),
            Func2::Max => a.max(b),
            Func2::Pow => a.powf(b),
        }
    }
}

/// An expression tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Number(f64),
    /// Variable reference, resolved against a [`Scope`] at evaluation time.
    Var(String),
    /// Negation.
    Neg(Box<Expr>),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division.
    Div(Box<Expr>, Box<Expr>),
    /// Exponentiation (right-associative `^`).
    Pow(Box<Expr>, Box<Expr>),
    /// Unary function call.
    #[doc(hidden)]
    Call1(Func1, Box<Expr>),
    /// Binary function call.
    #[doc(hidden)]
    Call2(Func2, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Evaluate against a scope.
    pub fn eval(&self, scope: &Scope) -> Result<f64, EvalError> {
        let v = self.eval_inner(scope)?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(EvalError::NonFinite {
                context: "final result",
            })
        }
    }

    fn eval_inner(&self, scope: &Scope) -> Result<f64, EvalError> {
        Ok(match self {
            Expr::Number(n) => *n,
            Expr::Var(name) => scope
                .get(name)
                .ok_or_else(|| EvalError::UnknownVariable(name.clone()))?,
            Expr::Neg(e) => -e.eval_inner(scope)?,
            Expr::Add(a, b) => a.eval_inner(scope)? + b.eval_inner(scope)?,
            Expr::Sub(a, b) => a.eval_inner(scope)? - b.eval_inner(scope)?,
            Expr::Mul(a, b) => a.eval_inner(scope)? * b.eval_inner(scope)?,
            Expr::Div(a, b) => {
                let num = a.eval_inner(scope)?;
                let den = b.eval_inner(scope)?;
                if den == 0.0 {
                    return Err(EvalError::NonFinite {
                        context: "division by zero",
                    });
                }
                num / den
            }
            Expr::Pow(a, b) => a.eval_inner(scope)?.powf(b.eval_inner(scope)?),
            Expr::Call1(f, a) => f.apply(a.eval_inner(scope)?),
            Expr::Call2(f, a, b) => f.apply(a.eval_inner(scope)?, b.eval_inner(scope)?),
        })
    }

    /// Collect the variable names referenced by this expression (sorted,
    /// deduplicated).
    pub fn variables(&self) -> Vec<String> {
        let mut names = Vec::new();
        self.collect_vars(&mut names);
        names.sort();
        names.dedup();
        names
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Number(_) => {}
            Expr::Var(name) => out.push(name.clone()),
            Expr::Neg(e) | Expr::Call1(_, e) => e.collect_vars(out),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Pow(a, b)
            | Expr::Call2(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Operator precedence used by the printer to parenthesise minimally.
    fn precedence(&self) -> u8 {
        match self {
            Expr::Add(..) | Expr::Sub(..) => 1,
            Expr::Mul(..) | Expr::Div(..) => 2,
            Expr::Neg(..) => 3,
            Expr::Pow(..) => 4,
            Expr::Number(_) | Expr::Var(_) | Expr::Call1(..) | Expr::Call2(..) => 5,
        }
    }

    fn fmt_prec(&self, parent: u8, right_side: bool, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prec = self.precedence();
        // Need parens when we bind looser than the parent context, or equal
        // precedence on the non-associative side (right of `-`/`/`, left of `^`).
        let need = prec < parent || (prec == parent && right_side);
        if need {
            f.write_str("(")?;
        }
        match self {
            Expr::Number(n) => write!(f, "{n}")?,
            Expr::Var(name) => f.write_str(name)?,
            Expr::Neg(e) => {
                f.write_str("-")?;
                e.fmt_prec(3, true, f)?;
            }
            Expr::Add(a, b) => {
                a.fmt_prec(1, false, f)?;
                f.write_str(" + ")?;
                b.fmt_prec(1, false, f)?;
            }
            Expr::Sub(a, b) => {
                a.fmt_prec(1, false, f)?;
                f.write_str(" - ")?;
                b.fmt_prec(1, true, f)?;
            }
            Expr::Mul(a, b) => {
                a.fmt_prec(2, false, f)?;
                f.write_str(" * ")?;
                b.fmt_prec(2, false, f)?;
            }
            Expr::Div(a, b) => {
                a.fmt_prec(2, false, f)?;
                f.write_str(" / ")?;
                b.fmt_prec(2, true, f)?;
            }
            Expr::Pow(a, b) => {
                // `^` is right-associative: parenthesise an exponent base of
                // equal precedence, not the exponent itself.
                a.fmt_prec(5, false, f)?;
                f.write_str(" ^ ")?;
                b.fmt_prec(4, false, f)?;
            }
            Expr::Call1(func, a) => {
                write!(f, "{}(", func.name())?;
                a.fmt_prec(0, false, f)?;
                f.write_str(")")?;
            }
            Expr::Call2(func, a, b) => {
                write!(f, "{}(", func.name())?;
                a.fmt_prec(0, false, f)?;
                f.write_str(", ")?;
                b.fmt_prec(0, false, f)?;
                f.write_str(")")?;
            }
        }
        if need {
            f.write_str(")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(0, false, f)
    }
}

/// A parsed formula: the original source text plus its expression tree.
///
/// Cloning a `Formula` is cheap relative to re-parsing; the estimator stores
/// formulas inside QEC scheme and distillation unit descriptions.
#[derive(Debug, Clone, PartialEq)]
pub struct Formula {
    source: String,
    expr: Expr,
}

impl Formula {
    /// Parse a formula from its textual form.
    pub fn parse(source: &str) -> Result<Self, crate::ParseError> {
        let expr = crate::parser::parse_expr(source)?;
        Ok(Self {
            source: source.to_owned(),
            expr,
        })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The expression tree.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Evaluate against a scope.
    #[inline]
    pub fn eval(&self, scope: &Scope) -> Result<f64, EvalError> {
        self.expr.eval(scope)
    }

    /// Variables referenced by the formula.
    pub fn variables(&self) -> Vec<String> {
        self.expr.variables()
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope() -> Scope {
        Scope::from_pairs([("x", 3.0), ("y", 4.0), ("z", -2.0)])
    }

    fn eval(src: &str) -> f64 {
        Formula::parse(src).unwrap().eval(&scope()).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval("x + y * z"), 3.0 + 4.0 * -2.0);
        assert_eq!(eval("(x + y) * z"), (3.0 + 4.0) * -2.0);
        assert_eq!(eval("x - y - z"), 3.0 - 4.0 - -2.0);
        assert_eq!(eval("x / y / 2"), 3.0 / 4.0 / 2.0);
        assert_eq!(eval("-x ^ 2"), -(9.0)); // unary minus binds looser than ^
        assert_eq!(eval("2 ^ 3 ^ 2"), 512.0); // right-associative
    }

    #[test]
    fn functions() {
        assert_eq!(eval("sqrt(x * x)"), 3.0);
        assert_eq!(eval("log2(8)"), 3.0);
        assert_eq!(eval("ceil(2.1)"), 3.0);
        assert_eq!(eval("floor(2.9)"), 2.0);
        assert_eq!(eval("abs(z)"), 2.0);
        assert_eq!(eval("min(x, y)"), 3.0);
        assert_eq!(eval("max(x, y)"), 4.0);
        assert_eq!(eval("pow(2, 10)"), 1024.0);
        assert_eq!(eval("ln(1)"), 0.0);
    }

    #[test]
    fn unknown_variable_is_reported() {
        let f = Formula::parse("q + 1").unwrap();
        match f.eval(&scope()) {
            Err(EvalError::UnknownVariable(name)) => assert_eq!(name, "q"),
            other => panic!("expected UnknownVariable, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_rejected() {
        assert!(matches!(
            Formula::parse("1 / (x - 3)").unwrap().eval(&scope()),
            Err(EvalError::NonFinite { .. })
        ));
        assert!(matches!(
            Formula::parse("log2(0 - 1)").unwrap().eval(&Scope::new()),
            Err(EvalError::NonFinite { .. })
        ));
    }

    #[test]
    fn variables_collected_sorted_dedup() {
        let f = Formula::parse("y * x + y - sqrt(x)").unwrap();
        assert_eq!(f.variables(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn display_round_trips_semantics() {
        for src in [
            "x + y * z",
            "(x + y) * z",
            "x - (y - z)",
            "x / (y / z)",
            "-(x + y)",
            "2 ^ (3 ^ 2)",
            "(2 ^ 3) ^ 2",
            "min(x, max(y, z)) + pow(x, 2)",
        ] {
            let f = Formula::parse(src).unwrap();
            let printed = f.expr().to_string();
            let reparsed = Formula::parse(&printed).unwrap();
            let a = f.eval(&scope()).unwrap();
            let b = reparsed.eval(&scope()).unwrap();
            assert_eq!(a, b, "{src} printed as {printed}");
        }
    }

    #[test]
    fn paper_formulas_evaluate() {
        // Surface code logical cycle time (gate-based), Beverland et al. Table VII.
        let cycle =
            Formula::parse("(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance")
                .unwrap();
        let scope = Scope::from_pairs([
            ("twoQubitGateTime", 50.0),
            ("oneQubitMeasurementTime", 100.0),
            ("codeDistance", 11.0),
        ]);
        assert_eq!(cycle.eval(&scope).unwrap(), 4400.0);

        // 15-to-1 output error rate.
        let out = Formula::parse("35 * inputErrorRate ^ 3 + 7.1 * cliffordErrorRate").unwrap();
        let scope = Scope::from_pairs([("inputErrorRate", 0.01), ("cliffordErrorRate", 1e-5)]);
        let v = out.eval(&scope).unwrap();
        assert!((v - (35.0 * 1e-6 + 7.1e-5)).abs() < 1e-18);
    }

    #[test]
    fn constant_formula() {
        let f = Formula::parse("2.5").unwrap();
        assert_eq!(f.eval(&Scope::new()).unwrap(), 2.5);
        assert_eq!(f.source(), "2.5");
        assert!(f.variables().is_empty());
    }
}
