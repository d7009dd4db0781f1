//! Integer constant folding.
//!
//! Implements the *const-fold isomorphism*: integer constants compare by
//! value, not by shape. The paper's unroll-removal rule matches the loop bound `i+k-1 < l` with
//! `constant k={4}` against source code reading `i+3 < l`, which requires
//! comparing constant subexpressions by value rather than by shape.

use crate::ast::{BinOp, Expr, UnOp};

/// Evaluate an integer constant expression. Returns `None` when the
/// expression involves non-constant subterms, floats, or operations we do
/// not model (casts, calls, …). Division by zero also yields `None`.
pub fn eval_const(expr: &Expr) -> Option<i128> {
    match expr {
        Expr::IntLit { value, .. } => Some(*value),
        Expr::CharLit { raw, .. } => {
            // 'a' or simple escapes.
            let inner = raw.as_str().strip_prefix('\'')?.strip_suffix('\'')?;
            let mut chars = inner.chars();
            match (chars.next()?, chars.next()) {
                (c, None) => Some(c as i128),
                ('\\', Some(e)) if chars.next().is_none() => Some(match e {
                    'n' => 10,
                    't' => 9,
                    'r' => 13,
                    '0' => 0,
                    '\\' => 92,
                    '\'' => 39,
                    _ => return None,
                }),
                _ => None,
            }
        }
        Expr::Paren { inner, .. } => eval_const(inner),
        Expr::Unary { op, expr, .. } => {
            let v = eval_const(expr)?;
            match op {
                UnOp::Neg => v.checked_neg(),
                UnOp::Pos => Some(v),
                UnOp::BitNot => Some(!v),
                UnOp::Not => Some(i128::from(v == 0)),
                _ => None,
            }
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = eval_const(lhs)?;
            let b = eval_const(rhs)?;
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        None
                    } else {
                        a.checked_div(b)
                    }
                }
                BinOp::Rem => {
                    if b == 0 {
                        None
                    } else {
                        a.checked_rem(b)
                    }
                }
                BinOp::Shl => {
                    if (0..127).contains(&b) {
                        a.checked_shl(b as u32)
                    } else {
                        None
                    }
                }
                BinOp::Shr => {
                    if (0..127).contains(&b) {
                        a.checked_shr(b as u32)
                    } else {
                        None
                    }
                }
                BinOp::BitAnd => Some(a & b),
                BinOp::BitOr => Some(a | b),
                BinOp::BitXor => Some(a ^ b),
                BinOp::Lt => Some(i128::from(a < b)),
                BinOp::Gt => Some(i128::from(a > b)),
                BinOp::Le => Some(i128::from(a <= b)),
                BinOp::Ge => Some(i128::from(a >= b)),
                BinOp::EqEq => Some(i128::from(a == b)),
                BinOp::Ne => Some(i128::from(a != b)),
                BinOp::And => Some(i128::from(a != 0 && b != 0)),
                BinOp::Or => Some(i128::from(a != 0 || b != 0)),
                BinOp::Comma => Some(b),
            }
        }
        Expr::Ternary {
            cond,
            then_val,
            else_val,
            ..
        } => {
            let c = eval_const(cond)?;
            if c != 0 {
                eval_const(then_val)
            } else {
                eval_const(else_val)
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expression, NoMeta, ParseOptions};

    fn ev(src: &str) -> Option<i128> {
        eval_const(&parse_expression(src, ParseOptions::c(), &NoMeta).unwrap())
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ev("4-1"), Some(3));
        assert_eq!(ev("2*3+4"), Some(10));
        assert_eq!(ev("(1+2)*3"), Some(9));
        assert_eq!(ev("-5"), Some(-5));
        assert_eq!(ev("7/2"), Some(3));
        assert_eq!(ev("7%2"), Some(1));
    }

    #[test]
    fn bit_ops_and_shifts() {
        assert_eq!(ev("1<<4"), Some(16));
        assert_eq!(ev("0xff & 0x0f"), Some(15));
        assert_eq!(ev("8>>2"), Some(2));
        assert_eq!(ev("~0"), Some(-1));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(ev("3 < 4"), Some(1));
        assert_eq!(ev("3 > 4"), Some(0));
        assert_eq!(ev("1 && 0"), Some(0));
        assert_eq!(ev("1 || 0"), Some(1));
        assert_eq!(ev("!5"), Some(0));
    }

    #[test]
    fn ternary_and_comma() {
        assert_eq!(ev("1 ? 10 : 20"), Some(10));
        assert_eq!(ev("0 ? 10 : 20"), Some(20));
    }

    #[test]
    fn char_literals() {
        assert_eq!(ev("'a'"), Some(97));
        assert_eq!(ev("'\\n'"), Some(10));
    }

    #[test]
    fn non_constant_is_none() {
        assert_eq!(ev("x + 1"), None);
        assert_eq!(ev("f(3)"), None);
        assert_eq!(ev("4/0"), None);
    }

    #[test]
    fn unroll_use_case_shapes() {
        // Pattern `k-1` with k substituted by 4 must equal source `3`.
        assert_eq!(ev("4-1"), ev("3"));
        // `i+k-1` and `i+3` agree on the constant tail but not overall.
        assert_eq!(ev("i+4-1"), None);
    }
}
