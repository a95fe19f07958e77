//! Recursive-descent parser for the minicc C subset.

use crate::ast::*;
use crate::lexer::{lex, Spanned, Tok};
use crate::CompileError;

/// How deep one function's syntax may nest. A statement inside another
/// statement is one level deeper; so is every sub-expression inside an
/// expression (parenthesized, subscript, call-argument, unary and ternary
/// operands, and each link of an operator chain such as `x + x + … + x`,
/// which parses to a left-deep tree). Parsing, lowering and dropping the
/// tree all recurse once per level, so an unbounded input overflows the
/// thread's stack and aborts the whole process; past this bound it is a
/// [`CompileError`] instead.
///
/// Measured on a 2 MiB debug-build thread with the bound lifted, the
/// shallowest overflow was nested parentheses at 115 levels (calls and
/// right-nested chains 115, subscripts 129, a flat `+` chain 278, nested
/// ternaries 278, nested `if`s 352, loops 375, negations 400, blocks
/// 452). 64 levels, one more than C's minimum translation limit of 63
/// nested parenthesized expressions, keep every shape under 60% of that
/// stack; the 21 benchmarks nest at most 15 deep and generated programs
/// at most 18.
pub const MAX_NESTING: usize = 64;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Open nesting levels: enclosing statements and sub-expressions.
    depth: usize,
}

type Result<T> = std::result::Result<T, CompileError>;

/// An expression and the height of its tree (a leaf has height 1).
type Node = (Expr, usize);

/// Parses a whole translation unit.
pub fn parse_program(source: &str) -> Result<Program> {
    let toks = lex(source)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut prog = Program::default();
    while !matches!(p.peek(), Tok::Eof) {
        prog.funcs.push(p.funcdef()?);
    }
    Ok(prog)
}

const TYPE_KEYWORDS: &[&str] = &["int", "long", "float", "double", "void"];

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn err(&self, msg: impl Into<String>) -> CompileError {
        CompileError {
            line: self.line(),
            message: msg.into(),
        }
    }

    fn too_deep(&self) -> CompileError {
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    /// Runs `parse` one nesting level deeper; fails past [`MAX_NESTING`]
    /// before recursing any further.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let out = parse(self)?;
        self.depth -= 1;
        Ok(out)
    }

    /// A compound expression of height `height`, checked against
    /// [`MAX_NESTING`] together with the levels enclosing it.
    fn node(&self, e: Expr, height: usize) -> Result<Node> {
        if self.depth + height > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok((e, height))
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected {p:?}, got {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        let line = self.line();
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(CompileError {
                line,
                message: format!("expected identifier, got {other:?}"),
            }),
        }
    }

    fn at_type(&self) -> bool {
        matches!(self.peek(), Tok::Ident(s) if TYPE_KEYWORDS.contains(&s.as_str()))
    }

    fn base_type(&mut self) -> Result<CType> {
        let name = self.ident()?;
        let mut ty = match name.as_str() {
            "int" => CType::Int,
            "long" => CType::Long,
            "float" => CType::Float,
            "double" => CType::Double,
            "void" => CType::Void,
            other => return Err(self.err(format!("unknown type {other:?}"))),
        };
        while self.eat_punct("*") {
            ty = ty.ptr_to();
        }
        Ok(ty)
    }

    fn funcdef(&mut self) -> Result<FuncDef> {
        let line = self.line();
        let ret = self.base_type()?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let pty = self.base_type()?;
                let pname = self.ident()?;
                params.push((pname, pty));
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        self.expect_punct("{")?;
        let body = self.block_body()?;
        Ok(FuncDef {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    /// Statements up to and including the closing `}`.
    fn block_body(&mut self) -> Result<Vec<Stmt>> {
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if matches!(self.peek(), Tok::Eof) {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt> {
        self.nested(Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt> {
        let line = self.line();
        if self.eat_punct("{") {
            return Ok(Stmt::Block(self.block_body()?));
        }
        if let Tok::Ident(kw) = self.peek() {
            match kw.as_str() {
                "if" => return self.if_stmt(),
                "while" => return self.while_stmt(),
                "for" => return self.for_stmt(),
                "return" => {
                    self.bump();
                    if self.eat_punct(";") {
                        return Ok(Stmt::Return(None, line));
                    }
                    let e = self.expr()?;
                    self.expect_punct(";")?;
                    return Ok(Stmt::Return(Some(e), line));
                }
                _ if self.at_type() => {
                    let d = self.decl()?;
                    self.expect_punct(";")?;
                    return Ok(d);
                }
                _ => {}
            }
        }
        let s = self.assign_or_expr()?;
        self.expect_punct(";")?;
        Ok(s)
    }

    fn decl(&mut self) -> Result<Stmt> {
        let line = self.line();
        let ty = self.base_type()?;
        let name = self.ident()?;
        let mut dims = Vec::new();
        while self.eat_punct("[") {
            match self.bump() {
                Tok::Int(n) if n > 0 => dims.push(n as usize),
                other => {
                    return Err(self.err(format!(
                        "array dimension must be a positive integer literal, got {other:?}"
                    )))
                }
            }
            self.expect_punct("]")?;
        }
        let init = if self.eat_punct("=") {
            if !dims.is_empty() {
                return Err(self.err("array initializers are not supported"));
            }
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Decl {
            name,
            ty,
            dims,
            init,
            line,
        })
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        self.bump(); // if
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let then = self.stmt_as_block()?;
        let other = if matches!(self.peek(), Tok::Ident(k) if k == "else") {
            self.bump();
            self.stmt_as_block()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, then, other })
    }

    fn while_stmt(&mut self) -> Result<Stmt> {
        self.bump(); // while
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let body = self.stmt_as_block()?;
        Ok(Stmt::While { cond, body })
    }

    fn for_stmt(&mut self) -> Result<Stmt> {
        self.bump(); // for
        self.expect_punct("(")?;
        let init = if self.eat_punct(";") {
            None
        } else {
            let s = if self.at_type() {
                self.decl()?
            } else {
                self.assign_or_expr()?
            };
            self.expect_punct(";")?;
            Some(Box::new(s))
        };
        let cond = if self.eat_punct(";") {
            None
        } else {
            let e = self.expr()?;
            self.expect_punct(";")?;
            Some(e)
        };
        let step = if self.eat_punct(")") {
            None
        } else {
            let s = self.assign_or_expr()?;
            self.expect_punct(")")?;
            Some(Box::new(s))
        };
        let body = self.stmt_as_block()?;
        Ok(Stmt::For {
            init,
            cond,
            step,
            body,
        })
    }

    fn stmt_as_block(&mut self) -> Result<Vec<Stmt>> {
        if self.eat_punct("{") {
            self.block_body()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// Assignment, `++`/`--`, or bare expression (no trailing `;`).
    fn assign_or_expr(&mut self) -> Result<Stmt> {
        let line = self.line();
        // Pre-increment as a statement: ++i; --i;
        for (p, op) in [("++", BinOp::Add), ("--", BinOp::Sub)] {
            if matches!(self.peek(), Tok::Punct(q) if *q == p) {
                self.bump();
                let target = self.lvalue()?;
                return Ok(Stmt::Assign {
                    target,
                    op: Some(op),
                    value: Expr::IntLit(1),
                    line,
                });
            }
        }
        let e = self.expr()?;
        let as_lvalue = |e: &Expr| -> Option<LValue> {
            match e {
                Expr::Var(n) => Some(LValue::Var(n.clone())),
                Expr::Index { base, indices } => Some(LValue::Index {
                    base: base.clone(),
                    indices: indices.clone(),
                }),
                _ => None,
            }
        };
        let compound = [
            ("=", None),
            ("+=", Some(BinOp::Add)),
            ("-=", Some(BinOp::Sub)),
            ("*=", Some(BinOp::Mul)),
            ("/=", Some(BinOp::Div)),
            ("%=", Some(BinOp::Rem)),
        ];
        for (p, op) in compound {
            if matches!(self.peek(), Tok::Punct(q) if *q == p) {
                self.bump();
                let target = as_lvalue(&e)
                    .ok_or_else(|| self.err("left-hand side of assignment is not assignable"))?;
                let value = self.expr()?;
                return Ok(Stmt::Assign {
                    target,
                    op,
                    value,
                    line,
                });
            }
        }
        for (p, op) in [("++", BinOp::Add), ("--", BinOp::Sub)] {
            if matches!(self.peek(), Tok::Punct(q) if *q == p) {
                self.bump();
                let target =
                    as_lvalue(&e).ok_or_else(|| self.err("operand of ++/-- is not assignable"))?;
                return Ok(Stmt::Assign {
                    target,
                    op: Some(op),
                    value: Expr::IntLit(1),
                    line,
                });
            }
        }
        Ok(Stmt::Expr(e, line))
    }

    fn lvalue(&mut self) -> Result<LValue> {
        let name = self.ident()?;
        let mut indices = Vec::new();
        while self.eat_punct("[") {
            indices.push(self.expr()?);
            self.expect_punct("]")?;
        }
        if indices.is_empty() {
            Ok(LValue::Var(name))
        } else {
            Ok(LValue::Index {
                base: name,
                indices,
            })
        }
    }

    // ----- expressions, precedence climbing -----

    fn expr(&mut self) -> Result<Expr> {
        Ok(self.sub_expr()?.0)
    }

    /// A full expression one nesting level down.
    fn sub_expr(&mut self) -> Result<Node> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> Result<Node> {
        let (cond, hc) = self.or_expr()?;
        if self.eat_punct("?") {
            let (then, ht) = self.sub_expr()?;
            self.expect_punct(":")?;
            let (other, ho) = self.nested(Self::ternary)?;
            let e = Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                other: Box::new(other),
            };
            self.node(e, 1 + hc.max(ht).max(ho))
        } else {
            Ok((cond, hc))
        }
    }

    /// A left-associative chain of `operand`s joined by the operators
    /// `op` recognises; `join` builds each link.
    fn chain<O>(
        &mut self,
        operand: fn(&mut Self) -> Result<Node>,
        op: fn(&mut Self) -> Option<O>,
        join: fn(O, Box<Expr>, Box<Expr>) -> Expr,
    ) -> Result<Node> {
        let (mut lhs, mut h) = operand(self)?;
        while let Some(o) = op(self) {
            let (rhs, hr) = operand(self)?;
            (lhs, h) = self.node(join(o, Box::new(lhs), Box::new(rhs)), 1 + h.max(hr))?;
        }
        Ok((lhs, h))
    }

    /// The first of `ops` at the cursor, consumed.
    fn eat_op<O: Copy>(&mut self, ops: &[(&str, O)]) -> Option<O> {
        ops.iter().find(|(p, _)| self.eat_punct(p)).map(|&(_, o)| o)
    }

    fn or_expr(&mut self) -> Result<Node> {
        self.chain(
            Self::and_expr,
            |p| p.eat_op(&[("||", ())]),
            |(), l, r| Expr::Or(l, r),
        )
    }

    fn and_expr(&mut self) -> Result<Node> {
        self.chain(
            Self::equality,
            |p| p.eat_op(&[("&&", ())]),
            |(), l, r| Expr::And(l, r),
        )
    }

    fn equality(&mut self) -> Result<Node> {
        self.chain(
            Self::relational,
            |p| p.eat_op(&[("==", CmpOp::Eq), ("!=", CmpOp::Ne)]),
            Expr::Cmp,
        )
    }

    fn relational(&mut self) -> Result<Node> {
        self.chain(
            Self::additive,
            |p| {
                p.eat_op(&[
                    ("<=", CmpOp::Le),
                    (">=", CmpOp::Ge),
                    ("<", CmpOp::Lt),
                    (">", CmpOp::Gt),
                ])
            },
            Expr::Cmp,
        )
    }

    fn additive(&mut self) -> Result<Node> {
        self.chain(
            Self::multiplicative,
            |p| p.eat_op(&[("+", BinOp::Add), ("-", BinOp::Sub)]),
            Expr::Bin,
        )
    }

    fn multiplicative(&mut self) -> Result<Node> {
        self.chain(
            Self::unary,
            |p| p.eat_op(&[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Rem)]),
            Expr::Bin,
        )
    }

    fn unary(&mut self) -> Result<Node> {
        if self.eat_punct("-") {
            let (e, h) = self.nested(Self::unary)?;
            return self.node(Expr::Neg(Box::new(e)), h + 1);
        }
        if self.eat_punct("!") {
            let (e, h) = self.nested(Self::unary)?;
            return self.node(Expr::Not(Box::new(e)), h + 1);
        }
        if self.eat_punct("+") {
            return self.nested(Self::unary);
        }
        // Cast: '(' type ')' unary — lookahead for a type keyword.
        if matches!(self.peek(), Tok::Punct("("))
            && matches!(self.peek2(), Tok::Ident(s) if TYPE_KEYWORDS.contains(&s.as_str()))
        {
            self.bump(); // (
            let ty = self.base_type()?;
            self.expect_punct(")")?;
            let (expr, h) = self.nested(Self::unary)?;
            let e = Expr::Cast {
                ty,
                expr: Box::new(expr),
            };
            return self.node(e, h + 1);
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Node> {
        let (mut e, mut h) = self.primary()?;
        while self.eat_punct("[") {
            let (idx, hi) = self.sub_expr()?;
            self.expect_punct("]")?;
            let indexed = match e {
                Expr::Var(name) => Expr::Index {
                    base: name,
                    indices: vec![idx],
                },
                Expr::Index { base, mut indices } => {
                    indices.push(idx);
                    Expr::Index { base, indices }
                }
                _ => return Err(self.err("can only index variables")),
            };
            (e, h) = self.node(indexed, h.max(hi + 1))?;
        }
        Ok((e, h))
    }

    fn primary(&mut self) -> Result<Node> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v) => Ok((Expr::IntLit(v), 1)),
            Tok::Float(v, f32_suffix) => Ok((Expr::FloatLit(v, f32_suffix), 1)),
            Tok::Punct("(") => {
                let e = self.sub_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    let mut h = 1;
                    if !self.eat_punct(")") {
                        loop {
                            let (arg, ha) = self.sub_expr()?;
                            args.push(arg);
                            h = h.max(ha + 1);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    self.node(Expr::Call { name, args }, h)
                } else {
                    Ok((Expr::Var(name), 1))
                }
            }
            other => Err(CompileError {
                line,
                message: format!("unexpected token {other:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_function_with_loop() {
        let p = parse_program(
            "double dot(double* x, double* y, int n) { double acc = 0.0; for (int i = 0; i < n; i++) { acc += x[i] * y[i]; } return acc; }",
        )
        .unwrap();
        assert_eq!(p.funcs.len(), 1);
        let f = &p.funcs[0];
        assert_eq!(f.name, "dot");
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[0].1, CType::Double.ptr_to());
        assert!(matches!(f.body[1], Stmt::For { .. }));
    }

    #[test]
    fn parses_precedence() {
        let p = parse_program("int f(int a, int b) { return a + b * 2 < 10 && a != b; }").unwrap();
        let Stmt::Return(Some(e), _) = &p.funcs[0].body[0] else {
            panic!("expected return")
        };
        // (a + (b*2) < 10) && (a != b)
        assert!(matches!(e, Expr::And(_, _)));
    }

    #[test]
    fn parses_multidim_arrays_and_casts() {
        let p =
            parse_program("void f(int n) { double A[4][8]; A[1][2] = (double)n; A[0][0] += 1.0; }")
                .unwrap();
        let body = &p.funcs[0].body;
        assert!(matches!(&body[0], Stmt::Decl { dims, .. } if dims == &vec![4, 8]));
        assert!(
            matches!(&body[1], Stmt::Assign { target: LValue::Index { indices, .. }, value: Expr::Cast { .. }, .. } if indices.len() == 2)
        );
        assert!(matches!(
            &body[2],
            Stmt::Assign {
                op: Some(BinOp::Add),
                ..
            }
        ));
    }

    #[test]
    fn parses_ternary_calls_and_unaries() {
        let p = parse_program("double f(double x) { return x > 0.0 ? sqrt(x) : -x; }").unwrap();
        let Stmt::Return(Some(Expr::Ternary { then, .. }), _) = &p.funcs[0].body[0] else {
            panic!("expected ternary return")
        };
        assert!(matches!(**then, Expr::Call { .. }));
    }

    #[test]
    fn parses_for_variants() {
        let p = parse_program(
            "void f(int n) { int s = 0; for (;;) { s += 1; } for (s = 0; s < n;) ++s; }",
        )
        .unwrap();
        let body = &p.funcs[0].body;
        assert!(matches!(
            &body[1],
            Stmt::For {
                init: None,
                cond: None,
                step: None,
                ..
            }
        ));
        assert!(matches!(
            &body[2],
            Stmt::For {
                init: Some(_),
                cond: Some(_),
                step: None,
                ..
            }
        ));
    }

    #[test]
    fn reports_errors_with_lines() {
        let err = parse_program("int f() {\n  return 1 +;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_assignment_to_rvalue() {
        let err = parse_program("void f(int a) { a + 1 = 2; }").unwrap_err();
        assert!(err.message.contains("not assignable"));
    }
}
