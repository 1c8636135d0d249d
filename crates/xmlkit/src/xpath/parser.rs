//! Recursive-descent parser from tokens to the XPath AST.
//!
//! Follows the XPath 1.0 grammar's precedence levels:
//! `or < and < equality < relational < additive < multiplicative <
//! unary < union < path`.
//!
//! Every level the tree nests — a parenthesis, predicate or argument list
//! (each re-entering `or_expr`), a unary minus, and each link of a binary
//! chain — counts against [`MAX_EXPRESSION_DEPTH`]; past it the parse
//! fails instead of recursing on.

use super::ast::{Axis, BinOp, Expr, NodeTest, Path, Step};
use super::lexer::Token;
use super::XPathError;
use dais_util::MAX_EXPRESSION_DEPTH;

pub fn parse_tokens(tokens: &[Token]) -> Result<Expr, XPathError> {
    let mut p = P { tokens, pos: 0, depth: 0 };
    let expr = p.or_expr()?;
    if p.pos != tokens.len() {
        return Err(XPathError::new(format!("unexpected trailing tokens at position {}", p.pos)));
    }
    Ok(expr)
}

struct P<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Levels of the tree open at this point of the parse.
    depth: usize,
}

impl<'a> P<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), XPathError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(XPathError::new(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    /// Open one more level of the tree, refusing to pass the budget.
    fn deeper(&mut self) -> Result<(), XPathError> {
        self.depth += 1;
        if self.depth > MAX_EXPRESSION_DEPTH {
            return Err(XPathError::new(format!(
                "expression nests deeper than {MAX_EXPRESSION_DEPTH} levels"
            )));
        }
        Ok(())
    }

    /// True when the next token is the keyword `kw` used as an operator —
    /// only valid where a binary operator may appear.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Some(Token::Name(n)) = self.peek() {
            if n == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn or_expr(&mut self) -> Result<Expr, XPathError> {
        let mark = self.depth;
        self.deeper()?;
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("or") {
            self.deeper()?;
            let rhs = self.and_expr()?;
            lhs = Expr::Binary { op: BinOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = mark;
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, XPathError> {
        let mark = self.depth;
        let mut lhs = self.equality_expr()?;
        while self.eat_keyword("and") {
            self.deeper()?;
            let rhs = self.equality_expr()?;
            lhs = Expr::Binary { op: BinOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = mark;
        Ok(lhs)
    }

    fn equality_expr(&mut self) -> Result<Expr, XPathError> {
        let mark = self.depth;
        let mut lhs = self.relational_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Eq) => BinOp::Eq,
                Some(Token::Ne) => BinOp::Ne,
                _ => break,
            };
            self.pos += 1;
            self.deeper()?;
            let rhs = self.relational_expr()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = mark;
        Ok(lhs)
    }

    fn relational_expr(&mut self) -> Result<Expr, XPathError> {
        let mark = self.depth;
        let mut lhs = self.additive_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Lt) => BinOp::Lt,
                Some(Token::Le) => BinOp::Le,
                Some(Token::Gt) => BinOp::Gt,
                Some(Token::Ge) => BinOp::Ge,
                _ => break,
            };
            self.pos += 1;
            self.deeper()?;
            let rhs = self.additive_expr()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = mark;
        Ok(lhs)
    }

    fn additive_expr(&mut self) -> Result<Expr, XPathError> {
        let mark = self.depth;
        let mut lhs = self.multiplicative_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            self.deeper()?;
            let rhs = self.multiplicative_expr()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = mark;
        Ok(lhs)
    }

    fn multiplicative_expr(&mut self) -> Result<Expr, XPathError> {
        let mark = self.depth;
        let mut lhs = self.unary_expr()?;
        loop {
            let op = if self.peek() == Some(&Token::Star) {
                self.pos += 1;
                BinOp::Mul
            } else if self.eat_keyword("div") {
                BinOp::Div
            } else if self.eat_keyword("mod") {
                BinOp::Mod
            } else {
                break;
            };
            self.deeper()?;
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = mark;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, XPathError> {
        if self.eat(&Token::Minus) {
            self.deeper()?;
            let inner = self.unary_expr()?;
            self.depth -= 1;
            Ok(Expr::Negate(Box::new(inner)))
        } else {
            self.union_expr()
        }
    }

    fn union_expr(&mut self) -> Result<Expr, XPathError> {
        let mark = self.depth;
        let mut lhs = self.path_expr()?;
        while self.eat(&Token::Pipe) {
            self.deeper()?;
            let rhs = self.path_expr()?;
            lhs = Expr::Binary { op: BinOp::Union, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        self.depth = mark;
        Ok(lhs)
    }

    /// PathExpr: LocationPath | FilterExpr (('/' | '//') RelativePath)?
    fn path_expr(&mut self) -> Result<Expr, XPathError> {
        if self.starts_primary() {
            let primary = self.primary_expr()?;
            let mut predicates = Vec::new();
            while self.peek() == Some(&Token::LBracket) {
                predicates.push(self.predicate()?);
            }
            let path =
                if self.peek() == Some(&Token::Slash) || self.peek() == Some(&Token::DoubleSlash) {
                    Some(self.relative_path_after_filter()?)
                } else {
                    None
                };
            if predicates.is_empty() && path.is_none() {
                return Ok(primary);
            }
            return Ok(Expr::Filter { primary: Box::new(primary), predicates, path });
        }
        Ok(Expr::Path(self.location_path()?))
    }

    /// Does the upcoming token start a primary (non-path) expression?
    fn starts_primary(&self) -> bool {
        match self.peek() {
            Some(Token::Literal(_) | Token::Number(_) | Token::Variable(_) | Token::LParen) => true,
            // A name followed by '(' is a function call unless it is a
            // node-type test (node/text/comment).
            Some(Token::Name(n)) => {
                self.peek2() == Some(&Token::LParen)
                    && !matches!(n.as_str(), "node" | "text" | "comment")
            }
            _ => false,
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, XPathError> {
        match self.bump().cloned() {
            Some(Token::Literal(s)) => Ok(Expr::Literal(s)),
            Some(Token::Number(n)) => Ok(Expr::Number(n)),
            Some(Token::Variable(v)) => Ok(Expr::Variable(v)),
            Some(Token::LParen) => {
                let e = self.or_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Name(name)) => {
                self.expect(&Token::LParen)?;
                let mut args = Vec::new();
                if self.peek() != Some(&Token::RParen) {
                    loop {
                        args.push(self.or_expr()?);
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Token::RParen)?;
                Ok(Expr::Call { name, args })
            }
            other => Err(XPathError::new(format!("unexpected token {other:?}"))),
        }
    }

    fn predicate(&mut self) -> Result<Expr, XPathError> {
        self.expect(&Token::LBracket)?;
        let e = self.or_expr()?;
        self.expect(&Token::RBracket)?;
        Ok(e)
    }

    fn relative_path_after_filter(&mut self) -> Result<Path, XPathError> {
        let mut steps = Vec::new();
        loop {
            if self.eat(&Token::DoubleSlash) {
                steps.push(descendant_or_self_node());
                steps.push(self.step()?);
            } else if self.eat(&Token::Slash) {
                steps.push(self.step()?);
            } else {
                break;
            }
        }
        Ok(Path { absolute: false, steps })
    }

    fn location_path(&mut self) -> Result<Path, XPathError> {
        let mut absolute = false;
        let mut steps = Vec::new();
        if self.eat(&Token::DoubleSlash) {
            absolute = true;
            steps.push(descendant_or_self_node());
            steps.push(self.step()?);
        } else if self.eat(&Token::Slash) {
            absolute = true;
            // A bare '/' selects the root.
            if !self.starts_step() {
                return Ok(Path { absolute, steps });
            }
            steps.push(self.step()?);
        } else {
            steps.push(self.step()?);
        }
        loop {
            if self.eat(&Token::DoubleSlash) {
                steps.push(descendant_or_self_node());
                steps.push(self.step()?);
            } else if self.eat(&Token::Slash) {
                steps.push(self.step()?);
            } else {
                break;
            }
        }
        Ok(Path { absolute, steps })
    }

    fn starts_step(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::Name(_) | Token::Star | Token::At | Token::Dot | Token::DotDot)
        )
    }

    fn step(&mut self) -> Result<Step, XPathError> {
        // Abbreviations first.
        if self.eat(&Token::Dot) {
            return Ok(Step {
                axis: Axis::SelfAxis,
                test: NodeTest::AnyNode,
                predicates: self.predicates()?,
            });
        }
        if self.eat(&Token::DotDot) {
            return Ok(Step {
                axis: Axis::Parent,
                test: NodeTest::AnyNode,
                predicates: self.predicates()?,
            });
        }
        let mut axis = Axis::Child;
        if self.eat(&Token::At) {
            axis = Axis::Attribute;
        } else if let Some(Token::Name(n)) = self.peek() {
            if self.peek2() == Some(&Token::ColonColon) {
                let n = n.clone();
                match Axis::from_name(&n) {
                    Some(a) => {
                        axis = a;
                        self.pos += 2;
                    }
                    None => return Err(XPathError::new(format!("unknown axis '{n}'"))),
                }
            }
        }
        let test = self.node_test()?;
        let predicates = self.predicates()?;
        Ok(Step { axis, test, predicates })
    }

    fn predicates(&mut self) -> Result<Vec<Expr>, XPathError> {
        let mut out = Vec::new();
        while self.peek() == Some(&Token::LBracket) {
            out.push(self.predicate()?);
        }
        Ok(out)
    }

    fn node_test(&mut self) -> Result<NodeTest, XPathError> {
        match self.bump().cloned() {
            Some(Token::Star) => Ok(NodeTest::AnyName),
            Some(Token::Name(n)) => {
                // Node-type tests.
                if self.peek() == Some(&Token::LParen) {
                    let test = match n.as_str() {
                        "node" => NodeTest::AnyNode,
                        "text" => NodeTest::Text,
                        "comment" => NodeTest::Comment,
                        other => {
                            return Err(XPathError::new(format!(
                                "unknown node type test '{other}()'"
                            )))
                        }
                    };
                    self.pos += 1;
                    self.expect(&Token::RParen)?;
                    return Ok(test);
                }
                // prefix:local or prefix:*
                if self.eat(&Token::Colon) {
                    match self.bump().cloned() {
                        Some(Token::Name(local)) => Ok(NodeTest::Name { prefix: Some(n), local }),
                        Some(Token::Star) => Ok(NodeTest::NamespaceWildcard { prefix: n }),
                        other => Err(XPathError::new(format!(
                            "expected local name after '{n}:', found {other:?}"
                        ))),
                    }
                } else {
                    Ok(NodeTest::Name { prefix: None, local: n })
                }
            }
            other => Err(XPathError::new(format!("expected a node test, found {other:?}"))),
        }
    }
}

fn descendant_or_self_node() -> Step {
    Step { axis: Axis::DescendantOrSelf, test: NodeTest::AnyNode, predicates: Vec::new() }
}

#[cfg(test)]
mod tests {
    use super::super::lexer::tokenize;
    use super::*;

    fn parse(s: &str) -> Expr {
        parse_tokens(&tokenize(s).unwrap()).unwrap()
    }

    #[test]
    fn parses_absolute_path() {
        match parse("/a/b") {
            Expr::Path(p) => {
                assert!(p.absolute);
                assert_eq!(p.steps.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn double_slash_expands() {
        match parse("//a") {
            Expr::Path(p) => {
                assert_eq!(p.steps.len(), 2);
                assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn axis_syntax() {
        match parse("ancestor-or-self::x") {
            Expr::Path(p) => assert_eq!(p.steps[0].axis, Axis::AncestorOrSelf),
            other => panic!("{other:?}"),
        }
        assert!(parse_tokens(&tokenize("bogus::x").unwrap()).is_err());
    }

    #[test]
    fn operator_precedence() {
        // 1 + 2 * 3 = 7 structure: Add(1, Mul(2,3))
        match parse("1 + 2 * 3") {
            Expr::Binary { op: BinOp::Add, rhs, .. } => {
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn keyword_names_usable_as_element_names() {
        // 'div' as the first token is an element name, not an operator.
        match parse("div") {
            Expr::Path(p) => {
                assert!(matches!(&p.steps[0].test, NodeTest::Name { local, .. } if local == "div"))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn function_calls_and_args() {
        match parse("contains(a, 'x')") {
            Expr::Call { name, args } => {
                assert_eq!(name, "contains");
                assert_eq!(args.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn filter_expression_with_path() {
        match parse("(//a)[1]/b") {
            Expr::Filter { predicates, path, .. } => {
                assert_eq!(predicates.len(), 1);
                assert_eq!(path.unwrap().steps.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn prefixed_and_wildcard_tests() {
        match parse("p:x/p:*/*") {
            Expr::Path(p) => {
                assert!(
                    matches!(&p.steps[0].test, NodeTest::Name { prefix: Some(px), .. } if px == "p")
                );
                assert!(matches!(&p.steps[1].test, NodeTest::NamespaceWildcard { .. }));
                assert!(matches!(&p.steps[2].test, NodeTest::AnyName));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_root() {
        match parse("/") {
            Expr::Path(p) => {
                assert!(p.absolute);
                assert!(p.steps.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_tokens(&tokenize("a b").unwrap()).is_err());
    }

    #[test]
    fn union_of_paths() {
        assert!(matches!(parse("a | b"), Expr::Binary { op: BinOp::Union, .. }));
    }
}
