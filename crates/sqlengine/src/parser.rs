//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::error::SqlError;
use crate::lexer::{tokenize, Token};
use crate::value::{SqlType, Value};

/// Parse one statement (a trailing semicolon is tolerated).
pub fn parse_statement(sql: &str) -> Result<Stmt, SqlError> {
    let tokens = tokenize(sql)?;
    let mut p = P { tokens: &tokens, pos: 0, params: 0 };
    let stmt = p.statement()?;
    p.eat(&Token::Semicolon);
    if p.pos != tokens.len() {
        return Err(SqlError::syntax(format!("unexpected input after statement: {:?}", p.peek())));
    }
    Ok(stmt)
}

/// Count the `?` placeholders in a statement (for binding validation).
pub fn count_params(stmt: &Stmt) -> usize {
    fn expr_max(e: &Expr, max: &mut usize) {
        if let Expr::Param(i) = e {
            *max = (*max).max(i + 1);
        }
        for c in e.children() {
            expr_max(c, max);
        }
    }
    fn select_max(s: &Select, max: &mut usize) {
        for item in &s.items {
            if let SelectItem::Expr { expr, .. } = item {
                expr_max(expr, max);
            }
        }
        for j in &s.joins {
            if let Some(on) = &j.on {
                expr_max(on, max);
            }
        }
        if let Some(w) = &s.where_clause {
            expr_max(w, max);
        }
        for g in &s.group_by {
            expr_max(g, max);
        }
        if let Some(h) = &s.having {
            expr_max(h, max);
        }
        for arm in &s.unions {
            select_max(&arm.select, max);
        }
        for o in &s.order_by {
            expr_max(&o.expr, max);
        }
    }
    let mut max = 0;
    match stmt {
        Stmt::Select(s) => select_max(s, &mut max),
        Stmt::Insert(i) => match &i.source {
            InsertSource::Values(rows) => {
                for r in rows {
                    for e in r {
                        expr_max(e, &mut max);
                    }
                }
            }
            InsertSource::Query(q) => select_max(q, &mut max),
        },
        Stmt::Update(u) => {
            for (_, e) in &u.assignments {
                expr_max(e, &mut max);
            }
            if let Some(w) = &u.where_clause {
                expr_max(w, &mut max);
            }
        }
        Stmt::Delete(d) => {
            if let Some(w) = &d.where_clause {
                expr_max(w, &mut max);
            }
        }
        _ => {}
    }
    max
}

struct P<'a> {
    tokens: &'a [Token],
    pos: usize,
    params: usize,
}

impl<'a> P<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
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

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Keyword(k)) = self.peek() {
            if k == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Keyword(k)) if k == kw)
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::syntax(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), SqlError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(SqlError::syntax(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    /// An identifier; keywords are not identifiers.
    fn ident(&mut self) -> Result<String, SqlError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(SqlError::syntax(format!("expected identifier, found {other:?}"))),
        }
    }

    fn statement(&mut self) -> Result<Stmt, SqlError> {
        if self.peek_kw("SELECT") {
            return Ok(Stmt::Select(self.select()?));
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("CREATE") {
            if self.eat_kw("TABLE") {
                return self.create_table();
            }
            let unique = self.eat_kw("UNIQUE");
            self.expect_kw("INDEX")?;
            return self.create_index(unique);
        }
        if self.eat_kw("DROP") {
            self.expect_kw("TABLE")?;
            let if_exists = if self.eat_kw("IF") {
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            return Ok(Stmt::DropTable { name, if_exists });
        }
        Err(SqlError::syntax(format!("unrecognised statement start: {:?}", self.peek())))
    }

    // -- SELECT ---------------------------------------------------------

    /// A full query: core select, UNION arms, then ORDER BY/LIMIT/OFFSET
    /// applying to the combined result.
    fn select(&mut self) -> Result<Select, SqlError> {
        let mut select = self.select_core()?;
        while self.eat_kw("UNION") {
            let all = self.eat_kw("ALL");
            let arm = self.select_core()?;
            select.unions.push(UnionArm { all, select: arm });
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let ascending = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                select.order_by.push(OrderItem { expr, ascending });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            select.limit = Some(self.unsigned()?);
        }
        if self.eat_kw("OFFSET") {
            select.offset = Some(self.unsigned()?);
        }
        Ok(select)
    }

    /// A core select without ORDER BY/LIMIT/OFFSET (the unit UNION chains).
    fn select_core(&mut self) -> Result<Select, SqlError> {
        self.expect_kw("SELECT")?;
        let mut select = Select::default();
        if self.eat_kw("DISTINCT") {
            select.distinct = true;
        } else {
            self.eat_kw("ALL");
        }

        loop {
            select.items.push(self.select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }

        if self.eat_kw("FROM") {
            select.from = Some(self.table_ref()?);
            loop {
                let kind = if self.eat_kw("INNER") {
                    self.expect_kw("JOIN")?;
                    JoinKind::Inner
                } else if self.eat_kw("LEFT") {
                    self.eat_kw("OUTER");
                    self.expect_kw("JOIN")?;
                    JoinKind::Left
                } else if self.eat_kw("CROSS") {
                    self.expect_kw("JOIN")?;
                    JoinKind::Cross
                } else if self.eat_kw("JOIN") {
                    JoinKind::Inner
                } else {
                    break;
                };
                let table = self.table_ref()?;
                let on = if kind == JoinKind::Cross {
                    None
                } else {
                    self.expect_kw("ON")?;
                    Some(self.expr()?)
                };
                select.joins.push(Join { kind, table, on });
            }
        }

        if self.eat_kw("WHERE") {
            select.where_clause = Some(self.expr()?);
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                select.group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            select.having = Some(self.expr()?);
        }
        Ok(select)
    }

    fn unsigned(&mut self) -> Result<u64, SqlError> {
        match self.bump() {
            Some(Token::Number(n)) => {
                n.parse().map_err(|_| SqlError::syntax(format!("expected an integer, found {n}")))
            }
            other => Err(SqlError::syntax(format!("expected an integer, found {other:?}"))),
        }
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if let (Some(Token::Ident(q)), Some(Token::Dot), Some(Token::Star)) =
            (self.peek(), self.tokens.get(self.pos + 1), self.tokens.get(self.pos + 2))
        {
            let q = q.clone();
            self.pos += 3;
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(_)) = self.peek() {
            // Bare alias.
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        let name = self.ident()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(_)) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    // -- DML ---------------------------------------------------------------

    fn insert(&mut self) -> Result<Stmt, SqlError> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat(&Token::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        let source = if self.eat_kw("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect(&Token::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                rows.push(row);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.peek_kw("SELECT") {
            InsertSource::Query(Box::new(self.select()?))
        } else {
            return Err(SqlError::syntax("expected VALUES or SELECT in INSERT"));
        };
        Ok(Stmt::Insert(Insert { table, columns, source }))
    }

    fn update(&mut self) -> Result<Stmt, SqlError> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            let value = self.expr()?;
            assignments.push((col, value));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Stmt::Update(Update { table, assignments, where_clause }))
    }

    fn delete(&mut self) -> Result<Stmt, SqlError> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        Ok(Stmt::Delete(Delete { table, where_clause }))
    }

    // -- DDL ---------------------------------------------------------------

    fn create_table(&mut self) -> Result<Stmt, SqlError> {
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns: Vec<ColumnDef> = Vec::new();
        let mut primary_key: Vec<String> = Vec::new();
        let mut checks: Vec<Expr> = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                self.expect(&Token::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            } else if self.eat_kw("CHECK") {
                self.expect(&Token::LParen)?;
                checks.push(self.expr()?);
                self.expect(&Token::RParen)?;
            } else if self.eat_kw("FOREIGN") {
                self.expect_kw("KEY")?;
                self.expect(&Token::LParen)?;
                let col = self.ident()?;
                self.expect(&Token::RParen)?;
                self.expect_kw("REFERENCES")?;
                let ftable = self.ident()?;
                self.expect(&Token::LParen)?;
                let fcol = self.ident()?;
                self.expect(&Token::RParen)?;
                if let Some(c) = columns.iter_mut().find(|c| c.name.eq_ignore_ascii_case(&col)) {
                    c.references = Some((ftable, fcol));
                } else {
                    return Err(SqlError::syntax(format!(
                        "FOREIGN KEY names unknown column {col}"
                    )));
                }
            } else {
                columns.push(self.column_def()?);
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Stmt::CreateTable(CreateTable { name, if_not_exists, columns, primary_key, checks }))
    }

    fn column_def(&mut self) -> Result<ColumnDef, SqlError> {
        let name = self.ident()?;
        let ty_name = self.ident()?;
        let ty = SqlType::parse(&ty_name)
            .ok_or_else(|| SqlError::syntax(format!("unknown column type '{ty_name}'")))?;
        // Optional length, e.g. VARCHAR(64) — accepted and ignored.
        if self.eat(&Token::LParen) {
            self.unsigned()?;
            if self.eat(&Token::Comma) {
                self.unsigned()?;
            }
            self.expect(&Token::RParen)?;
        }
        let mut def = ColumnDef {
            name,
            ty,
            not_null: false,
            unique: false,
            primary_key: false,
            default: None,
            references: None,
        };
        loop {
            if self.eat_kw("NOT") {
                self.expect_kw("NULL")?;
                def.not_null = true;
            } else if self.eat_kw("NULL") {
                // explicit nullable, default
            } else if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                def.primary_key = true;
                def.not_null = true;
            } else if self.eat_kw("UNIQUE") {
                def.unique = true;
            } else if self.eat_kw("DEFAULT") {
                def.default = Some(self.expr()?);
            } else if self.eat_kw("REFERENCES") {
                let ftable = self.ident()?;
                self.expect(&Token::LParen)?;
                let fcol = self.ident()?;
                self.expect(&Token::RParen)?;
                def.references = Some((ftable, fcol));
            } else if self.eat_kw("CHECK") {
                // Column-level CHECK is hoisted by the caller via DDL
                // normalisation; store as table check through a marker.
                return Err(SqlError::new(
                    crate::error::SqlErrorKind::NotSupported,
                    "column-level CHECK is not supported; use a table-level CHECK",
                ));
            } else {
                break;
            }
        }
        Ok(def)
    }

    fn create_index(&mut self, unique: bool) -> Result<Stmt, SqlError> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect(&Token::LParen)?;
        let column = self.ident()?;
        self.expect(&Token::RParen)?;
        Ok(Stmt::CreateIndex { name, table, column, unique })
    }

    // -- expressions ---------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, SqlError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, SqlError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary { op: BinaryOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary { op: BinaryOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr, SqlError> {
        let lhs = self.additive()?;
        // Postfix predicates.
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(lhs), negated });
        }
        let negated = if self.peek_kw("NOT") {
            // Lookahead for NOT LIKE / NOT IN / NOT BETWEEN.
            match self.tokens.get(self.pos + 1) {
                Some(Token::Keyword(k)) if k == "LIKE" || k == "IN" || k == "BETWEEN" => {
                    self.pos += 1;
                    true
                }
                _ => false,
            }
        } else {
            false
        };
        if self.eat_kw("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like { expr: Box::new(lhs), pattern: Box::new(pattern), negated });
        }
        if self.eat_kw("IN") {
            self.expect(&Token::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList { expr: Box::new(lhs), list, negated });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(SqlError::syntax("expected LIKE, IN or BETWEEN after NOT"));
        }
        let op = match self.peek() {
            Some(Token::Eq) => BinaryOp::Eq,
            Some(Token::Ne) => BinaryOp::Ne,
            Some(Token::Lt) => BinaryOp::Lt,
            Some(Token::Le) => BinaryOp::Le,
            Some(Token::Gt) => BinaryOp::Gt,
            Some(Token::Ge) => BinaryOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.additive()?;
        Ok(Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) })
    }

    fn additive(&mut self) -> Result<Expr, SqlError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                Some(Token::Concat) => BinaryOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, SqlError> {
        if self.eat(&Token::Minus) {
            // `i64::MIN`'s magnitude is no `i64`, so it is read with its sign.
            if let Some(Token::Number(n)) = self.peek() {
                if n == "9223372036854775808" {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Int(i64::MIN)));
                }
            }
            let inner = self.unary()?;
            return Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(inner) });
        }
        if self.eat(&Token::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, SqlError> {
        match self.bump() {
            Some(Token::Number(n)) => {
                if n.contains('.') || n.contains('e') || n.contains('E') {
                    n.parse::<f64>()
                        .map(|d| Expr::Literal(Value::Double(d)))
                        .map_err(|_| SqlError::syntax(format!("bad number {n}")))
                } else {
                    n.parse::<i64>()
                        .map(|i| Expr::Literal(Value::Int(i)))
                        .map_err(|_| SqlError::syntax(format!("bad number {n}")))
                }
            }
            Some(Token::String(s)) => Ok(Expr::Literal(Value::Str(s))),
            Some(Token::Param) => {
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Param(idx))
            }
            Some(Token::Keyword(k)) if k == "TRUE" => Ok(Expr::Literal(Value::Bool(true))),
            Some(Token::Keyword(k)) if k == "FALSE" => Ok(Expr::Literal(Value::Bool(false))),
            Some(Token::Keyword(k)) if k == "NULL" => Ok(Expr::Literal(Value::Null)),
            Some(Token::Keyword(k)) if k == "CASE" => self.case_expr(),
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                // Function call?
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    let mut distinct = false;
                    let mut star = false;
                    if self.eat(&Token::Star) {
                        star = true;
                    } else if self.peek() != Some(&Token::RParen) {
                        distinct = self.eat_kw("DISTINCT");
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Function {
                        name: name.to_ascii_uppercase(),
                        args,
                        distinct,
                        star,
                    });
                }
                // Qualified column?
                if self.eat(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column { qualifier: Some(name), name: col });
                }
                Ok(Expr::Column { qualifier: None, name })
            }
            other => Err(SqlError::syntax(format!("unexpected token in expression: {other:?}"))),
        }
    }

    fn case_expr(&mut self) -> Result<Expr, SqlError> {
        let operand = if self.peek_kw("WHEN") { None } else { Some(Box::new(self.expr()?)) };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let cond = self.expr()?;
            self.expect_kw("THEN")?;
            let value = self.expr()?;
            branches.push((cond, value));
        }
        if branches.is_empty() {
            return Err(SqlError::syntax("CASE requires at least one WHEN branch"));
        }
        let else_value = if self.eat_kw("ELSE") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_kw("END")?;
        Ok(Expr::Case { operand, branches, else_value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            Stmt::Select(s) => s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_basic_select() {
        let s = sel("SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY b DESC LIMIT 10 OFFSET 2");
        assert_eq!(s.items.len(), 2);
        assert!(matches!(&s.items[1], SelectItem::Expr { alias: Some(a), .. } if a == "bee"));
        assert!(s.where_clause.is_some());
        assert!(!s.order_by[0].ascending);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(2));
    }

    /// The one expression of `SELECT expr`.
    fn select_expr(sql: &str) -> Result<Expr, SqlError> {
        match parse_statement(&format!("SELECT {sql}"))? {
            Stmt::Select(s) => match s.items.into_iter().next() {
                Some(SelectItem::Expr { expr, .. }) => Ok(expr),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn minus_and_the_magnitude_of_i64_min_read_as_i64_min() {
        assert_eq!(
            select_expr("-9223372036854775808").unwrap(),
            Expr::Literal(Value::Int(i64::MIN))
        );
    }

    #[test]
    fn the_bare_magnitude_of_i64_min_is_refused() {
        let err = select_expr("9223372036854775808").unwrap_err();
        assert!(err.message.contains("bad number 9223372036854775808"), "{err}");
    }

    #[test]
    fn a_negated_parenthesised_magnitude_of_i64_min_is_refused() {
        let err = select_expr("-(9223372036854775808)").unwrap_err();
        assert!(err.message.contains("bad number 9223372036854775808"), "{err}");
    }

    #[test]
    fn parses_joins() {
        let s = sel("SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.x = c.x CROSS JOIN d");
        assert_eq!(s.joins.len(), 3);
        assert_eq!(s.joins[0].kind, JoinKind::Inner);
        assert_eq!(s.joins[1].kind, JoinKind::Left);
        assert_eq!(s.joins[2].kind, JoinKind::Cross);
        assert!(s.joins[2].on.is_none());
    }

    #[test]
    fn parses_aliases_and_wildcards() {
        let s = sel("SELECT t.*, u.name FROM things t CROSS JOIN \"other\" AS u");
        assert!(matches!(&s.items[0], SelectItem::QualifiedWildcard(q) if q == "t"));
        assert_eq!(s.from.as_ref().unwrap().binding_name(), "t");
        assert_eq!(s.joins[0].table.binding_name(), "u");
    }

    #[test]
    fn parses_group_by_having() {
        let s = sel("SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 3");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert!(matches!(
            &s.items[1],
            SelectItem::Expr { expr: Expr::Function { star: true, .. }, .. }
        ));
    }

    #[test]
    fn parses_insert_values() {
        match parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap() {
            Stmt::Insert(i) => {
                assert_eq!(i.columns, vec!["a", "b"]);
                match i.source {
                    InsertSource::Values(rows) => assert_eq!(rows.len(), 2),
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_insert_select() {
        match parse_statement("INSERT INTO t SELECT * FROM s WHERE x > 0").unwrap() {
            Stmt::Insert(i) => assert!(matches!(i.source, InsertSource::Query(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_update_delete() {
        match parse_statement("UPDATE t SET a = a + 1, b = 'x' WHERE id = ?").unwrap() {
            Stmt::Update(u) => {
                assert_eq!(u.assignments.len(), 2);
                assert!(u.where_clause.is_some());
            }
            other => panic!("{other:?}"),
        }
        match parse_statement("DELETE FROM t").unwrap() {
            Stmt::Delete(d) => assert!(d.where_clause.is_none()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_create_table() {
        let sql = "CREATE TABLE IF NOT EXISTS t (
            id INTEGER PRIMARY KEY,
            name VARCHAR(64) NOT NULL,
            price DOUBLE DEFAULT 0.0,
            dept_id INTEGER REFERENCES dept (id),
            CHECK (price >= 0)
        )";
        match parse_statement(sql).unwrap() {
            Stmt::CreateTable(c) => {
                assert!(c.if_not_exists);
                assert_eq!(c.columns.len(), 4);
                assert!(c.columns[0].primary_key);
                assert!(c.columns[1].not_null);
                assert!(c.columns[2].default.is_some());
                assert_eq!(c.columns[3].references, Some(("dept".into(), "id".into())));
                assert_eq!(c.checks.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_table_level_pk() {
        match parse_statement("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))").unwrap() {
            Stmt::CreateTable(c) => assert_eq!(c.primary_key, vec!["a", "b"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_predicates() {
        let s = sel("SELECT * FROM t WHERE a LIKE 'x%' AND b NOT IN (1,2) AND c BETWEEN 1 AND 5 AND d IS NOT NULL");
        let w = s.where_clause.unwrap();
        // Just check it's a conjunction tree with the right leaves present.
        fn flatten<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Binary { op: BinaryOp::And, lhs, rhs } = e {
                flatten(lhs, out);
                flatten(rhs, out);
            } else {
                out.push(e);
            }
        }
        let mut leaves = Vec::new();
        flatten(&w, &mut leaves);
        assert_eq!(leaves.len(), 4);
        assert!(matches!(leaves[0], Expr::Like { negated: false, .. }));
        assert!(matches!(leaves[1], Expr::InList { negated: true, .. }));
        assert!(matches!(leaves[2], Expr::Between { negated: false, .. }));
        assert!(matches!(leaves[3], Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn parses_case() {
        let s = sel("SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t");
        assert!(matches!(&s.items[0], SelectItem::Expr { expr: Expr::Case { .. }, .. }));
        let s = sel("SELECT CASE a WHEN 1 THEN 'one' END FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Case { operand, .. }, .. } => assert!(operand.is_some()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn params_numbered_in_order() {
        let stmt = parse_statement("SELECT * FROM t WHERE a = ? AND b = ?").unwrap();
        assert_eq!(count_params(&stmt), 2);
        match &stmt {
            Stmt::Select(s) => {
                let w = s.where_clause.as_ref().unwrap();
                let mut params = Vec::new();
                fn walk(e: &Expr, out: &mut Vec<usize>) {
                    if let Expr::Param(i) = e {
                        out.push(*i);
                    }
                    for c in e.children() {
                        walk(c, out);
                    }
                }
                walk(w, &mut params);
                assert_eq!(params, vec![0, 1]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drop_and_index() {
        assert_eq!(
            parse_statement("DROP TABLE IF EXISTS t").unwrap(),
            Stmt::DropTable { name: "t".into(), if_exists: true }
        );
        assert_eq!(
            parse_statement("CREATE UNIQUE INDEX i ON t (c)").unwrap(),
            Stmt::CreateIndex {
                name: "i".into(),
                table: "t".into(),
                column: "c".into(),
                unique: true
            }
        );
    }

    #[test]
    fn operator_precedence() {
        // a + b * c parses as a + (b * c)
        let s = sel("SELECT a + b * c FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinaryOp::Add, rhs, .. }, .. } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinaryOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
        // NOT binds tighter than AND.
        let s = sel("SELECT * FROM t WHERE NOT a AND b");
        assert!(matches!(s.where_clause.unwrap(), Expr::Binary { op: BinaryOp::And, .. }));
    }

    #[test]
    fn errors_reported() {
        assert!(parse_statement("SELEC 1").is_err());
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("INSERT INTO t").is_err());
        assert!(parse_statement("SELECT 1 extra garbage, ,").is_err());
        assert!(parse_statement("CREATE TABLE t (a BOGUSTYPE)").is_err());
    }

    #[test]
    fn select_without_from() {
        let s = sel("SELECT 1 + 1");
        assert!(s.from.is_none());
    }

    #[test]
    fn distinct_aggregate() {
        let s = sel("SELECT COUNT(DISTINCT x) FROM t");
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Function { distinct, .. }, .. } => assert!(distinct),
            other => panic!("{other:?}"),
        }
    }
}
