//! Tokeniser + recursive-descent parser for the nanosql dialect.
//!
//! The grammar (lowercase = nonterminal):
//!
//! ```text
//! select    := SELECT [DISTINCT] items FROM ident join* [WHERE expr]
//!              [GROUP BY exprs] [HAVING expr] [ORDER BY order_items]
//!              [LIMIT int]
//! join      := [LEFT] JOIN ident ON colref '=' colref
//! items     := item (',' item)*          item := expr [AS ident]
//! expr      := or_expr
//! or_expr   := and_expr (OR and_expr)*
//! and_expr  := not_expr (AND not_expr)*
//! not_expr  := NOT not_expr | cmp_expr
//! cmp_expr  := add_expr [cmpop add_expr | IS [NOT] NULL |
//!              [NOT] LIKE string | [NOT] IN '(' literals ')']
//! add_expr  := mul_expr (('+'|'-') mul_expr)*
//! mul_expr  := primary (('*'|'/') primary)*
//! primary   := literal | aggcall | colref | '(' expr ')'
//! aggcall   := (COUNT|SUM|AVG|MIN|MAX) '(' ('*' | [DISTINCT] expr) ')'
//! colref    := ident ['.' ident]
//! ```
//!
//! The parser is the inverse of the AST pretty-printer: for every
//! generated statement `s`, `parse(s.to_string()) == s` (round-trip
//! property, tested here and fuzzed from `benchgen`).

use crate::ast::*;
use crate::error::{Error, Result};
use crate::value::Value;

/// Lexical token. Identifiers and string literals borrow their text
/// from the input, so tokens are `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Float(f64),
    /// A string literal's body as written, `''` escapes still doubled
    /// (see [`unquote`]).
    Str(&'a str),
    Symbol(&'static str),
    Eof,
}

/// The value of a string literal body: each `''` becomes `'`.
fn unquote(body: &str) -> String {
    body.replace("''", "'")
}

impl Tok<'_> {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(i) => format!("integer {i}"),
            Tok::Float(f) => format!("float {f}"),
            Tok::Str(s) => format!("string '{}'", unquote(s)),
            Tok::Symbol(s) => format!("`{s}`"),
            Tok::Eof => "end of input".to_string(),
        }
    }
}

fn lex(input: &str) -> Result<Vec<Tok<'_>>> {
    let bytes = input.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | '.' | '+' | '*' | '/' | '=' => {
                toks.push(Tok::Symbol(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '.' => ".",
                    '+' => "+",
                    '*' => "*",
                    '/' => "/",
                    _ => "=",
                }));
                i += 1;
            }
            '-' => {
                // `--` comments run to end of line.
                if i + 1 < bytes.len() && bytes[i + 1] == b'-' {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    toks.push(Tok::Symbol("-"));
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    toks.push(Tok::Symbol("<>"));
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    toks.push(Tok::Symbol("<="));
                    i += 2;
                } else {
                    toks.push(Tok::Symbol("<"));
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    toks.push(Tok::Symbol(">="));
                    i += 2;
                } else {
                    toks.push(Tok::Symbol(">"));
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    toks.push(Tok::Symbol("<>")); // normalise != to <>
                    i += 2;
                } else {
                    return Err(Error::Parse("stray `!`".into()));
                }
            }
            '\'' => {
                // String literal with '' escaping. Quotes are ASCII, so
                // the body slices on character boundaries and multi-byte
                // UTF-8 passes through whole.
                i += 1;
                let start = i;
                loop {
                    if i >= bytes.len() {
                        return Err(Error::Parse("unterminated string literal".into()));
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            i += 2;
                        } else {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
                toks.push(Tok::Str(&input[start..i]));
                i += 1;
            }
            '0'..='9' => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                    if bytes[i] == b'.' {
                        // A second dot ends the number (e.g. `1.5.x` is
                        // malformed and will fail later anyway).
                        if is_float {
                            break;
                        }
                        // Digit must follow the dot, else it's `tbl.col`
                        // style punctuation — but numbers never precede
                        // dots in this dialect, so consume greedily.
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &input[start..i];
                if is_float {
                    let f: f64 = text
                        .parse()
                        .map_err(|_| Error::Parse(format!("bad float literal {text}")))?;
                    toks.push(Tok::Float(f));
                } else {
                    let n: i64 = text
                        .parse()
                        .map_err(|_| Error::Parse(format!("bad int literal {text}")))?;
                    toks.push(Tok::Int(n));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                toks.push(Tok::Ident(&input[start..i]));
            }
            _ => {
                let other = input[i..].chars().next().unwrap_or('\u{fffd}');
                return Err(Error::Parse(format!("unexpected character `{other}`")));
            }
        }
    }
    toks.push(Tok::Eof);
    Ok(toks)
}

/// Parser state: token stream + cursor.
struct Parser<'a> {
    toks: Vec<Tok<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok<'a> {
        &self.toks[self.pos]
    }

    fn next(&mut self) -> Tok<'a> {
        let t = self.toks[self.pos];
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    /// Is the current token the given (case-insensitive) keyword?
    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected {kw}, found {}",
                self.peek().describe()
            )))
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Tok::Symbol(s) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(Error::Parse(format!(
                "expected `{sym}`, found {}",
                self.peek().describe()
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.next() {
            Tok::Ident(s) => Ok(s.to_string()),
            other => Err(Error::Parse(format!(
                "expected identifier, found {}",
                other.describe()
            ))),
        }
    }

    fn parse_select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut projections = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let alias = if self.eat_kw("AS") {
                Some(self.expect_ident()?)
            } else {
                None
            };
            projections.push(SelectItem { expr, alias });
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let from = self.expect_ident()?;
        let mut stmt = SelectStmt::from_table(from);
        stmt.distinct = distinct;
        stmt.projections = projections;

        loop {
            let kind = if self.at_kw("LEFT") {
                self.pos += 1;
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.at_kw("JOIN") {
                self.pos += 1;
                JoinKind::Inner
            } else {
                break;
            };
            let table = self.expect_ident()?;
            self.expect_kw("ON")?;
            let left = self.parse_colref()?;
            self.expect_sym("=")?;
            let right = self.parse_colref()?;
            stmt.joins.push(JoinClause {
                kind,
                table,
                left,
                right,
            });
        }

        if self.eat_kw("WHERE") {
            stmt.where_clause = Some(self.parse_expr()?);
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                stmt.group_by.push(self.parse_expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            stmt.having = Some(self.parse_expr()?);
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                stmt.order_by.push(OrderByItem { expr, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            match self.next() {
                Tok::Int(n) if n >= 0 => stmt.limit = Some(n as u64),
                other => {
                    return Err(Error::Parse(format!(
                        "expected LIMIT count, found {}",
                        other.describe()
                    )))
                }
            }
        }
        if !matches!(self.peek(), Tok::Eof) {
            return Err(Error::Parse(format!(
                "trailing input starting at {}",
                self.peek().describe()
            )));
        }
        Ok(stmt)
    }

    fn parse_colref(&mut self) -> Result<ColumnRef> {
        let first = self.expect_ident()?;
        if self.eat_sym(".") {
            let col = self.expect_ident()?;
            Ok(ColumnRef::new(first, col))
        } else {
            Ok(ColumnRef::bare(first))
        }
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            let right = self.parse_and()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("AND") {
            let right = self.parse_not()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let left = self.parse_add()?;
        // IS [NOT] NULL
        if self.at_kw("IS") {
            self.pos += 1;
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] LIKE / [NOT] IN
        let negated = if self.at_kw("NOT") {
            // Lookahead: NOT LIKE / NOT IN only; bare NOT handled above.
            let save = self.pos;
            self.pos += 1;
            if self.at_kw("LIKE") || self.at_kw("IN") {
                true
            } else {
                self.pos = save;
                false
            }
        } else {
            false
        };
        if self.eat_kw("LIKE") {
            match self.next() {
                Tok::Str(pattern) => {
                    return Ok(Expr::Like {
                        expr: Box::new(left),
                        pattern: unquote(pattern),
                        negated,
                    })
                }
                other => {
                    return Err(Error::Parse(format!(
                        "expected LIKE pattern, found {}",
                        other.describe()
                    )))
                }
            }
        }
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.parse_literal()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        for (sym, op) in [
            ("<>", BinOp::Ne),
            ("<=", BinOp::Le),
            (">=", BinOp::Ge),
            ("=", BinOp::Eq),
            ("<", BinOp::Lt),
            (">", BinOp::Gt),
        ] {
            if self.eat_sym(sym) {
                let right = self.parse_add()?;
                return Ok(Expr::binary(op, left, right));
            }
        }
        Ok(left)
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut left = self.parse_mul()?;
        loop {
            if self.eat_sym("+") {
                left = Expr::binary(BinOp::Add, left, self.parse_mul()?);
            } else if self.eat_sym("-") {
                left = Expr::binary(BinOp::Sub, left, self.parse_mul()?);
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut left = self.parse_primary()?;
        loop {
            if self.eat_sym("*") {
                left = Expr::binary(BinOp::Mul, left, self.parse_primary()?);
            } else if self.eat_sym("/") {
                left = Expr::binary(BinOp::Div, left, self.parse_primary()?);
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_literal(&mut self) -> Result<Value> {
        if self.eat_sym("-") {
            return self.parse_negated_number();
        }
        match self.next() {
            Tok::Int(n) => Ok(Value::Int(n)),
            Tok::Float(f) => Ok(Value::Float(f)),
            Tok::Str(s) => Ok(Value::Text(unquote(s))),
            Tok::Ident(s) if s.eq_ignore_ascii_case("NULL") => Ok(Value::Null),
            Tok::Ident(s) if s.eq_ignore_ascii_case("TRUE") => Ok(Value::Bool(true)),
            Tok::Ident(s) if s.eq_ignore_ascii_case("FALSE") => Ok(Value::Bool(false)),
            other => Err(Error::Parse(format!(
                "expected literal, found {}",
                other.describe()
            ))),
        }
    }

    /// The number after a unary minus, negated.
    fn parse_negated_number(&mut self) -> Result<Value> {
        match self.next() {
            Tok::Int(n) => Ok(Value::Int(-n)),
            Tok::Float(f) => Ok(Value::Float(-f)),
            other => Err(Error::Parse(format!(
                "expected number after `-`, found {}",
                other.describe()
            ))),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        // Unary minus on numeric literal.
        if self.eat_sym("-") {
            return self.parse_negated_number().map(Expr::lit);
        }
        match *self.peek() {
            Tok::Int(_) | Tok::Float(_) | Tok::Str(_) => Ok(Expr::lit(self.parse_literal()?)),
            Tok::Symbol("(") => {
                self.pos += 1;
                let e = self.parse_expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                // Aggregate call?
                let func = [
                    ("COUNT", AggFunc::Count),
                    ("SUM", AggFunc::Sum),
                    ("AVG", AggFunc::Avg),
                    ("MIN", AggFunc::Min),
                    ("MAX", AggFunc::Max),
                ]
                .into_iter()
                .find_map(|(kw, f)| name.eq_ignore_ascii_case(kw).then_some(f));
                if let Some(func) = func {
                    // Only a call if followed by `(` — MIN/MAX are common
                    // column names otherwise.
                    if matches!(&self.toks[self.pos + 1], Tok::Symbol("(")) {
                        self.pos += 2;
                        if self.eat_sym("*") {
                            self.expect_sym(")")?;
                            return Ok(Expr::Agg {
                                func,
                                arg: None,
                                distinct: false,
                            });
                        }
                        let distinct = self.eat_kw("DISTINCT");
                        let arg = self.parse_expr()?;
                        self.expect_sym(")")?;
                        return Ok(Expr::Agg {
                            func,
                            arg: Some(Box::new(arg)),
                            distinct,
                        });
                    }
                }
                if name.eq_ignore_ascii_case("NULL")
                    || name.eq_ignore_ascii_case("TRUE")
                    || name.eq_ignore_ascii_case("FALSE")
                {
                    return Ok(Expr::lit(self.parse_literal()?));
                }
                Ok(Expr::Column(self.parse_colref()?))
            }
            other => Err(Error::Parse(format!("unexpected {}", other.describe()))),
        }
    }
}

/// Parse one SELECT statement.
pub fn parse(sql: &str) -> Result<SelectStmt> {
    let toks = lex(sql)?;
    Parser { toks, pos: 0 }.parse_select()
}

/// Parse a standalone expression (used in tests and by the surrogate
/// prompt formatter).
pub fn parse_expr(text: &str) -> Result<Expr> {
    let toks = lex(text)?;
    let mut p = Parser { toks, pos: 0 };
    let e = p.parse_expr()?;
    if !matches!(p.peek(), Tok::Eof) {
        return Err(Error::Parse("trailing input after expression".into()));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(sql: &str) {
        let stmt = parse(sql).unwrap_or_else(|e| panic!("parse `{sql}`: {e}"));
        let printed = stmt.to_string();
        assert_eq!(printed, sql, "round-trip mismatch");
        // Second parse must be a fixpoint.
        let stmt2 = parse(&printed).unwrap();
        assert_eq!(stmt, stmt2);
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip("SELECT name FROM races");
        roundtrip("SELECT DISTINCT name FROM races");
        roundtrip("SELECT name FROM races WHERE raceId = 2");
        roundtrip("SELECT name FROM races LIMIT 5");
    }

    #[test]
    fn roundtrip_join_aggregate() {
        roundtrip(
            "SELECT races.name, MIN(lapTimes.time) AS fastest FROM lapTimes \
             JOIN races ON lapTimes.raceId = races.raceId WHERE lapTimes.lap = 1 \
             GROUP BY races.name ORDER BY MIN(lapTimes.time) LIMIT 1",
        );
    }

    #[test]
    fn roundtrip_left_join() {
        roundtrip("SELECT a.x FROM a LEFT JOIN b ON a.id = b.id WHERE b.id IS NULL");
    }

    #[test]
    fn roundtrip_predicates() {
        roundtrip("SELECT x FROM t WHERE x IN (1, 2, 3)");
        roundtrip("SELECT x FROM t WHERE x NOT IN (1, 2)");
        roundtrip("SELECT x FROM t WHERE name LIKE 'Mon%'");
        roundtrip("SELECT x FROM t WHERE name NOT LIKE '%GP'");
        roundtrip("SELECT x FROM t WHERE x IS NOT NULL");
        roundtrip("SELECT x FROM t WHERE NOT (x = 1)");
        roundtrip("SELECT x FROM t WHERE x = 1 OR y = 2 AND z = 3");
        roundtrip("SELECT x FROM t WHERE (x = 1 OR y = 2) AND z = 3");
    }

    #[test]
    fn roundtrip_arithmetic() {
        roundtrip("SELECT x + y * 2 FROM t");
        roundtrip("SELECT (x + y) * 2 FROM t");
        roundtrip("SELECT x / 2 - 1 FROM t");
    }

    #[test]
    fn roundtrip_aggregates() {
        roundtrip("SELECT COUNT(*) FROM t");
        roundtrip("SELECT COUNT(DISTINCT x) FROM t");
        roundtrip("SELECT SUM(x), AVG(y), MAX(z) FROM t GROUP BY g HAVING COUNT(*) > 2");
    }

    #[test]
    fn parses_string_escapes() {
        let stmt = parse("SELECT x FROM t WHERE name = 'it''s'").unwrap();
        match stmt.where_clause.unwrap() {
            Expr::Binary { right, .. } => assert_eq!(*right, Expr::lit(Value::text("it's"))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn string_literals_keep_multibyte_utf8() {
        let stmt = parse("SELECT x FROM t WHERE name = 'café ''☕'' 🦀'").unwrap();
        match stmt.where_clause.unwrap() {
            Expr::Binary { right, .. } => {
                assert_eq!(*right, Expr::lit(Value::text("café '☕' 🦀")))
            }
            other => panic!("unexpected {other:?}"),
        }
        roundtrip("SELECT x FROM t WHERE name LIKE 'caf%é' AND y = 'naïve'");
        let err = parse("SELECT x FROM t WHERE x = é").unwrap_err();
        assert!(err.to_string().contains("`é`"), "{err}");
    }

    #[test]
    fn normalises_bang_equals() {
        let stmt = parse("SELECT x FROM t WHERE x != 1").unwrap();
        assert_eq!(stmt.to_string(), "SELECT x FROM t WHERE x <> 1");
    }

    #[test]
    fn negative_literals() {
        let stmt = parse("SELECT x FROM t WHERE x > -5").unwrap();
        assert!(stmt.to_string().contains("> -5"));
    }

    #[test]
    fn negative_in_list_items_roundtrip() {
        roundtrip("SELECT x FROM t WHERE x IN (-1, 2, -3)");
        roundtrip("SELECT x FROM t WHERE x NOT IN (-1.5, 0.25)");
        // The printer's output for a list built in code parses back.
        let e = Expr::InList {
            expr: Box::new(Expr::bare_col("x")),
            list: vec![Value::Int(-7), Value::Float(-2.5), Value::Int(4)],
            negated: false,
        };
        assert_eq!(parse_expr(&e.to_string()).unwrap(), e);
        let err = parse("SELECT x FROM t WHERE x IN (-'a')").unwrap_err();
        assert!(err.to_string().contains("after `-`"), "{err}");
    }

    #[test]
    fn case_insensitive_keywords() {
        let stmt = parse("select x from t where x = 1 order by x desc limit 3").unwrap();
        assert_eq!(
            stmt.to_string(),
            "SELECT x FROM t WHERE x = 1 ORDER BY x DESC LIMIT 3"
        );
    }

    #[test]
    fn error_messages_are_specific() {
        let err = parse("SELECT FROM t").unwrap_err();
        assert!(matches!(err, Error::Parse(_)));
        let err = parse("SELECT x FROM t WHERE").unwrap_err();
        assert!(matches!(err, Error::Parse(_)));
        let err = parse("SELECT x FROM t extra garbage").unwrap_err();
        assert!(err.to_string().contains("trailing input"), "{err}");
        let err = parse("SELECT x FROM t WHERE name = 'unterminated").unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
    }

    #[test]
    fn min_as_column_name_is_not_a_call() {
        let stmt = parse("SELECT min FROM t").unwrap();
        assert_eq!(stmt.projections[0].expr, Expr::bare_col("min"));
    }

    #[test]
    fn comments_are_skipped() {
        let stmt = parse("SELECT x FROM t -- trailing comment\n WHERE x = 1").unwrap();
        assert!(stmt.where_clause.is_some());
    }
}
