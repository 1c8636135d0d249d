//! An XQuery FLWOR subset.
//!
//! Supports the query shape WS-DAIX's `XQueryExecute` needs:
//!
//! ```text
//! for $x in <path>            -- bind $x to each selected node
//! (let $y := <expr>)*         -- scalar bindings per iteration
//! (where <expr>)?             -- filter
//! (order by <expr> [descending])?
//! return <result>             -- an expression or an element constructor
//! ```
//!
//! plus bare XPath expressions (a query without FLWOR keywords).
//!
//! Every clause and every constructor hole is parsed into an XPath
//! expression once, by [`XQuery::parse`]. To run, the query indexes each
//! document once ([`DocumentIndex`]); the `for` path selects nodes in that
//! index, and each later clause is evaluated in the same index with the
//! bound node as the context node and `$x` (the `for` variable) bound to
//! it as a node-set variable. So `$x` means the binding everywhere — in a
//! predicate, `/lib/book[price > $x/price]` compares other books with the
//! bound one — absolute paths address the whole document, and string
//! literals are never touched. `let` variables hold the value of their
//! expression, node-sets included, in the same scope.
//!
//! Over a collection ([`crate::XmlDatabase::xquery_query`]) one index
//! buffer serves every document, and a document that fails the query's
//! [`XQuery::document_filter`] is not indexed at all.
//!
//! Element constructors support `{expr}` interpolation in content and
//! attribute values (`{{`/`}}` escape literal braces); constructors nest
//! at most [`MAX_EXPRESSION_DEPTH`] deep. A selected node is cloned out of
//! the document once, when it leaves as a result item or constructor
//! content.
//!
//! Not supported (documented limitations): nested/multiple `for` clauses,
//! joins across variables, user-defined functions, and the XQuery type
//! system. These go beyond what the DAIS use cases in the paper require.

use crate::store::XmlDbError;
use dais_xml::xpath::{
    DocumentFilter, DocumentIndex, IndexedValue, NodeId, XPathNode, MAX_EXPRESSION_DEPTH,
};
use dais_xml::{XPathContext, XPathExpr, XmlElement, XmlNode};

/// One item of a query result sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum XQueryItem {
    Element(XmlElement),
    /// An atomic value (attribute value, text node or computed scalar).
    Value(String),
}

impl XQueryItem {
    /// Render the item as an element (values are wrapped in `<value>`),
    /// which is how sequence resources serve items over WS-DAIX.
    pub fn to_element(&self) -> XmlElement {
        match self {
            XQueryItem::Element(e) => e.clone(),
            XQueryItem::Value(v) => XmlElement::new_local("value").with_text(v),
        }
    }

    /// The string value of the item.
    pub fn string_value(&self) -> String {
        match self {
            XQueryItem::Element(e) => e.text(),
            XQueryItem::Value(v) => v.clone(),
        }
    }
}

/// A parsed query, reusable across documents.
#[derive(Debug, Clone)]
pub struct XQuery {
    kind: QueryKind,
    source: String,
}

#[derive(Debug, Clone)]
enum QueryKind {
    Bare(XPathExpr),
    Flwor(Box<Flwor>),
}

#[derive(Debug, Clone)]
struct Flwor {
    var: String,
    source: XPathExpr,
    lets: Vec<(String, XPathExpr)>,
    where_expr: Option<XPathExpr>,
    order_by: Option<(XPathExpr, bool)>, // (expression, ascending)
    ret: Return,
}

#[derive(Debug, Clone)]
enum Return {
    Expr(XPathExpr),
    Constructor(Constructor),
}

#[derive(Debug, Clone)]
struct Constructor {
    name: String,
    attributes: Vec<(String, Template)>,
    content: Vec<ConstructorNode>,
}

#[derive(Debug, Clone)]
enum ConstructorNode {
    Text(String),
    Hole(XPathExpr),
    Child(Constructor),
}

/// A text template with `{expr}` holes.
#[derive(Debug, Clone)]
struct Template {
    parts: Vec<ConstructorNode>, // Text and Hole only
}

impl XQuery {
    /// Parse a query.
    pub fn parse(source: &str) -> Result<XQuery, XmlDbError> {
        let trimmed = source.trim();
        if trimmed.starts_with("for ")
            || trimmed.starts_with("for\t")
            || trimmed.starts_with("for\n")
        {
            Ok(XQuery {
                kind: QueryKind::Flwor(Box::new(parse_flwor(trimmed)?)),
                source: source.to_string(),
            })
        } else {
            Ok(XQuery { kind: QueryKind::Bare(xpath(trimmed)?), source: source.to_string() })
        }
    }

    pub fn source(&self) -> &str {
        &self.source
    }

    /// Execute against one document.
    pub fn execute(&self, doc: &XmlElement) -> Result<Vec<XQueryItem>, XmlDbError> {
        self.execute_with(doc, &XPathContext::default())
    }

    /// Execute with namespace bindings.
    pub fn execute_with(
        &self,
        doc: &XmlElement,
        ctx: &XPathContext,
    ) -> Result<Vec<XQueryItem>, XmlDbError> {
        let mut items = Vec::new();
        self.execute_in(&DocumentIndex::new(doc), ctx, &mut items)?;
        Ok(items)
    }

    /// Execute in an indexed document, appending its items to `out`.
    pub(crate) fn execute_in(
        &self,
        index: &DocumentIndex<'_>,
        ctx: &XPathContext,
        out: &mut Vec<XQueryItem>,
    ) -> Result<(), XmlDbError> {
        match &self.kind {
            QueryKind::Bare(expr) => {
                let v = evaluate(expr, index, index.root(), &[], ctx)?;
                for_each_item(index, v, |item| out.push(item));
            }
            QueryKind::Flwor(f) => execute_flwor(f, index, ctx, out)?,
        }
        Ok(())
    }

    /// The test a document's element must pass for the query to yield
    /// anything from it: a bare expression's
    /// [`XPathExpr::document_filter`], or the `for` path's
    /// [`XPathExpr::binding_filter`], narrowed by `where` only when no
    /// `let` runs before it.
    pub fn document_filter(&self) -> Option<DocumentFilter<'_>> {
        match &self.kind {
            QueryKind::Bare(expr) => expr.document_filter(),
            QueryKind::Flwor(f) => {
                f.source.binding_filter(&f.var, f.where_expr.as_ref().filter(|_| f.lets.is_empty()))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Scan an expression from `src[pos..]` until one of `stops` appears as a
/// standalone word at depth 0 outside quotes. Returns (expr, next_pos).
fn scan_until<'s>(src: &str, pos: usize, stops: &[&'s str]) -> (String, usize, Option<&'s str>) {
    let bytes = src.as_bytes();
    let mut i = pos;
    let mut depth = 0i32;
    let mut quote: Option<u8> = None;
    while i < bytes.len() {
        let b = bytes[i];
        if let Some(q) = quote {
            if b == q {
                quote = None;
            }
            i += 1;
            continue;
        }
        match b {
            b'\'' | b'"' => {
                quote = Some(b);
                i += 1;
            }
            // Note: '<' and '>' are comparison operators in clause
            // expressions, not nesting — constructors only occur in the
            // final return clause, which is never scanned by this function.
            b'(' | b'[' | b'{' => {
                depth += 1;
                i += 1;
            }
            b')' | b']' | b'}' => {
                depth -= 1;
                i += 1;
            }
            _ if depth == 0 && (b.is_ascii_alphabetic()) && is_word_start(bytes, i) => {
                // Candidate keyword.
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_alphabetic() {
                    j += 1;
                }
                let word = &src[i..j];
                if let Some(stop) = stop_word(stops, word) {
                    return (src[pos..i].trim().to_string(), j, Some(stop));
                }
                i = j;
            }
            _ => i += 1,
        }
    }
    (src[pos..].trim().to_string(), src.len(), None)
}

fn stop_word<'a>(stops: &[&'a str], word: &str) -> Option<&'a str> {
    stops.iter().find(|s| **s == word).copied()
}

fn is_word_start(bytes: &[u8], i: usize) -> bool {
    i == 0
        || !(bytes[i - 1].is_ascii_alphanumeric()
            || bytes[i - 1] == b'_'
            || bytes[i - 1] == b'$'
            || bytes[i - 1] == b':'
            || bytes[i - 1] == b'-'
            || bytes[i - 1] == b'@'
            || bytes[i - 1] == b'/')
}

fn parse_var(src: &str) -> Result<(String, &str), XmlDbError> {
    let s = src.trim_start();
    let Some(rest) = s.strip_prefix('$') else {
        return Err(XmlDbError::Query(format!("expected a $variable, found '{s}'")));
    };
    let end =
        rest.find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-')).unwrap_or(rest.len());
    if end == 0 {
        return Err(XmlDbError::Query("empty variable name".into()));
    }
    Ok((rest[..end].to_string(), &rest[end..]))
}

fn parse_flwor(src: &str) -> Result<Flwor, XmlDbError> {
    let Some(after_for) = src.strip_prefix("for") else {
        return Err(XmlDbError::Query("FLWOR query must start with 'for'".into()));
    };
    let (var, rest) = parse_var(after_for)?;
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("in") else {
        return Err(XmlDbError::Query("expected 'in' after for-variable".into()));
    };

    // Scan the source path, then clauses.
    let base = src.len() - rest.len();
    let stops = ["let", "where", "order", "return"];
    let (source_text, mut pos, mut stop) = scan_until(src, base, &stops);
    if source_text.is_empty() {
        return Err(XmlDbError::Query("missing path after 'in'".into()));
    }
    let source = xpath(&source_text)?;

    let mut lets = Vec::new();
    let mut where_expr = None;
    let mut order_by = None;
    loop {
        match stop {
            None => return Err(XmlDbError::Query("FLWOR query missing 'return'".into())),
            Some("let") => {
                let (name, rest) = parse_var(&src[pos..])?;
                let rest_trim = rest.trim_start();
                let Some(rest_trim) = rest_trim.strip_prefix(":=") else {
                    return Err(XmlDbError::Query("expected ':=' in let clause".into()));
                };
                let start = src.len() - rest_trim.len();
                let (expr, next, s) = scan_until(src, start, &stops);
                lets.push((name, xpath(&expr)?));
                pos = next;
                stop = s;
            }
            Some("where") => {
                let (expr, next, s) = scan_until(src, pos, &["order", "return"]);
                where_expr = Some(xpath(&expr)?);
                pos = next;
                stop = s;
            }
            Some("order") => {
                let rest = src[pos..].trim_start();
                let Some(rest) = rest.strip_prefix("by") else {
                    return Err(XmlDbError::Query("expected 'by' after 'order'".into()));
                };
                let start = src.len() - rest.len();
                let (expr, next, s) =
                    scan_until(src, start, &["ascending", "descending", "return"]);
                let (ascending, pos2, stop2) = match s {
                    Some("descending") => {
                        let (_, n, s2) = scan_until(src, next, &["return"]);
                        (false, n, s2)
                    }
                    Some("ascending") => {
                        let (_, n, s2) = scan_until(src, next, &["return"]);
                        (true, n, s2)
                    }
                    other => (true, next, other),
                };
                order_by = Some((xpath(&expr)?, ascending));
                pos = pos2;
                stop = stop2;
            }
            Some("return") => {
                let ret_src = src[pos..].trim();
                if ret_src.is_empty() {
                    return Err(XmlDbError::Query("empty return clause".into()));
                }
                let ret = if ret_src.starts_with('<') {
                    let (c, rest) = parse_constructor(ret_src, 1)?;
                    if !rest.trim().is_empty() {
                        return Err(XmlDbError::Query(format!(
                            "unexpected content after constructor: '{}'",
                            rest.trim()
                        )));
                    }
                    Return::Constructor(c)
                } else {
                    Return::Expr(xpath(ret_src)?)
                };
                return Ok(Flwor { var, source, lets, where_expr, order_by, ret });
            }
            Some(other) => return Err(XmlDbError::Query(format!("unexpected clause '{other}'"))),
        }
    }
}

/// Parse an element constructor at nesting `depth`, returning it and the
/// remaining input.
fn parse_constructor(src: &str, depth: usize) -> Result<(Constructor, &str), XmlDbError> {
    let err = |m: &str| XmlDbError::Query(format!("constructor: {m}"));
    if depth > MAX_EXPRESSION_DEPTH {
        return Err(err(&format!("constructors nest deeper than {MAX_EXPRESSION_DEPTH} levels")));
    }
    let s = src.strip_prefix('<').ok_or_else(|| err("expected '<'"))?;
    let name_end = s
        .find(|c: char| c.is_whitespace() || c == '>' || c == '/')
        .ok_or_else(|| err("unterminated start tag"))?;
    let name = s[..name_end].to_string();
    if name.is_empty() {
        return Err(err("empty element name"));
    }
    let mut rest = &s[name_end..];

    // Attributes.
    let mut attributes = Vec::new();
    loop {
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix("/>") {
            return Ok((Constructor { name, attributes, content: Vec::new() }, r));
        }
        if let Some(r) = rest.strip_prefix('>') {
            rest = r;
            break;
        }
        let eq = rest.find('=').ok_or_else(|| err("malformed attribute"))?;
        let attr_name = rest[..eq].trim().to_string();
        rest = rest[eq + 1..].trim_start();
        let quote = rest
            .chars()
            .next()
            .filter(|c| *c == '"' || *c == '\'')
            .ok_or_else(|| err("unquoted attribute value"))?;
        let after = &rest[1..];
        let close = after.find(quote).ok_or_else(|| err("unterminated attribute value"))?;
        let raw_value = &after[..close];
        attributes.push((attr_name, parse_template(raw_value)?));
        rest = &after[close + 1..];
    }

    // Content until matching close tag.
    let mut content = Vec::new();
    let close_tag = format!("</{name}>");
    loop {
        if rest.starts_with(&close_tag) {
            let after = &rest[close_tag.len()..];
            return Ok((Constructor { name, attributes, content }, after));
        }
        if rest.is_empty() {
            return Err(err(&format!("missing {close_tag}")));
        }
        if rest.starts_with("{{") {
            content.push(ConstructorNode::Text("{".into()));
            rest = &rest[2..];
        } else if rest.starts_with("}}") {
            content.push(ConstructorNode::Text("}".into()));
            rest = &rest[2..];
        } else if let Some(r) = rest.strip_prefix('{') {
            let close = find_brace_close(r).ok_or_else(|| err("unterminated { expression"))?;
            content.push(ConstructorNode::Hole(xpath(&r[..close])?));
            rest = &r[close + 1..];
        } else if rest.starts_with('<') {
            let (child, r) = parse_constructor(rest, depth + 1)?;
            content.push(ConstructorNode::Child(child));
            rest = r;
        } else {
            // Text run until a special character.
            let end = rest.find(['<', '{', '}']).unwrap_or(rest.len());
            content.push(ConstructorNode::Text(rest[..end].to_string()));
            rest = &rest[end..];
            if rest.starts_with('}') && !rest.starts_with("}}") {
                return Err(err("stray '}' in content"));
            }
        }
    }
}

fn find_brace_close(s: &str) -> Option<usize> {
    let mut depth = 0;
    let mut quote: Option<char> = None;
    for (i, c) in s.char_indices() {
        match (quote, c) {
            (Some(q), c) if c == q => quote = None,
            (Some(_), _) => {}
            (None, '\'') | (None, '"') => quote = Some(c),
            (None, '{') => depth += 1,
            (None, '}') => {
                if depth == 0 {
                    return Some(i);
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    None
}

fn parse_template(raw: &str) -> Result<Template, XmlDbError> {
    let mut parts = Vec::new();
    let mut rest = raw;
    while !rest.is_empty() {
        if rest.starts_with("{{") {
            parts.push(ConstructorNode::Text("{".into()));
            rest = &rest[2..];
        } else if rest.starts_with("}}") {
            parts.push(ConstructorNode::Text("}".into()));
            rest = &rest[2..];
        } else if let Some(r) = rest.strip_prefix('{') {
            let close = find_brace_close(r).ok_or_else(|| {
                XmlDbError::Query("unterminated { expression in attribute".into())
            })?;
            parts.push(ConstructorNode::Hole(xpath(&r[..close])?));
            rest = &r[close + 1..];
        } else {
            let end = rest.find(['{', '}']).unwrap_or(rest.len());
            parts.push(ConstructorNode::Text(rest[..end].to_string()));
            rest = &rest[end..];
        }
    }
    Ok(Template { parts })
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

fn xpath(src: &str) -> Result<XPathExpr, XmlDbError> {
    XPathExpr::parse(src.trim()).map_err(|e| XmlDbError::Query(e.to_string()))
}

fn evaluate<'x>(
    expr: &'x XPathExpr,
    index: &'x DocumentIndex<'_>,
    at: NodeId,
    scope: &'x [(&'x str, IndexedValue<'x>)],
    ctx: &'x XPathContext,
) -> Result<IndexedValue<'x>, XmlDbError> {
    expr.evaluate_in(index, at, scope, ctx).map_err(|e| XmlDbError::Query(e.to_string()))
}

/// Hand each item of a value to `f`: selected nodes cloned out of the
/// document (comments dropped), or one scalar.
fn for_each_item(
    index: &DocumentIndex<'_>,
    value: IndexedValue<'_>,
    mut f: impl FnMut(XQueryItem),
) {
    let ids = match value {
        IndexedValue::Nodes(ids) => ids,
        IndexedValue::String(s) => return f(XQueryItem::Value(s.into_owned())),
        scalar => return f(XQueryItem::Value(index.string(&scalar).into_owned())),
    };
    for id in ids {
        match index.detach(id) {
            XPathNode::Element(e) | XPathNode::Root(e) => f(XQueryItem::Element(e)),
            XPathNode::Attribute { value, .. } | XPathNode::Text(value) => {
                f(XQueryItem::Value(value))
            }
            XPathNode::Comment(_) => {}
        }
    }
}

/// An `order by` key: the number, and the string it falls back on.
struct SortKey {
    number: f64,
    string: String,
}

fn execute_flwor(
    f: &Flwor,
    index: &DocumentIndex<'_>,
    ctx: &XPathContext,
    out: &mut Vec<XQueryItem>,
) -> Result<(), XmlDbError> {
    let IndexedValue::Nodes(bound) = evaluate(&f.source, index, index.root(), &[], ctx)? else {
        return Err(XmlDbError::Query("for-clause path must select elements".into()));
    };
    let mut ordered = Vec::new();
    for at in bound {
        // `$x` ranges over the selected elements (or the root).
        if at != index.root() && index.element(at).is_none() {
            continue;
        }
        let mut scope = vec![(f.var.as_str(), IndexedValue::Nodes(vec![at]))];
        for (name, expr) in &f.lets {
            let value = evaluate(expr, index, at, &scope, ctx)?.into_owned();
            scope.push((name.as_str(), value));
        }
        if let Some(w) = &f.where_expr {
            if !evaluate(w, index, at, &scope, ctx)?.to_bool() {
                continue;
            }
        }
        match &f.order_by {
            Some((expr, _)) => {
                let key = evaluate(expr, index, at, &scope, ctx)?;
                let key = SortKey { number: index.number(&key), string: index.string(&key).into() };
                ordered.push((key, at, scope));
            }
            None => emit(&f.ret, index, at, &scope, ctx, out)?,
        }
    }
    if let Some((_, ascending)) = &f.order_by {
        ordered.sort_by(|(a, ..), (b, ..)| {
            let ord = if !a.number.is_nan() && !b.number.is_nan() {
                a.number.partial_cmp(&b.number).unwrap_or(std::cmp::Ordering::Equal)
            } else {
                a.string.cmp(&b.string)
            };
            if *ascending {
                ord
            } else {
                ord.reverse()
            }
        });
        for (_, at, scope) in &ordered {
            emit(&f.ret, index, *at, scope, ctx, out)?;
        }
    }
    Ok(())
}

/// Evaluate the `return` clause for one binding.
fn emit(
    ret: &Return,
    index: &DocumentIndex<'_>,
    at: NodeId,
    scope: &[(&str, IndexedValue<'_>)],
    ctx: &XPathContext,
    out: &mut Vec<XQueryItem>,
) -> Result<(), XmlDbError> {
    match ret {
        Return::Expr(expr) => {
            for_each_item(index, evaluate(expr, index, at, scope, ctx)?, |item| out.push(item))
        }
        Return::Constructor(cons) => {
            out.push(XQueryItem::Element(build_constructor(cons, index, at, scope, ctx)?))
        }
    }
    Ok(())
}

fn build_constructor(
    cons: &Constructor,
    index: &DocumentIndex<'_>,
    at: NodeId,
    scope: &[(&str, IndexedValue<'_>)],
    ctx: &XPathContext,
) -> Result<XmlElement, XmlDbError> {
    let mut element = XmlElement::new_local(&cons.name);
    for (name, template) in &cons.attributes {
        let mut value = String::new();
        for part in &template.parts {
            match part {
                ConstructorNode::Text(t) => value.push_str(t),
                ConstructorNode::Hole(expr) => {
                    value.push_str(&index.string(&evaluate(expr, index, at, scope, ctx)?))
                }
                ConstructorNode::Child(_) => unreachable!("templates hold no children"),
            }
        }
        element.set_attr(name.clone(), value);
    }
    for node in &cons.content {
        match node {
            ConstructorNode::Text(t) => {
                if !t.trim().is_empty() {
                    element.children.push(XmlNode::Text(t.clone()));
                }
            }
            ConstructorNode::Child(c) => {
                element.push(build_constructor(c, index, at, scope, ctx)?);
            }
            ConstructorNode::Hole(expr) => {
                let value = evaluate(expr, index, at, scope, ctx)?;
                for_each_item(index, value, |item| match item {
                    XQueryItem::Element(e) => element.push(e),
                    XQueryItem::Value(v) => element.children.push(XmlNode::Text(v)),
                });
            }
        }
    }
    Ok(element)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dais_xml::parse;

    fn doc() -> XmlElement {
        parse(
            "<catalog>\
               <book><title>TP</title><price>50</price></book>\
               <book><title>DDIA</title><price>40</price></book>\
               <book><title>OSTEP</title><price>0</price></book>\
             </catalog>",
        )
        .unwrap()
    }

    fn run(q: &str) -> Vec<XQueryItem> {
        XQuery::parse(q).unwrap().execute(&doc()).unwrap()
    }

    #[test]
    fn bare_xpath_query() {
        let items = run("//book/title");
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].string_value(), "TP");
    }

    #[test]
    fn simple_flwor() {
        let items = run("for $b in //book return $b/title");
        assert_eq!(items.len(), 3);
        assert!(matches!(&items[0], XQueryItem::Element(e) if e.name.local == "title"));
    }

    #[test]
    fn where_clause() {
        let items = run("for $b in //book where $b/price > 30 return $b/title");
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn order_by() {
        let items = run("for $b in //book order by $b/price return $b/title");
        let titles: Vec<String> = items.iter().map(XQueryItem::string_value).collect();
        assert_eq!(titles, vec!["OSTEP", "DDIA", "TP"]);
        let items = run("for $b in //book order by $b/price descending return $b/title");
        assert_eq!(items[0].string_value(), "TP");
    }

    #[test]
    fn order_by_string_key() {
        let items = run("for $b in //book order by $b/title return $b/price");
        let prices: Vec<String> = items.iter().map(XQueryItem::string_value).collect();
        assert_eq!(prices, vec!["40", "0", "50"]); // DDIA, OSTEP, TP
    }

    #[test]
    fn let_clause() {
        let items = run("for $b in //book let $p := $b/price where $p >= 40 return $b/title");
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn constructor_return() {
        let items = run("for $b in //book where $b/price > 30 \
             return <item cost=\"{$b/price}\"><name>{$b/title/text()}</name></item>");
        assert_eq!(items.len(), 2);
        let XQueryItem::Element(e) = &items[0] else { panic!() };
        assert_eq!(e.name.local, "item");
        assert_eq!(e.attribute("cost"), Some("50"));
        assert_eq!(e.child_text("", "name").as_deref(), Some("TP"));
    }

    #[test]
    fn constructor_with_node_interpolation() {
        let items = run("for $b in //book[price=50] return <wrap>{$b/title}</wrap>");
        let XQueryItem::Element(e) = &items[0] else { panic!() };
        assert!(e.child("", "title").is_some());
    }

    #[test]
    fn constructor_static_content_and_escapes() {
        let items = run("for $b in //book[price=50] return <r a=\"x{{y}}\">lit {{n}}</r>");
        let XQueryItem::Element(e) = &items[0] else { panic!() };
        assert_eq!(e.attribute("a"), Some("x{y}"));
        assert_eq!(e.text(), "lit {n}");
    }

    #[test]
    fn nested_constructors() {
        let items = run("for $b in //book[price=40] return <a><b><c>{$b/title/text()}</c></b></a>");
        let XQueryItem::Element(e) = &items[0] else { panic!() };
        assert_eq!(e.child("", "b").unwrap().child("", "c").unwrap().text(), "DDIA");
    }

    #[test]
    fn scalar_return_expressions() {
        let items = run("for $b in //book return count($b/title)");
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].string_value(), "1");
    }

    #[test]
    fn empty_result_ok() {
        assert!(run("for $b in //missing return $b").is_empty());
        assert!(run("for $b in //book where $b/price > 1000 return $b").is_empty());
    }

    fn library() -> XmlElement {
        parse(
            "<lib>\
               <book><title>A</title><price>10</price></book>\
               <book><title>B</title><price>30</price></book>\
               <book><title>C</title><price>20</price></book>\
             </lib>",
        )
        .unwrap()
    }

    fn strings(q: &str, doc: &XmlElement) -> Vec<String> {
        XQuery::parse(q)
            .unwrap()
            .execute(doc)
            .unwrap()
            .iter()
            .map(XQueryItem::string_value)
            .collect()
    }

    #[test]
    fn the_for_variable_means_the_binding_inside_a_predicate() {
        // Inside `[...]` the context node is the predicate's book, while
        // `$b` stays the bound one, and `/lib/book` is the real document.
        let q = "for $b in /lib/book where count(/lib/book[price > $b/price]) = 0 \
                 return $b/title/text()";
        assert_eq!(strings(q, &library()), vec!["B"]);
        let q = "for $b in /lib/book return count(/lib/book[price < $b/price])";
        assert_eq!(strings(q, &library()), vec!["0", "2", "1"]);
    }

    #[test]
    fn string_literals_naming_the_variable_are_left_alone() {
        let q = "for $b in /lib/book return concat('cost of $b: ', $b/price)";
        assert_eq!(
            strings(q, &library()),
            vec!["cost of $b: 10", "cost of $b: 30", "cost of $b: 20"]
        );
        let q = "for $b in /lib/book[1] return <r t=\"{concat('$b', $b/title)}\">{'$b'}</r>";
        let items = XQuery::parse(q).unwrap().execute(&library()).unwrap();
        let XQueryItem::Element(e) = &items[0] else { panic!() };
        assert_eq!(e.attribute("t"), Some("$bA"));
        assert_eq!(e.text(), "$b");
    }

    #[test]
    fn a_variable_named_like_a_prefix_of_another_is_its_own() {
        // `$bk` is not `$b` followed by `k`.
        let q = "for $b in /lib/book let $bk := $b/price * 2 return $bk";
        assert_eq!(strings(q, &library()), vec!["20", "60", "40"]);
        let q = "for $b in /lib/book return $bk";
        assert!(XQuery::parse(q).unwrap().execute(&library()).is_err());
    }

    #[test]
    fn let_binds_nodes_of_the_same_document() {
        let q = "for $b in /lib/book let $t := $b/title where $b/price >= 20 return $t";
        let items = XQuery::parse(q).unwrap().execute(&library()).unwrap();
        assert_eq!(items.len(), 2);
        assert!(matches!(&items[0], XQueryItem::Element(e) if e.name.local == "title"));
        let q =
            "for $b in /lib/book order by $b/price descending return $b/../book[1]/title/text()";
        assert_eq!(strings(q, &library()), vec!["A", "A", "A"]);
    }

    #[test]
    fn clauses_are_parsed_once_at_parse_time() {
        assert!(XQuery::parse("for $b in /lib/book where $b/price >> 1 return $b").is_err());
        assert!(XQuery::parse("for $b in /lib/book return <r>{$b/[}</r>").is_err());
        assert!(XQuery::parse("for $b in /lib/book order by ( return $b").is_err());
    }

    #[test]
    fn constructor_nesting_is_bounded() {
        let depth = MAX_EXPRESSION_DEPTH;
        let nest = |n: usize| {
            format!(
                "for $b in /lib/book[1] return {}{{$b/title/text()}}{}",
                "<a>".repeat(n),
                "</a>".repeat(n)
            )
        };
        let items = XQuery::parse(&nest(depth)).unwrap().execute(&library()).unwrap();
        assert_eq!(items[0].string_value(), "A");
        let err = XQuery::parse(&nest(depth + 1)).unwrap_err();
        assert!(err.to_string().contains("nest deeper"), "{err}");
    }

    #[test]
    fn parse_errors() {
        assert!(XQuery::parse("for $b //book return $b").is_err()); // missing in
        assert!(XQuery::parse("for $b in //book").is_err()); // missing return
        assert!(XQuery::parse("for $b in //book return <a>{$b").is_err()); // bad constructor
        assert!(XQuery::parse("for in //book return 1").is_err()); // missing var
        assert!(XQuery::parse("///").is_err()); // bad bare xpath
    }

    #[test]
    fn keywords_inside_strings_not_clauses() {
        // 'return' inside a string literal must not terminate the where
        // clause scan.
        let items = run("for $b in //book where $b/title != 'return' return $b/title");
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn item_to_element_wraps_values() {
        let item = XQueryItem::Value("42".into());
        let e = item.to_element();
        assert_eq!(e.name.local, "value");
        assert_eq!(e.text(), "42");
    }
}
