//! Which documents of a collection a query can answer from, decided from
//! the document element alone, before the document is indexed.
//!
//! The analysis reads only the first thing the evaluator runs on a
//! document: the first step of an absolute path, `/name`, and the
//! leftmost leaf of the `and` chain in that step's first predicate, when
//! the leaf is `child = literal` or `@attr = literal`. A document whose
//! element is not `name`, or whose leaf is false, yields an empty
//! node-set and no error: the step selects nothing, so no later predicate
//! or step runs, and `and` stops at its first false operand, so no leaf
//! to the right of it runs either. Refusing such a document is therefore
//! exact. The leaf is compared with the evaluator's own string-value
//! ([`element_string_value`]) and number conversion ([`str_to_number`]),
//! and unprefixed names match only names in no namespace.

use super::ast::{Axis, BinOp, Expr, NodeTest, Path, Step};
use super::eval::{element_string_value, str_to_number};
use crate::name::QName;
use crate::node::{XmlElement, XmlNode};

/// A test of a document's element that every document a query selects
/// anything in passes. Built by [`super::XPathExpr::document_filter`] or
/// [`super::XPathExpr::binding_filter`]; it borrows the expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DocumentFilter<'x> {
    /// The document element's local name (in no namespace).
    root: &'x str,
    equality: Option<Equality<'x>>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Equality<'x> {
    operand: Operand<'x>,
    literal: Literal<'x>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand<'x> {
    Child(&'x str),
    Attribute(&'x str),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Literal<'x> {
    String(&'x str),
    Number(f64),
}

impl DocumentFilter<'_> {
    /// Can the query select anything in the document whose element is
    /// `doc`? `false` means evaluating it there yields no node and no
    /// error.
    pub fn admits(&self, doc: &XmlElement) -> bool {
        if !unqualified(&doc.name, self.root) {
            return false;
        }
        let Some(Equality { operand, literal }) = self.equality else {
            return true;
        };
        match operand {
            Operand::Child(name) => doc.children.iter().any(|child| match child {
                XmlNode::Element(e) => {
                    unqualified(&e.name, name) && literal.matches(&element_string_value(e))
                }
                _ => false,
            }),
            Operand::Attribute(name) => doc
                .attributes
                .iter()
                .any(|a| unqualified(&a.name, name) && literal.matches(&a.value)),
        }
    }
}

impl Literal<'_> {
    /// The evaluator's `=` between a node's string-value and a literal.
    fn matches(self, value: &str) -> bool {
        match self {
            Literal::String(s) => value == s,
            Literal::Number(n) => str_to_number(value) == n,
        }
    }
}

fn unqualified(name: &QName, local: &str) -> bool {
    name.local == local && name.namespace.is_empty()
}

/// The filter of an absolute path `/name[leaf and …]…` (see the module
/// docs); `None` for every other expression.
pub(super) fn document_filter(expr: &Expr) -> Option<DocumentFilter<'_>> {
    let Expr::Path(Path { absolute: true, steps }) = expr else {
        return None;
    };
    let first = steps.first()?;
    Some(DocumentFilter {
        root: unprefixed(first, Axis::Child)?,
        equality: first.predicates.first().and_then(|p| equality(leftmost(p), None)),
    })
}

/// The filter of `for $var in source where …`. The `for` path gives it
/// by the rule of [`document_filter`]. When that path is one step with no
/// predicate, it binds `$var` to the document element alone, so the
/// leftmost leaf of `where`, `$var/child = literal` or
/// `$var/@attr = literal`, narrows it too. `where_expr` must be the first
/// clause evaluated after the binding (no `let` before it).
pub(super) fn binding_filter<'x>(
    source: &'x Expr,
    var: &str,
    where_expr: Option<&'x Expr>,
) -> Option<DocumentFilter<'x>> {
    let mut filter = document_filter(source)?;
    if let (Expr::Path(Path { steps, .. }), Some(w)) = (source, where_expr) {
        if matches!(steps.as_slice(), [step] if step.predicates.is_empty()) {
            filter.equality = equality(leftmost(w), Some(var));
        }
    }
    Some(filter)
}

/// The operand of an `and` chain that is evaluated first.
fn leftmost(mut expr: &Expr) -> &Expr {
    while let Expr::Binary { op: BinOp::And, lhs, .. } = expr {
        expr = lhs;
    }
    expr
}

/// `child = literal` or `@attr = literal`, either way round, relative to
/// the context node — or, with `var`, to `$var`.
fn equality<'x>(leaf: &'x Expr, var: Option<&str>) -> Option<Equality<'x>> {
    let Expr::Binary { op: BinOp::Eq, lhs, rhs } = leaf else {
        return None;
    };
    let (operand, literal) = match (literal(lhs), literal(rhs)) {
        (None, Some(literal)) => (&**lhs, literal),
        (Some(literal), None) => (&**rhs, literal),
        _ => return None,
    };
    let path = match (operand, var) {
        (Expr::Path(path), None) => path,
        (Expr::Filter { primary, predicates, path: Some(path) }, Some(var))
            if predicates.is_empty() && matches!(&**primary, Expr::Variable(v) if v == var) =>
        {
            path
        }
        _ => return None,
    };
    let [step] = path.steps.as_slice() else {
        return None;
    };
    if path.absolute || !step.predicates.is_empty() {
        return None;
    }
    let operand = match step.axis {
        Axis::Child => Operand::Child(unprefixed(step, Axis::Child)?),
        Axis::Attribute => Operand::Attribute(unprefixed(step, Axis::Attribute)?),
        _ => return None,
    };
    Some(Equality { operand, literal })
}

fn literal(expr: &Expr) -> Option<Literal<'_>> {
    match expr {
        Expr::Literal(s) => Some(Literal::String(s)),
        Expr::Number(n) => Some(Literal::Number(*n)),
        _ => None,
    }
}

/// The local name of `axis::name`, a name test with no prefix.
fn unprefixed(step: &Step, axis: Axis) -> Option<&str> {
    match &step.test {
        NodeTest::Name { prefix: None, local } if step.axis == axis => Some(local),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::super::XPathExpr;
    use crate::parse;

    fn filter(xpath: &str) -> Option<String> {
        XPathExpr::parse(xpath).unwrap().document_filter().map(|f| format!("{f:?}"))
    }

    #[test]
    fn only_an_absolute_path_with_an_unprefixed_first_step_gets_a_filter() {
        assert!(filter("/book").is_some());
        assert!(filter("/book[year = 1]/title").is_some());
        for scalar_or_unanchored in [
            "count(/book)",
            "/book | /paper",
            "//book",
            "book",
            "/*[year = 1]",
            "/p:book",
            "/book = 'x'",
            "/self::book",
            "(/book)[1]",
        ] {
            assert_eq!(filter(scalar_or_unanchored), None, "{scalar_or_unanchored}");
        }
    }

    #[test]
    fn the_equality_comes_from_the_leftmost_leaf_of_the_first_predicate() {
        let admits = |xpath: &str, doc: &str| {
            let expr = XPathExpr::parse(xpath).unwrap();
            expr.document_filter().unwrap().admits(&parse(doc).unwrap())
        };
        let doc = "<book id='7'><year>1999.0</year><b:year xmlns:b='urn:b'>5</b:year></book>";
        assert!(admits("/book[year = 1999]", doc));
        assert!(admits("/book['1999.0' = year]", doc));
        assert!(!admits("/book[year = '1999']", doc));
        assert!(admits("/book[@id = 7 and year = 5]", doc));
        assert!(!admits("/book[year = 5 and @id = 7]", doc), "the namespaced year is not year");
        // Not the leftmost leaf, not the first predicate, or not an
        // equality: the root name alone decides.
        assert!(admits("/book[@id = 8 or year = 5]", doc));
        assert!(admits("/book[1][year = 5]", doc));
        assert!(admits("/book[year != 1999]", doc));
        assert!(admits("/book[year/x = 1]", doc));
        assert!(!admits("/paper[@id = 7]", doc));
        assert!(!admits("/book", "<book xmlns='urn:b'/>"));
    }

    #[test]
    fn a_where_leaf_narrows_only_a_bare_one_step_binding() {
        let doc = parse("<book><year>2001</year></book>").unwrap();
        let admits = |source: &str, var: &str, where_expr: &str| {
            let (source, w) =
                (XPathExpr::parse(source).unwrap(), XPathExpr::parse(where_expr).unwrap());
            source.binding_filter(var, Some(&w)).unwrap().admits(&doc)
        };
        assert!(!admits("/book", "b", "$b/year = 1999"));
        assert!(admits("/book", "b", "$b/year = 2001"));
        assert!(admits("/book", "c", "$b/year = 1999"), "another variable");
        assert!(admits("/book[2]", "b", "$b/year = 1999"), "the step has a predicate");
        assert!(admits("/book/year", "b", "$b/year = 1999"), "more than one step");
        assert!(admits("/book", "b", "year = 1999"), "not relative to the binding");
        // The for path's own predicate still decides.
        let source = XPathExpr::parse("/book[year = 1999]").unwrap();
        assert!(!source.binding_filter("b", None).unwrap().admits(&doc));
    }
}
