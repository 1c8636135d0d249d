//! An XPath 1.0 subset engine.
//!
//! Supports the portions of XPath 1.0 used by DAIS services:
//!
//! * location paths over the `child`, `descendant`, `descendant-or-self`,
//!   `self`, `parent`, `ancestor`, `ancestor-or-self`, `attribute`,
//!   `following-sibling` and `preceding-sibling` axes, including all
//!   abbreviated forms (`//`, `.`, `..`, `@`);
//! * node tests: qualified/wildcard name tests, `node()`, `text()`,
//!   `comment()`;
//! * predicates with positional semantics;
//! * the full expression grammar: `or`/`and`, (in)equality and relational
//!   comparisons with node-set semantics, arithmetic (`+ - * div mod`,
//!   unary minus), union (`|`), filter expressions and parentheses;
//! * the core function library;
//! * variable references (`$name`): scalars bound in the
//!   [`XPathContext`], and node-sets bound in the scope of
//!   [`XPathExpr::evaluate_in`], whose ids name nodes of one
//!   [`DocumentIndex`] (XQuery binds its `for` variable to a node this
//!   way, and evaluates every clause in the same index).
//!
//! Every evaluation runs over a [`DocumentIndex`], one flat pre-order
//! `Vec` per document (see `eval.rs`); [`XPathExpr::evaluate`] builds one
//! for its single call, and a caller walking many documents can reuse one
//! buffer with [`DocumentIndex::reindex`]. [`XPathExpr::document_filter`]
//! tells such a caller, from the document element alone, which documents
//! the expression cannot select anything in, so they need no index at
//! all. The parser refuses nesting deeper than [`MAX_EXPRESSION_DEPTH`],
//! so evaluating and dropping a parsed expression is bounded too.
//!
//! Name tests follow the XPath 1.0 rule: an unprefixed name matches names
//! in *no* namespace; prefixed names are resolved against the
//! [`XPathContext`] namespace bindings (as WSRF `QueryResourceProperties`
//! does with the query element's in-scope namespaces).
//!
//! ```
//! use dais_xml::{parse, XPathExpr, XPathValue};
//!
//! let doc = parse("<inv><item price='3'/><item price='4'/></inv>").unwrap();
//! let expr = XPathExpr::parse("sum(/inv/item/@price)").unwrap();
//! match expr.evaluate(&doc).unwrap() {
//!     XPathValue::Number(n) => assert_eq!(n, 7.0),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

mod admit;
mod ast;
mod eval;
mod lexer;
mod parser;

pub use admit::DocumentFilter;
pub use ast::Expr;
pub use dais_util::MAX_EXPRESSION_DEPTH;
pub use eval::{
    DocumentIndex, IndexedValue, NodeId, NodePath, PathStep, XPathContext, XPathNode, XPathValue,
};

use std::fmt;

/// A parsed, reusable XPath expression.
#[derive(Debug, Clone)]
pub struct XPathExpr {
    pub(crate) ast: ast::Expr,
    source: String,
}

/// A parse- or evaluation-time XPath error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    pub message: String,
}

impl XPathError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        XPathError { message: message.into() }
    }
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error: {}", self.message)
    }
}

impl std::error::Error for XPathError {}

impl XPathExpr {
    /// Parse an expression. The resulting value can be evaluated any
    /// number of times against different documents. Nesting deeper than
    /// [`MAX_EXPRESSION_DEPTH`] is refused.
    pub fn parse(source: &str) -> Result<Self, XPathError> {
        let tokens = lexer::tokenize(source)?;
        let ast = parser::parse_tokens(&tokens)?;
        Ok(XPathExpr { ast, source: source.to_string() })
    }

    /// The original expression text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Evaluate against a document rooted at `root`, with an empty context.
    /// The context node is the (virtual) document root, so both `/doc/x`
    /// and `doc/x` address into the tree.
    pub fn evaluate(&self, root: &crate::XmlElement) -> Result<XPathValue, XPathError> {
        self.evaluate_with(root, &XPathContext::default())
    }

    /// Evaluate with namespace bindings and scalar variables.
    pub fn evaluate_with(
        &self,
        root: &crate::XmlElement,
        context: &XPathContext,
    ) -> Result<XPathValue, XPathError> {
        let index = DocumentIndex::new(root);
        let value = self.evaluate_in(&index, index.root(), &[], context)?;
        Ok(index.to_xpath_value(value))
    }

    /// Evaluate in an indexed document, with `at` as the context node.
    /// `scope` binds variables ahead of `context`'s scalar ones; its
    /// node-set values are ids in `index`, which is how XQuery binds `$x`
    /// to a node of the document it is walking. Every other evaluation
    /// goes through here too. A string result may borrow from the
    /// expression, the document or the scope
    /// ([`IndexedValue::into_owned`] frees it).
    pub fn evaluate_in<'x>(
        &'x self,
        index: &'x DocumentIndex<'_>,
        at: NodeId,
        scope: &'x [(&'x str, IndexedValue<'x>)],
        context: &'x XPathContext,
    ) -> Result<IndexedValue<'x>, XPathError> {
        eval::evaluate(&self.ast, index, at, scope, context)
    }

    /// The test a document's element must pass for this expression to
    /// select anything in it, when its first step gives one (see
    /// `admit.rs`): `/name`, narrowed by the leftmost `and` leaf of its
    /// first predicate when that is `child = literal` or `@attr = literal`.
    /// `None` for every other expression, scalar results included.
    pub fn document_filter(&self) -> Option<DocumentFilter<'_>> {
        admit::document_filter(&self.ast)
    }

    /// The test for an XQuery `for $var in self`, whose `where` clause,
    /// if given, is the first clause evaluated for each binding. A
    /// one-step binding path with no predicate is narrowed by the leftmost
    /// `and` leaf of `where`, `$var/child = literal` or
    /// `$var/@attr = literal`.
    pub fn binding_filter<'x>(
        &'x self,
        var: &str,
        where_expr: Option<&'x XPathExpr>,
    ) -> Option<DocumentFilter<'x>> {
        admit::binding_filter(&self.ast, var, where_expr.map(|w| &w.ast))
    }

    /// Evaluate to the structural paths of the selected nodes (document
    /// order). This is the mutation hook used by XUpdate: paths remain
    /// valid addresses into the unmodified document.
    pub fn select_paths(
        &self,
        root: &crate::XmlElement,
        context: &XPathContext,
    ) -> Result<Vec<NodePath>, XPathError> {
        let index = DocumentIndex::new(root);
        match self.evaluate_in(&index, index.root(), &[], context)? {
            IndexedValue::Nodes(ids) => Ok(ids.into_iter().map(|id| index.path(id)).collect()),
            _ => Err(XPathError::new("expression does not select nodes")),
        }
    }

    /// Convenience: evaluate and return matching elements (ignoring any
    /// non-element results), cloned out of the document.
    pub fn select_elements(
        &self,
        root: &crate::XmlElement,
    ) -> Result<Vec<crate::XmlElement>, XPathError> {
        match self.evaluate(root)? {
            XPathValue::NodeSet(nodes) => Ok(nodes
                .into_iter()
                .filter_map(|n| match n {
                    XPathNode::Element(e) | XPathNode::Root(e) => Some(e),
                    _ => None,
                })
                .collect()),
            _ => Ok(Vec::new()),
        }
    }
}
