//! XPath evaluation over a flat, per-document index.
//!
//! [`DocumentIndex`] lays one document out as a single `Vec` of entries in
//! pre-order: an element, then its attributes, then the subtrees of its
//! children. An entry borrows its node from the tree and holds its parent,
//! the end of its subtree and its index in its parent — nothing on the
//! heap — so indexing a document costs one allocation, or none when the
//! buffer is reused. A node's id is its position, so ids are document
//! order and merging node-sets is a sort-and-dedup. A node's attributes are
//! the entries right after it, its descendants are the entries up to its
//! subtree end, and its children are found by jumping from one child's
//! subtree end to the next. Node-sets are vectors of ids while an
//! expression runs; a node is cloned out of the tree only when it leaves
//! as a result ([`DocumentIndex::detach`]), and its structural
//! [`NodePath`] is built from the parent chain only when asked for
//! ([`DocumentIndex::path`]).

use super::ast::{Axis, BinOp, Expr, NodeTest, Step};
use super::XPathError;
use crate::name::QName;
use crate::node::{Attribute, XmlElement, XmlNode};
use std::borrow::Cow;
use std::collections::HashMap;

/// The result of evaluating an XPath expression: one of the four XPath 1.0
/// value types. Node-set members are cloned out of the document.
#[derive(Debug, Clone, PartialEq)]
pub enum XPathValue {
    NodeSet(Vec<XPathNode>),
    Boolean(bool),
    Number(f64),
    String(String),
}

/// A node selected by an expression, detached from the source document.
#[derive(Debug, Clone, PartialEq)]
pub enum XPathNode {
    /// The virtual document root (carrying a clone of the root element).
    Root(XmlElement),
    Element(XmlElement),
    Attribute {
        name: QName,
        value: String,
    },
    Text(String),
    Comment(String),
}

impl XPathNode {
    /// The XPath string-value of the node.
    pub fn string_value(&self) -> String {
        match self {
            XPathNode::Root(e) | XPathNode::Element(e) => e.text(),
            XPathNode::Attribute { value, .. } => value.clone(),
            XPathNode::Text(t) | XPathNode::Comment(t) => t.clone(),
        }
    }
}

impl XPathValue {
    /// XPath `boolean()` coercion.
    pub fn to_bool(&self) -> bool {
        match self {
            XPathValue::NodeSet(n) => !n.is_empty(),
            XPathValue::Boolean(b) => *b,
            XPathValue::Number(n) => *n != 0.0 && !n.is_nan(),
            XPathValue::String(s) => !s.is_empty(),
        }
    }

    /// XPath `number()` coercion.
    pub fn to_number(&self) -> f64 {
        match self {
            XPathValue::NodeSet(_) | XPathValue::String(_) => {
                str_to_number(&self.to_xpath_string())
            }
            XPathValue::Boolean(b) => bool_to_number(*b),
            XPathValue::Number(n) => *n,
        }
    }

    /// XPath `string()` coercion (first node's string-value for node-sets).
    pub fn to_xpath_string(&self) -> String {
        match self {
            XPathValue::NodeSet(n) => n.first().map(XPathNode::string_value).unwrap_or_default(),
            XPathValue::Boolean(b) => b.to_string(),
            XPathValue::Number(n) => number_to_string(*n),
            XPathValue::String(s) => s.clone(),
        }
    }
}

/// Evaluation context: namespace bindings for prefixed name tests and
/// scalar variable values.
#[derive(Debug, Clone, Default)]
pub struct XPathContext {
    namespaces: HashMap<String, String>,
    variables: HashMap<String, XPathValue>,
}

impl XPathContext {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `prefix` to a namespace URI for name tests.
    pub fn bind_namespace(&mut self, prefix: impl Into<String>, uri: impl Into<String>) {
        self.namespaces.insert(prefix.into(), uri.into());
    }

    /// Bind a scalar variable. A node-set variable names nodes of one
    /// indexed document, so it is bound in the scope of
    /// [`super::XPathExpr::evaluate_in`] instead.
    pub fn bind_variable(&mut self, name: impl Into<String>, value: XPathValue) {
        self.variables.insert(name.into(), value);
    }

    pub fn with_namespace(mut self, prefix: impl Into<String>, uri: impl Into<String>) -> Self {
        self.bind_namespace(prefix, uri);
        self
    }

    pub fn with_variable(mut self, name: impl Into<String>, value: XPathValue) -> Self {
        self.bind_variable(name, value);
        self
    }
}

// ---------------------------------------------------------------------------
// The index
// ---------------------------------------------------------------------------

/// One step in a structural path from the document element to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStep {
    /// Index into `XmlElement::children`.
    Child(usize),
    /// Index into `XmlElement::attributes`.
    Attribute(usize),
}

/// A structural address of a node: child/attribute indices starting from
/// the document element (an empty path is the document element itself).
/// Used by XUpdate to mutate the nodes an expression selected.
pub type NodePath = Vec<PathStep>;

/// A node of a [`DocumentIndex`]: its position in document order. An id
/// means something only in the index that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    fn ix(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Copy)]
enum Kind<'d> {
    Root,
    Element(&'d XmlElement),
    Attribute(&'d Attribute),
    Text(&'d String),
    Comment(&'d String),
}

#[derive(Clone, Copy)]
struct Entry<'d> {
    kind: Kind<'d>,
    /// The parent's id; the virtual root has none and holds its own.
    parent: NodeId,
    /// One past the last id of this node's subtree.
    end: NodeId,
    /// Index into the parent's `children`, or its `attributes` for an
    /// attribute.
    index: u32,
}

/// One document laid out for evaluation: a flat pre-order `Vec` over the
/// borrowed tree (see the module docs). Id 0 is the virtual root and id 1
/// the document element. Ids are `u32`; a document that fits in a frame
/// has far fewer nodes.
pub struct DocumentIndex<'d> {
    entries: Vec<Entry<'d>>,
}

impl<'d> DocumentIndex<'d> {
    /// Index the document whose element is `root`.
    pub fn new(root: &'d XmlElement) -> DocumentIndex<'d> {
        let mut index = DocumentIndex { entries: Vec::new() };
        index.reindex(root);
        index
    }

    /// Index another document in this index's buffer. Ids taken from the
    /// previous document mean nothing afterwards.
    pub fn reindex(&mut self, root: &'d XmlElement) {
        self.entries.clear();
        // Attributes are not counted: they cost at most one regrowth.
        self.entries.reserve(1 + root.node_count());
        let root_id = NodeId(0);
        self.entries.push(Entry { kind: Kind::Root, parent: root_id, end: root_id, index: 0 });
        self.push_element(root, root_id, 0);
        self.entries[0].end = self.next_id();
    }

    fn next_id(&self) -> NodeId {
        NodeId(self.entries.len() as u32)
    }

    fn push_element(&mut self, element: &'d XmlElement, parent: NodeId, index: usize) {
        let id = self.next_id();
        self.entries.push(Entry {
            kind: Kind::Element(element),
            parent,
            end: id,
            index: index as u32,
        });
        for (j, attribute) in element.attributes.iter().enumerate() {
            self.push_leaf(Kind::Attribute(attribute), id, j);
        }
        for (i, child) in element.children.iter().enumerate() {
            match child {
                XmlNode::Element(e) => self.push_element(e, id, i),
                XmlNode::Text(t) | XmlNode::CData(t) => self.push_leaf(Kind::Text(t), id, i),
                XmlNode::Comment(t) => self.push_leaf(Kind::Comment(t), id, i),
            }
        }
        self.entries[id.ix()].end = self.next_id();
    }

    fn push_leaf(&mut self, kind: Kind<'d>, parent: NodeId, index: usize) {
        let end = NodeId(self.next_id().0 + 1);
        self.entries.push(Entry { kind, parent, end, index: index as u32 });
    }

    /// The virtual root, the context node of an absolute path.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    fn entry(&self, id: NodeId) -> &Entry<'d> {
        &self.entries[id.ix()]
    }

    fn kind(&self, id: NodeId) -> Kind<'d> {
        self.entry(id).kind
    }

    fn end(&self, id: NodeId) -> NodeId {
        self.entry(id).end
    }

    fn parent(&self, id: NodeId) -> Option<NodeId> {
        Some(self.entry(id).parent).filter(|_| id.0 != 0)
    }

    /// The first id after `id`'s own attributes: its first child, if it
    /// has any children.
    fn first_child(&self, id: NodeId) -> NodeId {
        match self.kind(id) {
            Kind::Element(e) => NodeId(id.0 + 1 + e.attributes.len() as u32),
            _ => NodeId(id.0 + 1),
        }
    }

    /// The element at `id`, if it is one.
    pub fn element(&self, id: NodeId) -> Option<&'d XmlElement> {
        match self.kind(id) {
            Kind::Element(e) => Some(e),
            _ => None,
        }
    }

    /// The XPath string-value of a node, borrowed from the tree unless an
    /// element's text is spread over several children.
    pub fn string_value(&self, id: NodeId) -> Cow<'d, str> {
        match self.kind(id) {
            Kind::Root => self.string_value(NodeId(1)),
            Kind::Element(e) => element_string_value(e),
            Kind::Attribute(a) => Cow::Borrowed(&a.value),
            Kind::Text(t) | Kind::Comment(t) => Cow::Borrowed(t),
        }
    }

    /// Clone a node out of the document.
    pub fn detach(&self, id: NodeId) -> XPathNode {
        match self.kind(id) {
            Kind::Root => XPathNode::Root(self.element(NodeId(1)).cloned().unwrap_or_default()),
            Kind::Element(e) => XPathNode::Element(e.clone()),
            Kind::Text(t) => XPathNode::Text(t.clone()),
            Kind::Comment(t) => XPathNode::Comment(t.clone()),
            Kind::Attribute(a) => {
                XPathNode::Attribute { name: a.name.clone(), value: a.value.clone() }
            }
        }
    }

    /// The structural address of a node, from its parent chain. The
    /// virtual root and the document element both have the empty path.
    pub fn path(&self, id: NodeId) -> NodePath {
        let mut path = NodePath::new();
        let mut node = id;
        while node.0 > 1 {
            let entry = self.entry(node);
            path.push(match entry.kind {
                Kind::Attribute(_) => PathStep::Attribute(entry.index as usize),
                _ => PathStep::Child(entry.index as usize),
            });
            node = entry.parent;
        }
        path.reverse();
        path
    }

    /// XPath `string()` of a value computed over this index.
    pub fn string<'v>(&'v self, value: &'v IndexedValue<'_>) -> Cow<'v, str> {
        match value {
            IndexedValue::Nodes(ids) => {
                ids.first().map(|&id| self.string_value(id)).unwrap_or_default()
            }
            IndexedValue::Boolean(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            IndexedValue::Number(n) => Cow::Owned(number_to_string(*n)),
            IndexedValue::String(s) => Cow::Borrowed(s),
        }
    }

    /// XPath `number()` of a value computed over this index.
    pub fn number(&self, value: &IndexedValue<'_>) -> f64 {
        match value {
            IndexedValue::Boolean(b) => bool_to_number(*b),
            IndexedValue::Number(n) => *n,
            other => str_to_number(&self.string(other)),
        }
    }

    /// The detached form of a value computed over this index: each
    /// selected node is cloned out of the document once.
    pub fn to_xpath_value(&self, value: IndexedValue<'_>) -> XPathValue {
        match value {
            IndexedValue::Nodes(ids) => {
                XPathValue::NodeSet(ids.into_iter().map(|id| self.detach(id)).collect())
            }
            IndexedValue::Boolean(b) => XPathValue::Boolean(b),
            IndexedValue::Number(n) => XPathValue::Number(n),
            IndexedValue::String(s) => XPathValue::String(s.into_owned()),
        }
    }
}

/// The XPath string-value of an element: its text, borrowed unless it is
/// spread over several children.
pub(super) fn element_string_value(e: &XmlElement) -> Cow<'_, str> {
    match e.children.as_slice() {
        [] => Cow::Borrowed(""),
        [XmlNode::Text(t) | XmlNode::CData(t)] => Cow::Borrowed(t),
        _ => Cow::Owned(e.text()),
    }
}

/// A value computed over a [`DocumentIndex`]: node-sets are ids into it,
/// in document order; strings borrow from the expression or the document
/// where they can.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexedValue<'x> {
    Nodes(Vec<NodeId>),
    Boolean(bool),
    Number(f64),
    String(Cow<'x, str>),
}

impl IndexedValue<'_> {
    /// XPath `boolean()` coercion.
    pub fn to_bool(&self) -> bool {
        match self {
            IndexedValue::Nodes(n) => !n.is_empty(),
            IndexedValue::Boolean(b) => *b,
            IndexedValue::Number(n) => *n != 0.0 && !n.is_nan(),
            IndexedValue::String(s) => !s.is_empty(),
        }
    }

    /// The value with its string owned, to outlive what it borrowed.
    pub fn into_owned(self) -> IndexedValue<'static> {
        match self {
            IndexedValue::Nodes(ids) => IndexedValue::Nodes(ids),
            IndexedValue::Boolean(b) => IndexedValue::Boolean(b),
            IndexedValue::Number(n) => IndexedValue::Number(n),
            IndexedValue::String(s) => IndexedValue::String(Cow::Owned(s.into_owned())),
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// The evaluator's short name for [`IndexedValue`].
use IndexedValue as V;

/// Evaluate `expr` in `index` with `at` as the context node (position and
/// size 1). `scope`'s variables shadow the context's scalar ones.
pub(super) fn evaluate<'x>(
    expr: &'x Expr,
    index: &'x DocumentIndex<'_>,
    at: NodeId,
    scope: &'x [(&'x str, IndexedValue<'x>)],
    ctx: &'x XPathContext,
) -> Result<IndexedValue<'x>, XPathError> {
    Evaluator { index, ctx, scope }.eval(expr, at, 1, 1)
}

struct Evaluator<'x, 'd> {
    index: &'x DocumentIndex<'d>,
    ctx: &'x XPathContext,
    scope: &'x [(&'x str, IndexedValue<'x>)],
}

impl<'x, 'd: 'x> Evaluator<'x, 'd> {
    fn eval(
        &self,
        expr: &'x Expr,
        node: NodeId,
        pos: usize,
        size: usize,
    ) -> Result<V<'x>, XPathError> {
        match expr {
            Expr::Literal(s) => Ok(V::String(Cow::Borrowed(s))),
            Expr::Number(n) => Ok(V::Number(*n)),
            Expr::Variable(name) => self.variable(name),
            Expr::Path(path) => {
                let start = if path.absolute { self.index.root() } else { node };
                let Some((first, rest)) = path.steps.split_first() else {
                    return Ok(V::Nodes(vec![start]));
                };
                let mut selected = Vec::new();
                self.apply_step(first, start, &mut selected)?;
                Ok(V::Nodes(self.eval_steps(rest, selected)?))
            }
            Expr::Filter { primary, predicates, path } => {
                let V::Nodes(mut ids) = self.eval(primary, node, pos, size)? else {
                    return Err(XPathError::new("predicates require a node-set operand"));
                };
                for pred in predicates {
                    self.filter(&mut ids, 0, pred, false)?;
                }
                if let Some(p) = path {
                    ids = self.eval_steps(&p.steps, ids)?;
                }
                Ok(V::Nodes(ids))
            }
            Expr::Negate(inner) => {
                let v = self.eval(inner, node, pos, size)?;
                Ok(V::Number(-self.index.number(&v)))
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs, node, pos, size),
            Expr::Call { name, args } => self.eval_call(name, args, node, pos, size),
        }
    }

    fn variable(&self, name: &str) -> Result<V<'x>, XPathError> {
        if let Some((_, value)) = self.scope.iter().rev().find(|(n, _)| *n == name) {
            return Ok(match value {
                V::String(s) => V::String(Cow::Borrowed(s)),
                other => other.clone(),
            });
        }
        match self.ctx.variables.get(name) {
            Some(XPathValue::Boolean(b)) => Ok(V::Boolean(*b)),
            Some(XPathValue::Number(n)) => Ok(V::Number(*n)),
            Some(XPathValue::String(s)) => Ok(V::String(Cow::Borrowed(s))),
            Some(XPathValue::NodeSet(_)) => Err(XPathError::new(format!(
                "variable ${name} holds a detached node-set; bind node-sets in an evaluation scope"
            ))),
            None => Err(XPathError::new(format!("undefined variable ${name}"))),
        }
    }

    fn eval_binary(
        &self,
        op: BinOp,
        lhs: &'x Expr,
        rhs: &'x Expr,
        node: NodeId,
        pos: usize,
        size: usize,
    ) -> Result<V<'x>, XPathError> {
        match op {
            BinOp::Or => {
                let l = self.eval(lhs, node, pos, size)?;
                if l.to_bool() {
                    return Ok(V::Boolean(true));
                }
                let r = self.eval(rhs, node, pos, size)?;
                Ok(V::Boolean(r.to_bool()))
            }
            BinOp::And => {
                let l = self.eval(lhs, node, pos, size)?;
                if !l.to_bool() {
                    return Ok(V::Boolean(false));
                }
                let r = self.eval(rhs, node, pos, size)?;
                Ok(V::Boolean(r.to_bool()))
            }
            BinOp::Union => {
                let l = self.eval(lhs, node, pos, size)?;
                let r = self.eval(rhs, node, pos, size)?;
                match (l, r) {
                    (V::Nodes(mut a), V::Nodes(b)) => {
                        a.extend(b);
                        a.sort_unstable();
                        a.dedup();
                        Ok(V::Nodes(a))
                    }
                    _ => Err(XPathError::new("'|' requires node-set operands")),
                }
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let l = self.index.number(&self.eval(lhs, node, pos, size)?);
                let r = self.index.number(&self.eval(rhs, node, pos, size)?);
                Ok(V::Number(match op {
                    BinOp::Add => l + r,
                    BinOp::Sub => l - r,
                    BinOp::Mul => l * r,
                    BinOp::Div => l / r,
                    BinOp::Mod => l % r,
                    _ => unreachable!(),
                }))
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let l = self.eval(lhs, node, pos, size)?;
                let r = self.eval(rhs, node, pos, size)?;
                Ok(V::Boolean(self.compare(op, &l, &r)))
            }
        }
    }

    /// Comparison with XPath node-set existence semantics.
    fn compare(&self, op: BinOp, l: &V<'x>, r: &V<'x>) -> bool {
        use BinOp::*;
        match (l, r) {
            (V::Nodes(a), V::Nodes(b)) => a.iter().any(|&x| {
                let xs = self.index.string_value(x);
                b.iter().any(|&y| {
                    let ys = self.index.string_value(y);
                    match op {
                        Eq => xs == ys,
                        Ne => xs != ys,
                        _ => cmp_num(op, str_to_number(&xs), str_to_number(&ys)),
                    }
                })
            }),
            // A node-set meets a boolean as its own boolean().
            (V::Nodes(a), V::Boolean(_)) => self.compare(op, &V::Boolean(!a.is_empty()), r),
            (V::Boolean(_), V::Nodes(b)) => self.compare(op, l, &V::Boolean(!b.is_empty())),
            (V::Nodes(a), other) | (other, V::Nodes(a)) => {
                // Orient so the node-set is on the left for relational ops.
                let flipped = !matches!(l, V::Nodes(_));
                a.iter().any(|&x| {
                    let xs = self.index.string_value(x);
                    match (op, other) {
                        (Eq, V::Number(n)) => str_to_number(&xs) == *n,
                        (Ne, V::Number(n)) => str_to_number(&xs) != *n,
                        (Eq, V::String(s)) => xs == *s,
                        (Ne, V::String(s)) => xs != *s,
                        (_, v) => {
                            let (x, n) = (str_to_number(&xs), self.index.number(v));
                            if flipped {
                                cmp_num(op, n, x)
                            } else {
                                cmp_num(op, x, n)
                            }
                        }
                    }
                })
            }
            _ => match op {
                Eq | Ne => {
                    let eq = match (l, r) {
                        (V::Boolean(_), _) | (_, V::Boolean(_)) => l.to_bool() == r.to_bool(),
                        (V::Number(_), _) | (_, V::Number(_)) => {
                            self.index.number(l) == self.index.number(r)
                        }
                        _ => self.index.string(l) == self.index.string(r),
                    };
                    if op == Eq {
                        eq
                    } else {
                        !eq
                    }
                }
                _ => cmp_num(op, self.index.number(l), self.index.number(r)),
            },
        }
    }

    // -- paths --------------------------------------------------------------

    /// Apply `steps` to every node of `current`, returning the selected
    /// nodes in document order.
    fn eval_steps(
        &self,
        steps: &'x [Step],
        mut current: Vec<NodeId>,
    ) -> Result<Vec<NodeId>, XPathError> {
        let mut next = Vec::new();
        for step in steps {
            next.clear();
            for &node in &current {
                self.apply_step(step, node, &mut next)?;
            }
            // One context node yields its candidates once each, in
            // document order; several may overlap or interleave.
            if current.len() > 1 {
                next.sort_unstable();
                next.dedup();
            }
            std::mem::swap(&mut current, &mut next);
        }
        Ok(current)
    }

    /// Push the nodes one step selects from one context node, in
    /// document order.
    fn apply_step(
        &self,
        step: &'x Step,
        node: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<(), XPathError> {
        let from = out.len();
        self.push_axis(step, node, out);
        for pred in &step.predicates {
            self.filter(out, from, pred, step.axis.is_reverse())?;
        }
        Ok(())
    }

    /// Keep the nodes of `nodes[from..]` (in document order) that satisfy
    /// one predicate. Positions count in axis order, so from the end on a
    /// reverse axis.
    fn filter(
        &self,
        nodes: &mut Vec<NodeId>,
        from: usize,
        pred: &'x Expr,
        reverse: bool,
    ) -> Result<(), XPathError> {
        let size = nodes.len() - from;
        let mut kept = from;
        for i in 0..size {
            let node = nodes[from + i];
            let pos = if reverse { size - i } else { i + 1 };
            let keep = match self.eval(pred, node, pos, size)? {
                // A numeric predicate selects by position.
                V::Number(n) => pos as f64 == n,
                other => other.to_bool(),
            };
            if keep {
                nodes[kept] = node;
                kept += 1;
            }
        }
        nodes.truncate(kept);
        Ok(())
    }

    /// Push the nodes on `step`'s axis from `node` that pass its node
    /// test, in document order.
    fn push_axis(&self, step: &Step, node: NodeId, out: &mut Vec<NodeId>) {
        let index = self.index;
        let axis = step.axis;
        let mut push = |id: NodeId| {
            if self.matches_test(&step.test, axis, id) {
                out.push(id);
            }
        };
        match axis {
            Axis::SelfAxis => push(node),
            Axis::Child => {
                let mut child = index.first_child(node);
                while child < index.end(node) {
                    push(child);
                    child = index.end(child);
                }
            }
            Axis::Attribute => {
                (node.0 + 1..index.first_child(node).0).for_each(|a| push(NodeId(a)))
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                if axis == Axis::DescendantOrSelf {
                    push(node);
                }
                for d in index.first_child(node).0..index.end(node).0 {
                    if !matches!(index.kind(NodeId(d)), Kind::Attribute(_)) {
                        push(NodeId(d));
                    }
                }
            }
            Axis::Parent => index.parent(node).into_iter().for_each(push),
            Axis::Ancestor | Axis::AncestorOrSelf => {
                let from = out.len();
                let mut cur =
                    if axis == Axis::AncestorOrSelf { Some(node) } else { index.parent(node) };
                while let Some(a) = cur {
                    if self.matches_test(&step.test, axis, a) {
                        out.push(a);
                    }
                    cur = index.parent(a);
                }
                out[from..].reverse();
            }
            Axis::FollowingSibling | Axis::PrecedingSibling => {
                // Attributes (and the root) have no siblings.
                let Some(parent) = index.parent(node) else { return };
                if matches!(index.kind(node), Kind::Attribute(_)) {
                    return;
                }
                let (mut sibling, stop) = if axis == Axis::FollowingSibling {
                    (index.end(node), index.end(parent))
                } else {
                    (index.first_child(parent), node)
                };
                while sibling < stop {
                    push(sibling);
                    sibling = index.end(sibling);
                }
            }
        }
    }

    fn matches_test(&self, test: &NodeTest, axis: Axis, node: NodeId) -> bool {
        let kind = self.index.kind(node);
        let name: Option<&QName> = match kind {
            Kind::Element(e) => Some(&e.name),
            Kind::Attribute(a) => Some(&a.name),
            _ => None,
        };
        // The principal node type: attributes on the attribute axis,
        // elements elsewhere.
        let principal = if axis == Axis::Attribute {
            matches!(kind, Kind::Attribute(_))
        } else {
            matches!(kind, Kind::Element(_))
        };
        match test {
            NodeTest::AnyNode => true,
            NodeTest::Text => matches!(kind, Kind::Text(_)),
            NodeTest::Comment => matches!(kind, Kind::Comment(_)),
            NodeTest::AnyName => principal,
            NodeTest::NamespaceWildcard { prefix } => {
                let Some(name) = name else { return false };
                principal
                    && self.ctx.namespaces.get(prefix).map(String::as_str)
                        == Some(name.namespace.as_str())
            }
            NodeTest::Name { prefix, local } => {
                let Some(name) = name else { return false };
                if !principal || &name.local != local {
                    return false;
                }
                match prefix {
                    None => name.namespace.is_empty(),
                    Some(p) => {
                        self.ctx.namespaces.get(p).map(String::as_str)
                            == Some(name.namespace.as_str())
                    }
                }
            }
        }
    }

    // -- functions ------------------------------------------------------------

    fn eval_call(
        &self,
        name: &str,
        args: &'x [Expr],
        node: NodeId,
        pos: usize,
        size: usize,
    ) -> Result<V<'x>, XPathError> {
        let arity = |n: usize| -> Result<(), XPathError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(XPathError::new(format!(
                    "{name}() expects {n} argument(s), got {}",
                    args.len()
                )))
            }
        };
        let eval_arg = |i: usize| self.eval(&args[i], node, pos, size);
        // The context node's string-value, or the one argument's string().
        let string_arg = || -> Result<Cow<'x, str>, XPathError> {
            if args.is_empty() {
                Ok(self.index.string_value(node))
            } else {
                arity(1)?;
                Ok(self.string(eval_arg(0)?))
            }
        };

        match name {
            "last" => {
                arity(0)?;
                Ok(V::Number(size as f64))
            }
            "position" => {
                arity(0)?;
                Ok(V::Number(pos as f64))
            }
            "count" => {
                arity(1)?;
                match eval_arg(0)? {
                    V::Nodes(n) => Ok(V::Number(n.len() as f64)),
                    _ => Err(XPathError::new("count() requires a node-set")),
                }
            }
            "name" | "local-name" | "namespace-uri" => {
                let target = if args.is_empty() {
                    Some(node)
                } else {
                    arity(1)?;
                    match eval_arg(0)? {
                        V::Nodes(n) => n.first().copied(),
                        _ => return Err(XPathError::new(format!("{name}() requires a node-set"))),
                    }
                };
                let qname: Option<&QName> = target.and_then(|t| match self.index.kind(t) {
                    Kind::Element(e) => Some(&e.name),
                    Kind::Attribute(a) => Some(&a.name),
                    _ => None,
                });
                Ok(V::String(match (name, qname) {
                    (_, None) => Cow::Borrowed(""),
                    ("name", Some(q)) => Cow::Owned(q.lexical()),
                    ("local-name", Some(q)) => Cow::Owned(q.local.to_string()),
                    ("namespace-uri", Some(q)) => Cow::Owned(q.namespace.to_string()),
                    _ => unreachable!(),
                }))
            }
            "string" => Ok(V::String(string_arg()?)),
            "concat" => {
                if args.len() < 2 {
                    return Err(XPathError::new("concat() expects at least 2 arguments"));
                }
                let mut out = String::new();
                for i in 0..args.len() {
                    out.push_str(&self.string(eval_arg(i)?));
                }
                Ok(V::String(Cow::Owned(out)))
            }
            "starts-with" => {
                arity(2)?;
                let a = self.string(eval_arg(0)?);
                let b = self.string(eval_arg(1)?);
                Ok(V::Boolean(a.starts_with(&*b)))
            }
            "contains" => {
                arity(2)?;
                let a = self.string(eval_arg(0)?);
                let b = self.string(eval_arg(1)?);
                Ok(V::Boolean(a.contains(&*b)))
            }
            "substring-before" => {
                arity(2)?;
                let a = self.string(eval_arg(0)?);
                let b = self.string(eval_arg(1)?);
                Ok(V::String(Cow::Owned(
                    a.split_once(&*b).map(|(x, _)| x.to_string()).unwrap_or_default(),
                )))
            }
            "substring-after" => {
                arity(2)?;
                let a = self.string(eval_arg(0)?);
                let b = self.string(eval_arg(1)?);
                Ok(V::String(Cow::Owned(
                    a.split_once(&*b).map(|(_, y)| y.to_string()).unwrap_or_default(),
                )))
            }
            "substring" => {
                if args.len() != 2 && args.len() != 3 {
                    return Err(XPathError::new("substring() expects 2 or 3 arguments"));
                }
                let s = self.string(eval_arg(0)?);
                let start = self.index.number(&eval_arg(1)?);
                let len =
                    if args.len() == 3 { self.index.number(&eval_arg(2)?) } else { f64::INFINITY };
                // XPath rounds and uses 1-based positions.
                let begin = round_half_up(start);
                let end =
                    if len.is_infinite() { f64::INFINITY } else { begin + round_half_up(len) };
                let out: String = s
                    .chars()
                    .enumerate()
                    .filter(|(i, _)| {
                        let p = (i + 1) as f64;
                        p >= begin && p < end
                    })
                    .map(|(_, c)| c)
                    .collect();
                Ok(V::String(Cow::Owned(out)))
            }
            "string-length" => Ok(V::Number(string_arg()?.chars().count() as f64)),
            "normalize-space" => Ok(V::String(Cow::Owned(
                string_arg()?.split_whitespace().collect::<Vec<_>>().join(" "),
            ))),
            "translate" => {
                arity(3)?;
                let s = self.string(eval_arg(0)?);
                let from: Vec<char> = self.string(eval_arg(1)?).chars().collect();
                let to: Vec<char> = self.string(eval_arg(2)?).chars().collect();
                let mut out = String::new();
                for c in s.chars() {
                    match from.iter().position(|&f| f == c) {
                        Some(i) => {
                            if let Some(&r) = to.get(i) {
                                out.push(r);
                            } // else: dropped
                        }
                        None => out.push(c),
                    }
                }
                Ok(V::String(Cow::Owned(out)))
            }
            "boolean" => {
                arity(1)?;
                Ok(V::Boolean(eval_arg(0)?.to_bool()))
            }
            "not" => {
                arity(1)?;
                Ok(V::Boolean(!eval_arg(0)?.to_bool()))
            }
            "true" => {
                arity(0)?;
                Ok(V::Boolean(true))
            }
            "false" => {
                arity(0)?;
                Ok(V::Boolean(false))
            }
            "number" => {
                if args.is_empty() {
                    Ok(V::Number(str_to_number(&self.index.string_value(node))))
                } else {
                    arity(1)?;
                    Ok(V::Number(self.index.number(&eval_arg(0)?)))
                }
            }
            "sum" => {
                arity(1)?;
                match eval_arg(0)? {
                    V::Nodes(n) => Ok(V::Number(
                        n.iter().map(|&id| str_to_number(&self.index.string_value(id))).sum(),
                    )),
                    _ => Err(XPathError::new("sum() requires a node-set")),
                }
            }
            "floor" => {
                arity(1)?;
                Ok(V::Number(self.index.number(&eval_arg(0)?).floor()))
            }
            "ceiling" => {
                arity(1)?;
                Ok(V::Number(self.index.number(&eval_arg(0)?).ceil()))
            }
            "round" => {
                arity(1)?;
                Ok(V::Number(round_half_up(self.index.number(&eval_arg(0)?))))
            }
            other => Err(XPathError::new(format!("unknown function {other}()"))),
        }
    }

    // -- coercions --------------------------------------------------------------

    /// XPath `string()` of a value, keeping an owned string as it is.
    fn string(&self, v: V<'x>) -> Cow<'x, str> {
        match v {
            V::String(s) => s,
            V::Nodes(n) => n.first().map(|&id| self.index.string_value(id)).unwrap_or_default(),
            other => Cow::Owned(self.index.string(&other).into_owned()),
        }
    }
}

fn bool_to_number(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

fn cmp_num(op: BinOp, l: f64, r: f64) -> bool {
    match op {
        BinOp::Lt => l < r,
        BinOp::Le => l <= r,
        BinOp::Gt => l > r,
        BinOp::Ge => l >= r,
        BinOp::Eq => l == r,
        BinOp::Ne => l != r,
        _ => false,
    }
}

/// XPath `number()` from string: trimmed decimal or NaN.
pub(crate) fn str_to_number(s: &str) -> f64 {
    let t = s.trim();
    if t.is_empty() {
        return f64::NAN;
    }
    t.parse::<f64>().unwrap_or(f64::NAN)
}

/// XPath number-to-string: integers without a decimal point.
pub(crate) fn number_to_string(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 {
            "Infinity".to_string()
        } else {
            "-Infinity".to_string()
        }
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// XPath round(): half rounds towards positive infinity.
fn round_half_up(n: f64) -> f64 {
    (n + 0.5).floor()
}

#[cfg(test)]
mod tests {
    use super::super::{XPathContext, XPathExpr, XPathValue};
    use crate::parse;
    use crate::XmlElement;

    fn doc() -> XmlElement {
        parse(
            "<library>\
               <book id='1' genre='db'><title>TP</title><price>50</price></book>\
               <book id='2' genre='db'><title>DDIA</title><price>40</price></book>\
               <book id='3' genre='os'><title>OSTEP</title><price>0</price></book>\
               <meta><count>3</count></meta>\
             </library>",
        )
        .unwrap()
    }

    fn eval(expr: &str) -> XPathValue {
        XPathExpr::parse(expr).unwrap().evaluate(&doc()).unwrap()
    }

    fn count(expr: &str) -> usize {
        match eval(expr) {
            XPathValue::NodeSet(n) => n.len(),
            other => panic!("expected node-set, got {other:?}"),
        }
    }

    fn num(expr: &str) -> f64 {
        eval(expr).to_number()
    }

    fn s(expr: &str) -> String {
        eval(expr).to_xpath_string()
    }

    fn b(expr: &str) -> bool {
        eval(expr).to_bool()
    }

    #[test]
    fn basic_selection() {
        assert_eq!(count("/library/book"), 3);
        assert_eq!(count("//book"), 3);
        assert_eq!(count("//title"), 3);
        assert_eq!(count("/library/meta"), 1);
        assert_eq!(count("/nothing"), 0);
    }

    #[test]
    fn attribute_axis() {
        assert_eq!(count("//book/@id"), 3);
        assert_eq!(s("/library/book[1]/@id"), "1");
        assert_eq!(count("//book[@genre='db']"), 2);
    }

    #[test]
    fn positional_predicates() {
        assert_eq!(s("/library/book[1]/title"), "TP");
        assert_eq!(s("/library/book[last()]/title"), "OSTEP");
        assert_eq!(s("/library/book[position()=2]/title"), "DDIA");
    }

    #[test]
    fn value_predicates() {
        assert_eq!(count("//book[price > 30]"), 2);
        assert_eq!(s("//book[price=40]/title"), "DDIA");
        assert_eq!(count("//book[title='TP' or title='OSTEP']"), 2);
        assert_eq!(count("//book[@genre='db' and price < 45]"), 1);
    }

    #[test]
    fn arithmetic_and_functions() {
        assert_eq!(num("sum(//price)"), 90.0);
        assert_eq!(num("count(//book) * 2 + 1"), 7.0);
        assert_eq!(num("10 div 4"), 2.5);
        assert_eq!(num("10 mod 4"), 2.0);
        assert_eq!(num("-(3)"), -3.0);
        assert_eq!(num("floor(2.7)"), 2.0);
        assert_eq!(num("ceiling(2.1)"), 3.0);
        assert_eq!(num("round(2.5)"), 3.0);
        assert_eq!(num("round(-2.5)"), -2.0);
    }

    #[test]
    fn string_functions() {
        assert_eq!(s("concat('a', 'b', 'c')"), "abc");
        assert!(b("starts-with('hello', 'he')"));
        assert!(b("contains(//book[1]/title, 'T')"));
        assert_eq!(s("substring('12345', 2, 3)"), "234");
        assert_eq!(s("substring('12345', 0)"), "12345");
        assert_eq!(num("string-length('abcd')"), 4.0);
        assert_eq!(s("normalize-space('  a   b ')"), "a b");
        assert_eq!(s("translate('bar', 'abc', 'ABC')"), "BAr");
        assert_eq!(s("translate('-abc-', '-', '')"), "abc");
        assert_eq!(s("substring-before('a=b', '=')"), "a");
        assert_eq!(s("substring-after('a=b', '=')"), "b");
    }

    #[test]
    fn name_functions() {
        assert_eq!(s("name(/library)"), "library");
        assert_eq!(s("local-name(//book[1])"), "book");
    }

    #[test]
    fn parent_and_ancestor_axes() {
        assert_eq!(count("//title/.."), 3);
        assert_eq!(s("//price[.='40']/../title"), "DDIA");
        assert_eq!(count("//title/ancestor::library"), 1);
        assert_eq!(count("//title/ancestor-or-self::*"), 7); // 3 titles + 3 books + library
    }

    #[test]
    fn sibling_axes() {
        assert_eq!(count("/library/book[1]/following-sibling::book"), 2);
        assert_eq!(count("/library/book[3]/preceding-sibling::book"), 2);
        // Positional predicate on a reverse axis counts backwards.
        assert_eq!(s("/library/book[3]/preceding-sibling::book[1]/title"), "DDIA");
    }

    #[test]
    fn text_nodes() {
        assert_eq!(count("//title/text()"), 3);
        match eval("//title[1]/text()") {
            XPathValue::NodeSet(n) => assert_eq!(n[0].string_value(), "TP"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn union_and_filter() {
        assert_eq!(count("//title | //price"), 6);
        assert_eq!(count("(//book)[1]"), 1);
        assert_eq!(s("(//book)[2]/title"), "DDIA");
        assert_eq!(s("(//book)[price=50]/title"), "TP");
    }

    #[test]
    fn node_set_comparisons() {
        // Existence semantics: true if any node matches.
        assert!(b("//price = 40"));
        assert!(b("//price != 40")); // other prices differ
        assert!(!b("//price = 39"));
        assert!(b("//book/@id = '2'"));
        // Against a boolean a node-set is its own boolean(), empty or not.
        assert!(b("//missing = false()"));
        assert!(b("false() = //missing"));
        assert!(!b("//missing != false()"));
        assert!(b("//book = true()"));
        assert!(b("//book > false()"));
    }

    #[test]
    fn boolean_functions() {
        assert!(b("not(//book[price=1000])"));
        assert!(b("boolean(//book)"));
        assert!(b("true()"));
        assert!(!b("false()"));
    }

    #[test]
    fn number_string_conversions() {
        assert_eq!(s("string(12)"), "12");
        assert_eq!(s("string(12.5)"), "12.5");
        assert_eq!(s("string(1 div 0)"), "Infinity");
        assert_eq!(s("string(0 div 0)"), "NaN");
        assert!(num("number('abc')").is_nan());
        assert_eq!(num("number(' 42 ')"), 42.0);
        assert_eq!(num("number(//meta/count)"), 3.0);
    }

    #[test]
    fn namespace_name_tests() {
        let doc = parse("<r xmlns:a='urn:a'><a:x>1</a:x><x>2</x></r>").unwrap();
        let expr = XPathExpr::parse("//p:x").unwrap();
        let ctx = XPathContext::new().with_namespace("p", "urn:a");
        match expr.evaluate_with(&doc, &ctx).unwrap() {
            XPathValue::NodeSet(n) => {
                assert_eq!(n.len(), 1);
                assert_eq!(n[0].string_value(), "1");
            }
            other => panic!("{other:?}"),
        }
        // Unprefixed test matches only the no-namespace element.
        let expr = XPathExpr::parse("//x").unwrap();
        match expr.evaluate_with(&doc, &ctx).unwrap() {
            XPathValue::NodeSet(n) => {
                assert_eq!(n.len(), 1);
                assert_eq!(n[0].string_value(), "2");
            }
            other => panic!("{other:?}"),
        }
        // Namespace wildcard.
        let expr = XPathExpr::parse("count(//p:*)").unwrap();
        assert_eq!(expr.evaluate_with(&doc, &ctx).unwrap().to_number(), 1.0);
    }

    #[test]
    fn variables() {
        let doc = doc();
        let expr = XPathExpr::parse("//book[price > $min]").unwrap();
        let ctx = XPathContext::new().with_variable("min", XPathValue::Number(45.0));
        match expr.evaluate_with(&doc, &ctx).unwrap() {
            XPathValue::NodeSet(n) => assert_eq!(n.len(), 1),
            other => panic!("{other:?}"),
        }
        assert!(XPathExpr::parse("$missing").unwrap().evaluate(&doc).is_err());
    }

    #[test]
    fn select_elements_helper() {
        let books = XPathExpr::parse("//book").unwrap().select_elements(&doc()).unwrap();
        assert_eq!(books.len(), 3);
        assert_eq!(books[0].attribute("id"), Some("1"));
    }

    #[test]
    fn descendant_axis_explicit() {
        assert_eq!(count("/library/descendant::price"), 3);
        assert_eq!(count("self::node()"), 1);
    }

    #[test]
    fn document_order_of_results() {
        match eval("//book/@id") {
            XPathValue::NodeSet(n) => {
                let vals: Vec<String> = n.iter().map(|x| x.string_value()).collect();
                assert_eq!(vals, vec!["1", "2", "3"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wildcard_star() {
        assert_eq!(count("/library/*"), 4);
        assert_eq!(count("//book/*"), 6);
    }
}
