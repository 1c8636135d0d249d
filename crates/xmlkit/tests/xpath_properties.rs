//! Property-based tests of the XML toolkit: escaping laws, XPath
//! coercion laws and engine consistency across equivalent expressions.
//!
//! Driven by the in-repo mini property harness (`dais_util::prop`);
//! failing cases print a replay seed.

use dais_util::prop::run_cases;
use dais_xml::{parse, parse_preserving, to_string, XPathExpr, XPathValue, XmlElement};

/// Printable ASCII, the space through tilde range (proptest's old
/// `[ -~]{0,30}` strategy).
const PRINTABLE: &str = " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~";

/// Attribute and text escaping is lossless for printable ASCII
/// (quotes, angle brackets, ampersands and all).
#[test]
fn escaping_roundtrip() {
    run_cases("escaping_roundtrip", 96, 0xE5C, |g| {
        let attr = g.string_from(PRINTABLE, 0, 30);
        let text = g.string_from(PRINTABLE, 0, 30);
        let mut e = XmlElement::new_local("r");
        e.set_attr("a", &attr);
        e.push_text(&text);
        let wire = to_string(&e);
        let back = parse_preserving(&wire).unwrap();
        assert_eq!(back.attribute("a"), Some(attr.as_str()));
        assert_eq!(back.text(), text);
    });
}

/// XPath numeric coercion laws: string(number(n)) == displayed n for
/// integers; boolean() of a non-zero number is true.
#[test]
fn numeric_coercions() {
    run_cases("numeric_coercions", 96, 0x41C, |g| {
        let n = g.u64_in(0, 200_000) as i64 - 100_000;
        let doc = parse(&format!("<r><v>{n}</v></r>")).unwrap();
        let as_number = XPathExpr::parse("number(/r/v)").unwrap().evaluate(&doc).unwrap();
        assert_eq!(as_number.to_number() as i64, n);
        let as_string = XPathExpr::parse("string(number(/r/v))").unwrap().evaluate(&doc).unwrap();
        assert_eq!(as_string.to_xpath_string(), n.to_string());
        let truthy = XPathExpr::parse("boolean(/r/v != 0) = boolean(number(/r/v))")
            .unwrap()
            .evaluate(&doc)
            .unwrap();
        if n != 0 {
            assert!(truthy.to_bool());
        }
    });
}

/// count(//x) equals the number of x elements we built.
#[test]
fn count_matches_construction() {
    run_cases("count_matches_construction", 96, 0xC07, |g| {
        let n = g.usize_in(0, 30);
        let mut root = XmlElement::new_local("root");
        for i in 0..n {
            root.push(XmlElement::new_local("x").with_text(i.to_string()));
        }
        let v = XPathExpr::parse("count(//x)").unwrap().evaluate(&root).unwrap();
        assert_eq!(v.to_number() as usize, n);
        // Equivalent formulations agree.
        let v2 = XPathExpr::parse("count(/root/x)").unwrap().evaluate(&root).unwrap();
        let v3 = XPathExpr::parse("count(root/x)").unwrap().evaluate(&root).unwrap();
        assert_eq!(v.to_number(), v2.to_number());
        assert_eq!(v.to_number(), v3.to_number());
    });
}

/// Positional predicates slice like ranges: /r/x[position() <= k]
/// returns min(k, n) nodes, and x[i] is the i-th built node.
#[test]
fn positional_predicates() {
    run_cases("positional_predicates", 96, 0x905, |g| {
        let n = g.usize_in(1, 20);
        let k = g.usize_in(1, 25);
        let mut root = XmlElement::new_local("r");
        for i in 0..n {
            root.push(XmlElement::new_local("x").with_text(i.to_string()));
        }
        let expr = XPathExpr::parse(&format!("/r/x[position() <= {k}]")).unwrap();
        match expr.evaluate(&root).unwrap() {
            XPathValue::NodeSet(nodes) => assert_eq!(nodes.len(), k.min(n)),
            other => panic!("unexpected {other:?}"),
        }
        let i = (k - 1) % n + 1;
        let expr = XPathExpr::parse(&format!("string(/r/x[{i}])")).unwrap();
        assert_eq!(expr.evaluate(&root).unwrap().to_xpath_string(), (i - 1).to_string());
    });
}

/// Union is commutative and idempotent in cardinality.
#[test]
fn union_laws() {
    run_cases("union_laws", 96, 0x111, |g| {
        let a = g.usize_in(0, 6);
        let b = g.usize_in(0, 6);
        let mut root = XmlElement::new_local("r");
        for _ in 0..a {
            root.push(XmlElement::new_local("p"));
        }
        for _ in 0..b {
            root.push(XmlElement::new_local("q"));
        }
        let n = |src: &str| -> usize {
            match XPathExpr::parse(src).unwrap().evaluate(&root).unwrap() {
                XPathValue::NodeSet(nodes) => nodes.len(),
                _ => usize::MAX,
            }
        };
        assert_eq!(n("//p | //q"), a + b);
        assert_eq!(n("//q | //p"), a + b);
        assert_eq!(n("//p | //p"), a); // dedup
    });
}

/// The filter `[last()]` selects exactly the final sibling.
#[test]
fn last_selects_final() {
    run_cases("last_selects_final", 96, 0x1A5, |g| {
        let n = g.usize_in(1, 15);
        let mut root = XmlElement::new_local("r");
        for i in 0..n {
            root.push(XmlElement::new_local("x").with_attr("i", i.to_string()));
        }
        let v = XPathExpr::parse("string(/r/x[last()]/@i)").unwrap().evaluate(&root).unwrap();
        assert_eq!(v.to_xpath_string(), (n - 1).to_string());
    });
}

/// Arithmetic in XPath agrees with Rust arithmetic on small ints.
#[test]
fn arithmetic_agrees() {
    run_cases("arithmetic_agrees", 96, 0xA17, |g| {
        let a = g.u64_in(0, 100) as i64 - 50;
        let b = g.u64_in(1, 50) as i64;
        let doc = XmlElement::new_local("r");
        let eval = |src: &str| -> f64 {
            XPathExpr::parse(src).unwrap().evaluate(&doc).unwrap().to_number()
        };
        assert_eq!(eval(&format!("{a} + {b}")), (a + b) as f64);
        assert_eq!(eval(&format!("{a} * {b}")), (a * b) as f64);
        assert_eq!(eval(&format!("{a} div {b}")), a as f64 / b as f64);
        assert_eq!(eval(&format!("{a} mod {b}")), (a % b) as f64);
        assert_eq!(eval(&format!("{a} < {b}")) != 0.0, a < b);
    });
}

/// String-value of an element concatenates descendant text in document
/// order — verified against a hand construction.
#[test]
fn string_value_document_order() {
    let doc = parse("<r>a<b>b<c>c</c>d</b>e</r>").unwrap();
    let v = XPathExpr::parse("string(/r)").unwrap().evaluate(&doc).unwrap();
    assert_eq!(v.to_xpath_string(), "abcde");
}

// ---------------------------------------------------------------------------
// The evaluator against a tree-walk reference
// ---------------------------------------------------------------------------

use dais_util::prop::Gen;
use dais_xml::xpath::{NodePath, PathStep, XPathNode};
use dais_xml::{XPathContext, XmlNode};

const NAMES: [&str; 3] = ["a", "b", "c"];

/// A small document: elements named from `NAMES`, attributes `x`/`y`,
/// text and comments, at most four levels below the document element.
fn gen_element(g: &mut Gen, depth: usize) -> XmlElement {
    let mut e = XmlElement::new_local(*g.pick(&NAMES));
    for attr in ["x", "y"] {
        if g.bool_any() {
            e.set_attr(attr, g.usize_in(0, 3).to_string());
        }
    }
    let children = if depth >= 4 { 0 } else { g.usize_in(0, 4) };
    for _ in 0..children {
        match g.usize_in(0, 8) {
            0 => e.children.push(XmlNode::Text(g.usize_in(0, 3).to_string())),
            1 => e.children.push(XmlNode::Comment("c".into())),
            _ => e.push(gen_element(g, depth + 1)),
        }
    }
    e
}

#[derive(Clone, Copy, PartialEq)]
enum RefAxis {
    Child,
    Descendant,
    DescendantOrSelf,
    Attribute,
    Parent,
}

enum RefTest {
    Name(&'static str),
    Any,
    Node,
    Text,
}

enum RefPredicate {
    Position(usize),
    Last,
    /// `[name]`: the node has a child element of that name.
    HasChild(&'static str),
}

struct RefStep {
    axis: RefAxis,
    test: RefTest,
    predicates: Vec<RefPredicate>,
}

fn gen_steps(g: &mut Gen) -> Vec<RefStep> {
    let axes = [
        RefAxis::Child,
        RefAxis::Child,
        RefAxis::Descendant,
        RefAxis::DescendantOrSelf,
        RefAxis::Attribute,
        RefAxis::Parent,
    ];
    (0..g.usize_in(1, 5))
        .map(|_| {
            let axis = *g.pick(&axes);
            let test = match (axis, g.usize_in(0, 6)) {
                (RefAxis::Attribute, 0) => RefTest::Any,
                (RefAxis::Attribute, _) => RefTest::Name(if g.bool_any() { "x" } else { "y" }),
                (_, 0) => RefTest::Any,
                (_, 1) => RefTest::Node,
                (_, 2) => RefTest::Text,
                _ => RefTest::Name(NAMES[g.usize_in(0, NAMES.len())]),
            };
            let predicates = (0..g.usize_in(0, 3))
                .map(|_| match g.usize_in(0, 3) {
                    0 => RefPredicate::Position(g.usize_in(1, 4)),
                    1 => RefPredicate::Last,
                    _ => RefPredicate::HasChild(NAMES[g.usize_in(0, NAMES.len())]),
                })
                .collect();
            RefStep { axis, test, predicates }
        })
        .collect()
}

fn render(absolute: bool, steps: &[RefStep]) -> String {
    let mut out = String::new();
    for (i, step) in steps.iter().enumerate() {
        if absolute || i > 0 {
            out.push('/');
        }
        let axis = match step.axis {
            RefAxis::Child => "child::",
            RefAxis::Descendant => "descendant::",
            RefAxis::DescendantOrSelf => "descendant-or-self::",
            RefAxis::Attribute => "attribute::",
            RefAxis::Parent => "parent::",
        };
        out.push_str(axis);
        out.push_str(match step.test {
            RefTest::Name(n) => n,
            RefTest::Any => "*",
            RefTest::Node => "node()",
            RefTest::Text => "text()",
        });
        for p in &step.predicates {
            match p {
                RefPredicate::Position(k) => out.push_str(&format!("[{k}]")),
                RefPredicate::Last => out.push_str("[last()]"),
                RefPredicate::HasChild(n) => out.push_str(&format!("[{n}]")),
            }
        }
    }
    out
}

/// A reference node: `None` is the virtual root, else the structural
/// path from the document element. Sorting these orders them as the
/// document does: parents before descendants, attributes before children.
type RefNode = Option<NodePath>;

fn step_key(s: &PathStep) -> (u8, usize) {
    match s {
        PathStep::Attribute(i) => (0, *i),
        PathStep::Child(i) => (1, *i),
    }
}

fn doc_order(a: &RefNode, b: &RefNode) -> std::cmp::Ordering {
    match (a, b) {
        (None, None) => std::cmp::Ordering::Equal,
        (None, _) => std::cmp::Ordering::Less,
        (_, None) => std::cmp::Ordering::Greater,
        (Some(a), Some(b)) => a.iter().map(step_key).cmp(b.iter().map(step_key)),
    }
}

/// The node at `path`: an element, attribute, text or comment.
enum Resolved<'d> {
    Element(&'d XmlElement),
    Attribute,
    Text,
    Comment,
}

fn resolve<'d>(doc: &'d XmlElement, path: &[PathStep]) -> Resolved<'d> {
    let mut e = doc;
    for step in path {
        match *step {
            PathStep::Attribute(_) => return Resolved::Attribute,
            PathStep::Child(c) => match &e.children[c] {
                XmlNode::Element(child) => e = child,
                XmlNode::Text(_) | XmlNode::CData(_) => return Resolved::Text,
                XmlNode::Comment(_) => return Resolved::Comment,
            },
        }
    }
    Resolved::Element(e)
}

fn element_at<'d>(doc: &'d XmlElement, node: &RefNode) -> Option<&'d XmlElement> {
    match node {
        None => None,
        Some(path) => match resolve(doc, path) {
            Resolved::Element(e) => Some(e),
            _ => None,
        },
    }
}

/// Children in document order (the root's one child is the document
/// element).
fn ref_children(doc: &XmlElement, node: &RefNode) -> Vec<RefNode> {
    match node {
        None => vec![Some(Vec::new())],
        Some(path) => match element_at(doc, node) {
            Some(e) => (0..e.children.len())
                .map(|i| {
                    let mut p = path.clone();
                    p.push(PathStep::Child(i));
                    Some(p)
                })
                .collect(),
            None => Vec::new(),
        },
    }
}

fn ref_descendants(doc: &XmlElement, node: &RefNode, out: &mut Vec<RefNode>) {
    for c in ref_children(doc, node) {
        out.push(c.clone());
        ref_descendants(doc, &c, out);
    }
}

fn ref_axis(doc: &XmlElement, axis: RefAxis, node: &RefNode) -> Vec<RefNode> {
    match axis {
        RefAxis::Child => ref_children(doc, node),
        RefAxis::Descendant | RefAxis::DescendantOrSelf => {
            let mut out = Vec::new();
            if axis == RefAxis::DescendantOrSelf {
                out.push(node.clone());
            }
            ref_descendants(doc, node, &mut out);
            out
        }
        RefAxis::Attribute => match (node, element_at(doc, node)) {
            (Some(path), Some(e)) => (0..e.attributes.len())
                .map(|j| {
                    let mut p = path.clone();
                    p.push(PathStep::Attribute(j));
                    Some(p)
                })
                .collect(),
            _ => Vec::new(),
        },
        RefAxis::Parent => match node {
            None => Vec::new(),
            Some(path) if path.is_empty() => vec![None],
            Some(path) => vec![Some(path[..path.len() - 1].to_vec())],
        },
    }
}

fn ref_test(doc: &XmlElement, step: &RefStep, node: &RefNode) -> bool {
    let resolved = node.as_ref().map(|path| resolve(doc, path));
    let name = |n: &str| match (&resolved, node) {
        (Some(Resolved::Element(e)), _) => e.name.local == n,
        (Some(Resolved::Attribute), Some(path)) => {
            let owner = element_at(doc, &Some(path[..path.len() - 1].to_vec())).unwrap();
            let PathStep::Attribute(j) = path[path.len() - 1] else { unreachable!() };
            owner.attributes[j].name.local == n
        }
        _ => false,
    };
    let principal = if step.axis == RefAxis::Attribute {
        matches!(resolved, Some(Resolved::Attribute))
    } else {
        matches!(resolved, Some(Resolved::Element(_)))
    };
    match step.test {
        RefTest::Node => true,
        RefTest::Text => matches!(resolved, Some(Resolved::Text)),
        RefTest::Any => principal,
        RefTest::Name(n) => principal && name(n),
    }
}

/// The nodes `steps` select from the root.
fn ref_select(doc: &XmlElement, steps: &[RefStep]) -> Vec<RefNode> {
    let mut current: Vec<RefNode> = vec![None];
    for step in steps {
        let mut next = Vec::new();
        for node in &current {
            let mut candidates: Vec<RefNode> = ref_axis(doc, step.axis, node)
                .into_iter()
                .filter(|c| ref_test(doc, step, c))
                .collect();
            for p in &step.predicates {
                let size = candidates.len();
                candidates = candidates
                    .into_iter()
                    .enumerate()
                    .filter(|(i, c)| match p {
                        RefPredicate::Position(k) => i + 1 == *k,
                        RefPredicate::Last => i + 1 == size,
                        RefPredicate::HasChild(n) => ref_children(doc, c)
                            .iter()
                            .any(|k| matches!(element_at(doc, k), Some(e) if e.name.local == *n)),
                    })
                    .map(|(_, c)| c)
                    .collect();
            }
            next.extend(candidates);
        }
        next.sort_by(doc_order);
        next.dedup();
        current = next;
    }
    current
}

/// The detached form of a reference node, as the evaluator returns it.
fn ref_detach(doc: &XmlElement, node: &RefNode) -> XPathNode {
    let Some(path) = node else { return XPathNode::Root(doc.clone()) };
    match resolve(doc, path) {
        Resolved::Element(e) => XPathNode::Element(e.clone()),
        Resolved::Attribute => {
            let owner = element_at(doc, &Some(path[..path.len() - 1].to_vec())).unwrap();
            let PathStep::Attribute(j) = path[path.len() - 1] else { unreachable!() };
            let a = &owner.attributes[j];
            XPathNode::Attribute { name: a.name.clone(), value: a.value.clone() }
        }
        Resolved::Text | Resolved::Comment => {
            let owner = element_at(doc, &Some(path[..path.len() - 1].to_vec())).unwrap();
            let PathStep::Child(c) = path[path.len() - 1] else { unreachable!() };
            match &owner.children[c] {
                XmlNode::Text(t) | XmlNode::CData(t) => XPathNode::Text(t.clone()),
                XmlNode::Comment(t) => XPathNode::Comment(t.clone()),
                XmlNode::Element(_) => unreachable!(),
            }
        }
    }
}

/// Generated location paths over the child, descendant, attribute and
/// parent axes, with name tests and positional predicates, select what a
/// direct walk of the tree selects, in the same order.
#[test]
fn location_paths_agree_with_a_tree_walk() {
    run_cases("location_paths_agree_with_a_tree_walk", 400, 0x7EE, |g| {
        let doc = gen_element(g, 0);
        let steps = gen_steps(g);
        // From the root context a relative path means the absolute one.
        let src = render(g.bool_any(), &steps);
        let want: Vec<XPathNode> =
            ref_select(&doc, &steps).iter().map(|n| ref_detach(&doc, n)).collect();
        let got = match XPathExpr::parse(&src).unwrap().evaluate(&doc).unwrap() {
            XPathValue::NodeSet(nodes) => nodes,
            other => panic!("{src}: {other:?}"),
        };
        assert_eq!(got, want, "{src} over {}", to_string(&doc));
    });
}

/// `select_paths` addresses exactly the nodes `evaluate` returns.
#[test]
fn select_paths_resolve_to_the_evaluated_nodes() {
    run_cases("select_paths_resolve_to_the_evaluated_nodes", 300, 0x5E1, |g| {
        let doc = gen_element(g, 0);
        let src = render(true, &gen_steps(g));
        let expr = XPathExpr::parse(&src).unwrap();
        let XPathValue::NodeSet(nodes) = expr.evaluate(&doc).unwrap() else { unreachable!() };
        let paths = expr.select_paths(&doc, &XPathContext::default()).unwrap();
        let resolved: Vec<XPathNode> =
            paths.iter().map(|p| ref_detach(&doc, &Some(p.clone()))).collect();
        // The root's path is the document element's: compare the element.
        let nodes: Vec<XPathNode> = nodes
            .into_iter()
            .map(|n| match n {
                XPathNode::Root(e) => XPathNode::Element(e),
                other => other,
            })
            .collect();
        assert_eq!(resolved, nodes, "{src} over {}", to_string(&doc));
    });
}
