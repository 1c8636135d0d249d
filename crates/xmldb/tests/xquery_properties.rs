//! Property tests of XQuery against XPath over generated documents.
//!
//! A FLWOR query that filters its `for` binding with `where C($x)` must
//! return exactly the nodes the XPath `P[C(.)]` selects, in the same
//! order: the `for` variable is the bound node, as the predicate's
//! context node is. Driven by `dais_util::prop`; a failing case prints a
//! replay seed.

use dais_util::prop::{run_cases, Gen};
use dais_xml::xpath::XPathNode;
use dais_xml::{to_string, XPathExpr, XPathValue, XmlElement, XmlNode};
use dais_xmldb::{XQuery, XQueryItem};

const NAMES: [&str; 3] = ["a", "b", "c"];

fn gen_element(g: &mut Gen, depth: usize) -> XmlElement {
    let mut e = XmlElement::new_local(*g.pick(&NAMES));
    for attr in ["x", "y"] {
        if g.bool_any() {
            e.set_attr(attr, g.usize_in(0, 4).to_string());
        }
    }
    let children = if depth >= 3 { 0 } else { g.usize_in(0, 5) };
    for _ in 0..children {
        if g.usize_in(0, 5) == 0 {
            e.children.push(XmlNode::Text(g.usize_in(0, 4).to_string()));
        } else {
            e.push(gen_element(g, depth + 1));
        }
    }
    e
}

/// A predicate over the node written `{v}`, with no absolute path in it.
fn gen_condition(g: &mut Gen) -> String {
    let name = *g.pick(&NAMES);
    let n = g.usize_in(0, 4);
    let atom = match g.usize_in(0, 8) {
        0 => format!("{{v}}/@x = '{n}'"),
        1 => format!("{{v}}/@y > {n}"),
        2 => format!("count({{v}}/*) >= {n}"),
        3 => format!("{{v}}/{name}"),
        4 => format!("not({{v}}/{name}/@x)"),
        5 => format!("string-length(string({{v}})) > {n}"),
        6 => format!("{{v}}/{name} = '{n}'"),
        _ => format!("name({{v}}) = '{name}'"),
    };
    match g.usize_in(0, 4) {
        0 => format!("{atom} and {}", gen_condition(g)),
        1 => format!("{atom} or {}", gen_condition(g)),
        _ => atom,
    }
}

#[test]
fn where_on_the_for_variable_equals_a_predicate() {
    let paths = ["//a", "//*", "/*/b", "//b/c", "//c[1]", "/*", "//a/.."];
    run_cases("where_on_the_for_variable_equals_a_predicate", 300, 0xF10, |g| {
        let doc = gen_element(g, 0);
        let path = *g.pick(&paths);
        let condition = gen_condition(g);
        let flwor = format!("for $x in {path} where {} return $x", condition.replace("{v}", "$x"));
        let xpath = format!("{path}[{}]", condition.replace("{v}", "."));
        let got: Vec<XmlElement> = XQuery::parse(&flwor)
            .unwrap()
            .execute(&doc)
            .unwrap()
            .into_iter()
            .map(|item| match item {
                XQueryItem::Element(e) => e,
                other => panic!("{flwor}: {other:?}"),
            })
            .collect();
        let XPathValue::NodeSet(nodes) = XPathExpr::parse(&xpath).unwrap().evaluate(&doc).unwrap()
        else {
            panic!("{xpath} selects no node-set")
        };
        let want: Vec<XmlElement> = nodes
            .into_iter()
            .map(|n| match n {
                XPathNode::Element(e) | XPathNode::Root(e) => e,
                other => panic!("{xpath}: {other:?}"),
            })
            .collect();
        assert_eq!(got, want, "{flwor} vs {xpath} over {}", to_string(&doc));
    });
}
