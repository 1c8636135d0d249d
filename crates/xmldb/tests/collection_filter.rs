//! Differential tests of the collection queries' document filter.
//!
//! `XmlDatabase::xpath_query_with` and `XmlDatabase::xquery_query` skip
//! every document their query's leading equality refuses, without
//! indexing it. Each generated query's collection answer must equal the
//! same query evaluated on every document, in name order, with no filter
//! (`XPathExpr::evaluate_with` / `XQuery::execute_with`): the same items
//! in the same order, or the same error. The documents hold values that
//! look alike as numbers or strings, mixed content, CDATA, names in a
//! namespace and other root names; the queries hold positional
//! predicates, an undefined function on either side of `and`, `let`
//! clauses, and `for` paths with predicates or several steps. Driven by
//! `dais_util::prop`; a failing case prints a replay seed.

use dais_util::prop::{run_cases, Gen};
use dais_xml::xpath::XPathNode;
use dais_xml::{XPathContext, XPathExpr, XPathValue, XmlElement};
use dais_xmldb::{XQuery, XQueryItem, XmlDatabase, XmlDbError};

const NS: &str = "urn:b";
const VALUES: [&str; 10] =
    ["1999", "1999.0", " 1999 ", "1.999e3", "inf", "NaN", "", "2000", "-0", "7"];
const NUMBERS: [&str; 5] = ["1999", "1999.0", "2000", "0", "7"];

fn context() -> XPathContext {
    XPathContext::new().with_namespace("b", NS)
}

fn gen_document(g: &mut Gen) -> String {
    let (open, close) = match g.usize_in(0, 7) {
        0 => ("paper xmlns:b='urn:b'", "paper"),
        1 => ("b:book xmlns:b='urn:b'", "b:book"),
        2 => ("book xmlns='urn:b' xmlns:b='urn:b'", "book"),
        _ => ("book xmlns:b='urn:b'", "book"),
    };
    let mut xml = format!("<{open}");
    if g.usize_in(0, 4) > 0 {
        xml.push_str(&format!(" id='{}'", g.pick(&VALUES)));
    }
    if g.usize_in(0, 4) == 0 {
        xml.push_str(&format!(" b:id='{}'", g.pick(&VALUES)));
    }
    xml.push('>');
    for _ in 0..g.usize_in(0, 5) {
        let value = *g.pick(&VALUES);
        let (head, tail) = value.split_at(value.len() / 2);
        xml.push_str(&match g.usize_in(0, 9) {
            0 => format!("<b:year>{value}</b:year>"),
            1 => format!("<year>{head}<x/>{tail}</year>"),
            2 => format!("<year><![CDATA[{value}]]></year>"),
            3 => format!("<title>T{}</title>", g.usize_in(0, 3)),
            4 => value.to_string(),
            5 => "<!-- c --><year/>".to_string(),
            _ => format!("<year>{value}</year>"),
        });
    }
    xml.push_str(&format!("</{close}>"));
    xml
}

fn gen_literal(g: &mut Gen) -> String {
    if g.bool_any() {
        g.pick(&NUMBERS).to_string()
    } else {
        format!("'{}'", g.pick(&VALUES))
    }
}

/// An operand relative to `{v}` (the context node, or a variable).
fn gen_leaf(g: &mut Gen) -> String {
    let literal = gen_literal(g);
    match g.usize_in(0, 14) {
        0 => format!("{literal} = {{v}}year"),
        1 => format!("{{v}}@id = {literal}"),
        2 => format!("{{v}}b:year = {literal}"),
        3 => format!("{{v}}@b:id = {literal}"),
        4 => format!("{{v}}year != {literal}"),
        5 => "undefined-fn()".to_string(),
        6 => format!("{{v}}year = {literal} and undefined-fn()"),
        7 => format!("undefined-fn() and {{v}}year = {literal}"),
        8 => format!("{{v}}year[2] = {literal}"),
        9 => format!("{{v}}title = 'T{}'", g.usize_in(0, 3)),
        _ => format!("{{v}}year = {literal}"),
    }
}

fn gen_condition(g: &mut Gen) -> String {
    let leaf = gen_leaf(g);
    match g.usize_in(0, 6) {
        0 => format!("{leaf} and {}", gen_leaf(g)),
        1 => format!("({leaf} and {}) and {}", gen_leaf(g), gen_leaf(g)),
        2 => format!("{leaf} or {}", gen_leaf(g)),
        _ => leaf,
    }
}

/// A predicate on the context node.
fn gen_predicate(g: &mut Gen) -> String {
    match g.usize_in(0, 8) {
        0 => "1".to_string(),
        1 => "2".to_string(),
        2 => "position() = 1".to_string(),
        _ => gen_condition(g).replace("{v}", ""),
    }
}

fn gen_xpath(g: &mut Gen) -> String {
    let root = *g.pick(&["book", "book", "book", "paper", "b:book"]);
    let mut path = format!("/{root}");
    for _ in 0..g.usize_in(0, 3) {
        path.push_str(&format!("[{}]", gen_predicate(g)));
    }
    let tails = ["", "", "/title", "/year", "/@id", "/year/text()"];
    path.push_str(g.pick::<&str>(&tails));
    match g.usize_in(0, 10) {
        0 => format!("count({path})"),
        1 => format!("{path} | /{root}/year"),
        2 => format!("//year[. = {}]", gen_literal(g)),
        _ => path,
    }
}

fn gen_xquery(g: &mut Gen) -> String {
    if g.usize_in(0, 6) == 0 {
        return gen_xpath(g);
    }
    let source = match g.usize_in(0, 10) {
        0..=2 => format!("/book[{}]", gen_predicate(g)),
        3 => "/book/year".to_string(),
        4 => "//year".to_string(),
        5 => "/b:book".to_string(),
        6 => "/paper".to_string(),
        _ => "/book".to_string(),
    };
    let mut query = format!("for $x in {source} ");
    let with_let = g.usize_in(0, 4) == 0;
    if with_let {
        let lets = ["let $y := $x/year ", "let $y := undefined-fn() "];
        query.push_str(g.pick::<&str>(&lets));
    }
    if g.usize_in(0, 5) > 0 {
        let var = if g.usize_in(0, 8) == 0 { "$z/" } else { "$x/" };
        let mut condition = gen_condition(g).replace("{v}", var);
        if with_let && g.bool_any() {
            condition = format!("$y = {} and {condition}", gen_literal(g));
        }
        query.push_str(&format!("where {condition} "));
    }
    let returns = ["return $x", "return $x/title", "return <hit>{$x/@id}</hit>"];
    query.push_str(g.pick::<&str>(&returns));
    query
}

/// A collection of generated documents, and the documents in name order.
fn gen_collection(g: &mut Gen) -> (XmlDatabase, Vec<XmlElement>) {
    let db = XmlDatabase::new("filter");
    db.create_collection("c").unwrap();
    for i in 0..g.usize_in(1, 10) {
        db.add_document("c", &format!("d{i:02}"), &gen_document(g)).unwrap();
    }
    let documents = db
        .list_documents("c")
        .unwrap()
        .iter()
        .map(|name| db.get_document("c", name).unwrap())
        .collect();
    (db, documents)
}

/// What `xpath_query_with` answers, computed document by document
/// without a filter.
fn xpath_reference(
    expr: &XPathExpr,
    documents: &[XmlElement],
) -> Result<Vec<XmlElement>, XmlDbError> {
    let mut out = Vec::new();
    for doc in documents {
        let value =
            expr.evaluate_with(doc, &context()).map_err(|e| XmlDbError::Query(e.to_string()))?;
        let XPathValue::NodeSet(nodes) = value else {
            out.push(XmlElement::new_local("value").with_text(value.to_xpath_string()));
            continue;
        };
        for node in nodes {
            match node {
                XPathNode::Element(e) | XPathNode::Root(e) => out.push(e),
                XPathNode::Text(t) => out.push(XmlElement::new_local("text").with_text(t)),
                XPathNode::Attribute { name, value } => out.push(
                    XmlElement::new_local("attribute")
                        .with_attr("name", name.lexical())
                        .with_text(value),
                ),
                XPathNode::Comment(_) => {}
            }
        }
    }
    Ok(out)
}

fn xquery_reference(
    query: &XQuery,
    documents: &[XmlElement],
) -> Result<Vec<XQueryItem>, XmlDbError> {
    let mut out = Vec::new();
    for doc in documents {
        out.extend(query.execute_with(doc, &context())?);
    }
    Ok(out)
}

/// How often the filter refused a document, and how often an answer was
/// non-empty or an error, so a run shows the comparison is not vacuous.
#[derive(Default)]
struct Tally {
    refused: usize,
    answered: usize,
    failed: usize,
}

impl Tally {
    fn count<T>(&mut self, answer: &Result<Vec<T>, XmlDbError>) {
        match answer {
            Ok(items) if !items.is_empty() => self.answered += 1,
            Ok(_) => {}
            Err(_) => self.failed += 1,
        }
    }

    fn assert_live(&self, cases: usize) {
        println!(
            "{cases} cases: {} documents refused, {} answers, {} errors",
            self.refused, self.answered, self.failed
        );
        assert!(
            self.refused > cases && self.answered > cases / 10 && self.failed > cases / 50,
            "too few refusals ({}), answers ({}) or errors ({}) in {cases} cases",
            self.refused,
            self.answered,
            self.failed
        );
    }
}

const CASES: u32 = 1000;

#[test]
fn a_filtered_xpath_answers_as_every_document_evaluated() {
    let mut tally = Tally::default();
    run_cases("a_filtered_xpath_answers_as_every_document_evaluated", CASES, 0xF1_17E2, |g| {
        let (db, documents) = gen_collection(g);
        let xpath = gen_xpath(g);
        let expr = XPathExpr::parse(&xpath).unwrap();
        if let Some(filter) = expr.document_filter() {
            tally.refused += documents.iter().filter(|d| !filter.admits(d)).count();
        }
        let want = xpath_reference(&expr, &documents);
        let got = db.xpath_query_with("c", &xpath, &context());
        tally.count(&want);
        assert_eq!(got, want, "{xpath} over {documents:?}");
    });
    tally.assert_live(CASES as usize);
}

#[test]
fn a_filtered_xquery_answers_as_every_document_executed() {
    let mut tally = Tally::default();
    run_cases("a_filtered_xquery_answers_as_every_document_executed", CASES, 0xF1_17E3, |g| {
        let (db, documents) = gen_collection(g);
        let source = gen_xquery(g);
        let query = XQuery::parse(&source).unwrap();
        let want = xquery_reference(&query, &documents);
        let got = db.xquery_query("c", &query, &context());
        assert_eq!(got, want, "{source} over {documents:?}");
        tally.count(&want);
        if let Some(filter) = query.document_filter() {
            tally.refused += documents.iter().filter(|d| !filter.admits(d)).count();
        }
    });
    tally.assert_live(CASES as usize);
}
