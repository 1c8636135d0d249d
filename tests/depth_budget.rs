//! One depth budget for every recursive reader of a request expression.
//!
//! The SQL parser, the XPath parser and XQuery's element constructors
//! share `MAX_EXPRESSION_DEPTH`. Past it each refuses the expression with
//! its own typed error, which a consumer receives as the family's
//! `InvalidExpressionFault`; within it, parsing, evaluating and dropping
//! the expression fit the stack. Every case runs on a 2 MiB thread, the
//! std default that executor workers and TCP connection threads use, so a
//! reader that recursed without a budget would abort the test process.

use dais::prelude::*;
use dais::soap::client::CallError;
use dais::soap::fault::DaisFault;
use dais::xml::xpath::MAX_EXPRESSION_DEPTH;
use dais::xml::{parse, XPathExpr};

/// Run `f` on a thread with the std default 2 MiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap().join().unwrap();
}

fn parens(depth: usize, inner: &str) -> String {
    format!("{}{inner}{}", "(".repeat(depth), ")".repeat(depth))
}

fn assert_invalid_expression<T: std::fmt::Debug>(result: Result<T, CallError>, what: &str) {
    let err = result.unwrap_err();
    assert_eq!(err.dais_fault(), Some(DaisFault::InvalidExpression), "{what}: {err:?}");
}

#[test]
fn xpath_refuses_a_thousand_parentheses_and_evaluates_within_the_budget() {
    on_small_stack(|| {
        let doc = parse("<r><x>1</x></r>").unwrap();
        let err = XPathExpr::parse(&parens(1_000, "1")).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
        // Each parenthesis re-enters the expression grammar, one level
        // each; the outermost expression and the argument list take one
        // more each.
        let deepest = parens(MAX_EXPRESSION_DEPTH - 2, "count(/r/x)");
        let v = XPathExpr::parse(&deepest).unwrap().evaluate(&doc).unwrap();
        assert_eq!(v.to_number(), 1.0);
        assert!(XPathExpr::parse(&parens(MAX_EXPRESSION_DEPTH - 1, "count(/r/x)")).is_err());
        // Binary chains and nested predicates build depth too.
        let chain = vec!["1"; MAX_EXPRESSION_DEPTH + 1].join(" + ");
        assert!(XPathExpr::parse(&chain).is_err());
        let chain = vec!["1"; MAX_EXPRESSION_DEPTH / 2].join(" + ");
        let v = XPathExpr::parse(&chain).unwrap().evaluate(&doc).unwrap();
        assert_eq!(v.to_number(), (MAX_EXPRESSION_DEPTH / 2) as f64);
        let predicates = format!("/r{}", "[x".repeat(1_000) + &"]".repeat(1_000));
        assert!(XPathExpr::parse(&predicates).is_err());
        assert!(XPathExpr::parse(&"- ".repeat(10_000)).is_err());
    });
}

#[test]
fn sql_refuses_ten_thousand_parentheses_and_minus_signs() {
    on_small_stack(|| {
        let parse = dais::sql::parser::parse_statement;
        for sql in [
            format!("SELECT {}", parens(10_000, "1")),
            // An unspaced `--` starts a comment.
            format!("SELECT {}1", "- ".repeat(10_000)),
            format!("SELECT {}1", "+ ".repeat(10_000)),
            format!("SELECT 1 WHERE {}TRUE", "NOT ".repeat(10_000)),
            format!("SELECT {}", vec!["1"; 10_000].join(" + ")),
        ] {
            let err = parse(&sql).unwrap_err();
            assert_eq!(err.sqlstate(), "42601", "{}", &sql[..40]);
            assert!(err.message.contains("nests deeper"), "{err}");
        }
        let db = Database::new("deep");
        // The select item and the `+` link take one level each.
        let deepest = format!("SELECT {}", parens(MAX_EXPRESSION_DEPTH - 2, "1 + 1"));
        let rows = db.execute(&deepest, &[]).unwrap().rowset().unwrap().rows.clone();
        assert_eq!(rows, vec![vec![Value::Int(2)]]);
        let too_deep = format!("SELECT {}", parens(MAX_EXPRESSION_DEPTH - 1, "1 + 1"));
        assert!(parse(&too_deep).is_err());
    });
}

#[test]
fn consumers_receive_invalid_expression_faults() {
    on_small_stack(|| {
        let bus = Bus::new();
        let db = Database::new("deep");
        db.execute_script("CREATE TABLE t (k INTEGER PRIMARY KEY); INSERT INTO t VALUES (1);")
            .unwrap();
        let sql = RelationalService::launch(&bus, "bus://deep-sql", db, Default::default());
        let sql_client = SqlClient::builder().bus(bus.clone()).address("bus://deep-sql").build();
        let statement = format!("SELECT * FROM t WHERE k = {}", parens(10_000, "1"));
        assert_invalid_expression(sql_client.execute(&sql.db_resource, &statement, &[]), "SQL");
        let statement = format!("SELECT * FROM t WHERE k = {}1", "- ".repeat(10_000));
        assert_invalid_expression(sql_client.execute(&sql.db_resource, &statement, &[]), "minus");

        let xml = XmlService::launch(
            &bus,
            "bus://deep-xml",
            XmlDatabase::new("deep"),
            Default::default(),
        );
        let xml_client = XmlClient::builder().bus(bus.clone()).address("bus://deep-xml").build();
        let doc = parse("<r><x>1</x></r>").unwrap();
        xml_client.add_documents(&xml.root_collection, &[("d".to_string(), doc)]).unwrap();
        let root = &xml.root_collection;
        assert_invalid_expression(xml_client.xpath(root, &parens(1_000, "/r")), "XPath");
        let query = format!("for $x in /r return {}", parens(1_000, "$x"));
        assert_invalid_expression(xml_client.xquery(root, &query), "XQuery clause");
        let query = format!("for $x in /r return {}{}", "<a>".repeat(1_000), "</a>".repeat(1_000));
        assert_invalid_expression(xml_client.xquery(root, &query), "XQuery constructor");
        // The same reader answers within the budget.
        assert_eq!(xml_client.xpath(root, &parens(100, "/r/x")).unwrap().len(), 1);
    });
}
