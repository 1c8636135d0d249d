//! Workload-level tests of the XML database: realistic corpora, query +
//! update interleavings and concurrency.

use dais_xml::{parse, XPathContext};
use dais_xmldb::{apply_xupdate, XQuery, XmlDatabase};

fn library() -> XmlDatabase {
    let db = XmlDatabase::new("library");
    db.create_collection("books").unwrap();
    let entries = [
        ("b1", "TP", 1992, 89, &["databases", "transactions"][..]),
        ("b2", "DDIA", 2017, 45, &["databases", "distributed"][..]),
        ("b3", "OSTEP", 2018, 0, &["os"][..]),
        ("b4", "SICP", 1985, 60, &["programming"][..]),
        ("b5", "TAPL", 2002, 70, &["programming", "types"][..]),
    ];
    for (name, title, year, price, tags) in entries {
        let tag_xml: String = tags.iter().map(|t| format!("<tag>{t}</tag>")).collect();
        db.add_document(
            "books",
            name,
            &format!(
                "<book><title>{title}</title><year>{year}</year><price>{price}</price>{tag_xml}</book>"
            ),
        )
        .unwrap();
    }
    db
}

#[test]
fn xpath_workloads() {
    let db = library();
    // Predicate combinations.
    assert_eq!(db.xpath_query("books", "/book[year > 2000][price < 60]").unwrap().len(), 2); // DDIA, OSTEP
                                                                                             // Counting via nested paths.
    let tags = db.xpath_query("books", "/book/tag").unwrap();
    assert_eq!(tags.len(), 8);
    // Text functions inside predicates.
    let hits = db.xpath_query("books", "/book[starts-with(title, 'T')]").unwrap();
    assert_eq!(hits.len(), 2); // TP, TAPL
                               // Attribute-less structural navigation with unions.
    let hits = db.xpath_query("books", "/book/title | /book/year").unwrap();
    assert_eq!(hits.len(), 10);
}

#[test]
fn xquery_flwor_workloads() {
    let db = library();
    let q = XQuery::parse(
        "for $b in /book \
         let $p := $b/price \
         where $p > 40 \
         order by $p descending \
         return <hit price=\"{$p}\">{$b/title/text()}</hit>",
    )
    .unwrap();
    // Per-document result sequences, concatenated in document-name order.
    let all = db.xquery_query("books", &q, &XPathContext::default()).unwrap();
    assert_eq!(all.len(), 4); // TP 89, DDIA 45, SICP 60, TAPL 70
    for item in &all {
        let e = item.to_element();
        let price: i64 = e.attribute("price").unwrap().parse().unwrap();
        assert!(price > 40);
    }
}

#[test]
fn xquery_multiple_lets_and_arithmetic() {
    let doc = parse("<cart><line><qty>2</qty><unit>10</unit></line><line><qty>3</qty><unit>5</unit></line></cart>").unwrap();
    let q = XQuery::parse(
        "for $l in /cart/line \
         let $q := $l/qty let $u := $l/unit \
         return <total>{$q * $u}</total>",
    )
    .unwrap();
    let items = q.execute(&doc).unwrap();
    let totals: Vec<String> = items.iter().map(|i| i.string_value()).collect();
    assert_eq!(totals, vec!["20", "15"]);
}

#[test]
fn update_then_query_interleaving() {
    let db = library();
    let ctx = XPathContext::default();
    // Round 1: discount everything over 60 by renaming + updating.
    let mods = parse(
        "<xu:modifications xmlns:xu='http://www.xmldb.org/xupdate'>\
           <xu:append select='/book[price > 60]'><discounted/></xu:append>\
         </xu:modifications>",
    )
    .unwrap();
    let names = db.list_documents("books").unwrap();
    let mut touched = 0;
    for n in &names {
        let mut doc = db.get_document("books", n).unwrap();
        touched += apply_xupdate(&mut doc, &mods, &ctx).unwrap();
        db.replace_document("books", n, doc).unwrap();
    }
    assert_eq!(touched, 2); // TP 89, TAPL 70
    assert_eq!(db.xpath_query("books", "/book[discounted]").unwrap().len(), 2);

    // Round 2: remove the marker from one of them and re-check.
    let mods = parse(
        "<xu:modifications xmlns:xu='http://www.xmldb.org/xupdate'>\
           <xu:remove select='/book[title=\"TP\"]/discounted'/>\
         </xu:modifications>",
    )
    .unwrap();
    for n in &names {
        let mut doc = db.get_document("books", n).unwrap();
        apply_xupdate(&mut doc, &mods, &ctx).unwrap();
        db.replace_document("books", n, doc).unwrap();
    }
    assert_eq!(db.xpath_query("books", "/book[discounted]").unwrap().len(), 1);
}

#[test]
fn deep_collection_trees() {
    let db = XmlDatabase::new("deep");
    db.create_collection("a").unwrap();
    db.create_collection("a/b").unwrap();
    db.create_collection("a/b/c").unwrap();
    db.add_document("a/b/c", "leaf", "<x>1</x>").unwrap();
    assert!(db.has_collection("a/b/c"));
    assert_eq!(db.xpath_query("a/b/c", "/x").unwrap().len(), 1);
    assert_eq!(db.xpath_query("a", "/x").unwrap().len(), 0); // non-recursive
                                                             // Removing the middle removes everything beneath.
    db.remove_collection("a/b").unwrap();
    assert!(!db.has_collection("a/b/c"));
    assert_eq!(db.document_count(), 0);
}

#[test]
fn concurrent_mixed_workload() {
    let db = library();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let db = db.clone();
            std::thread::spawn(move || {
                for j in 0..20 {
                    match i % 3 {
                        0 => {
                            let _ = db.xpath_query("books", "/book[price > 10]/title").unwrap();
                        }
                        1 => {
                            db.add_document(
                                "books",
                                &format!("w{i}_{j}"),
                                &format!(
                                    "<book><title>gen{i}-{j}</title><price>{j}</price></book>"
                                ),
                            )
                            .unwrap();
                        }
                        _ => {
                            let names = db.list_documents("books").unwrap();
                            let _ = db.get_document("books", &names[j % names.len()]).unwrap();
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.document_count(), 5 + 2 * 20);
}

#[test]
fn namespace_aware_collection_queries() {
    let db = XmlDatabase::new("ns");
    db.create_collection("c").unwrap();
    db.add_document("c", "d", "<r xmlns:m='urn:meta'><m:id>7</m:id><id>8</id></r>").unwrap();
    let ctx = XPathContext::new().with_namespace("meta", "urn:meta");
    let hits = db.xpath_query_with("c", "//meta:id", &ctx).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].text(), "7");
    let hits = db.xpath_query_with("c", "//id", &ctx).unwrap();
    assert_eq!(hits[0].text(), "8");
}
