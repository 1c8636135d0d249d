//! A tour of the WS-DAIX realisation: collections, XPath, XQuery,
//! XUpdate and derived sequence resources.
//!
//! Run with: `cargo run --example xml_collections`

use dais::core::properties::names;
use dais::prelude::*;
use dais::xml::parse;

fn main() {
    let bus = Bus::new();
    let store = XmlDatabase::new("library");
    let service = XmlService::launch(&bus, "bus://library", store, Default::default());
    let client = XmlClient::builder().bus(bus.clone()).address("bus://library").build();
    let root = service.root_collection.clone();
    println!("XML data service up; root collection resource {root}");

    // ---- Document management (XMLCollectionAccess) ----------------------
    let books = [
        ("tp", "<book><title>Transaction Processing</title><year>1992</year><price>89</price></book>"),
        ("ddia", "<book><title>Designing Data-Intensive Applications</title><year>2017</year><price>45</price></book>"),
        ("ostep", "<book><title>Operating Systems: Three Easy Pieces</title><year>2018</year><price>0</price></book>"),
    ];
    let docs: Vec<(String, _)> =
        books.iter().map(|(n, x)| (n.to_string(), parse(x).unwrap())).collect();
    for (name, status) in client.add_documents(&root, &docs).unwrap() {
        println!("  added {name}: {status}");
    }

    // Sub-collections become data resources of their own.
    let archive = client.create_subcollection(&root, "archive").unwrap();
    client
        .add_documents(
            &archive,
            &[("k_and_r".into(), parse("<book><title>The C Programming Language</title><year>1978</year><price>60</price></book>").unwrap())],
        )
        .unwrap();
    println!("created sub-collection resource {archive}");

    let props = client.get_collection_property_document(&root).unwrap();
    println!(
        "root collection: {} documents, {} subcollections",
        names::NUMBER_OF_DOCUMENTS.text_in(&props).unwrap(),
        names::NUMBER_OF_SUBCOLLECTIONS.text_in(&props).unwrap(),
    );

    // ---- Direct access: XPathExecute -------------------------------------
    let hits = client.xpath(&root, "/book[price > 40]/title").unwrap();
    println!("\nXPath /book[price > 40]/title:");
    for h in &hits {
        println!("  {}", h.text());
    }

    // ---- Direct access: XQueryExecute ------------------------------------
    let items = client
        .xquery(
            &root,
            "for $b in /book where $b/year >= 2000 \
             return <modern title=\"{$b/title/text()}\">{$b/price/text()}</modern>",
        )
        .unwrap();
    println!("\nXQuery (books from this millennium):");
    for i in &items {
        println!("  {} costs {}", i.attribute("title").unwrap(), i.text());
    }

    // ---- XUpdateExecute ----------------------------------------------------
    let mods = parse(
        "<xu:modifications xmlns:xu='http://www.xmldb.org/xupdate'>\
           <xu:append select='/book'><currency>USD</currency></xu:append>\
           <xu:update select='/book[price=0]/price'>10</xu:update>\
         </xu:modifications>",
    )
    .unwrap();
    let touched = client.xupdate(&root, mods).unwrap();
    println!("\nXUpdate touched {touched} nodes (currency tags + a price fix)");
    let free = client.xpath(&root, "/book[price=0]").unwrap();
    println!("books still free: {}", free.len());

    // ---- Indirect access: XQueryExecuteFactory → SequenceAccess ----------
    let epr = client
        .xquery_factory(&root, "for $b in /book return <entry>{$b/title/text()}</entry>")
        .unwrap();
    let seq = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    println!("\nderived sequence resource {seq} at {}", epr.address);
    let consumer2 = XmlClient::builder().bus(bus).epr(epr).build();
    let page = consumer2.get_items(&seq, 0, 2).unwrap();
    println!("first page of the sequence:");
    for item in &page {
        println!("  {}", item.text());
    }
    let doc = consumer2.get_sequence_property_document(&seq).unwrap();
    println!("sequence holds {} items in total", names::NUMBER_OF_ITEMS.text_in(&doc).unwrap());
    consumer2.core().destroy(&seq).unwrap();
    println!("sequence destroyed");
}
