//! Parser robustness: pathological and adversarial inputs must produce
//! errors, never panics or hangs — these documents arrive from the
//! network in a DAIS deployment.

use dais_xml::{parse, parse_preserving, to_string, PullParser, XmlElement, XmlError};

/// Read a whole document through the pull parser's public event stream.
fn drain(input: &str) -> Result<(), XmlError> {
    let mut p = PullParser::new(input)?;
    while p.next()?.is_some() {}
    Ok(())
}

#[test]
fn deeply_nested_documents() {
    // Documents up to the depth cap parse and round-trip.
    let nest = |depth: usize| {
        let mut src = String::new();
        for _ in 0..depth {
            src.push_str("<d>");
        }
        src.push('x');
        for _ in 0..depth {
            src.push_str("</d>");
        }
        src
    };
    let doc = parse(&nest(dais_xml::parser::MAX_DEPTH)).unwrap();
    assert_eq!(doc.text(), "x");
    assert_eq!(parse(&to_string(&doc)).unwrap(), doc);
    // Beyond the cap: a clean error, not a stack overflow (hostile
    // documents must not crash a data service).
    let err = parse(&nest(dais_xml::parser::MAX_DEPTH + 1)).unwrap_err();
    assert!(err.message.contains("depth"), "{err}");
    let err = parse(&nest(100_000)).unwrap_err();
    assert!(err.message.contains("depth"), "{err}");
}

#[test]
fn wide_documents() {
    let mut root = XmlElement::new_local("r");
    for i in 0..10_000 {
        root.push(XmlElement::new_local("c").with_attr("i", i.to_string()));
    }
    let wire = to_string(&root);
    let back = parse(&wire).unwrap();
    assert_eq!(back.elements().count(), 10_000);
}

#[test]
fn truncated_inputs_error_cleanly() {
    let full = TRUNCATION_SOURCE;
    // Every prefix of a valid document either parses (rare) or errors —
    // never panics.
    for cut in 0..full.len() {
        let _ = parse(&full[..cut]);
    }
    // The full document parses.
    parse(full).unwrap();
}

#[test]
fn malformed_structures() {
    for bad in [
        "<a><b></a></b>",                       // interleaved close
        "<a",                                   // unterminated tag
        "<a /",                                 // broken self-close
        "<a></a",                               // unterminated close
        "<a x=1/>",                             // unquoted attribute
        "<a x></a>",                            // attribute without value
        "< a/>",                                // space before name
        "<a>&unknown;</a>",                     // undefined entity
        "<a>&#xZZ;</a>",                        // bad char ref
        "<a>&#1114112;</a>",                    // out-of-range char ref
        "<1a/>",                                // name starts with digit
        "text<a/>",                             // leading text at top level
        "<a/><b/>",                             // two roots
        "<!DOCTYPE a><a/>",                     // doctype unsupported
        "<a xmlns:p=''><p:b/></a>",             // empty prefix binding
        "<a><![CDATA[x]]</a>",                  // unterminated cdata
        "<a><!-- x --</a>",                     // unterminated comment
        "<r p:a='1'/>",                         // undeclared attribute prefix
        "<r a:='1'/>",                          // empty attribute local name
        "<r a:b:c='1'/>",                       // two colons in an attribute name
        "<r xmlns:p='urn:p' p:a='1' q:b='2'/>", // one of two prefixes unbound
    ] {
        assert!(parse(bad).is_err(), "should reject: {bad}");
        assert!(drain(bad).is_err(), "pull parser should reject: {bad}");
    }
}

#[test]
fn entity_bombs_are_not_possible() {
    // Our subset has no internal entity definitions, so the classic
    // billion-laughs input is simply a parse error (no DOCTYPE).
    let bomb = r#"<!DOCTYPE lolz [<!ENTITY lol "lol">]><lolz>&lol;</lolz>"#;
    assert!(parse(bomb).is_err());
}

#[test]
fn huge_text_nodes() {
    let payload = "x".repeat(1_000_000);
    let src = format!("<r>{payload}</r>");
    let doc = parse_preserving(&src).unwrap();
    assert_eq!(doc.text().len(), 1_000_000);
}

#[test]
fn attribute_value_edge_cases() {
    let doc = parse("<r a='' b='  spaced  ' c='&#9;tab' d=\"q'uote\"/>").unwrap();
    assert_eq!(doc.attribute("a"), Some(""));
    assert_eq!(doc.attribute("b"), Some("  spaced  "));
    assert_eq!(doc.attribute("c"), Some("\ttab"));
    assert_eq!(doc.attribute("d"), Some("q'uote"));
    // And they all survive re-serialisation.
    let rt = parse(&to_string(&doc)).unwrap();
    assert_eq!(rt, doc);
}

#[test]
fn mixed_content_preserved() {
    let src = "<p>one <b>two</b> three <i>four</i> five</p>";
    let doc = parse_preserving(src).unwrap();
    assert_eq!(doc.text(), "one two three four five");
    assert_eq!(doc.children.len(), 5);
    let rt = parse_preserving(&to_string(&doc)).unwrap();
    assert_eq!(rt, doc);
}

#[test]
fn unicode_content() {
    let src = "<r attr='日本語'>причал 🚀 ñcafé</r>";
    let doc = parse_preserving(src).unwrap();
    assert_eq!(doc.attribute("attr"), Some("日本語"));
    assert_eq!(doc.text(), "причал 🚀 ñcafé");
    assert_eq!(parse_preserving(&to_string(&doc)).unwrap(), doc);
}

#[test]
fn xpath_on_pathological_documents_is_safe() {
    // Long sibling chains with predicates that backtrack.
    let mut root = XmlElement::new_local("r");
    for i in 0..2000 {
        root.push(XmlElement::new_local("x").with_attr("i", i.to_string()));
    }
    let expr = dais_xml::XPathExpr::parse("//x[@i = '1999']").unwrap();
    let hits = expr.select_elements(&root).unwrap();
    assert_eq!(hits.len(), 1);
    // A miss over the same fan-out.
    let expr = dais_xml::XPathExpr::parse("//x[@i = 'nope']/following-sibling::x").unwrap();
    assert!(expr.select_elements(&root).unwrap().is_empty());
}

/// The reader's verdict on every malformed input this suite and the
/// parser's unit tests name: `ok`, or `line:column message`. The tree
/// builder and the pull parser's event stream must both give it.
const ERROR_TABLE: &[(&str, &str)] = &[
    ("", "1:1 expected '<'"),
    ("</r>", "1:2 expected a name"),
    ("<p:r/>", "1:5 undeclared namespace prefix 'p'"),
    ("<r p:a='1'/>", "1:11 undeclared namespace prefix 'p'"),
    ("<r a:='1'/>", "1:10 malformed qualified name 'a:'"),
    ("<r a:b:c='1'/>", "1:13 malformed qualified name 'a:b:c'"),
    ("<r xmlns:p='urn:p' p:a='1' q:b='2'/>", "1:35 undeclared namespace prefix 'q'"),
    ("<r>&nbsp;</r>", "1:10 unknown entity &nbsp;"),
    ("<a><b></a></b>", "1:10 mismatched close tag </a> for <b>"),
    ("<r a='1' a='2'/>", "1:15 duplicate attribute 'a'"),
    ("<r/><r/>", "1:5 content after document element"),
    ("<!DOCTYPE r><r/>", "1:1 DOCTYPE is not supported"),
    ("<r>\n  <bad", "2:7 unexpected end of input in tag"),
    ("<r a='<'/>", "1:7 '<' is not allowed in attribute values"),
    ("<r><a></r></a>", "1:10 mismatched close tag </r> for <a>"),
    ("<r", "1:3 unexpected end of input in tag"),
    ("<a", "1:3 unexpected end of input in tag"),
    ("<a /", "1:5 expected '>'"),
    ("<a></a", "1:7 expected '>'"),
    ("<a x=1/>", "1:6 expected quoted attribute value"),
    ("<a x></a>", "1:5 expected '='"),
    ("< a/>", "1:2 expected a name"),
    ("<a>&unknown;</a>", "1:13 unknown entity &unknown;"),
    ("<a>&#xZZ;</a>", "1:10 invalid character reference &#xZZ;"),
    ("<a>&#1114112;</a>", "1:14 invalid character reference &#1114112;"),
    ("<1a/>", "1:2 expected a name"),
    ("text<a/>", "1:1 expected '<'"),
    ("<a/><b/>", "1:5 content after document element"),
    ("<a xmlns:p=''><p:b/></a>", "1:14 cannot bind a prefix to the empty namespace"),
    ("<a><![CDATA[x]]</a>", "1:20 unterminated CDATA section"),
    ("<a><!-- x --</a>", "1:17 unterminated comment"),
    ("<!DOCTYPE lolz [<!ENTITY lol \"lol\">]><lolz>&lol;</lolz>", "1:1 DOCTYPE is not supported"),
];

/// Verdicts for each prefix of [`TRUNCATION_SOURCE`], indexed by length.
const TRUNCATION_SOURCE: &str =
    "<root attr='value'><child>text &amp; more</child><!-- c --><![CDATA[x]]></root>";
const TRUNCATION_TABLE: &[&str] = &[
    "1:1 expected '<'",
    "1:2 expected a name",
    "1:3 unexpected end of input in tag",
    "1:4 unexpected end of input in tag",
    "1:5 unexpected end of input in tag",
    "1:6 unexpected end of input in tag",
    "1:7 unexpected end of input in tag",
    "1:8 expected '='",
    "1:9 expected '='",
    "1:10 expected '='",
    "1:11 expected '='",
    "1:12 expected quoted attribute value",
    "1:13 unterminated attribute value",
    "1:14 unterminated attribute value",
    "1:15 unterminated attribute value",
    "1:16 unterminated attribute value",
    "1:17 unterminated attribute value",
    "1:18 unterminated attribute value",
    "1:19 unexpected end of input in tag",
    "1:20 unexpected end of input inside <root>",
    "1:21 expected a name",
    "1:22 unexpected end of input in tag",
    "1:23 unexpected end of input in tag",
    "1:24 unexpected end of input in tag",
    "1:25 unexpected end of input in tag",
    "1:26 unexpected end of input in tag",
    "1:27 unexpected end of input inside <child>",
    "1:28 unexpected end of input inside <child>",
    "1:29 unexpected end of input inside <child>",
    "1:30 unexpected end of input inside <child>",
    "1:31 unexpected end of input inside <child>",
    "1:32 unexpected end of input inside <child>",
    "1:33 expected ';'",
    "1:34 expected ';'",
    "1:35 expected ';'",
    "1:36 expected ';'",
    "1:37 unexpected end of input inside <child>",
    "1:38 unexpected end of input inside <child>",
    "1:39 unexpected end of input inside <child>",
    "1:40 unexpected end of input inside <child>",
    "1:41 unexpected end of input inside <child>",
    "1:42 unexpected end of input inside <child>",
    "1:43 expected a name",
    "1:44 expected a name",
    "1:45 mismatched close tag </c> for <child>",
    "1:46 mismatched close tag </ch> for <child>",
    "1:47 mismatched close tag </chi> for <child>",
    "1:48 mismatched close tag </chil> for <child>",
    "1:49 expected '>'",
    "1:50 unexpected end of input inside <root>",
    "1:51 expected a name",
    "1:51 expected a name",
    "1:51 expected a name",
    "1:54 unterminated comment",
    "1:55 unterminated comment",
    "1:56 unterminated comment",
    "1:57 unterminated comment",
    "1:58 unterminated comment",
    "1:59 unterminated comment",
    "1:60 unexpected end of input inside <root>",
    "1:61 expected a name",
    "1:61 expected a name",
    "1:61 expected a name",
    "1:61 expected a name",
    "1:61 expected a name",
    "1:61 expected a name",
    "1:61 expected a name",
    "1:61 expected a name",
    "1:69 unterminated CDATA section",
    "1:70 unterminated CDATA section",
    "1:71 unterminated CDATA section",
    "1:72 unterminated CDATA section",
    "1:73 unexpected end of input inside <root>",
    "1:74 expected a name",
    "1:75 expected a name",
    "1:76 mismatched close tag </r> for <root>",
    "1:77 mismatched close tag </ro> for <root>",
    "1:78 mismatched close tag </roo> for <root>",
    "1:79 expected '>'",
    "ok",
];

fn verdict<T>(result: Result<T, XmlError>) -> String {
    match result {
        Ok(_) => "ok".into(),
        Err(e) => format!("{}:{} {}", e.line, e.column, e.message),
    }
}

/// The tree builder and the pull parser's event stream give `input` the
/// same verdict, and it is `expected`.
fn assert_verdict(input: &str, expected: &str) {
    assert_eq!(verdict(parse(input)), expected, "parse {input:?}");
    assert_eq!(verdict(drain(input)), expected, "drain {input:?}");
}

#[test]
fn error_table_holds() {
    for (input, expected) in ERROR_TABLE {
        assert_verdict(input, expected);
    }
    assert_eq!(TRUNCATION_TABLE.len(), TRUNCATION_SOURCE.len() + 1);
    for (cut, expected) in TRUNCATION_TABLE.iter().enumerate() {
        assert_verdict(&TRUNCATION_SOURCE[..cut], expected);
    }
    // The depth cap reports at the '<' of the first element past it.
    let too_deep = "<d>".repeat(dais_xml::parser::MAX_DEPTH + 1);
    let column = 3 * dais_xml::parser::MAX_DEPTH + 1;
    assert_verdict(
        &too_deep,
        &format!("1:{column} element nesting exceeds the maximum depth of 128"),
    );
}
