//! `xml_mix` — the XML realisation, on its own.
//!
//! One client, in process, WS-DAIX on a 400-document `books`
//! collection: `XPathExecute` 60 %, `XQueryExecute` FLWOR 25 %,
//! `GetDocuments` 10 %, and an `AddDocuments` + `RemoveDocuments` pair
//! 5 % (so the collection's size holds steady). The tree parser and the
//! XPath engine do all the work and the SQL path none: a regression
//! there is invisible to the other five workloads.

use super::{scaled, Client, Deck, Instance, Kind, OpInput, Oracle, Spec};
use crate::trace::Probe;
use dais_core::{AbstractName, DaisClient};
use dais_daix::{XmlClient, XmlCollectionResource, XmlService};
use dais_soap::{Bus, CallError};
use dais_util::SplitMix64;
use dais_xml::XmlElement;
use dais_xmldb::XmlDatabase;

const XPATH: usize = 0;
const XQUERY: usize = 1;
const GET_DOCUMENTS: usize = 2;
const ADD_REMOVE: usize = 3;

pub const SPEC: Spec = Spec {
    name: "xml_mix",
    kinds: &[
        Kind { name: "xpath", share: 0.60 },
        Kind { name: "xquery", share: 0.25 },
        Kind { name: "get_documents", share: 0.10 },
        Kind { name: "add_remove", share: 0.05 },
    ],
    // Thirty-five cycles: whole rounds of every pool (7 × 60 XPath,
    // 5 × 35 XQuery, 2 × 35 GetDocuments).
    warmup_ops: 35 * CYCLE.len(),
    setup,
};

/// The op mix as a fixed cycle of twenty (12/5/2/1), kinds interleaved;
/// see `fed_scan::CYCLE` for why it is not drawn per op.
const CYCLE: [usize; 20] = [
    XPATH,
    XQUERY,
    XPATH,
    XPATH,
    GET_DOCUMENTS,
    XPATH,
    XQUERY,
    XPATH,
    XPATH,
    XQUERY,
    XPATH,
    ADD_REMOVE,
    XPATH,
    XQUERY,
    XPATH,
    GET_DOCUMENTS,
    XPATH,
    XQUERY,
    XPATH,
    XPATH,
];

pub const COLLECTION: &str = "books";
const DOCUMENTS: usize = 400;
const AUTHORS: usize = 17;
const YEARS: std::ops::Range<u64> = 1990..2025;
/// `/book[@id = …]` lookups in the XPath pool, beside one query per
/// author and one per year.
const ID_LOOKUPS: usize = 8;
const FETCH_POOL: usize = 35;
const FETCH: usize = 4;

fn book(rng: &mut SplitMix64, i: usize) -> (String, XmlElement) {
    let year = rng.gen_range(YEARS.start, YEARS.end);
    let price = rng.gen_range(5, 120);
    let summary: String =
        (0..rng.gen_range(10, 60)).map(|_| char::from(b'a' + rng.gen_range(0, 26) as u8)).collect();
    let doc = XmlElement::new_local("book")
        .with_attr("id", i.to_string())
        .with_child(XmlElement::new_local("title").with_text(format!("Book {i}")))
        .with_child(XmlElement::new_local("author").with_text(format!("Author {}", i % AUTHORS)))
        .with_child(XmlElement::new_local("year").with_text(year.to_string()))
        .with_child(XmlElement::new_local("price").with_text(price.to_string()))
        .with_child(XmlElement::new_local("abstract").with_text(summary));
    (format!("book{i:04}"), doc)
}

enum Expected {
    /// A query and the checksum and size of the oracle's answer.
    Items {
        expression: String,
        items: u64,
        checksum: u64,
    },
    Documents {
        names: Vec<String>,
        checksum: u64,
    },
}

fn setup(seed: u64, scale: f64) -> Instance {
    let mut rng = SplitMix64::new(seed);
    let documents: Vec<(String, XmlElement)> =
        (0..scaled(DOCUMENTS, scale, 20)).map(|i| book(&mut rng, i)).collect();

    let oracle = XmlDatabase::new("oracle");
    oracle.create_collection(COLLECTION).expect("oracle collection must create");
    for (name, doc) in &documents {
        // Stored as parsed text, as the served copies are once they have
        // crossed the wire: a built element and a parsed one do not cost
        // the XPath engine the same, and the shadow calls time this store.
        oracle.add_document(COLLECTION, name, &dais_xml::to_string(doc)).expect("oracle document");
    }
    let oracle_name = AbstractName::new("urn:daisbench:oracle:books").expect("a valid URI");
    let oracle_resource = XmlCollectionResource::new(oracle_name, oracle.clone(), COLLECTION);

    let bus = Bus::new();
    let service =
        XmlService::launch(&bus, "bus://library", XmlDatabase::new("library"), Default::default());
    let client = XmlClient::builder().bus(bus.clone()).address("bus://library").build();
    let books = client
        .create_subcollection(&service.root_collection, COLLECTION)
        .expect("served collection must create");
    for batch in documents.chunks(50) {
        let statuses = client.add_documents(&books, batch).expect("documents must ingest");
        assert!(statuses.iter().all(|(_, status)| status == "Success"), "ingest: {statuses:?}");
    }

    // The query pools partition the collection — one query per author,
    // one per year — so a round of a pool returns every document once
    // whatever the seed made of them, and result sizes (hence bytes and
    // rows per op) do not depend on which documents a seed favoured.
    let mut xpaths: Vec<String> = (0..AUTHORS)
        .map(|a| format!("/book[author = 'Author {a}']/title"))
        .chain(YEARS.map(|y| format!("/book[year = {y}]/title")))
        .collect();
    for _ in 0..ID_LOOKUPS {
        xpaths.push(format!("/book[@id = '{}']", rng.gen_range(0, documents.len() as u64)));
    }
    let mut pools: [Vec<Expected>; 3] = Default::default();
    for expression in xpaths {
        let answer = oracle.xpath_query(COLLECTION, &expression).expect("oracle xpath must run");
        pools[XPATH].push(Expected::Items {
            expression,
            items: answer.len() as u64,
            checksum: crate::checksum::elements(&answer),
        });
    }
    for year in YEARS {
        let expression = format!("for $b in /book where $b/year = {year} return $b/title");
        let answer: Vec<XmlElement> = oracle_resource
            .xquery(&expression)
            .expect("oracle xquery must run")
            .iter()
            .map(|item| item.to_element())
            .collect();
        pools[XQUERY].push(Expected::Items {
            expression,
            items: answer.len() as u64,
            checksum: crate::checksum::elements(&answer),
        });
    }
    for _ in 0..FETCH_POOL {
        let names: Vec<String> = (0..FETCH)
            .map(|_| documents[rng.gen_range(0, documents.len() as u64) as usize].0.clone())
            .collect();
        let fetched: Vec<XmlElement> = names
            .iter()
            .map(|name| oracle.get_document(COLLECTION, name).expect("oracle document exists"))
            .collect();
        pools[GET_DOCUMENTS]
            .push(Expected::Documents { names, checksum: crate::checksum::elements(&fetched) });
    }

    let reader = XmlMixer {
        client,
        books,
        decks: std::array::from_fn(|kind| Deck::shuffled(pools[kind].len(), &mut rng)),
        pools,
        rng: rng.split(),
        issued: 0,
        next: (XPATH, 0),
        scratch: None,
        reply: Reply::None,
    };
    Instance {
        clients: vec![Box::new(reader)],
        client_bus: bus.clone(),
        service_bus: bus,
        transport: None,
        oracle: Oracle::Xml { db: oracle, collection: COLLECTION },
        keep_alive: Box::new(service),
    }
}

enum Reply {
    None,
    Items(Vec<XmlElement>),
    Documents(Vec<(String, XmlElement)>),
    AddRemove { statuses: Vec<(String, String)>, removed: u64 },
}

struct XmlMixer {
    client: XmlClient,
    books: AbstractName,
    pools: [Vec<Expected>; 3],
    decks: [Deck; 3],
    /// Draws the scratch documents' contents.
    rng: SplitMix64,
    issued: usize,
    next: (usize, usize),
    /// The document an add/remove op adds and removes again.
    scratch: Option<(String, XmlElement)>,
    reply: Reply,
}

impl Client for XmlMixer {
    fn prepare(&mut self) -> usize {
        let kind = CYCLE[self.issued % CYCLE.len()];
        self.issued += 1;
        if kind == ADD_REMOVE {
            let (_, doc) = book(&mut self.rng, self.issued);
            self.scratch = Some((format!("scratch{}", self.issued), doc));
        } else {
            self.next = (kind, self.decks[kind].draw());
        }
        kind
    }

    fn execute(&mut self, probe: &Probe) -> Result<(), CallError> {
        let (client, books) = (&self.client, &self.books);
        self.reply = match (&self.scratch, self.next) {
            (Some(scratch), _) => {
                let statuses =
                    probe.call(|| client.add_documents(books, std::slice::from_ref(scratch)))?;
                let removed = probe.call(|| client.remove_documents(books, &[&scratch.0]))?;
                Reply::AddRemove { statuses, removed }
            }
            (None, (kind, i)) => match &self.pools[kind][i] {
                Expected::Items { expression, .. } if kind == XPATH => {
                    Reply::Items(probe.call(|| client.xpath(books, expression))?)
                }
                Expected::Items { expression, .. } => {
                    Reply::Items(probe.call(|| client.xquery(books, expression))?)
                }
                Expected::Documents { names, .. } => {
                    let names: Vec<&str> = names.iter().map(String::as_str).collect();
                    Reply::Documents(probe.call(|| client.get_documents(books, &names))?)
                }
            },
        };
        Ok(())
    }

    fn verify(&mut self) -> Result<u64, String> {
        let reply = std::mem::replace(&mut self.reply, Reply::None);
        if let Some((name, _)) = self.scratch.take() {
            return match reply {
                Reply::AddRemove { statuses, removed }
                    if removed == 1 && statuses == [(name.clone(), "Success".to_string())] =>
                {
                    Ok(0)
                }
                Reply::AddRemove { statuses, removed } => {
                    Err(format!("add/remove of {name}: statuses {statuses:?}, removed {removed}"))
                }
                _ => Err("no add/remove reply to verify".into()),
            };
        }
        match (&self.pools[self.next.0][self.next.1], reply) {
            (Expected::Items { expression, items, checksum }, Reply::Items(got)) => {
                if got.len() as u64 != *items || crate::checksum::elements(&got) != *checksum {
                    return Err(format!(
                        "{expression}: {} items differ from the oracle's {items}",
                        got.len()
                    ));
                }
                Ok(*items)
            }
            (Expected::Documents { names, checksum }, Reply::Documents(got)) => {
                let fetched_names: Vec<&String> = got.iter().map(|(name, _)| name).collect();
                if fetched_names != names.iter().collect::<Vec<_>>()
                    || crate::checksum::elements(got.iter().map(|(_, doc)| doc)) != *checksum
                {
                    return Err(format!("GetDocuments {names:?} differs from the oracle"));
                }
                Ok(names.len() as u64)
            }
            _ => Err("reply does not match the op that was prepared".into()),
        }
    }

    fn input(&self) -> OpInput {
        match (&self.scratch, &self.pools[self.next.0][self.next.1]) {
            (None, Expected::Items { expression, .. }) if self.next.0 == XPATH => {
                OpInput::XPath(expression.clone())
            }
            _ => OpInput::Opaque,
        }
    }
}
