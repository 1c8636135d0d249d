//! The oracle's equality test: FNV-1a over what the consumer received,
//! with row and cell separators folded in (as experiment E18 does), so
//! equal checksums mean equal values in equal order.

use dais_sql::{Rowset, Value};
use dais_xml::XmlElement;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
const CELL_END: u8 = 0x1f;
const ROW_END: u8 = 0x1e;

#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(PRIME);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

fn fold(h: &mut Fnv, rowset: &Rowset, skip: Option<usize>) {
    let mut scratch = String::new();
    for row in &rowset.rows {
        for (i, value) in row.iter().enumerate() {
            if Some(i) == skip {
                continue;
            }
            match value {
                Value::Str(s) => h.bytes(s.as_bytes()),
                other => {
                    scratch.clear();
                    other.write_display_into(&mut scratch);
                    h.bytes(scratch.as_bytes());
                }
            }
            h.bytes(&[CELL_END]);
        }
        h.bytes(&[ROW_END]);
    }
}

/// Fold one rowset's rows into `h` (several pages of one result fold
/// into the same hash, so paging cannot hide a torn result).
pub fn fold_rowset(h: &mut Fnv, rowset: &Rowset) {
    fold(h, rowset, None);
}

pub fn rowset(rowset: &Rowset) -> u64 {
    let mut h = Fnv::new();
    fold(&mut h, rowset, None);
    h.finish()
}

/// Like [`rowset`], leaving one column out — for reads whose other
/// columns are fixed while that one is being updated concurrently.
pub fn rowset_skipping(rowset: &Rowset, skip: usize) -> u64 {
    let mut h = Fnv::new();
    fold(&mut h, rowset, Some(skip));
    h.finish()
}

/// Checksum of a sequence of XML items by their serialised form.
pub fn elements<'a>(items: impl IntoIterator<Item = &'a XmlElement>) -> u64 {
    let mut h = Fnv::new();
    for item in items {
        h.bytes(dais_xml::to_string(item).as_bytes());
        h.bytes(&[ROW_END]);
    }
    h.finish()
}
