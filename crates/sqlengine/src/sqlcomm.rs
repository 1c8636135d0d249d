//! The SQL communication area.
//!
//! Figure 2 of the paper notes that "the SQL realisation extends the
//! message pattern to also include information from the SQL communication
//! area" — the SQLSTATE, update count and diagnostic messages of the
//! statement just executed. WS-DAIR responses embed this structure.

use crate::error::{SqlError, SqlErrorKind};
use dais_xml::{ns, PullEvent, PullParser, XmlElement};

/// Diagnostics describing the outcome of one statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlCommunicationArea {
    /// Five-character SQLSTATE; `00000` is success, `02000` is
    /// success-with-no-data.
    pub sqlstate: String,
    /// Rows affected by a DML statement.
    pub update_count: u64,
    /// Human-readable diagnostics.
    pub messages: Vec<String>,
}

impl Default for SqlCommunicationArea {
    fn default() -> Self {
        Self::success()
    }
}

impl SqlCommunicationArea {
    /// Successful completion.
    pub fn success() -> Self {
        SqlCommunicationArea { sqlstate: "00000".into(), update_count: 0, messages: Vec::new() }
    }

    /// Successful completion of a DML statement affecting `n` rows.
    /// SQLSTATE 02000 signals that zero rows matched.
    pub fn with_update_count(n: u64) -> Self {
        SqlCommunicationArea {
            sqlstate: if n == 0 { "02000".into() } else { "00000".into() },
            update_count: n,
            messages: Vec::new(),
        }
    }

    /// A failed statement.
    pub fn failure(sqlstate: impl Into<String>, message: impl Into<String>) -> Self {
        SqlCommunicationArea {
            sqlstate: sqlstate.into(),
            update_count: 0,
            messages: vec![message.into()],
        }
    }

    /// Did the statement succeed?
    pub fn is_success(&self) -> bool {
        self.sqlstate.starts_with("00") || self.sqlstate.starts_with("02")
    }

    /// Encode as the `SQLCommunicationArea` element of WS-DAIR messages.
    pub fn to_xml(&self) -> XmlElement {
        let mut el = XmlElement::new(ns::WSDAIR, "wsdair", "SQLCommunicationArea");
        el.push(XmlElement::new(ns::WSDAIR, "wsdair", "SQLState").with_text(&self.sqlstate));
        el.push(
            XmlElement::new(ns::WSDAIR, "wsdair", "SQLUpdateCount")
                .with_text(self.update_count.to_string()),
        );
        for m in &self.messages {
            el.push(XmlElement::new(ns::WSDAIR, "wsdair", "SQLMessage").with_text(m));
        }
        el
    }

    /// Decode from a pull parser positioned just inside the
    /// `SQLCommunicationArea` element; consumes through its end tag.
    pub fn read_from(p: &mut PullParser<'_>) -> Result<SqlCommunicationArea, SqlError> {
        let malformed = |e: dais_xml::XmlError| {
            SqlError::new(SqlErrorKind::InvalidCast, format!("malformed SQLCommunicationArea: {e}"))
        };
        let mut sqlstate = None;
        let mut area = SqlCommunicationArea::success();
        loop {
            let field = match p.next().map_err(malformed)? {
                Some(PullEvent::Start { local, .. }) => local,
                Some(PullEvent::Text(_)) => continue,
                Some(PullEvent::End) | None => break,
            };
            if !matches!(field, "SQLState" | "SQLUpdateCount" | "SQLMessage") {
                p.skip_element().map_err(malformed)?;
                continue;
            }
            let text = p.text_content().map_err(malformed)?;
            match field {
                "SQLState" => sqlstate = Some(text.into_owned()),
                "SQLUpdateCount" => {
                    area.update_count = text.trim().parse().map_err(|_| {
                        SqlError::new(SqlErrorKind::InvalidCast, "non-numeric SQLUpdateCount")
                    })?
                }
                _ => area.messages.push(text.into_owned()),
            }
        }
        area.sqlstate = sqlstate.ok_or_else(|| {
            SqlError::new(SqlErrorKind::InvalidCast, "SQLCommunicationArea without an SQLState")
        })?;
        Ok(area)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_states() {
        assert!(SqlCommunicationArea::success().is_success());
        assert!(SqlCommunicationArea::with_update_count(0).is_success());
        assert_eq!(SqlCommunicationArea::with_update_count(0).sqlstate, "02000");
        assert_eq!(SqlCommunicationArea::with_update_count(3).sqlstate, "00000");
        assert!(!SqlCommunicationArea::failure("42601", "syntax").is_success());
    }

    #[test]
    fn xml_roundtrip() {
        let c = SqlCommunicationArea {
            sqlstate: "23505".into(),
            update_count: 0,
            messages: vec!["duplicate key".into(), "second note".into()],
        };
        let text = dais_xml::to_string(&c.to_xml());
        let mut p = PullParser::new(&text).unwrap();
        p.next().unwrap(); // the SQLCommunicationArea start tag
        assert_eq!(SqlCommunicationArea::read_from(&mut p).unwrap(), c);
    }

    #[test]
    fn an_area_without_a_state_is_rejected() {
        let mut p = PullParser::new("<a><SQLUpdateCount>3</SQLUpdateCount></a>").unwrap();
        p.next().unwrap();
        assert!(SqlCommunicationArea::read_from(&mut p).is_err());
    }
}
