//! The in-memory trace sink and its renderers.
//!
//! The text renderer is deterministic by construction: spans sort by
//! start-order sequence number, trace and span ids are replaced by
//! per-sink ordinals (`t0`, `s3`), and durations are elided — so the
//! same seeded run renders the same bytes every time, which is what the
//! propagation tests pin. The JSON renderer keeps the raw ids and
//! durations for machine consumers.

use crate::span::Span;

/// A batch of finished spans (already sorted by `seq` when produced by
/// the tracer).
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    pub spans: Vec<Span>,
}

impl TraceSink {
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// All spans with this inventory name, in start order.
    pub fn spans_named(&self, name: &str) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// The first span with this name, if any.
    pub fn first(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The distinct trace ids present, in ascending id order — under
    /// tail retention, the set of traces that survived.
    pub fn trace_ids(&self) -> std::collections::BTreeSet<u64> {
        self.spans.iter().map(|s| s.trace_id).collect()
    }

    /// Deterministic tree rendering (ids normalised, durations elided).
    pub fn render_text(&self) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| s.seq);

        // Trace ordinals in first-appearance order.
        let mut traces: Vec<u64> = Vec::new();
        for s in &spans {
            if !traces.contains(&s.trace_id) {
                traces.push(s.trace_id);
            }
        }
        let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();

        let mut out = String::new();
        for (t, trace_id) in traces.iter().enumerate() {
            out.push_str(&format!("trace t{t}\n"));
            let roots: Vec<&Span> = spans
                .iter()
                .filter(|s| {
                    s.trace_id == *trace_id
                        && s.parent_id.map(|p| !known.contains(&p)).unwrap_or(true)
                })
                .copied()
                .collect();
            for (i, root) in roots.iter().enumerate() {
                self.render_node(&spans, root, "", i + 1 == roots.len(), &mut out);
            }
        }
        out
    }

    fn render_node(
        &self,
        spans: &[&Span],
        node: &Span,
        prefix: &str,
        last: bool,
        out: &mut String,
    ) {
        let branch = if last { "└─ " } else { "├─ " };
        out.push_str(prefix);
        out.push_str(branch);
        out.push_str(node.name);
        for (k, v) in &node.attrs {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        let children: Vec<&Span> = spans
            .iter()
            .filter(|s| s.parent_id == Some(node.span_id) && s.trace_id == node.trace_id)
            .copied()
            .collect();
        let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
        for (i, child) in children.iter().enumerate() {
            self.render_node(spans, child, &child_prefix, i + 1 == children.len(), out);
        }
    }

    /// Raw JSON array, one object per span in start order.
    pub fn render_json(&self) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| s.seq);
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"seq\": {}, \"trace\": \"{:016x}\", \"span\": \"{:016x}\", ",
                s.seq, s.trace_id, s.span_id
            ));
            match s.parent_id {
                Some(p) => out.push_str(&format!("\"parent\": \"{p:016x}\", ")),
                None => out.push_str("\"parent\": null, "),
            }
            out.push_str(&format!(
                "\"name\": \"{}\", \"duration_ns\": {}, \"attrs\": {{",
                escape_json(s.name),
                s.duration_ns
            ));
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": \"{}\"", escape_json(k), escape_json(v)));
            }
            out.push_str("}}");
        }
        out.push_str("\n]\n");
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::span_names;
    use crate::span::Tracer;

    fn sample() -> TraceSink {
        let t = Tracer::new();
        t.enable(0x5EED);
        let mut root = t.span(span_names::CLIENT_CALL, None);
        root.attr("action", "urn:echo");
        {
            let call = t.span(span_names::BUS_CALL, root.ctx());
            let _request = t.child_span(span_names::BUS_REQUEST, call.ctx());
            let _dispatch = t.child_span(span_names::BUS_DISPATCH, call.ctx());
        }
        let mut retry = t.span(span_names::CLIENT_RETRY, root.ctx());
        retry.attr("attempt", 2);
        let _call2 = t.span(span_names::BUS_CALL, retry.ctx());
        drop(_call2);
        drop(retry);
        drop(root);
        t.take()
    }

    #[test]
    fn text_rendering_is_a_deterministic_tree() {
        let text = sample().render_text();
        assert_eq!(
            text,
            "trace t0\n\
             └─ client.call action=urn:echo\n\
             \u{20}  ├─ bus.call\n\
             \u{20}  │  ├─ bus.request\n\
             \u{20}  │  └─ bus.dispatch\n\
             \u{20}  └─ client.retry attempt=2\n\
             \u{20}     └─ bus.call\n"
        );
        // Two identically-seeded runs render identical bytes.
        assert_eq!(text, sample().render_text());
    }

    #[test]
    fn json_rendering_carries_raw_ids_and_attrs() {
        let json = sample().render_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"name\": \"client.call\""));
        assert!(json.contains("\"attrs\": {\"action\": \"urn:echo\"}"));
        assert!(json.contains("\"parent\": null"));
        assert_eq!(json.matches("\"seq\"").count(), 6);
    }

    #[test]
    fn orphans_render_as_trace_roots() {
        let t = Tracer::new();
        t.enable(1);
        let ghost_parent = crate::span::TraceContext { trace_id: 99, span_id: 12345 };
        let orphan = t.span(span_names::BUS_DISPATCH, Some(ghost_parent));
        drop(orphan);
        let text = t.take().render_text();
        assert!(text.contains("bus.dispatch"), "{text}");
    }
}
