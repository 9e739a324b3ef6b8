//! Property tests: writer→parser round trips for arbitrary documents.

use gozer_xml::{parse, Element, Node};
use proptest::prelude::*;

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_-]{0,8}".prop_map(|s| s)
}

/// Text content including characters that need escaping.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z').prop_map(|c| c.to_string()),
            Just("<".to_string()),
            Just(">".to_string()),
            Just("&".to_string()),
            Just("\"".to_string()),
            Just("'".to_string()),
            Just(" ".to_string()),
            Just("é".to_string()),
        ],
        1..12,
    )
    .prop_map(|parts| parts.concat())
    // Pure-whitespace text is dropped by the parser by design.
    .prop_filter("needs a visible char", |s| !s.trim().is_empty())
}

fn element_strategy() -> impl Strategy<Value = Element> {
    let leaf = (
        name_strategy(),
        proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
        proptest::option::of(text_strategy()),
    )
        .prop_map(|(name, attrs, text)| {
            let mut e = Element::new(&name);
            // Attribute names must be unique for a faithful round trip.
            let mut seen = std::collections::HashSet::new();
            for (k, v) in attrs {
                if seen.insert(k.clone()) {
                    e = e.attr(&k, &v);
                }
            }
            if let Some(t) = text {
                e = e.text(&t);
            }
            e
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            proptest::collection::vec(inner, 0..4),
            proptest::option::of(text_strategy()),
        )
            .prop_map(|(name, children, text)| {
                let mut e = Element::new(&name);
                if let Some(t) = text {
                    e = e.text(&t);
                }
                for c in children {
                    e = e.child(c);
                }
                e
            })
    })
}

/// Adjacent text nodes merge on re-parse; normalize before comparing.
fn normalize(e: &Element) -> Element {
    let mut out = Element::new("x");
    out.name = e.name.clone();
    out.attrs = e.attrs.clone();
    let mut pending_text = String::new();
    for n in &e.children {
        match n {
            Node::Text(t) => pending_text.push_str(t),
            Node::Element(c) => {
                if !pending_text.trim().is_empty() {
                    out.children
                        .push(Node::Text(std::mem::take(&mut pending_text)));
                } else {
                    pending_text.clear();
                }
                out.children.push(Node::Element(normalize(c)));
            }
        }
    }
    if !pending_text.trim().is_empty() {
        out.children.push(Node::Text(pending_text));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn write_parse_roundtrip(e in element_strategy()) {
        let xml = e.to_xml();
        let parsed = parse(&xml)
            .unwrap_or_else(|err| panic!("unparseable output {xml:?}: {err}"));
        prop_assert_eq!(normalize(&parsed), normalize(&e), "xml: {}", xml);
    }

    #[test]
    fn parser_never_panics_on_noise(s in "[ -~]{0,200}") {
        let _ = parse(&s); // must return Result, not panic
    }

    #[test]
    fn parser_never_panics_on_tag_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("<a>".to_string()),
                Just("</a>".to_string()),
                Just("<".to_string()),
                Just(">".to_string()),
                Just("&amp;".to_string()),
                Just("&#xZZ;".to_string()),
                Just("<!--".to_string()),
                Just("-->".to_string()),
                Just("x".to_string()),
                Just("\"".to_string()),
            ],
            0..30,
        )
    ) {
        let _ = parse(&parts.concat());
    }
}
