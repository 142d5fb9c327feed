//! Property tests for the untrusted-input surfaces: the JSON codec and
//! the HTTP/1.1 request parser.
//!
//! Two contracts are pinned:
//!
//! * **Round trip** — any [`Json`] value the encoder can emit re-parses to
//!   an equal value, and re-encoding that parse is byte-identical (the
//!   determinism property the serving layer relies on).
//! * **No panic** — arbitrary, malformed, truncated, or oversized input
//!   makes the parsers return `Err`; it never panics or loops.

use proptest::prelude::*;

use bdc_exec::json::{self, Json};
use bdc_serve::http::{self, read_request};

/// An arbitrary JSON value, bounded in depth and width. Floats are drawn
/// from `f64::arbitrary`'s finite range; strings exercise the escaping
/// path with quotes, backslashes, control bytes, and non-ASCII text.
fn arb_json(depth: u32) -> BoxedStrategy<Json> {
    let scalar = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(Json::Int),
        any::<f64>().prop_map(Json::Num),
        arb_string().prop_map(Json::Str),
    ];
    if depth == 0 {
        return scalar.boxed();
    }
    prop_oneof![
        scalar,
        proptest::collection::vec(arb_json(depth - 1), 0..4).prop_map(Json::Arr),
        proptest::collection::vec((arb_string(), arb_json(depth - 1)), 0..4).prop_map(Json::Obj),
    ]
    .boxed()
}

fn arb_string() -> BoxedStrategy<String> {
    proptest::collection::vec(0u32..128, 0..8)
        .prop_map(|codes| {
            codes
                .into_iter()
                .map(|c| match c {
                    0..=9 => char::from_u32(c).unwrap(), // control bytes
                    10 => '"',
                    11 => '\\',
                    12 => '\n',
                    13 => 'µ',
                    14 => '漢',
                    c => char::from_u32(32 + (c % 90)).unwrap(),
                })
                .collect()
        })
        .boxed()
}

proptest! {
    #[test]
    fn json_round_trips_and_reencodes_identically(v in arb_json(3)) {
        let text = v.encode();
        let parsed = json::parse(&text).expect("encoder output must parse");
        // Re-encoding the parse is byte-identical — NaN/inf collapse to
        // null on the first encode, so compare at the text level.
        prop_assert_eq!(parsed.encode(), text);
    }

    #[test]
    fn json_parser_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&text); // Ok or Err, never a panic.
    }

    #[test]
    fn json_parser_never_panics_on_truncated_valid_text(v in arb_json(3), cut in 0usize..64) {
        let text = v.encode();
        let cut = cut.min(text.len());
        // Truncate at a char boundary (floor) to keep a &str.
        let mut end = cut;
        while end > 0 && !text.is_char_boundary(end) {
            end -= 1;
        }
        let _ = json::parse(&text[..end]);
    }

    #[test]
    fn http_parser_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut reader = bytes.as_slice();
        let _ = read_request(&mut reader); // Ok or Err, never a panic.
    }

    #[test]
    fn http_parser_accepts_what_the_client_sends(
        path_tail in proptest::collection::vec(97u8..=122, 0..12),
        n_params in 0usize..4,
    ) {
        let path: String = path_tail.iter().map(|&b| char::from(b)).collect();
        let query: String = (0..n_params)
            .map(|i| format!("k{i}=v{i}"))
            .collect::<Vec<_>>()
            .join("&");
        let target = if query.is_empty() {
            format!("/{path}")
        } else {
            format!("/{path}?{query}")
        };
        let raw = format!("GET {target} HTTP/1.1\r\nhost: bdc\r\n\r\n");
        let mut reader = raw.as_bytes();
        let req = read_request(&mut reader).expect("well-formed request");
        prop_assert_eq!(req.path, format!("/{path}"));
        prop_assert_eq!(http::parse_query(&req.query).len(), n_params);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn http_parser_rejects_oversized_inputs_without_panicking(extra in 0usize..4096) {
        // A request line far past MAX_REQUEST_LINE must produce an error
        // (and a 414-mapped one), not an allocation blowup or panic.
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000 + extra));
        let mut reader = long.as_bytes();
        prop_assert!(read_request(&mut reader).is_err());

        // An oversized declared body is refused before it is read.
        let big_body = "POST /v1/synth HTTP/1.1\r\ncontent-length: 9999999\r\n\r\n";
        let mut reader = big_body.as_bytes();
        prop_assert!(read_request(&mut reader).is_err());
    }
}
