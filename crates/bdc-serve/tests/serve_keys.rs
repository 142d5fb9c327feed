//! Pins the serving layer's response-cache keys.
//!
//! The router picks a request's owning shard from `key_slot(cache_key)`,
//! and each shard's response cache is keyed by the same value, so a change
//! to the key bytes silently moves reads to other shards and empties every
//! warm cache. This test folds the keys of parsed GET and POST requests of
//! every computational endpoint into one digest; a refactor of the request
//! types must leave it unchanged.

use bdc_serve::api::{self, Route};
use bdc_serve::http;

/// The digest of every key below, in order.
const PINNED: u64 = 0xde5d_28c6_163b_a0d9;

/// GET targets: defaults, every parameter spelled out, `splits` as a
/// comma list, `budget=full`, and an experiment at both budgets.
const GETS: [&str; 14] = [
    "/v1/library",
    "/v1/library?process=silicon",
    "/v1/synth",
    "/v1/synth?process=silicon&fe_width=2&be_pipes=4&splits=fetch,issue",
    "/v1/depth",
    "/v1/depth?process=silicon&stages=12",
    "/v1/width",
    "/v1/width?process=silicon&fe=3&be=5",
    "/v1/ipc",
    "/v1/ipc?workload=gzip&budget=full",
    "/v1/ipc?workload=mcf&outer=5&instructions=4000&fe_width=2&splits=issue",
    "/v1/experiment?id=fig12",
    "/v1/experiment?id=fig12&budget=standard",
    "/v1/experiment?id=table-library&budget=quick",
];

/// POST bodies: the same kinds as JSON objects, `splits` as an array.
const POSTS: [(&str, &str); 7] = [
    ("/v1/library", r#"{"process":"silicon"}"#),
    (
        "/v1/synth",
        r#"{"process":"silicon","fe_width":2,"be_pipes":4,"splits":["fetch","issue"]}"#,
    ),
    ("/v1/depth", r#"{"process":"organic","stages":15}"#),
    ("/v1/width", r#"{"fe":2,"be":4}"#),
    ("/v1/ipc", r#"{"workload":"gzip","budget":"full"}"#),
    (
        "/v1/ipc",
        r#"{"workload":"dhrystone","outer":7,"splits":[]}"#,
    ),
    ("/v1/experiment", r#"{"id":"fig12","budget":"standard"}"#),
];

/// Parses raw request bytes and returns the routed call's cache key.
fn key(raw: &str) -> u64 {
    let request = http::read_request(&mut raw.as_bytes()).expect("well-formed request");
    match api::route(&request).1 {
        Route::Call(query) => api::cache_key(&query),
        _ => panic!("not a computational call: {raw:?}"),
    }
}

fn keys() -> Vec<u64> {
    let gets = GETS
        .iter()
        .map(|target| key(&format!("GET {target} HTTP/1.1\r\n\r\n")));
    let posts = POSTS.iter().map(|(path, body)| {
        key(&format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ))
    });
    gets.chain(posts).collect()
}

#[test]
fn serve_cache_keys_are_pinned() {
    let keys = keys();
    let hex: Vec<String> = keys.iter().map(|k| format!("{k:016x}")).collect();
    let parts: Vec<&str> = hex.iter().map(String::as_str).collect();
    let digest = bdc_exec::fnv1a(&parts);
    assert_eq!(
        digest, PINNED,
        "serve cache keys changed (digest {digest:#018x}): {hex:?}"
    );
}
