//! Protocol fuzz tests for `mce serve`: malformed JSON, oversized lines,
//! half-closed connections, binary garbage and slow clients must each
//! produce the documented typed error frame (or be tolerated) without ever
//! panicking or hanging the server.

use std::time::{Duration, Instant};

use mce_cli::serve::testkit::{load_request, TestServer};
use mce_cli::serve::ServeConfig;

fn error_frame<'a>(frames: &'a [String], code: &str) -> &'a String {
    assert_eq!(frames.len(), 1, "expected a single error frame: {frames:?}");
    let frame = &frames[0];
    assert!(
        frame.starts_with(r#"{"type":"error""#) && frame.contains(&format!(r#""code":"{code}""#)),
        "expected a '{code}' error frame, got {frame}"
    );
    frame
}

#[test]
fn malformed_json_gets_bad_request_and_connection_survives() {
    let server = TestServer::start(ServeConfig::default()).unwrap();
    let mut client = server.connect().unwrap();
    for bad in [
        "not json at all",
        "{",
        r#"{"op"}"#,
        r#"{"op":42}"#,
        r#"[{"op":"ping"}]"#,
        r#"{"op":"ping"} trailing"#,
        r#"{"op":"query"}"#,
        r#"{"op":"load","name":"g"}"#,
        // The wire `scheduler` field was removed; it is an unknown field now.
        r#"{"op":"query","graph":"g","scheduler":"dynamic"}"#,
        "\"just a string\"",
        "null",
        // Deeply nested input exercises the parser's depth cap instead of
        // the thread's stack.
        &format!("{}{}", "[".repeat(500), "]".repeat(500)),
    ] {
        let frames = client.roundtrip(bad).unwrap();
        error_frame(&frames, "bad-request");
    }
    // The same connection still serves real requests afterwards.
    assert_eq!(
        client.roundtrip(r#"{"op":"ping"}"#).unwrap(),
        vec![r#"{"type":"pong"}"#.to_string()]
    );
}

#[test]
fn invalid_utf8_gets_bad_request_and_connection_survives() {
    let server = TestServer::start(ServeConfig::default()).unwrap();
    let mut client = server.connect().unwrap();
    client.send_raw(b"\xff\xfe\x80garbage\n").unwrap();
    let frames = client.recv_response().unwrap();
    error_frame(&frames, "bad-request");
    assert_eq!(
        client.roundtrip(r#"{"op":"ping"}"#).unwrap(),
        vec![r#"{"type":"pong"}"#.to_string()]
    );
}

#[test]
fn oversized_line_gets_typed_error_then_close() {
    let server = TestServer::start(ServeConfig {
        max_line_bytes: 256,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = server.connect().unwrap();
    let huge = format!(r#"{{"op":"ping","pad":"{}"}}"#, "x".repeat(4096));
    client.send_line(&huge).unwrap();
    let frames = client.recv_response().unwrap();
    error_frame(&frames, "oversized-line");
    // The server closes the connection (no way to resynchronise mid-line)…
    assert_eq!(client.read_to_eof().unwrap(), Vec::<String>::new());
    // …but keeps serving new connections.
    let mut fresh = server.connect().unwrap();
    assert_eq!(
        fresh.roundtrip(r#"{"op":"ping"}"#).unwrap(),
        vec![r#"{"type":"pong"}"#.to_string()]
    );
}

#[test]
fn unknown_graph_names_get_typed_errors() {
    let server = TestServer::start(ServeConfig::default()).unwrap();
    let mut client = server.connect().unwrap();
    let frames = client
        .roundtrip(r#"{"op":"query","graph":"missing"}"#)
        .unwrap();
    error_frame(&frames, "unknown-graph");
    let frames = client
        .roundtrip(r#"{"op":"evict","name":"missing"}"#)
        .unwrap();
    error_frame(&frames, "unknown-graph");
    let frames = client
        .roundtrip(r#"{"op":"load","name":"g","path":"/no/such/file.txt"}"#)
        .unwrap();
    error_frame(&frames, "load-failed");
    let frames = client
        .roundtrip(&load_request("bad", "0 not-a-vertex\n"))
        .unwrap();
    error_frame(&frames, "load-failed");
}

#[test]
fn half_closed_mid_line_gets_bad_request_then_close() {
    let server = TestServer::start(ServeConfig::default()).unwrap();
    let mut client = server.connect().unwrap();
    // A request with no terminating newline, then EOF on the write side.
    client.send_raw(br#"{"op":"ping"#).unwrap();
    client.half_close().unwrap();
    let frames = client.recv_response().unwrap();
    let frame = error_frame(&frames, "bad-request");
    assert!(frame.contains("truncated request line"), "{frame}");
    assert_eq!(client.read_to_eof().unwrap(), Vec::<String>::new());
}

#[test]
fn half_close_at_line_boundary_is_a_clean_disconnect() {
    let server = TestServer::start(ServeConfig::default()).unwrap();
    let mut client = server.connect().unwrap();
    // A complete pipelined request followed by EOF still gets its response.
    client.send_line(r#"{"op":"ping"}"#).unwrap();
    client.half_close().unwrap();
    assert_eq!(
        client.read_to_eof().unwrap(),
        vec![r#"{"type":"pong"}"#.to_string()]
    );
}

#[test]
fn slow_client_never_blocks_accept() {
    let server = TestServer::start(ServeConfig::default()).unwrap();
    // A client that connects and never sends a byte…
    let _idle = server.connect().unwrap();
    // …must not delay service to later connections.
    let start = Instant::now();
    let mut active = server.connect().unwrap();
    assert_eq!(
        active.roundtrip(r#"{"op":"ping"}"#).unwrap(),
        vec![r#"{"type":"pong"}"#.to_string()]
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "second connection waited {:?} behind an idle client",
        start.elapsed()
    );
}

#[test]
fn quota_and_capacity_errors_are_typed() {
    let server = TestServer::start(ServeConfig {
        client_max_cliques: Some(1),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = server.connect().unwrap();
    // A diamond: two maximal cliques, so a 1-clique quota truncates.
    client
        .roundtrip(&load_request("dia", "0 1\n1 2\n0 2\n0 3\n2 3\n"))
        .unwrap();
    // First query burns the 1-clique quota (and is truncated by it)…
    let frames = client.roundtrip(r#"{"op":"query","graph":"dia"}"#).unwrap();
    let end = frames.last().unwrap();
    assert!(
        end.contains(r#""outcome":"truncated (clique limit)""#),
        "{end}"
    );
    // …and the second is rejected with a typed quota error.
    let frames = client.roundtrip(r#"{"op":"query","graph":"dia"}"#).unwrap();
    let frame = error_frame(&frames, "quota");
    assert!(frame.contains("clique quota exhausted"), "{frame}");
    // A fresh connection gets a fresh quota.
    let mut fresh = server.connect().unwrap();
    let frames = fresh.roundtrip(r#"{"op":"query","graph":"dia"}"#).unwrap();
    assert!(frames.last().unwrap().starts_with(r#"{"type":"end""#));
}

#[test]
fn metrics_report_garbage_and_sessions() {
    let server = TestServer::start(ServeConfig::default()).unwrap();
    let mut client = server.connect().unwrap();
    client.roundtrip("garbage").unwrap();
    client
        .roundtrip(&load_request("tri", "0 1\n1 2\n0 2\n"))
        .unwrap();
    client.roundtrip(r#"{"op":"query","graph":"tri"}"#).unwrap();
    let frames = client.roundtrip(r#"{"op":"metrics"}"#).unwrap();
    assert_eq!(frames.len(), 1);
    let frame = &frames[0];
    assert!(frame.starts_with(r#"{"type":"metrics""#), "{frame}");
    for needle in [
        r#""errors":1"#,
        r#""sessions_started":1"#,
        r#""sessions_completed":1"#,
        r#""cliques_emitted":1"#,
        r#""peak_sessions":1"#,
    ] {
        assert!(frame.contains(needle), "expected {needle} in {frame}");
    }
}
