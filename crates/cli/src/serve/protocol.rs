//! The serve wire protocol: newline-delimited JSON requests and response
//! frames.
//!
//! One request per line, one or more response frames per request, every
//! frame a single JSON object on its own line with `"type"` as its first
//! key. Query responses are `begin` → zero or more clique lines (exactly the
//! [`CliqueLineFormat::Ndjson`](hbbmc::CliqueLineFormat) rendering the CLI's
//! `--output ndjson` uses) → `end`, so a budget- or cancel-truncated
//! response's clique bytes are an exact prefix of the complete response's.
//! Every failure maps to a typed `error` frame carrying an [`ErrorCode`];
//! parsing is strict (unknown keys and ops are rejected) in the same spirit
//! as the CLI argument parser.

use hbbmc::{QuerySpec, VertexId};

use super::json::{self, Value};

/// Machine-readable error categories of the `error` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON, an unknown op, or invalid/missing fields.
    BadRequest,
    /// A request line exceeded the server's line-length cap; the connection
    /// is closed (there is no way to resynchronise mid-line).
    Oversized,
    /// The named graph is not in the registry.
    UnknownGraph,
    /// Reading or parsing the graph source failed.
    LoadFailed,
    /// The server is at `max_sessions` and the request did not opt into
    /// queueing.
    Capacity,
    /// The connection exhausted its per-client step or clique quota.
    Quota,
    /// The server is shutting down and admits no new sessions.
    ShuttingDown,
    /// A contained fault (worker panic) inside the session or handler; the
    /// server stays up and the connection may continue.
    Internal,
}

impl ErrorCode {
    /// The wire spelling of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Oversized => "oversized-line",
            ErrorCode::UnknownGraph => "unknown-graph",
            ErrorCode::LoadFailed => "load-failed",
            ErrorCode::Capacity => "capacity",
            ErrorCode::Quota => "quota",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal-error",
        }
    }
}

/// A parsed `query` request.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryRequest {
    /// Registry name of the graph to query.
    pub graph: String,
    /// What to produce (`mode` / `k` / `anchor` fields).
    pub spec: QuerySpec,
    /// `limit`: stop after this many cliques of the deterministic stream.
    pub limit: Option<u64>,
    /// `max_steps`: abort after this many branch steps.
    pub max_steps: Option<u64>,
    /// `deadline_ms`: abort after this many milliseconds of wall-clock time
    /// (clamped to the server's `--default-deadline-ms` when both are set).
    pub deadline_ms: Option<u64>,
    /// `threads`: worker threads (clamped to the server's `max_threads`).
    pub threads: Option<usize>,
    /// `preset`: solver preset override (e.g. `"HBBMC++"`).
    pub preset: Option<String>,
    /// `queue`: wait for a session slot instead of failing with `capacity`.
    pub queue: bool,
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with a `pong` frame.
    Ping,
    /// Load a graph into the registry from a server-side `path` or inline
    /// `content` (exactly one of the two).
    Load {
        /// Registry name to store the graph under (replaces any previous
        /// graph of the same name, under a fresh generation).
        name: String,
        /// Server-side file to read.
        path: Option<String>,
        /// Inline graph text.
        content: Option<String>,
        /// `edge-list` / `dimacs` / `mcg` / `auto` (default `auto`).
        /// Binary `.mcg` graphs must come via `path` — inline `content` is
        /// JSON text.
        format: Option<String>,
    },
    /// Remove a graph from the registry (in-flight sessions keep their
    /// pinned copy).
    Evict {
        /// Registry name to remove.
        name: String,
    },
    /// List the registered graphs.
    List,
    /// Snapshot the server's aggregate counters.
    Metrics,
    /// Run one budgeted query session.
    Query(QueryRequest),
    /// Cancel the connection's in-flight query (optionally by query id).
    Cancel {
        /// The per-connection query id to cancel; without it, whatever query
        /// is currently streaming on this connection is cancelled.
        id: Option<u64>,
    },
    /// Gracefully shut the whole server down.
    Shutdown,
}

fn check_keys(v: &Value, allowed: &[&str]) -> Result<(), String> {
    for key in v.keys() {
        if !allowed.contains(&key) {
            return Err(format!("unknown field '{key}'"));
        }
    }
    Ok(())
}

fn required_str(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("'{key}' must be a string"))
}

fn optional_str(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(s) => s
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("'{key}' must be a string")),
    }
}

fn optional_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("'{key}' must be a non-negative integer")),
    }
}

fn parse_spec(v: &Value) -> Result<QuerySpec, String> {
    let mode = match v.get("mode") {
        None => "enumerate",
        Some(m) => m.as_str().ok_or("'mode' must be a string")?,
    };
    let k = optional_u64(v, "k")?;
    let anchor = v.get("anchor");
    if mode != "anchored" && anchor.is_some() {
        return Err("'anchor' only applies to mode 'anchored'".to_string());
    }
    if !matches!(mode, "top" | "kclique") && k.is_some() {
        return Err("'k' only applies to modes 'top' and 'kclique'".to_string());
    }
    match mode {
        "enumerate" => Ok(QuerySpec::Enumerate),
        "count" => Ok(QuerySpec::Count),
        "maximum" => Ok(QuerySpec::MaximumClique),
        "top" => {
            let k = k.ok_or("mode 'top' requires 'k'")? as usize;
            Ok(QuerySpec::TopKBySize { k })
        }
        "kclique" => {
            let k = k.ok_or("mode 'kclique' requires 'k'")?;
            if k == 0 {
                return Err("mode 'kclique' requires k >= 1".to_string());
            }
            Ok(QuerySpec::KClique { k: k as usize })
        }
        "anchored" => {
            let items = anchor
                .and_then(Value::as_array)
                .ok_or("mode 'anchored' requires 'anchor' (an array of vertex ids)")?;
            let mut vertices: Vec<VertexId> = Vec::with_capacity(items.len());
            for item in items {
                let id = item
                    .as_u64()
                    .filter(|&id| id <= u64::from(VertexId::MAX))
                    .ok_or("'anchor' entries must be vertex ids")?;
                vertices.push(id as VertexId);
            }
            if vertices.is_empty() {
                return Err("'anchor' must not be empty".to_string());
            }
            Ok(QuerySpec::Anchored { vertices })
        }
        other => Err(format!(
            "unknown mode '{other}' (expected enumerate, count, top, anchored, maximum or kclique)"
        )),
    }
}

/// Parses one request line. The error string becomes the `message` of a
/// `bad-request` error frame.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line)?;
    if !matches!(v, Value::Obj(_)) {
        return Err("request must be a JSON object".to_string());
    }
    let op = required_str(&v, "op")?;
    match op.as_str() {
        "ping" => {
            check_keys(&v, &["op"])?;
            Ok(Request::Ping)
        }
        "list" => {
            check_keys(&v, &["op"])?;
            Ok(Request::List)
        }
        "metrics" => {
            check_keys(&v, &["op"])?;
            Ok(Request::Metrics)
        }
        "shutdown" => {
            check_keys(&v, &["op"])?;
            Ok(Request::Shutdown)
        }
        "cancel" => {
            check_keys(&v, &["op", "id"])?;
            Ok(Request::Cancel {
                id: optional_u64(&v, "id")?,
            })
        }
        "evict" => {
            check_keys(&v, &["op", "name"])?;
            Ok(Request::Evict {
                name: required_str(&v, "name")?,
            })
        }
        "load" => {
            check_keys(&v, &["op", "name", "path", "content", "format"])?;
            let name = required_str(&v, "name")?;
            if name.is_empty() {
                return Err("'name' must not be empty".to_string());
            }
            let path = optional_str(&v, "path")?;
            let content = optional_str(&v, "content")?;
            match (&path, &content) {
                (Some(_), Some(_)) => {
                    return Err("'path' and 'content' are mutually exclusive".to_string())
                }
                (None, None) => return Err("'load' requires 'path' or 'content'".to_string()),
                _ => {}
            }
            Ok(Request::Load {
                name,
                path,
                content,
                format: optional_str(&v, "format")?,
            })
        }
        "query" => {
            check_keys(
                &v,
                &[
                    "op",
                    "graph",
                    "mode",
                    "k",
                    "anchor",
                    "limit",
                    "max_steps",
                    "deadline_ms",
                    "threads",
                    "preset",
                    "queue",
                ],
            )?;
            let graph = required_str(&v, "graph")?;
            let spec = parse_spec(&v)?;
            let threads = match optional_u64(&v, "threads")? {
                None => None,
                Some(0) => return Err("'threads' must be >= 1".to_string()),
                Some(t) => Some(t as usize),
            };
            let queue = match v.get("queue") {
                None => false,
                Some(q) => q.as_bool().ok_or("'queue' must be a boolean")?,
            };
            Ok(Request::Query(QueryRequest {
                graph,
                spec,
                limit: optional_u64(&v, "limit")?,
                max_steps: optional_u64(&v, "max_steps")?,
                deadline_ms: optional_u64(&v, "deadline_ms")?,
                threads,
                preset: optional_str(&v, "preset")?,
                queue,
            }))
        }
        other => Err(format!("unknown op '{other}'")),
    }
}

// ---------------------------------------------------------------------------
// Response frames. Each helper returns one line WITHOUT the trailing newline;
// the writer appends it. Key order is fixed so replays are byte-stable.
// ---------------------------------------------------------------------------

/// `{"type":"pong"}`.
pub fn pong_frame() -> String {
    r#"{"type":"pong"}"#.to_string()
}

/// `{"type":"shutdown"}` — acknowledged before the server stops accepting.
pub fn shutdown_frame() -> String {
    r#"{"type":"shutdown"}"#.to_string()
}

/// The typed error frame.
pub fn error_frame(code: ErrorCode, message: &str) -> String {
    Value::obj(vec![
        ("type", Value::Str("error".into())),
        ("code", Value::Str(code.as_str().into())),
        ("message", Value::Str(message.into())),
    ])
    .render()
}

/// Acknowledges a completed `load`.
pub fn loaded_frame(name: &str, n: usize, m: usize, generation: u64) -> String {
    Value::obj(vec![
        ("type", Value::Str("loaded".into())),
        ("name", Value::Str(name.into())),
        ("n", Value::Num(n as f64)),
        ("m", Value::Num(m as f64)),
        ("generation", Value::Num(generation as f64)),
    ])
    .render()
}

/// Acknowledges a completed `evict`.
pub fn evicted_frame(name: &str) -> String {
    Value::obj(vec![
        ("type", Value::Str("evicted".into())),
        ("name", Value::Str(name.into())),
    ])
    .render()
}

/// The `list` response: one entry per registered graph, sorted by name.
pub fn graphs_frame(entries: &[(String, usize, usize, u64)]) -> String {
    let items = entries
        .iter()
        .map(|(name, n, m, generation)| {
            Value::obj(vec![
                ("name", Value::Str(name.clone())),
                ("n", Value::Num(*n as f64)),
                ("m", Value::Num(*m as f64)),
                ("generation", Value::Num(*generation as f64)),
            ])
        })
        .collect();
    Value::obj(vec![
        ("type", Value::Str("graphs".into())),
        ("graphs", Value::Arr(items)),
    ])
    .render()
}

/// The `metrics` response: the counter snapshot in a fixed key order.
pub fn metrics_frame(counters: &[(&'static str, u64)]) -> String {
    let mut pairs: Vec<(&str, Value)> = vec![("type", Value::Str("metrics".into()))];
    for (key, value) in counters {
        pairs.push((key, Value::Num(*value as f64)));
    }
    Value::obj(pairs).render()
}

/// Opens a query response stream.
pub fn begin_frame(id: u64, graph: &str, generation: u64) -> String {
    Value::obj(vec![
        ("type", Value::Str("begin".into())),
        ("id", Value::Num(id as f64)),
        ("graph", Value::Str(graph.into())),
        ("generation", Value::Num(generation as f64)),
    ])
    .render()
}

/// Closes a query response stream.
///
/// Only fields that are deterministic at any thread count appear here (the
/// golden wire corpus replays responses byte-for-byte):
/// `outcome`, the emitted clique count and max size, whether the budget
/// terminated work (a boolean — the exact abandoned-frame count is
/// scheduling-dependent and lives in the `metrics` aggregates), and the
/// `count` payload of counting queries. `degraded` is emitted only when
/// `true` (a session admitted under overload with a pre-clamped budget), so
/// un-degraded responses stay byte-identical to the pre-degradation wire
/// format.
pub fn end_frame(
    id: u64,
    outcome: &str,
    cliques: u64,
    max_size: usize,
    budget_terminated: bool,
    degraded: bool,
    count: Option<u64>,
) -> String {
    let mut pairs = vec![
        ("type", Value::Str("end".into())),
        ("id", Value::Num(id as f64)),
        ("outcome", Value::Str(outcome.into())),
        ("cliques", Value::Num(cliques as f64)),
        ("max_size", Value::Num(max_size as f64)),
        ("budget_terminated", Value::Bool(budget_terminated)),
    ];
    if degraded {
        pairs.push(("degraded", Value::Bool(true)));
    }
    if let Some(count) = count {
        pairs.push(("count", Value::Num(count as f64)));
    }
    Value::obj(pairs).render()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"list"}"#).unwrap(), Request::List);
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"op":"cancel","id":3}"#).unwrap(),
            Request::Cancel { id: Some(3) }
        );
        assert_eq!(
            parse_request(r#"{"op":"evict","name":"g"}"#).unwrap(),
            Request::Evict { name: "g".into() }
        );
        let load = parse_request(r#"{"op":"load","name":"g","content":"0 1\n"}"#).unwrap();
        assert!(matches!(load, Request::Load { ref name, .. } if name == "g"));
    }

    #[test]
    fn parses_query_modes() {
        let q = parse_request(r#"{"op":"query","graph":"g"}"#).unwrap();
        let Request::Query(q) = q else { panic!() };
        assert_eq!(q.spec, QuerySpec::Enumerate);
        assert!(!q.queue);

        let q = parse_request(
            r#"{"op":"query","graph":"g","mode":"anchored","anchor":[3,1],"limit":5,"queue":true}"#,
        )
        .unwrap();
        let Request::Query(q) = q else { panic!() };
        assert_eq!(
            q.spec,
            QuerySpec::Anchored {
                vertices: vec![3, 1]
            }
        );
        assert_eq!(q.limit, Some(5));
        assert!(q.queue);

        let q = parse_request(r#"{"op":"query","graph":"g","mode":"top","k":4}"#).unwrap();
        let Request::Query(q) = q else { panic!() };
        assert_eq!(q.spec, QuerySpec::TopKBySize { k: 4 });

        let q = parse_request(r#"{"op":"query","graph":"g","mode":"kclique","k":3,"threads":2}"#)
            .unwrap();
        let Request::Query(q) = q else { panic!() };
        assert_eq!(q.spec, QuerySpec::KClique { k: 3 });
        assert_eq!(q.threads, Some(2));
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"op":"warp"}"#,
            r#"{"op":"query"}"#,
            r#"{"op":"query","graph":"g","mode":"top"}"#,
            r#"{"op":"query","graph":"g","mode":"kclique","k":0}"#,
            r#"{"op":"query","graph":"g","mode":"anchored"}"#,
            r#"{"op":"query","graph":"g","anchor":[1]}"#,
            r#"{"op":"query","graph":"g","k":3}"#,
            r#"{"op":"query","graph":"g","threads":0}"#,
            r#"{"op":"query","graph":"g","bogus":1}"#,
            r#"{"op":"load","name":"g"}"#,
            r#"{"op":"load","name":"g","path":"a","content":"b"}"#,
            r#"{"op":"load","name":"","content":"0 1"}"#,
            r#"{"op":"ping","extra":true}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn scheduler_field_is_an_unknown_field() {
        // The no-op wire field is gone; a query carrying it is a bad request
        // naming the field, whatever its value.
        for name in ["dynamic", "static", "splitting", "fifo"] {
            let line = format!(r#"{{"op":"query","graph":"g","scheduler":"{name}"}}"#);
            let err = parse_request(&line).unwrap_err();
            assert_eq!(err, "unknown field 'scheduler'");
            assert_eq!(
                error_frame(ErrorCode::BadRequest, &err),
                r#"{"type":"error","code":"bad-request","message":"unknown field 'scheduler'"}"#
            );
        }
    }

    #[test]
    fn frames_are_single_line_json() {
        for frame in [
            pong_frame(),
            shutdown_frame(),
            error_frame(ErrorCode::UnknownGraph, "no graph 'g'"),
            loaded_frame("g", 60, 343, 1),
            evicted_frame("g"),
            graphs_frame(&[("g".into(), 60, 343, 1)]),
            metrics_frame(&[("sessions_started", 4)]),
            begin_frame(1, "g", 1),
            end_frame(1, "complete", 114, 8, false, false, Some(114)),
            end_frame(1, "truncated (deadline exceeded)", 3, 4, true, true, None),
        ] {
            assert!(!frame.contains('\n'), "{frame}");
            let v = json::parse(&frame).unwrap();
            assert!(v.get("type").is_some(), "{frame}");
            assert!(frame.starts_with(r#"{"type":""#), "{frame}");
        }
    }

    #[test]
    fn error_codes_have_stable_spellings() {
        assert_eq!(ErrorCode::BadRequest.as_str(), "bad-request");
        assert_eq!(ErrorCode::Oversized.as_str(), "oversized-line");
        assert_eq!(ErrorCode::UnknownGraph.as_str(), "unknown-graph");
        assert_eq!(ErrorCode::LoadFailed.as_str(), "load-failed");
        assert_eq!(ErrorCode::Capacity.as_str(), "capacity");
        assert_eq!(ErrorCode::Quota.as_str(), "quota");
        assert_eq!(ErrorCode::ShuttingDown.as_str(), "shutting-down");
        assert_eq!(ErrorCode::Internal.as_str(), "internal-error");
    }

    #[test]
    fn deadline_ms_parses_and_unknown_fields_still_reject() {
        let q = parse_request(r#"{"op":"query","graph":"g","deadline_ms":250}"#).unwrap();
        let Request::Query(q) = q else { panic!() };
        assert_eq!(q.deadline_ms, Some(250));
        assert!(parse_request(r#"{"op":"query","graph":"g","deadline_ms":"soon"}"#).is_err());
    }

    #[test]
    fn degraded_flag_is_emitted_only_when_set() {
        let plain = end_frame(7, "complete", 2, 3, false, false, None);
        assert!(!plain.contains("degraded"), "{plain}");
        let degraded = end_frame(7, "truncated (step limit)", 2, 3, true, true, None);
        assert!(degraded.contains(r#""degraded":true"#), "{degraded}");
    }
}
