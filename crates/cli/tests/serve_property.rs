//! Property tests for the serve layer: the byte-prefix determinism contract
//! under random queries and budgets, well-formed responses under mid-stream
//! cancellation, and registry eviction racing in-flight sessions.

use std::collections::BTreeSet;

use proptest::prelude::*;

use mce_cli::serve::testkit::{load_request, with_scheduler, TestClient, TestServer};
use mce_cli::serve::ServeConfig;

/// Renders a deduplicated edge list (self-loops dropped) as edge-list text.
fn edge_text(pairs: &[(u32, u32)]) -> String {
    let edges: BTreeSet<(u32, u32)> = pairs
        .iter()
        .filter(|(u, v)| u != v)
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    let mut text = String::new();
    for (u, v) in edges {
        text.push_str(&format!("{u} {v}\n"));
    }
    text
}

/// The complete Moon–Moser-style multipartite graph K_{3,3,...}: every
/// vertex class has 3 members, classes fully interconnected — 3^k maximal
/// cliques, guaranteed branching work.
fn moon_moser_text(classes: u32) -> String {
    let n = 3 * classes;
    let mut text = String::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if u / 3 != v / 3 {
                text.push_str(&format!("{u} {v}\n"));
            }
        }
    }
    text
}

fn scheduler(index: usize) -> &'static str {
    ["dynamic", "static", "splitting"][index % 3]
}

/// Splits a response into (begin?, clique lines, terminal frame), panicking
/// on any malformed shape.
fn split_response(frames: &[String]) -> (Option<&String>, Vec<&String>, &String) {
    assert!(!frames.is_empty(), "empty response");
    let terminal = frames.last().expect("non-empty");
    assert!(
        terminal.starts_with(r#"{"type":"end""#) || terminal.starts_with(r#"{"type":"error""#),
        "terminal frame: {terminal}"
    );
    let mut begin = None;
    let mut cliques = Vec::new();
    for frame in &frames[..frames.len() - 1] {
        if frame.starts_with(r#"{"type":"begin""#) {
            assert!(begin.is_none(), "duplicate begin in {frames:?}");
            assert!(cliques.is_empty(), "begin after cliques in {frames:?}");
            begin = Some(frame);
        } else {
            assert!(frame.starts_with(r#"{"size":"#), "unexpected frame {frame}");
            cliques.push(frame);
        }
    }
    if terminal.starts_with(r#"{"type":"end""#) {
        assert!(begin.is_some(), "end without begin in {frames:?}");
    }
    (begin, cliques, terminal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A clique-limited response's clique bytes are an exact prefix of the
    /// unbudgeted response's, at every server thread count and scheduler.
    #[test]
    fn truncated_response_is_byte_prefix_of_full_stream(
        pairs in proptest::collection::vec((0u32..20, 0u32..20), 1..120),
        limit in 1u64..12,
        threads in 1usize..4,
        sched in 0usize..3,
        anchored in any::<bool>(),
    ) {
        let server = TestServer::start(ServeConfig {
            default_threads: threads,
            ..ServeConfig::default()
        }).unwrap();
        let mut client = server.connect().unwrap();
        let mut text = edge_text(&pairs);
        if text.is_empty() {
            // All generated pairs were self-loops; fall back to one edge.
            text = "0 1\n".to_string();
        }
        client.roundtrip(&load_request("g", &text)).unwrap();
        let (mode, anchor) = if anchored {
            (r#","mode":"anchored","anchor":[0]"#, true)
        } else {
            ("", false)
        };
        let full = client
            .roundtrip(&format!(r#"{{"op":"query","graph":"g"{mode}}}"#))
            .unwrap();
        let truncated = client
            .roundtrip(&with_scheduler(
                &format!(r#"{{"op":"query","graph":"g","limit":{limit}{mode}}}"#),
                scheduler(sched),
            ))
            .unwrap();
        // Anchored queries on a graph without vertex 0 are admission errors
        // on both sides; nothing to compare beyond equality.
        if anchor && full.len() == 1 && full[0].starts_with(r#"{"type":"error""#) {
            prop_assert_eq!(&full, &truncated);
            continue;
        }
        let (_, full_cliques, full_end) = split_response(&full);
        let (_, cut_cliques, cut_end) = split_response(&truncated);
        prop_assert!(full_end.contains(r#""outcome":"complete""#), "{}", full_end);
        prop_assert_eq!(
            &cut_cliques,
            &full_cliques[..cut_cliques.len()],
            "truncated stream is not a prefix"
        );
        if (full_cliques.len() as u64) > limit {
            prop_assert_eq!(cut_cliques.len() as u64, limit);
            prop_assert!(
                cut_end.contains(r#""outcome":"truncated (clique limit)""#),
                "{}", cut_end
            );
            prop_assert!(cut_end.contains(r#""budget_terminated":true"#), "{}", cut_end);
        } else {
            prop_assert_eq!(cut_cliques.len(), full_cliques.len());
            prop_assert!(cut_end.contains(r#""outcome":"complete""#), "{}", cut_end);
        }
    }

    /// Cancelling mid-stream still produces a well-formed response whose
    /// terminal frame is an `end`, and the connection stays usable.
    #[test]
    fn cancellation_yields_well_formed_terminal_frames(
        classes in 3u32..6,
        threads in 1usize..4,
        sched in 0usize..3,
        cancel_id in any::<bool>(),
    ) {
        let server = TestServer::start(ServeConfig {
            default_threads: threads,
            ..ServeConfig::default()
        }).unwrap();
        let mut client = server.connect().unwrap();
        client
            .roundtrip(&load_request("mm", &moon_moser_text(classes)))
            .unwrap();
        // Pipeline the query and the cancel: the reader thread services the
        // cancel while the session streams.
        client
            .send_line(&with_scheduler(r#"{"op":"query","graph":"mm"}"#, scheduler(sched)))
            .unwrap();
        if cancel_id {
            client.send_line(r#"{"op":"cancel","id":1}"#).unwrap();
        } else {
            client.send_line(r#"{"op":"cancel"}"#).unwrap();
        }
        let frames = client.recv_response().unwrap();
        let (begin, cliques, end) = split_response(&frames);
        prop_assert!(begin.is_some());
        prop_assert!(end.starts_with(r#"{"type":"end""#), "{}", end);
        prop_assert!(
            end.contains(r#""outcome":"complete""#)
                || end.contains(r#""outcome":"truncated (cancelled)""#),
            "{}", end
        );
        // Whatever was streamed before the cancel landed is a prefix of the
        // deterministic stream: re-running completely must reproduce it.
        let full = client.roundtrip(r#"{"op":"query","graph":"mm"}"#).unwrap();
        let (_, full_cliques, full_end) = split_response(&full);
        prop_assert!(full_end.contains(r#""outcome":"complete""#), "{}", full_end);
        prop_assert_eq!(full_cliques.len() as u64, 3u64.pow(classes));
        prop_assert_eq!(&cliques, &full_cliques[..cliques.len()]);
        // The connection survived the cancel.
        prop_assert_eq!(
            client.roundtrip(r#"{"op":"ping"}"#).unwrap(),
            vec![r#"{"type":"pong"}"#.to_string()]
        );
    }

    /// Evicting and reloading a graph while other clients query it never
    /// panics the server or corrupts another session's response: every
    /// response stays well-formed and complete queries keep their clique
    /// count (in-flight sessions pin their generation).
    #[test]
    fn evict_during_queries_never_corrupts_sessions(
        classes in 3u32..5,
        queries_per_client in 1usize..4,
        sched in 0usize..3,
    ) {
        let server = TestServer::start(ServeConfig {
            default_threads: 2,
            max_sessions: 8,
            ..ServeConfig::default()
        }).unwrap();
        let text = moon_moser_text(classes);
        let expected = 3u64.pow(classes);
        let mut admin = server.connect().unwrap();
        admin.roundtrip(&load_request("g", &text)).unwrap();

        let addr = server.addr();
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let text = text.clone();
                std::thread::spawn(move || -> std::io::Result<Vec<Vec<String>>> {
                    let mut client = TestClient::connect(addr)?;
                    let mut responses = Vec::new();
                    for i in 0..queries_per_client {
                        // Interleave our own reloads with queries so evicts
                        // from the admin connection race both.
                        if i % 2 == 1 {
                            client.roundtrip(&load_request("g", &text))?;
                        }
                        responses.push(client.roundtrip(&with_scheduler(
                            r#"{"op":"query","graph":"g"}"#,
                            scheduler(sched),
                        ))?);
                    }
                    Ok(responses)
                })
            })
            .collect();
        for _ in 0..4 {
            admin.roundtrip(r#"{"op":"evict","name":"g"}"#).unwrap();
            admin.roundtrip(&load_request("g", &text)).unwrap();
        }
        for worker in workers {
            for frames in worker.join().expect("worker panicked").expect("worker io") {
                let (_, cliques, end) = split_response(&frames);
                if end.starts_with(r#"{"type":"error""#) {
                    // The query raced an evict window; that is the typed,
                    // documented failure mode.
                    prop_assert!(end.contains(r#""code":"unknown-graph""#), "{}", end);
                    prop_assert!(cliques.is_empty());
                } else {
                    prop_assert!(end.contains(r#""outcome":"complete""#), "{}", end);
                    prop_assert_eq!(cliques.len() as u64, expected);
                }
            }
        }
        // The server survived the whole exercise.
        prop_assert_eq!(
            admin.roundtrip(r#"{"op":"ping"}"#).unwrap(),
            vec![r#"{"type":"pong"}"#.to_string()]
        );
    }

    /// Deadline-expired sessions racing evict/reload: every response stays
    /// well-formed, truncated streams remain prefixes of the deterministic
    /// complete stream, and the generation counters echoed by `begin`
    /// frames stay monotone across one connection's query sequence.
    #[test]
    fn deadline_expiry_racing_evict_stays_well_formed(
        classes in 3u32..5,
        sched in 0usize..3,
        deadline_ms in 0u64..3,
        reloads in 1usize..5,
    ) {
        let server = TestServer::start(ServeConfig {
            default_threads: 2,
            max_sessions: 8,
            ..ServeConfig::default()
        }).unwrap();
        let text = moon_moser_text(classes);
        let mut admin = server.connect().unwrap();
        admin.roundtrip(&load_request("g", &text)).unwrap();

        let addr = server.addr();
        let worker = std::thread::spawn(move || -> std::io::Result<Vec<Vec<String>>> {
            let mut client = TestClient::connect(addr)?;
            let mut responses = Vec::new();
            for _ in 0..4 {
                responses.push(client.roundtrip(&with_scheduler(
                    &format!(r#"{{"op":"query","graph":"g","deadline_ms":{deadline_ms}}}"#),
                    scheduler(sched),
                ))?);
            }
            Ok(responses)
        });
        // Evict/reload under the deadline-expired sessions: each reload
        // bumps the registry generation while sessions pin their own.
        for _ in 0..reloads {
            admin.roundtrip(r#"{"op":"evict","name":"g"}"#).unwrap();
            admin.roundtrip(&load_request("g", &text)).unwrap();
        }
        let responses = worker.join().expect("worker panicked").expect("worker io");

        // The reference complete stream (same graph text, so identical
        // bytes whatever generation served it).
        let full = admin.roundtrip(r#"{"op":"query","graph":"g"}"#).unwrap();
        let (_, full_cliques, full_end) = split_response(&full);
        prop_assert!(full_end.contains(r#""outcome":"complete""#), "{}", full_end);

        let mut last_generation = 0u64;
        for frames in responses {
            let (begin, cliques, end) = split_response(&frames);
            if end.starts_with(r#"{"type":"error""#) {
                prop_assert!(end.contains(r#""code":"unknown-graph""#), "{}", end);
                prop_assert!(cliques.is_empty());
                continue;
            }
            prop_assert!(
                end.contains(r#""outcome":"complete""#)
                    || end.contains(r#""outcome":"truncated (deadline exceeded)""#),
                "{}", end
            );
            prop_assert_eq!(&cliques, &full_cliques[..cliques.len()]);
            // `begin` echoes the generation that answered; sequential
            // queries on one connection can never observe it going back.
            let generation: u64 = begin
                .expect("end without begin")
                .rsplit(r#""generation":"#)
                .next()
                .and_then(|rest| rest.trim_end_matches('}').parse().ok())
                .expect("begin frame carries a generation");
            prop_assert!(
                generation >= last_generation,
                "generation regressed: {} after {}", generation, last_generation
            );
            last_generation = generation;
        }
    }
}
