//! Chaos suite for `mce serve`: replays real sessions while faults are
//! injected — a pool worker panicking mid-enumeration, clients disconnecting
//! mid-stream, half-dead clients dribbling bytes, idle sockets, admission
//! overload — and asserts the blast radius of every fault is exactly one
//! session: the server stays up, unaffected concurrent sessions' responses
//! stay byte-identical to their golden, the faulted session gets a typed
//! `internal-error` frame, and deadline-truncated responses remain exact
//! byte-prefixes of complete ones at every thread count.

use std::time::Duration;

use mce_cli::serve::json::{self, Value};
use mce_cli::serve::testkit::{load_request, FaultSchedule, TestClient, TestServer};
use mce_cli::serve::ServeConfig;
use mce_gen::{planted_communities, PlantedConfig};
use mce_graph::io::write_edge_list;

/// K_{3,3,...} with `classes` fully interconnected 3-vertex classes:
/// 3^classes maximal cliques, guaranteed branching work on every worker.
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

/// On mismatch, writes both frame streams under `SERVE_REPLAY_DIR` (when
/// set — the CI chaos job uploads that directory as an artifact) and then
/// fails the assertion.
fn assert_same_bytes(actual: &[String], expected: &[String], tag: &str) {
    if actual == expected {
        return;
    }
    if let Ok(dir) = std::env::var("SERVE_REPLAY_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).ok();
        std::fs::write(dir.join(format!("{tag}.actual.txt")), actual.join("\n")).ok();
        std::fs::write(dir.join(format!("{tag}.expected.txt")), expected.join("\n")).ok();
    }
    let diverged = actual
        .iter()
        .zip(expected.iter())
        .position(|(a, e)| a != e)
        .unwrap_or(actual.len().min(expected.len()));
    panic!(
        "{tag}: response diverged from golden at frame {diverged} \
         (actual {} frames, expected {})",
        actual.len(),
        expected.len()
    );
}

/// Splits a response into (clique lines, terminal frame).
fn split(frames: &[String]) -> (Vec<&String>, &String) {
    let terminal = frames.last().expect("non-empty response");
    let cliques = frames[..frames.len() - 1]
        .iter()
        .filter(|f| f.starts_with(r#"{"size":"#))
        .collect();
    (cliques, terminal)
}

/// Drops the per-connection `"id":N` field so responses from different
/// positions in a connection's request sequence compare byte-identical.
fn without_ids(frames: &[String]) -> Vec<String> {
    frames
        .iter()
        .map(|frame| {
            let Some(start) = frame.find(r#""id":"#) else {
                return frame.clone();
            };
            let rest = &frame[start + 5..];
            let digits = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            let tail = rest[digits..].strip_prefix(',').unwrap_or(&rest[digits..]);
            format!("{}{}", &frame[..start], tail)
        })
        .collect()
}

/// The acceptance scenario: one session's pool worker panics
/// mid-enumeration and another client disconnects mid-stream, concurrently
/// with healthy sessions, at every thread count. The healthy
/// sessions' bytes never change, the faulted session ends in a typed
/// `internal-error` frame on a connection that stays usable, and the server
/// keeps accepting.
#[test]
fn worker_panic_and_disconnect_leave_neighbours_byte_identical() {
    let text = moon_moser_text(4); // 81 maximal cliques
    for threads in [1usize, 2, 4] {
        let server = TestServer::start(ServeConfig {
            default_threads: threads,
            max_sessions: 8,
            chaos_panic_graph: Some("bad".to_string()),
            chaos_panic_after: 5,
            ..ServeConfig::default()
        })
        .expect("start server");

        let mut admin = server.connect().expect("connect admin");
        admin
            .roundtrip(&load_request("good", &text))
            .expect("load good");
        admin
            .roundtrip(&load_request("bad", &text))
            .expect("load bad");
        let golden = admin
            .roundtrip(r#"{"op":"query","graph":"good"}"#)
            .expect("golden query");
        let (golden_cliques, golden_end) = split(&golden);
        assert!(
            golden_end.contains(r#""outcome":"complete""#),
            "{golden_end}"
        );
        assert_eq!(golden_cliques.len(), 81);

        // Three concurrent clients: healthy, panicking, disconnecting.
        let addr = server.addr();
        let healthy = std::thread::spawn(move || -> std::io::Result<Vec<String>> {
            let mut c = TestClient::connect(addr)?;
            c.roundtrip(r#"{"op":"query","graph":"good"}"#)
        });
        let faulted = std::thread::spawn(move || -> std::io::Result<(Vec<String>, Vec<String>)> {
            let mut c = TestClient::connect(addr)?;
            let frames = c.roundtrip(r#"{"op":"query","graph":"bad"}"#)?;
            let ping = c.roundtrip(r#"{"op":"ping"}"#)?;
            Ok((frames, ping))
        });
        let vanished = std::thread::spawn(move || -> std::io::Result<()> {
            let mut c = TestClient::connect(addr)?;
            c.send_line(r#"{"op":"query","graph":"good"}"#)?;
            // Read a couple of frames, then vanish mid-stream.
            c.recv_line()?;
            c.recv_line()?;
            c.disconnect()
        });

        // The unaffected session is byte-identical to its golden.
        let frames = healthy.join().expect("healthy thread").expect("healthy io");
        assert_same_bytes(&frames, &golden, &format!("healthy.t{threads}"));

        // The faulted session: its prefix is deterministic, the terminal
        // frame is the typed internal error, and the connection survived.
        let (frames, ping) = faulted.join().expect("faulted thread").expect("faulted io");
        let (cliques, terminal) = split(&frames);
        assert_eq!(cliques.len(), 5, "chaos fuse emits exactly 5 cliques");
        assert_eq!(
            cliques,
            golden_cliques[..5].to_vec(),
            "faulted session's prefix diverged at {threads} threads"
        );
        assert!(
            terminal.contains(r#""code":"internal-error""#),
            "terminal frame: {terminal}"
        );
        assert!(terminal.contains("injected chaos fault"), "{terminal}");
        assert_eq!(ping, vec![r#"{"type":"pong"}"#.to_string()]);

        vanished
            .join()
            .expect("vanished thread")
            .expect("vanished io");

        // The server is still accepting and still byte-deterministic.
        let mut after = server.connect().expect("connect after faults");
        let replay = after
            .roundtrip(r#"{"op":"query","graph":"good"}"#)
            .expect("replay");
        assert_same_bytes(&replay, &golden, &format!("replay.t{threads}"));
        let metrics = after.roundtrip(r#"{"op":"metrics"}"#).expect("metrics");
        assert!(
            metrics[0].contains(r#""panics_contained":1"#),
            "{}",
            metrics[0]
        );
    }
}

/// A `deadline_ms` truncated response is an exact byte-prefix of the
/// complete response at 1/2/4 server threads, and carries the deadline
/// outcome.
#[test]
fn deadline_truncated_response_is_byte_prefix_at_every_thread_count() {
    let text = moon_moser_text(4);
    for threads in [1usize, 2, 4] {
        let server = TestServer::start(ServeConfig {
            default_threads: threads,
            ..ServeConfig::default()
        })
        .expect("start server");
        let mut client = server.connect().expect("connect");
        client.roundtrip(&load_request("g", &text)).expect("load");
        let full = client
            .roundtrip(r#"{"op":"query","graph":"g"}"#)
            .expect("full");
        let (full_cliques, full_end) = split(&full);
        assert!(full_end.contains(r#""outcome":"complete""#), "{full_end}");

        // An already-expired deadline: the strictest truncation point.
        let cut = client
            .roundtrip(r#"{"op":"query","graph":"g","deadline_ms":0}"#)
            .expect("expired deadline");
        let (cut_cliques, cut_end) = split(&cut);
        assert!(
            cut_end.contains(r#""outcome":"truncated (deadline exceeded)""#),
            "{threads} threads: {cut_end}"
        );
        assert!(cut_end.contains(r#""budget_terminated":true"#), "{cut_end}");
        assert_eq!(
            cut_cliques,
            full_cliques[..cut_cliques.len()].to_vec(),
            "deadline truncation is not a byte-prefix at {threads} threads"
        );

        // A generous deadline changes nothing at all.
        let generous = client
            .roundtrip(r#"{"op":"query","graph":"g","deadline_ms":3600000}"#)
            .expect("generous deadline");
        assert_eq!(without_ids(&generous), without_ids(&full));
    }
}

/// Regression for `--idle-timeout-secs`: an idle socket is closed, the
/// reap is counted, and the server keeps serving new connections.
#[test]
fn idle_connection_is_reaped_and_the_server_keeps_serving() {
    let server = TestServer::start(ServeConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    })
    .expect("start server");
    let mut idler = server.connect().expect("connect idler");
    // Activity resets the clock; afterwards the connection goes quiet.
    idler.roundtrip(r#"{"op":"ping"}"#).expect("ping");
    // The reaper closes the socket from the server side: EOF, not a hang.
    let rest = idler.read_to_eof().expect("read to eof");
    assert!(rest.is_empty(), "unexpected frames while idle: {rest:?}");

    let mut fresh = server.connect().expect("connect after reap");
    assert_eq!(
        fresh.roundtrip(r#"{"op":"ping"}"#).expect("ping"),
        vec![r#"{"type":"pong"}"#.to_string()]
    );
    let metrics = fresh.roundtrip(r#"{"op":"metrics"}"#).expect("metrics");
    assert!(
        metrics[0].contains(r#""connections_reaped":1"#),
        "{}",
        metrics[0]
    );
}

/// Fleet accounting: three clients each queue four queries against a
/// four-session admission gate, alternating complete and clique-limited
/// streams. Every queued session is admitted and finishes, so the `metrics`
/// counters add up exactly.
#[test]
fn queued_fleet_sessions_are_all_accounted_for() {
    let g = planted_communities(&PlantedConfig {
        n: 60,
        communities: 5,
        min_size: 4,
        max_size: 9,
        intra_probability: 1.0,
        background_edges: 120,
        seed: 5,
    });
    let mut text = Vec::new();
    write_edge_list(&g, &mut text).expect("in-memory write");
    let text = String::from_utf8(text).expect("edge lists are ASCII");
    let server = TestServer::start(ServeConfig {
        max_sessions: 4,
        ..ServeConfig::default()
    })
    .expect("start server");
    let mut admin = server.connect().expect("connect admin");
    let loaded = admin.roundtrip(&load_request("g", &text)).expect("load");
    assert!(loaded[0].starts_with(r#"{"type":"loaded""#), "{loaded:?}");

    let addr = server.addr();
    let fleet: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = TestClient::connect(addr).expect("connect client");
                for slot in 0..4 {
                    let request = if slot % 2 == 0 {
                        r#"{"op":"query","graph":"g","queue":true}"#
                    } else {
                        r#"{"op":"query","graph":"g","queue":true,"limit":5}"#
                    };
                    let frames = client.roundtrip(request).expect("query");
                    let (_, end) = split(&frames);
                    assert!(end.starts_with(r#"{"type":"end""#), "{end}");
                }
            })
        })
        .collect();
    for client in fleet {
        client.join().expect("fleet client panicked");
    }

    let metrics = admin.roundtrip(r#"{"op":"metrics"}"#).expect("metrics");
    let value = json::parse(&metrics[0]).expect("metrics frame parses");
    let counter = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no '{key}' in {}", metrics[0]))
    };
    assert_eq!(counter("sessions_started"), 12, "{}", metrics[0]);
    assert_eq!(
        counter("sessions_completed") + counter("sessions_truncated"),
        12,
        "{}",
        metrics[0]
    );
    assert!(counter("sessions_truncated") >= 1, "{}", metrics[0]);
    assert_eq!(counter("sessions_rejected"), 0, "{}", metrics[0]);
    let peak = counter("peak_sessions");
    assert!((1..=4).contains(&peak), "peak_sessions {peak}");
}

/// A 26-byte DIMACS header declaring 3e9 vertices once aborted the daemon
/// while it allocated for them. Now the load gets a typed `load-failed`
/// answer naming the count, and the server keeps serving.
#[test]
fn oversized_dimacs_load_fails_and_the_server_keeps_serving() {
    let server = TestServer::start(ServeConfig::default()).expect("start server");
    let mut loader = server.connect().expect("connect loader");
    for n in ["3000000000", "5000000000"] {
        let request = load_request("x", &format!("p edge {n} 1\ne 1 2\n")).replacen(
            r#"{"op":"load","#,
            r#"{"op":"load","format":"dimacs","#,
            1,
        );
        let frames = loader.roundtrip(&request).expect("load");
        assert_eq!(frames.len(), 1, "{frames:?}");
        assert!(
            frames[0].contains(r#""code":"load-failed""#),
            "{}",
            frames[0]
        );
        assert!(frames[0].contains(n), "{}", frames[0]);
    }

    let mut client = server.connect().expect("connect client");
    client
        .roundtrip(&load_request("g", &moon_moser_text(3)))
        .expect("load");
    let frames = client
        .roundtrip(r#"{"op":"query","graph":"g"}"#)
        .expect("query");
    let (cliques, end) = split(&frames);
    assert_eq!(cliques.len(), 27);
    assert!(end.contains(r#""outcome":"complete""#), "{end}");
}

/// Graceful degradation: past the high-water mark sessions are admitted
/// with a pre-clamped step budget and their end frame says so. With the
/// mark at 0 every session degrades, deterministically.
#[test]
fn overloaded_admission_degrades_instead_of_queueing() {
    let text = moon_moser_text(5); // 243 maximal cliques
    let server = TestServer::start(ServeConfig {
        degrade_high_water: Some(0),
        degrade_max_steps: 10,
        ..ServeConfig::default()
    })
    .expect("start server");
    let mut client = server.connect().expect("connect");
    client.roundtrip(&load_request("g", &text)).expect("load");
    let frames = client
        .roundtrip(r#"{"op":"query","graph":"g"}"#)
        .expect("degraded query");
    let (cliques, end) = split(&frames);
    assert!(end.contains(r#""degraded":true"#), "{end}");
    assert!(
        end.contains(r#""outcome":"truncated (step limit)""#),
        "{end}"
    );
    assert!(cliques.len() < 243, "clamp did not bite: {}", cliques.len());

    // The degraded stream is still an exact prefix of the complete one
    // (served un-degraded here: the request's own budget wins when smaller).
    let server2 = TestServer::start(ServeConfig::default()).expect("start server2");
    let mut full_client = server2.connect().expect("connect2");
    full_client
        .roundtrip(&load_request("g", &text))
        .expect("load2");
    let full = full_client
        .roundtrip(r#"{"op":"query","graph":"g"}"#)
        .expect("full");
    let (full_cliques, _) = split(&full);
    assert_eq!(cliques, full_cliques[..cliques.len()].to_vec());

    let metrics = client.roundtrip(r#"{"op":"metrics"}"#).expect("metrics");
    assert!(
        metrics[0].contains(r#""sessions_degraded":1"#),
        "{}",
        metrics[0]
    );
}

/// A client that dribbles its request in 3-byte chunks with stalls gets a
/// response byte-identical to a well-behaved client's, and a client whose
/// connection is cut mid-request-line takes down nothing but itself.
#[test]
fn slow_and_cut_writers_do_not_perturb_responses() {
    let text = moon_moser_text(3);
    let server = TestServer::start(ServeConfig::default()).expect("start server");
    let mut smooth = server.connect().expect("connect smooth");
    smooth.roundtrip(&load_request("g", &text)).expect("load");
    let golden = smooth
        .roundtrip(r#"{"op":"query","graph":"g"}"#)
        .expect("golden");

    let mut dribbler = server.connect().expect("connect dribbler");
    let sent = dribbler
        .send_with_faults(
            b"{\"op\":\"query\",\"graph\":\"g\"}\n",
            &FaultSchedule {
                chunk: 3,
                stall: Duration::from_millis(2),
                cut_after: None,
            },
        )
        .expect("dribble request");
    assert!(sent);
    assert_eq!(dribbler.recv_response().expect("dribbled response"), golden);

    // Cut mid-request-line: the fault stays on that connection.
    let mut cut = server.connect().expect("connect cut");
    let sent = cut
        .send_with_faults(
            b"{\"op\":\"query\",\"graph\":\"g\"}\n",
            &FaultSchedule {
                chunk: 4,
                stall: Duration::ZERO,
                cut_after: Some(8),
            },
        )
        .expect("cut request");
    assert!(!sent, "the schedule cuts before the request completes");

    let replay = smooth
        .roundtrip(r#"{"op":"query","graph":"g"}"#)
        .expect("replay");
    assert_eq!(without_ids(&replay), without_ids(&golden));
}

/// `retry_with_backoff` rides out `capacity` rejections: with one session
/// slot held by a client that stopped draining its socket, the write
/// timeout reaps the stalled session and the retrying client's query lands.
#[test]
fn retry_with_backoff_rides_out_capacity_pressure() {
    let text = moon_moser_text(9); // ~20k clique lines: far beyond socket buffers
    let server = TestServer::start(ServeConfig {
        max_sessions: 1,
        write_timeout: Some(Duration::from_millis(300)),
        ..ServeConfig::default()
    })
    .expect("start server");
    let mut stuck = server.connect().expect("connect stuck");
    stuck.roundtrip(&load_request("g", &text)).expect("load");
    // Start a full enumeration and never read: the server's writes back up
    // until the write timeout cancels the session and frees the slot.
    stuck
        .send_line(r#"{"op":"query","graph":"g"}"#)
        .expect("send stuck query");
    std::thread::sleep(Duration::from_millis(100));

    let mut patient = server.connect().expect("connect patient");
    let frames = patient
        .retry_with_backoff(
            r#"{"op":"query","graph":"g","limit":1}"#,
            Duration::from_millis(100),
            20,
        )
        .expect("retry");
    let (cliques, end) = split(&frames);
    assert!(
        end.contains(r#""outcome":"truncated (clique limit)""#),
        "retry never landed: {end}"
    );
    assert_eq!(cliques.len(), 1);
}
