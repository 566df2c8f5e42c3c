//! In-process server harness: spin up a real `mce serve` instance on an
//! ephemeral loopback port and talk to it over real sockets.
//!
//! Used by the integration tests (`serve_golden`, `serve_property`,
//! `serve_fuzz`, `serve_chaos`), so the exercised path is byte-for-byte the
//! production one — only the port and the process boundary differ.
//!
//! # Fault injection
//!
//! The chaos suite drives the server through deterministic client-side
//! faults:
//!
//! - [`FaultSchedule`] + [`TestClient::send_with_faults`] — short writes,
//!   per-chunk stalls and a mid-stream disconnect after a byte budget;
//! - [`TestClient::disconnect`] — abrupt teardown while a response is still
//!   streaming (the server's `CancelWriter` turns the resulting write error
//!   into a session cancellation);
//! - [`TestClient::retry_with_backoff`] — bounded, jitter-free exponential
//!   backoff on `capacity` rejections, so tests (and well-behaved clients)
//!   ride out admission pressure deterministically instead of spinning;
//! - server-side worker panics are injected via
//!   [`ServeConfig::chaos_panic_graph`], not from this module.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use super::server::{ServeConfig, Server, ServerHandle};

/// A server running on a background thread, shut down (and joined) on drop.
#[derive(Debug)]
pub struct TestServer {
    handle: ServerHandle,
    join: Option<JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    /// Binds `config` on an ephemeral loopback port (any configured `addr`
    /// is overridden) and starts serving on a background thread.
    pub fn start(mut config: ServeConfig) -> std::io::Result<TestServer> {
        config.addr = "127.0.0.1:0".to_string();
        let server = Server::bind(config)?;
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve());
        Ok(TestServer {
            handle,
            join: Some(join),
        })
    }

    /// The server's actual listen address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The control handle (e.g. to trigger shutdown from a test).
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Opens a client connection.
    pub fn connect(&self) -> std::io::Result<TestClient> {
        TestClient::connect(self.addr())
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// A blocking line-oriented client for the serve wire protocol.
#[derive(Debug)]
pub struct TestClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl TestClient {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TestClient> {
        let stream = TcpStream::connect(addr)?;
        // A generous safety net so a hung server fails tests instead of
        // hanging them.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TestClient { stream, reader })
    }

    /// Sends one request line (the newline is appended).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()
    }

    /// Sends raw bytes verbatim (for malformed-framing tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one response line, without its newline. `None` on EOF.
    pub fn recv_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Reads frames until (and including) the terminal frame of one
    /// response: everything except `begin` and clique lines terminates a
    /// response. Errors if the connection closes mid-response.
    pub fn recv_response(&mut self) -> std::io::Result<Vec<String>> {
        let mut frames = Vec::new();
        loop {
            let Some(line) = self.recv_line()? else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("connection closed mid-response after {frames:?}"),
                ));
            };
            let terminal =
                !line.starts_with(r#"{"type":"begin""#) && !line.starts_with(r#"{"size":"#);
            frames.push(line);
            if terminal {
                return Ok(frames);
            }
        }
    }

    /// Sends a request and collects its full response.
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<Vec<String>> {
        self.send_line(request)?;
        self.recv_response()
    }

    /// Sends a request, retrying while the server answers with a single
    /// `capacity` rejection frame. The backoff schedule is deterministic
    /// and jitter-free — `base_delay`, then double per retry — so chaos
    /// runs are reproducible. Returns the first non-`capacity` response,
    /// or the final rejection once `max_attempts` roundtrips are spent.
    pub fn retry_with_backoff(
        &mut self,
        request: &str,
        base_delay: Duration,
        max_attempts: u32,
    ) -> std::io::Result<Vec<String>> {
        let mut delay = base_delay;
        let mut attempt = 0u32;
        loop {
            let frames = self.roundtrip(request)?;
            attempt += 1;
            let rejected = frames.len() == 1 && frames[0].contains(r#""code":"capacity""#);
            if !rejected || attempt >= max_attempts {
                return Ok(frames);
            }
            std::thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
    }

    /// Writes `bytes` under a deterministic fault schedule: `chunk`-byte
    /// short writes, each preceded by a `stall`, torn down mid-stream once
    /// `cut_after` bytes have gone out. Returns whether every byte was
    /// sent (`false` means the schedule cut the connection first).
    pub fn send_with_faults(
        &mut self,
        bytes: &[u8],
        schedule: &FaultSchedule,
    ) -> std::io::Result<bool> {
        let mut sent = 0usize;
        for chunk in bytes.chunks(schedule.chunk.max(1)) {
            if schedule.cut_after.is_some_and(|cut| sent >= cut) {
                self.stream.shutdown(Shutdown::Both)?;
                return Ok(false);
            }
            if !schedule.stall.is_zero() {
                std::thread::sleep(schedule.stall);
            }
            self.stream.write_all(chunk)?;
            self.stream.flush()?;
            sent += chunk.len();
        }
        Ok(true)
    }

    /// Abruptly tears the connection down in both directions — the
    /// mid-stream-disconnect fault. The server's next write to this socket
    /// fails, which cancels the session instead of leaking it.
    pub fn disconnect(&mut self) -> std::io::Result<()> {
        self.stream.shutdown(Shutdown::Both)
    }

    /// Half-closes the write side (the server sees EOF while the read side
    /// stays open for its response).
    pub fn half_close(&mut self) -> std::io::Result<()> {
        self.stream.shutdown(Shutdown::Write)
    }

    /// Drains every remaining line until the server closes the connection.
    pub fn read_to_eof(&mut self) -> std::io::Result<Vec<String>> {
        let mut lines = Vec::new();
        let mut rest = String::new();
        self.reader.read_to_string(&mut rest)?;
        for line in rest.lines() {
            lines.push(line.to_string());
        }
        Ok(lines)
    }
}

/// A deterministic client-side I/O fault plan for
/// [`TestClient::send_with_faults`].
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    /// Bytes per short write (values below 1 behave as 1).
    pub chunk: usize,
    /// Stall inserted before each chunk.
    pub stall: Duration,
    /// Tear the connection down once this many bytes have gone out.
    pub cut_after: Option<usize>,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        FaultSchedule {
            chunk: 1,
            stall: Duration::ZERO,
            cut_after: None,
        }
    }
}

/// Builds a `load` request carrying the graph text inline.
pub fn load_request(name: &str, content: &str) -> String {
    let mut escaped = String::new();
    super::json::escape_into(&mut escaped, content);
    format!(r#"{{"op":"load","name":"{name}","content":{escaped}}}"#)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn ping_roundtrip_and_shutdown() {
        let server = TestServer::start(ServeConfig::default()).unwrap();
        let mut client = server.connect().unwrap();
        assert_eq!(
            client.roundtrip(r#"{"op":"ping"}"#).unwrap(),
            vec![r#"{"type":"pong"}"#.to_string()]
        );
        drop(server); // shutdown + join must not hang with a live client
    }

    #[test]
    fn load_query_roundtrip() {
        let server = TestServer::start(ServeConfig::default()).unwrap();
        let mut client = server.connect().unwrap();
        let frames = client
            .roundtrip(&load_request("tri", "0 1\n1 2\n0 2\n"))
            .unwrap();
        assert_eq!(
            frames,
            vec![r#"{"type":"loaded","name":"tri","n":3,"m":3,"generation":1}"#.to_string()]
        );
        let frames = client.roundtrip(r#"{"op":"query","graph":"tri"}"#).unwrap();
        assert_eq!(
            frames,
            vec![
                r#"{"type":"begin","id":1,"graph":"tri","generation":1}"#.to_string(),
                r#"{"size":3,"clique":[0,1,2]}"#.to_string(),
                concat!(
                    r#"{"type":"end","id":1,"outcome":"complete","cliques":1,"#,
                    r#""max_size":3,"budget_terminated":false}"#
                )
                .to_string(),
            ]
        );
    }
}
