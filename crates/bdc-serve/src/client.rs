//! A tiny blocking HTTP/1.1 client for the load generator, the bench
//! harness, and the end-to-end tests. Speaks just enough of the protocol
//! to talk to [`crate::server`]: keep-alive connections, `GET`/`POST`,
//! `Content-Length` bodies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A response as the client sees it.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Response headers, names lowercased, in wire order.
    pub headers: Vec<(String, String)>,
}

impl ClientResponse {
    /// The first header named `name` (lowercase), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A persistent keep-alive connection to the daemon.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// Connects to `addr` (e.g. `127.0.0.1:8731`).
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn open(addr: &str) -> std::io::Result<Connection> {
        Self::open_with_timeout(addr, Duration::from_secs(120))
    }

    /// Connects with an explicit connect/read deadline. Peer cache fetches
    /// and the cluster router use short timeouts — a slow peer must cost
    /// less than recomputing locally, and a proxied request must fail over
    /// to the next replica quickly.
    ///
    /// # Errors
    /// Propagates connect failures (including the connect timeout).
    pub fn open_with_timeout(addr: &str, timeout: Duration) -> std::io::Result<Connection> {
        // `connect_timeout` needs a resolved SocketAddr; a hostname form
        // (e.g. `localhost:8731`) falls back to plain connect, keeping
        // only the read/write deadlines.
        let stream = match addr.parse::<std::net::SocketAddr>() {
            Ok(parsed) => TcpStream::connect_timeout(&parsed, timeout)?,
            Err(_) => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let writer = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Issues a `GET`.
    ///
    /// # Errors
    /// Propagates socket errors (including the server closing mid-reply).
    pub fn get(&mut self, path_query: &str) -> std::io::Result<ClientResponse> {
        let req = format!("GET {path_query} HTTP/1.1\r\nhost: bdc\r\n\r\n");
        self.writer.write_all(req.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Issues a `POST` with a JSON body.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        let req = format!(
            "POST {path} HTTP/1.1\r\nhost: bdc\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(req.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed connection",
            ));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(bad("truncated header block"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse {
            status,
            body,
            headers,
        })
    }
}

/// One-shot convenience: open, `GET`, close.
///
/// # Errors
/// Propagates socket errors.
pub fn get_once(addr: &str, path_query: &str) -> std::io::Result<ClientResponse> {
    Connection::open(addr)?.get(path_query)
}

/// Whether a response status is worth retrying: transient server-side
/// states (shed, compute-deadline 503, contained-fault 500) that a later
/// attempt may well get a cached answer for.
pub fn is_retryable(status: u16) -> bool {
    matches!(status, 429 | 500 | 503 | 504)
}

/// `GET` with up to `retries` re-attempts on socket errors and retryable
/// statuses ([`is_retryable`]), sleeping a seeded, jittered exponential
/// backoff ([`bdc_exec::faults::backoff_delay`]) between attempts so a
/// burst of rejected clients does not retry in lockstep. Each attempt
/// opens a fresh connection — the previous one may be half-dead.
///
/// # Errors
/// The final attempt's socket error, if every attempt errored.
pub fn get_with_retry(
    addr: &str,
    path_query: &str,
    retries: u32,
) -> std::io::Result<ClientResponse> {
    let mut attempt: u32 = 0;
    loop {
        let result = get_once(addr, path_query);
        let retry = match &result {
            Ok(r) => is_retryable(r.status),
            Err(_) => true,
        };
        if !retry || attempt >= retries {
            return result;
        }
        attempt += 1;
        std::thread::sleep(bdc_exec::faults::backoff_delay(
            path_query,
            u64::from(attempt),
        ));
    }
}
