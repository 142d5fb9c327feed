//! Minimal HTTP/1.1 framing over any `Read`/`Write` pair (std-only).
//!
//! Supports what the serving API needs and nothing more: `GET`/`POST`,
//! request-target with query string, a bounded header block, and a
//! `Content-Length`-delimited body. Every limit is explicit so a hostile
//! peer can neither balloon memory nor panic the parser:
//!
//! | limit | value | violation |
//! |-------|-------|-----------|
//! | request line | 8 KiB | 414 URI Too Long |
//! | header count | 64    | 431 |
//! | header line  | 8 KiB | 431 |
//! | body         | 64 KiB | 413 |
//!
//! Responses carry a fixed, deterministic header set (no `Date`), so a
//! response's bytes are a pure function of its status and body.

use std::io::{BufRead, Write};

use bdc_exec::json::Json;

/// Largest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Largest accepted single header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body.
pub const MAX_BODY: usize = 64 * 1024;

/// Request methods the API serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`.
    Get,
    /// `POST`.
    Post,
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method.
    pub method: Method,
    /// Path component of the request target (before `?`).
    pub path: String,
    /// Raw query string (after `?`, empty if absent).
    pub query: String,
    /// Body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Why a request could not be parsed, with the HTTP status that reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed before sending a request line (normal keep-alive
    /// termination; no response owed).
    ConnectionClosed,
    /// Malformed framing → status 400.
    Bad(String),
    /// Method not `GET`/`POST` → 405.
    MethodNotAllowed(String),
    /// Request line over limit → 414.
    UriTooLong,
    /// Header block over limit → 431.
    HeadersTooLarge,
    /// Body over limit → 413.
    BodyTooLarge,
    /// Socket error mid-request; connection is unusable.
    Io(String),
}

impl ParseError {
    /// The HTTP status code that reports this error (0 for cases where no
    /// response can or should be written).
    pub fn status(&self) -> u16 {
        match self {
            ParseError::ConnectionClosed | ParseError::Io(_) => 0,
            ParseError::Bad(_) => 400,
            ParseError::MethodNotAllowed(_) => 405,
            ParseError::UriTooLong => 414,
            ParseError::BodyTooLarge => 413,
            ParseError::HeadersTooLarge => 431,
        }
    }
}

/// Reads one line terminated by `\n` (tolerating `\r\n`), bounded by
/// `limit` bytes. `Ok(None)` means clean EOF before any byte.
fn read_line(reader: &mut impl BufRead, limit: usize) -> Result<Option<String>, ParseError> {
    let mut buf = Vec::new();
    loop {
        let chunk = reader
            .fill_buf()
            .map_err(|e| ParseError::Io(e.to_string()))?;
        if chunk.is_empty() {
            return if buf.is_empty() {
                Ok(None)
            } else {
                Err(ParseError::Bad("truncated line".into()))
            };
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.map_or(chunk.len(), |i| i + 1);
        if buf.len() + take > limit + 2 {
            // Consume what we sized up so the caller can still answer.
            reader.consume(take);
            return Err(ParseError::UriTooLong);
        }
        buf.extend_from_slice(&chunk[..take]);
        reader.consume(take);
        if newline.is_some() {
            break;
        }
    }
    while matches!(buf.last(), Some(b'\n' | b'\r')) {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ParseError::Bad("non-utf8 header data".into()))
}

/// Parses one request off the stream.
///
/// # Errors
/// See [`ParseError`]; [`ParseError::ConnectionClosed`] is the normal end
/// of a keep-alive connection.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ParseError> {
    let line = match read_line(reader, MAX_REQUEST_LINE)? {
        None => return Err(ParseError::ConnectionClosed),
        Some(l) if l.is_empty() => return Err(ParseError::Bad("empty request line".into())),
        Some(l) => l,
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(ParseError::Bad("malformed request line".into())),
    };
    let method = match method {
        "GET" => Method::Get,
        "POST" => Method::Post,
        other => return Err(ParseError::MethodNotAllowed(other.to_string())),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::Bad(format!("unsupported version `{version}`")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    if !path.starts_with('/') {
        return Err(ParseError::Bad("request target must be absolute".into()));
    }

    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; 1.0 to close.
    let mut keep_alive = version == "HTTP/1.1";
    for n in 0..=MAX_HEADERS {
        let line = match read_line(reader, MAX_HEADER_LINE) {
            Ok(Some(l)) => l,
            Ok(None) => return Err(ParseError::Bad("truncated header block".into())),
            Err(ParseError::UriTooLong) => return Err(ParseError::HeadersTooLarge),
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            break;
        }
        if n == MAX_HEADERS {
            return Err(ParseError::HeadersTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Bad(format!("malformed header `{line}`")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse::<usize>()
                .map_err(|_| ParseError::Bad(format!("bad content-length `{value}`")))?;
            if content_length > MAX_BODY {
                return Err(ParseError::BodyTooLarge);
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Chunked bodies are out of scope for this API.
            return Err(ParseError::Bad("transfer-encoding not supported".into()));
        }
    }

    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        std::io::Read::read_exact(reader, &mut body)
            .map_err(|e| ParseError::Io(format!("body read: {e}")))?;
    }
    Ok(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    })
}

/// Decodes a query string (`a=1&b=x%20y`) into `(key, value)` pairs, in
/// order. `%XX` and `+` decoding applied to both keys and values;
/// malformed escapes are kept literally rather than rejected.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect()
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A response ready to serialize: status, fixed content type, body, and
/// optional extra headers (e.g. `Retry-After`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (always JSON in this API).
    pub body: Vec<u8>,
    /// Extra headers as `(name, value)` pairs.
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// An error response with a JSON `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Response {
        let body = Json::Obj(vec![("error".into(), Json::str(message))]).encode();
        Response::json(status, body.into_bytes())
    }

    /// The canonical reason phrase for the statuses this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            414 => "URI Too Long",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// Serializes status line + headers + body. Deliberately carries no
    /// `Date` header: the byte stream must be a pure function of the
    /// response content (see the determinism tests).
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
            self.status,
            Self::reason(self.status),
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str(if keep_alive {
            "connection: keep-alive\r\n\r\n"
        } else {
            "connection: close\r\n\r\n"
        });
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    /// Writes the serialized response to a stream.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        w.write_all(&self.to_bytes(keep_alive))?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_get_with_query() {
        let r = parse("GET /v1/width?process=organic&fe=2 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.path, "/v1/width");
        assert_eq!(
            parse_query(&r.query),
            vec![
                ("process".to_string(), "organic".to_string()),
                ("fe".to_string(), "2".to_string())
            ]
        );
        assert!(r.keep_alive);
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse(
            "POST /v1/synth HTTP/1.1\r\nContent-Length: 7\r\nConnection: close\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(r.method, Method::Post);
        assert_eq!(r.body, b"{\"a\":1}");
        assert!(!r.keep_alive);
    }

    #[test]
    fn rejects_oversized_body_with_413() {
        let e = parse("POST /x HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), 413);
    }

    #[test]
    fn rejects_oversized_request_line_with_414() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert_eq!(parse(&raw).unwrap_err().status(), 414);
    }

    #[test]
    fn rejects_too_many_headers_with_431() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..100 {
            raw.push_str(&format!("x-h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(parse(&raw).unwrap_err().status(), 431);
    }

    #[test]
    fn rejects_unknown_method_with_405() {
        assert_eq!(parse("PUT / HTTP/1.1\r\n\r\n").unwrap_err().status(), 405);
    }

    #[test]
    fn clean_eof_is_connection_closed() {
        assert_eq!(parse("").unwrap_err(), ParseError::ConnectionClosed);
    }

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn response_bytes_are_deterministic() {
        let r = Response::json(200, b"{}".to_vec());
        assert_eq!(r.to_bytes(true), r.to_bytes(true));
        let text = String::from_utf8(r.to_bytes(false)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(!text.to_ascii_lowercase().contains("date:"));
    }
}
