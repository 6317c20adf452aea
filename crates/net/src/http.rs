//! HTTP/1.1 wire parsing with strict, fail-closed limits.
//!
//! The parser reads one request from a buffered socket and refuses — with
//! the *right* status code — anything oversized, truncated, or malformed.
//! Every limit is explicit in [`Limits`]; the server never allocates
//! proportionally to what a client claims, only to what it actually sends
//! within those limits.
//!
//! Error philosophy: a parse failure is a protocol outcome, not an
//! exception. [`ParseError`] carries the HTTP status the server should
//! answer with (or `None` when the peer is gone and no answer can be
//! delivered), and the connection is always closed afterwards — a client
//! that sent garbage does not get to keep the framing ambiguity alive.

use std::io::{BufRead, ErrorKind};

/// Hard limits on one request's wire footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum request-line length in bytes (method + URI + version).
    pub max_request_line_bytes: usize,
    /// Maximum cumulative header bytes (all header lines together).
    pub max_header_bytes: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Maximum declared/readable body size in bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line_bytes: 2048,
            max_header_bytes: 8192,
            max_headers: 64,
            max_body_bytes: 16384,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method token, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, verbatim (path plus optional `?query`).
    pub target: String,
    /// Header pairs in arrival order; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a (lowercase) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed before sending anything — a clean end of a
    /// keep-alive connection, not an error to answer.
    ConnectionClosed,
    /// The peer closed mid-request (truncated request line, headers, or
    /// body). Nothing useful can be written back.
    Truncated,
    /// The socket read timed out before a full request arrived. `started`
    /// distinguishes a slow-loris mid-request stall (answer 408) from an
    /// idle keep-alive connection timing out (just close).
    TimedOut {
        /// Whether any request bytes had already arrived.
        started: bool,
    },
    /// Syntactically invalid request line or header (400).
    Malformed(&'static str),
    /// The request line exceeded [`Limits::max_request_line_bytes`] (414).
    RequestLineTooLong,
    /// Headers exceeded [`Limits::max_header_bytes`] or
    /// [`Limits::max_headers`] (431).
    HeadersTooLarge,
    /// The declared body exceeds [`Limits::max_body_bytes`] (413).
    BodyTooLarge,
    /// Not HTTP/1.0 or HTTP/1.1 (505).
    UnsupportedVersion,
    /// `Transfer-Encoding` framing we do not implement (501).
    UnsupportedTransferEncoding,
    /// An underlying socket error; the connection is unusable.
    Io(ErrorKind),
}

impl ParseError {
    /// The status code to answer with, or `None` when no answer can (or
    /// should) be delivered and the connection is simply closed.
    pub fn status(&self) -> Option<u16> {
        match self {
            ParseError::ConnectionClosed | ParseError::Truncated | ParseError::Io(_) => None,
            ParseError::TimedOut { started } => started.then_some(408),
            ParseError::Malformed(_) => Some(400),
            ParseError::RequestLineTooLong => Some(414),
            ParseError::HeadersTooLarge => Some(431),
            ParseError::BodyTooLarge => Some(413),
            ParseError::UnsupportedVersion => Some(505),
            ParseError::UnsupportedTransferEncoding => Some(501),
        }
    }
}

/// Is this `io::Error` a read/write timeout? (Unix reports `WouldBlock`,
/// Windows `TimedOut`.)
pub(crate) fn is_timeout(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Reads one line (through `\n`), enforcing a byte cap. Returns the line
/// without its trailing `\r\n`/`\n`. `got_bytes` is flipped as soon as any
/// byte arrives, so timeouts can be classified.
fn read_line_limited<R: BufRead>(
    reader: &mut R,
    cap: usize,
    over_cap: ParseError,
    got_bytes: &mut bool,
) -> Result<Vec<u8>, ParseError> {
    let mut line = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok([]) => {
                return Err(if line.is_empty() && !*got_bytes {
                    ParseError::ConnectionClosed
                } else {
                    ParseError::Truncated
                });
            }
            Ok(buf) => buf,
            Err(e) if is_timeout(e.kind()) => {
                return Err(ParseError::TimedOut {
                    started: *got_bytes || !line.is_empty(),
                });
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e.kind())),
        };
        *got_bytes = true;
        let (consume, done) = match available.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (available.len(), false),
        };
        if line.len() + consume > cap + 2 {
            // +2 leaves room for the CRLF itself on an exactly-cap line.
            return Err(over_cap);
        }
        line.extend_from_slice(&available[..consume]);
        reader.consume(consume);
        if done {
            while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
                line.pop();
            }
            return Ok(line);
        }
    }
}

/// Reads and parses one request from `reader` under `limits`.
///
/// The stream's read timeout (set by the caller via
/// `TcpStream::set_read_timeout`) bounds every blocking read; a timeout
/// surfaces as [`ParseError::TimedOut`].
pub fn read_request<R: BufRead>(reader: &mut R, limits: &Limits) -> Result<Request, ParseError> {
    let mut got_bytes = false;
    let line = read_line_limited(
        reader,
        limits.max_request_line_bytes,
        ParseError::RequestLineTooLong,
        &mut got_bytes,
    )?;
    let line = std::str::from_utf8(&line)
        .map_err(|_| ParseError::Malformed("request line is not UTF-8"))?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(ParseError::Malformed(
                "expected `METHOD /target HTTP/version`",
            ))
        }
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::Malformed("method must be ASCII uppercase"));
    }
    if !target.starts_with('/') {
        return Err(ParseError::Malformed("target must start with `/`"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ParseError::UnsupportedVersion),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let line = read_line_limited(
            reader,
            limits
                .max_header_bytes
                .saturating_sub(header_bytes)
                .min(limits.max_header_bytes),
            ParseError::HeadersTooLarge,
            &mut got_bytes,
        )?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > limits.max_header_bytes || headers.len() >= limits.max_headers {
            return Err(ParseError::HeadersTooLarge);
        }
        let line =
            std::str::from_utf8(&line).map_err(|_| ParseError::Malformed("header is not UTF-8"))?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed("header line without `:`"));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Malformed("invalid header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if find("transfer-encoding").is_some() {
        return Err(ParseError::UnsupportedTransferEncoding);
    }
    let content_length = match find("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ParseError::Malformed("invalid Content-Length"))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(ParseError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    let mut filled = 0usize;
    while filled < content_length {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(ParseError::Truncated),
            Ok(n) => filled += n,
            Err(e) if is_timeout(e.kind()) => return Err(ParseError::TimedOut { started: true }),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(ParseError::Io(e.kind())),
        }
    }

    let keep_alive = match find("connection").map(str::to_ascii_lowercase) {
        Some(c) if c == "close" => false,
        Some(c) if c == "keep-alive" => true,
        _ => http11,
    };
    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
        keep_alive,
    })
}

/// The reason phrase for the status codes this server emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(bytes), &Limits::default())
    }

    #[test]
    fn parses_a_simple_get() {
        let r = parse(b"GET /rest/items HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.target, "/rest/items");
        assert_eq!(r.header("host"), Some("x"));
        assert!(r.keep_alive);
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse(b"POST /rest/items/a HTTP/1.1\r\nContent-Length: 4\r\n\r\n21.5").unwrap();
        assert_eq!(r.body, b"21.5");
    }

    #[test]
    fn http10_defaults_to_close() {
        let r = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive);
        let r = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(parse(b"garbage\r\n\r\n").unwrap_err().status(), Some(400));
        assert_eq!(
            parse(b"GET no-slash HTTP/1.1\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(400)
        );
        assert_eq!(
            parse(b"get /lower HTTP/1.1\r\n\r\n").unwrap_err().status(),
            Some(400)
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nbad header line\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(400)
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
                .unwrap_err()
                .status(),
            Some(400)
        );
    }

    #[test]
    fn rejects_oversize_everything() {
        let long_uri = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(4096));
        assert_eq!(
            parse(long_uri.as_bytes()).unwrap_err(),
            ParseError::RequestLineTooLong
        );
        let big_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(9000));
        assert_eq!(
            parse(big_header.as_bytes()).unwrap_err(),
            ParseError::HeadersTooLarge
        );
        let many_headers = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            (0..100)
                .map(|i| format!("X-{i}: v\r\n"))
                .collect::<String>()
        );
        assert_eq!(
            parse(many_headers.as_bytes()).unwrap_err(),
            ParseError::HeadersTooLarge
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n").unwrap_err(),
            ParseError::BodyTooLarge
        );
    }

    #[test]
    fn rejects_unsupported_framing() {
        assert_eq!(
            parse(b"GET / HTTP/2\r\n\r\n").unwrap_err(),
            ParseError::UnsupportedVersion
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err(),
            ParseError::UnsupportedTransferEncoding
        );
    }

    #[test]
    fn truncation_fails_closed() {
        assert_eq!(parse(b"").unwrap_err(), ParseError::ConnectionClosed);
        assert_eq!(parse(b"GET /part").unwrap_err(), ParseError::Truncated);
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf").unwrap_err(),
            ParseError::Truncated
        );
        assert_eq!(parse(b"GET /part").unwrap_err().status(), None);
    }
}
