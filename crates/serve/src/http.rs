//! A minimal HTTP/1.1 layer built around an **incremental** request parser.
//!
//! The serving front-end's reactor reads whatever bytes the socket has and
//! feeds them to a [`RequestParser`]; the parser accumulates across partial
//! reads (request line, headers, `Content-Length`-bound body can each arrive
//! split at any byte boundary) and yields a [`Request`] only once it is
//! complete. Keep-alive is the default for HTTP/1.1 (`Connection: close`
//! honored, HTTP/1.0 defaults to close); chunked transfer encoding is not
//! supported. Every bound ([`MAX_BODY_BYTES`], [`MAX_HEADER_BYTES`],
//! [`MAX_HEADERS`]) is enforced *during* accumulation, so a hostile client
//! cannot grow buffers past them no matter how it fragments its bytes.
//! Responses are rendered by [`append_response`] straight into the
//! connection's write buffer; nothing here touches a socket.

use std::time::Duration;

/// Upper bound on an accepted request body (16 MiB — far above any event
/// chunk the benches produce, low enough to bound a hostile request).
pub const MAX_BODY_BYTES: u64 = 16 * 1024 * 1024;

/// Upper bound on the request line + headers (before the body).
pub const MAX_HEADER_BYTES: u64 = 64 * 1024;

/// Upper bound on the number of header lines.
pub const MAX_HEADERS: usize = 100;

/// Default bound on how long a connection may idle mid-request before the
/// reactor's timer wheel evicts it (the slow-loris guard; configurable per
/// server).
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Default bound on how long a parked keep-alive connection may sit between
/// requests before it is closed (configurable per server).
pub const KEEPALIVE_TIMEOUT: Duration = Duration::from_secs(60);

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercase as received.
    pub method: String,
    /// Request target path (query strings are not split off; the API has
    /// none).
    pub path: String,
    /// Raw body bytes decoded to UTF-8.
    pub body: String,
    /// Whether the connection should be kept open after the response
    /// (HTTP/1.1 default unless `Connection: close`; HTTP/1.0 default close
    /// unless `Connection: keep-alive`).
    pub keep_alive: bool,
    /// The client's `X-Request-Id` header, if it sent one (echoed on the
    /// response; the server generates one otherwise).
    pub request_id: Option<String>,
}

/// The parsed request line + headers, held while the body accumulates.
#[derive(Debug)]
struct Head {
    method: String,
    path: String,
    content_length: usize,
    keep_alive: bool,
    request_id: Option<String>,
    /// Byte offset of the body's first byte in the parser buffer.
    body_start: usize,
}

/// Incremental HTTP/1.1 request parser: feed it bytes as they arrive, take
/// a [`Request`] once one is complete. Bytes beyond the completed request
/// stay buffered ([`RequestParser::buffered`]) — the server treats them as
/// pipelining, which it rejects (strictly one in-flight request per
/// connection).
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for line terminators.
    scanned: usize,
    /// Start offset of the line currently being scanned.
    line_start: usize,
    /// `(start, end)` of each completed header-section line (request line
    /// first), trailing `\r` stripped.
    lines: Vec<(usize, usize)>,
    head: Option<Head>,
}

impl RequestParser {
    /// An empty parser.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed request. Non-zero
    /// right after [`RequestParser::try_take`] returned a request means the
    /// client pipelined.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether the parser holds any bytes of a not-yet-complete request —
    /// the state in which a read deadline applies (a connection with an
    /// empty parser is merely idle between keep-alive requests).
    #[must_use]
    pub fn mid_request(&self) -> bool {
        !self.buf.is_empty() || self.head.is_some()
    }

    /// Tries to complete one request from the buffered bytes.
    ///
    /// # Errors
    ///
    /// `Err` means the connection is unrecoverable (bounds exceeded or
    /// malformed framing) — respond 400 and close.
    pub fn try_take(&mut self) -> Result<Option<Request>, &'static str> {
        if self.head.is_none() {
            self.scan_head()?;
        }
        let Some(head) = &self.head else {
            return Ok(None);
        };
        let total = head.body_start + head.content_length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let head = self.head.take().expect("checked above");
        let body = String::from_utf8(self.buf[head.body_start..total].to_vec())
            .map_err(|_| "body is not UTF-8")?;
        self.buf.drain(..total);
        self.scanned = 0;
        self.line_start = 0;
        self.lines.clear();
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            body,
            keep_alive: head.keep_alive,
            request_id: head.request_id,
        }))
    }

    /// Scans newly fed bytes for header-section lines; parses the head once
    /// the blank separator line arrives.
    fn scan_head(&mut self) -> Result<(), &'static str> {
        while self.scanned < self.buf.len() {
            if self.buf[self.scanned] != b'\n' {
                self.scanned += 1;
                continue;
            }
            // One complete line (strip the \n and an optional \r).
            let mut end = self.scanned;
            if end > self.line_start && self.buf[end - 1] == b'\r' {
                end -= 1;
            }
            let start = self.line_start;
            self.scanned += 1;
            self.line_start = self.scanned;
            if end == start {
                // Blank line: the header section is complete.
                if self.lines.is_empty() {
                    return Err("empty request");
                }
                let body_start = self.scanned;
                self.head = Some(self.parse_head(body_start)?);
                return Ok(());
            }
            self.lines.push((start, end));
            if self.lines.len() > MAX_HEADERS {
                return Err("too many headers");
            }
        }
        if self.buf.len() as u64 > MAX_HEADER_BYTES {
            return Err("request header section too large");
        }
        Ok(())
    }

    /// Parses the accumulated request line + header lines.
    fn parse_head(&self, body_start: usize) -> Result<Head, &'static str> {
        let line = |&(s, e): &(usize, usize)| {
            std::str::from_utf8(&self.buf[s..e]).map_err(|_| "header bytes are not UTF-8")
        };
        let request_line = line(&self.lines[0])?;
        let mut parts = request_line.split_whitespace();
        let method = parts.next().ok_or("missing method")?.to_owned();
        let path = parts.next().ok_or("missing path")?.to_owned();
        let version = parts.next().ok_or("missing version")?;
        if !version.starts_with("HTTP/1.") {
            return Err("unsupported HTTP version");
        }
        // HTTP/1.1 keeps the connection unless told otherwise; HTTP/1.0
        // closes unless told otherwise.
        let mut keep_alive = version != "HTTP/1.0";
        let mut content_length: u64 = 0;
        let mut request_id = None;
        for range in &self.lines[1..] {
            let header = line(range)?;
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| "bad content-length")?;
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("x-request-id") && !value.is_empty() {
                request_id = Some(value.to_owned());
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err("chunked transfer encoding not supported");
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err("body too large");
        }
        Ok(Head {
            method,
            path,
            content_length: content_length as usize,
            keep_alive,
            request_id,
            body_start,
        })
    }
}

/// Reason phrase for the status codes the server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Formats one `application/json` response with the given connection
/// disposition, optional `X-Request-Id` echo and extra headers.
#[must_use]
pub fn format_response(
    status: u16,
    body: &str,
    keep_alive: bool,
    request_id: Option<&str>,
    extra_headers: &[(&str, &str)],
) -> String {
    let mut out = Vec::with_capacity(128 + body.len());
    append_response(
        &mut out,
        status,
        body,
        keep_alive,
        request_id,
        extra_headers,
    );
    String::from_utf8(out).expect("response bytes are UTF-8")
}

/// [`format_response`], appended straight onto an output buffer — the
/// reactor's completion path renders into the connection's write buffer
/// without an intermediate per-response `String`.
pub fn append_response(
    out: &mut Vec<u8>,
    status: u16,
    body: &str,
    keep_alive: bool,
    request_id: Option<&str>,
    extra_headers: &[(&str, &str)],
) {
    use std::io::Write as _;
    // Writes to a `Vec` are infallible.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(id) = request_id {
        out.extend_from_slice(b"X-Request-Id: ");
        out.extend_from_slice(id.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    for (name, value) in extra_headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `raw` to a fresh parser in one piece and takes the request.
    fn parse(raw: &str) -> Result<Option<Request>, &'static str> {
        let mut parser = RequestParser::new();
        parser.feed(raw.as_bytes());
        parser.try_take()
    }

    #[test]
    fn parses_a_post_with_body() {
        let request =
            parse("POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n")
                .unwrap()
                .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/infer");
        assert_eq!(request.body, "{\"a\": 1}\n");
        assert!(request.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(request.request_id, None);
    }

    #[test]
    fn parses_a_bodyless_get() {
        let request = parse("GET /v1/stats HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/v1/stats");
        assert!(request.body.is_empty());
    }

    #[test]
    fn connection_and_request_id_headers_are_decoded() {
        let request = parse(
            "POST / HTTP/1.1\r\nConnection: close\r\nX-Request-Id: abc-123\r\nContent-Length: 0\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert!(!request.keep_alive);
        assert_eq!(request.request_id.as_deref(), Some("abc-123"));
        let old = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!old.keep_alive, "HTTP/1.0 defaults to close");
        let old_ka = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(old_ka.keep_alive);
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse("NOT-HTTP\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/2\r\n\r\n").is_err());
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: zzz\r\n\r\n").is_err());
        assert!(parse(&format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        ))
        .is_err());
        assert!(parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").is_err());
        // A blank line with no request line is an empty request; no bytes at
        // all is an idle connection, not an error.
        assert_eq!(parse("\r\n"), Err("empty request"));
        assert_eq!(parse(""), Ok(None));
    }

    #[test]
    fn incremental_parse_survives_any_byte_split() {
        let raw =
            "POST /v1/infer HTTP/1.1\r\nX-Request-Id: r-9\r\nContent-Length: 11\r\n\r\nhello world";
        // Feed the request one byte at a time: the request must appear
        // exactly once, exactly at the final byte.
        let mut parser = RequestParser::new();
        for (i, byte) in raw.bytes().enumerate() {
            assert!(
                parser.try_take().unwrap().is_none(),
                "complete after {i} bytes?"
            );
            parser.feed(&[byte]);
        }
        let request = parser.try_take().unwrap().expect("complete at last byte");
        assert_eq!(request.body, "hello world");
        assert_eq!(request.request_id.as_deref(), Some("r-9"));
        assert_eq!(parser.buffered(), 0);
        assert!(!parser.mid_request());

        // And in two uneven halves straddling the header/body boundary.
        let mut parser = RequestParser::new();
        parser.feed(&raw.as_bytes()[..50]);
        assert!(parser.try_take().unwrap().is_none());
        assert!(parser.mid_request());
        parser.feed(&raw.as_bytes()[50..]);
        assert_eq!(parser.try_take().unwrap().unwrap().body, "hello world");
    }

    #[test]
    fn pipelined_bytes_stay_buffered() {
        let mut parser = RequestParser::new();
        parser.feed(b"GET /v1/stats HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n");
        let first = parser.try_take().unwrap().unwrap();
        assert_eq!(first.path, "/v1/stats");
        assert!(parser.buffered() > 0, "second request still buffered");
    }

    #[test]
    fn oversized_header_section_fails_during_accumulation() {
        let mut parser = RequestParser::new();
        // An endless header line with no newline must fail once past the
        // bound, even though no line terminator ever arrives.
        parser.feed(&vec![b'a'; MAX_HEADER_BYTES as usize + 2]);
        assert!(parser.try_take().is_err());
        // Too many header lines fails without a blank separator.
        let mut parser = RequestParser::new();
        parser.feed(b"GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            parser.feed(format!("H{i}: v\r\n").as_bytes());
        }
        assert!(parser.try_take().is_err());
    }

    #[test]
    fn response_writer_emits_valid_http() {
        // The reactor appends responses back to back onto one write buffer;
        // each must be a whole message that its Content-Length frames.
        let mut out = Vec::new();
        append_response(&mut out, 404, "{\"error\":\"nope\"}", true, None, &[]);
        let first_len = out.len();
        append_response(&mut out, 200, "{}", false, Some("r-2"), &[]);
        let raw = String::from_utf8(out).unwrap();
        let (first, second) = raw.split_at(first_len);
        assert!(first.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(first.contains("Content-Length: 16\r\n"));
        assert!(first.ends_with("\r\n\r\n{\"error\":\"nope\"}"));
        assert_eq!(
            second,
            format_response(200, "{}", false, Some("r-2"), &[]),
            "appending does not depend on what the buffer already holds"
        );
    }

    #[test]
    fn format_response_headers() {
        let keep = format_response(200, "{}", true, Some("id-1"), &[("Retry-After", "1")]);
        assert!(keep.contains("Connection: keep-alive\r\n"));
        assert!(keep.contains("X-Request-Id: id-1\r\n"));
        assert!(keep.contains("Retry-After: 1\r\n"));
        let close = format_response(429, "{}", false, None, &[]);
        assert!(close.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(close.contains("Connection: close\r\n"));
    }
}
