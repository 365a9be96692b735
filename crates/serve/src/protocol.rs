//! The line-delimited request/response protocol.
//!
//! One JSON object per line in each direction. Requests:
//!
//! ```text
//! {"op":"submit","spec":"<spec text>"}            submit a TOML spec
//! {"op":"submit","format":"json","spec":"..."}    submit a JSON spec
//! {"op":"stats"}                                  session counters
//! ```
//!
//! Responses:
//!
//! ```text
//! {"ok":true,"hash":"<16 hex>","report":{...}}    submit: canonical report
//! {"ok":true,"entries":N,"hits":N,...}            stats
//! {"ok":false,"kind":"<kind>","error":"..."}      any failure
//! ```
//!
//! A submit response depends only on the canonical spec — it carries
//! no cached/fresh marker and the report is the canonicalized form
//! with host-timing fields zeroed — so resubmitting a spec yields
//! byte-identical bytes whether the result came from the store, from a
//! shared in-flight run, or from a fresh one. Cache behavior is
//! observable through `stats` instead.

use hotspots_telemetry::json::{self, Json};

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run (or recall) the scenario serialized in `spec`.
    Submit {
        /// How `spec` is encoded.
        format: SpecFormat,
        /// The spec text itself, TOML or JSON per `format`.
        spec: String,
    },
    /// Report session counters.
    Stats,
}

/// The encoding of a submitted spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecFormat {
    /// `ScenarioSpec::from_toml` (the default).
    Toml,
    /// `ScenarioSpec::from_json`.
    Json,
}

/// The failure class of an error response, in the `kind` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line itself was malformed (including bytes that are
    /// not UTF-8).
    Protocol,
    /// The request line exceeded
    /// [`MAX_REQUEST_BYTES`](crate::server::MAX_REQUEST_BYTES); it was
    /// discarded unread.
    RequestTooLarge,
    /// The spec failed to parse, validate, or build.
    Spec,
    /// The worker queue is full; the client should back off and retry.
    QueueFull,
    /// The run itself failed (worker loss, I/O, store failure).
    Runtime,
}

impl ErrorKind {
    /// The wire name of this kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::RequestTooLarge => "request-too-large",
            ErrorKind::Spec => "spec",
            ErrorKind::QueueFull => "queue-full",
            ErrorKind::Runtime => "runtime",
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a message describing the malformation; the server reports
/// it as an [`ErrorKind::Protocol`] response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request needs a string field \"op\"")?;
    match op {
        "submit" => {
            let spec = doc
                .get("spec")
                .and_then(Json::as_str)
                .ok_or("submit needs a string field \"spec\"")?
                .to_owned();
            let format = match doc.get("format").and_then(Json::as_str) {
                None | Some("toml") => SpecFormat::Toml,
                Some("json") => SpecFormat::Json,
                Some(other) => return Err(format!("unknown spec format {other:?}")),
            };
            Ok(Request::Submit { format, spec })
        }
        "stats" => Ok(Request::Stats),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Renders a successful submit response. `report_jsonl` must be a
/// complete JSON object (a canonicalized run-report line); it is
/// inlined verbatim so the response bytes are exactly as stored.
#[must_use]
pub fn ok_submit(hash_text: &str, report_jsonl: &str) -> String {
    format!("{{\"ok\":true,\"hash\":\"{hash_text}\",\"report\":{report_jsonl}}}")
}

/// Renders a stats response. Field order is fixed so sessions diff
/// cleanly.
#[must_use]
pub fn ok_stats(
    entries: usize,
    hits: u64,
    misses: u64,
    runs: u64,
    rejected: u64,
    evictions: u64,
) -> String {
    format!(
        "{{\"ok\":true,\"entries\":{entries},\"hits\":{hits},\"misses\":{misses},\
         \"runs\":{runs},\"rejected\":{rejected},\"evictions\":{evictions}}}"
    )
}

/// Renders an error response.
#[must_use]
pub fn error(kind: ErrorKind, message: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"kind\":\"");
    out.push_str(kind.as_str());
    out.push_str("\",\"error\":");
    json::write_str(&mut out, message);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_defaults_to_toml() {
        let req = parse_request("{\"op\":\"submit\",\"spec\":\"[meta]\\nname = \\\"x\\\"\"}")
            .expect("parses");
        assert_eq!(
            req,
            Request::Submit {
                format: SpecFormat::Toml,
                spec: "[meta]\nname = \"x\"".to_owned(),
            }
        );
    }

    #[test]
    fn submit_accepts_json_format() {
        let req = parse_request("{\"op\":\"submit\",\"format\":\"json\",\"spec\":\"{}\"}")
            .expect("parses");
        assert!(matches!(
            req,
            Request::Submit {
                format: SpecFormat::Json,
                ..
            }
        ));
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        assert!(parse_request("not json")
            .unwrap_err()
            .contains("bad request JSON"));
        assert!(parse_request("{}").unwrap_err().contains("\"op\""));
        assert!(parse_request("{\"op\":\"submit\"}")
            .unwrap_err()
            .contains("\"spec\""));
        assert!(
            parse_request("{\"op\":\"submit\",\"spec\":\"\",\"format\":\"yaml\"}")
                .unwrap_err()
                .contains("yaml")
        );
        assert!(parse_request("{\"op\":\"dance\"}")
            .unwrap_err()
            .contains("dance"));
    }

    #[test]
    fn error_responses_escape_the_message() {
        let line = error(ErrorKind::Spec, "bad \"field\"\nline 2");
        assert_eq!(
            line,
            "{\"ok\":false,\"kind\":\"spec\",\"error\":\"bad \\\"field\\\"\\nline 2\"}"
        );
    }
}
