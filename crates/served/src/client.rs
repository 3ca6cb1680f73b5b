//! A minimal blocking client for the daemon's line-JSON protocol.
//!
//! One [`Client`] wraps one TCP connection and issues requests
//! sequentially; spin up one client per thread for concurrency (the
//! daemon serves each connection from a dedicated worker). Used by the
//! load generator and the integration tests, and importable by anything
//! that wants tunings from a resident daemon instead of an in-process
//! [`lego_tune::Tuner`].

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use lego_tune::Json;

use crate::protocol::{FleetWire, TuneSpec};

/// One connection to a running `lego-served` daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends one raw request line (newline appended if missing) and
    /// returns the raw response line, newline stripped. Exposed so
    /// tests can send deliberately malformed lines.
    ///
    /// # Errors
    ///
    /// I/O failure, or the daemon closing the connection.
    pub fn roundtrip_line(&mut self, line: &str) -> std::io::Result<String> {
        let mut out = line.trim_end_matches('\n').to_string();
        out.push('\n');
        self.writer.write_all(out.as_bytes())?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Sends one request object and parses the response.
    ///
    /// # Errors
    ///
    /// I/O failure or an unparseable response line.
    pub fn request(&mut self, req: &Json) -> std::io::Result<Json> {
        let line = self.roundtrip_line(&req.render())?;
        Json::parse(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable response {line:?}: {e}"),
            )
        })
    }

    /// Issues a `tune` request. The response object always carries
    /// `"ok"`; on success it holds the winner config and estimates, on
    /// failure an `"error"` string.
    ///
    /// # Errors
    ///
    /// Transport-level failures only — a tuning error is an `Ok`
    /// response with `"ok": false`.
    pub fn tune(&mut self, spec: &TuneSpec) -> std::io::Result<Json> {
        self.request(&spec.to_json())
    }

    /// Issues a `fleet` request: tunes a whole grid through the
    /// daemon's fleet driver and returns the run summary with per-key
    /// outcomes.
    ///
    /// # Errors
    ///
    /// Transport-level failures only — a fleet error (a malformed
    /// grid, or one over the daemon's key or thread cap) is an `Ok`
    /// response with `"ok": false`.
    pub fn fleet(&mut self, wire: &FleetWire) -> std::io::Result<Json> {
        self.request(&wire.to_json())
    }

    /// Fetches the live metrics report.
    ///
    /// # Errors
    ///
    /// Transport-level failures.
    pub fn metrics(&mut self) -> std::io::Result<Json> {
        self.request(&Json::obj([("verb", Json::Str("metrics".into()))]))
    }

    /// Asks the daemon to drain, flush its cache, and exit.
    ///
    /// # Errors
    ///
    /// Transport-level failures.
    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.request(&Json::obj([("verb", Json::Str("shutdown".into()))]))
    }
}

/// True when a response object reports success.
pub fn is_ok(response: &Json) -> bool {
    matches!(response.get("ok"), Some(Json::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;

    #[test]
    fn is_ok_reads_the_ok_field() {
        assert!(is_ok(&Json::obj([("ok", Json::Bool(true))])));
        assert!(!is_ok(&Json::obj([("ok", Json::Bool(false))])));
        assert!(!is_ok(&protocol::error_response("nope")));
        assert!(!is_ok(&Json::Null));
    }
}
