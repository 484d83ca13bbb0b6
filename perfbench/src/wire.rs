//! A TAXII peer on one persistent connection, driven with raw frames.
//!
//! `TaxiiClient::roundtrip` encodes the request, writes one frame,
//! reads one frame and decodes the JSON response. [`Peer`] exposes the
//! same three steps separately, so the wire round trip and the response
//! decode can be timed apart.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use cais_common::frame::{read_frame, write_frame};
use cais_taxii::{Request, Response};

/// Socket timeout: a hung server fails the operation instead of the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A persistent framed connection to a TAXII server.
pub struct Peer {
    stream: TcpStream,
}

impl Peer {
    /// Connects once; every later request reuses the connection.
    ///
    /// # Errors
    ///
    /// Returns connection errors.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Peer { stream })
    }

    /// Writes one request frame and reads the response frame.
    ///
    /// # Errors
    ///
    /// Returns I/O errors.
    pub fn roundtrip(&mut self, body: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.stream, body)?;
        read_frame(&mut self.stream)
    }
}

/// Encodes a request body.
///
/// # Errors
///
/// Returns serialization errors as `InvalidData`.
pub fn encode(request: &Request) -> io::Result<Vec<u8>> {
    serde_json::to_vec(request).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Decodes a response frame.
///
/// # Errors
///
/// Returns parse errors as `InvalidData`.
pub fn decode(frame: &[u8]) -> io::Result<Response> {
    serde_json::from_slice(frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}
