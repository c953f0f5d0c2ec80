//! A minimal blocking client for the daemon's wire protocol, used by the
//! CLI `serve` verbs and the service tests.

use crate::wire::{Request, Response};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// One connection to a running daemon. Requests and responses are
/// strictly paired: every [`Client::call`] writes one line and reads one
/// line.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects to the daemon socket at `path`.
    pub(crate) fn connect(path: impl AsRef<Path>) -> io::Result<Client> {
        let writer = UnixStream::connect(path)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Connects, retrying until the socket appears or `timeout` elapses —
    /// the "daemon is still starting up" path.
    pub fn connect_with_retry(path: impl AsRef<Path>, timeout: Duration) -> io::Result<Client> {
        let path = path.as_ref();
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(path) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Sends one request line and reads the matching response line.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let mut line = request.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection before replying",
            ));
        }
        Response::parse_line(&reply)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}
