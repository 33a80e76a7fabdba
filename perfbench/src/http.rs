//! A minimal HTTP/1.1 client for `POST /query`.
//!
//! Requests use `Content-Length` framing and never ask the server to
//! close. The client keeps the connection whenever the reply allows it,
//! and counts every connect, so a server that learns keep-alive is used
//! without changing the benchmark.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Reply {
    pub status: u16,
    pub body: String,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened so far.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            connects: 0,
        }
    }

    /// Send `body` to `path` and read the whole reply. A kept connection
    /// the server has closed in the meantime is retried once on a fresh
    /// connection.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Reply> {
        if let Some(mut conn) = self.conn.take() {
            if let Ok((reply, keep)) = exchange(&mut conn, path, body) {
                if keep {
                    self.conn = Some(conn);
                }
                return Ok(reply);
            }
        }
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.connects += 1;
        let mut conn = BufReader::new(stream);
        let (reply, keep) = exchange(&mut conn, path, body)?;
        if keep {
            self.conn = Some(conn);
        }
        Ok(reply)
    }
}

/// One request/reply on `conn`; also says whether the connection stays
/// usable.
fn exchange(conn: &mut BufReader<TcpStream>, path: &str, body: &str) -> io::Result<(Reply, bool)> {
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: lyric\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let stream = conn.get_mut();
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut line = String::new();
    if conn.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    }
    let mut parts = line.split_whitespace();
    let version = parts.next().unwrap_or("");
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let mut keep = version == "HTTP/1.1";
    let mut length: Option<usize> = None;
    loop {
        line.clear();
        if conn.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside the headers",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse().map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "malformed Content-Length")
            })?);
        } else if name.eq_ignore_ascii_case("connection") {
            keep = value.eq_ignore_ascii_case("keep-alive");
        }
    }
    let mut bytes = Vec::new();
    match length {
        Some(n) => {
            bytes.resize(n, 0);
            conn.read_exact(&mut bytes)?;
        }
        None => {
            conn.read_to_end(&mut bytes)?;
            keep = false;
        }
    }
    let body = String::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "reply body is not UTF-8"))?;
    Ok((Reply { status, body }, keep))
}
