//! Both ends of the wire on a unix socket.
//!
//! An untraced run serves with `serve::Server::run` and queries through
//! `serve::connect` — the production code, unchanged. A traced run needs
//! spans on the server side too, so it serves with the bench's own
//! connection loop built from the same public calls `Server::run` makes
//! per request (`read_frame` → `Request::decode` → `respond` →
//! `Response::encode` → `write_frame`), and queries with the same calls
//! `Client::call` makes (`Request::encode` → `write_frame` →
//! `read_frame` → `Response::decode`).

use crate::trace::{Clock, Kind, SpanLog, Stage};
use serve::wire::{read_frame, respond, write_frame, ReadWrite, DEFAULT_IO_TIMEOUT};
use serve::{Client, Request, Response, Server, Service};
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Spans a traced server connection can record.
const SERVER_SPANS: usize = 1 << 18;

pub enum ServerThread {
    Plain(JoinHandle<io::Result<usize>>),
    Traced(JoinHandle<io::Result<SpanLog>>),
}

impl ServerThread {
    /// Bind `sock` and serve `svc` on a new thread.
    pub fn start(sock: &Path, svc: Arc<Service>, traced: Option<&Clock>) -> Result<Self, String> {
        let err = |e: io::Error| format!("binding {}: {e}", sock.display());
        Ok(match traced {
            None => {
                let server = Server::bind(&format!("unix:{}", sock.display())).map_err(err)?;
                ServerThread::Plain(std::thread::spawn(move || server.run(svc)))
            }
            Some(clock) => {
                let listener = UnixListener::bind(sock).map_err(err)?;
                let log = clock.log(SERVER_SPANS);
                ServerThread::Traced(std::thread::spawn(move || {
                    serve_traced(&listener, &svc, log)
                }))
            }
        })
    }

    /// Wait for the server to stop (after a client's shutdown request);
    /// a traced server hands back its span log.
    pub fn join(self) -> Result<Option<SpanLog>, String> {
        let panicked = |_| "server thread panicked".to_string();
        match self {
            ServerThread::Plain(h) => h
                .join()
                .map_err(panicked)?
                .map(|_| None)
                .map_err(|e| format!("serving: {e}")),
            ServerThread::Traced(h) => h
                .join()
                .map_err(panicked)?
                .map(Some)
                .map_err(|e| format!("serving: {e}")),
        }
    }
}

/// One connection, answered until the client hangs up or sends
/// `shutdown`. Waiting in `read_frame` for the next request is idle
/// time, so it carries no span.
fn serve_traced(listener: &UnixListener, svc: &Service, mut log: SpanLog) -> io::Result<SpanLog> {
    let (mut stream, _) = listener.accept()?;
    stream.set_read_timeout(Some(DEFAULT_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(DEFAULT_IO_TIMEOUT))?;
    let mut seq = 0u64;
    while let Some(body) = read_frame(&mut stream)? {
        let request = log.span(Stage::SrvDecode, seq, || Request::decode(&body));
        let response = match &request {
            Ok(req) => log.span(Stage::Respond, seq, || respond(svc, req)),
            Err(e) => Response::Error(e.to_string()),
        };
        let out = log.span(Stage::SrvEncode, seq, || response.encode());
        log.span(Stage::SrvWrite, seq, || write_frame(&mut stream, &out))?;
        seq += 1;
        if matches!(request, Ok(Request::Shutdown)) {
            break;
        }
    }
    Ok(log)
}

/// The client end of the one connection a run opens.
pub enum Conn {
    Plain(Client<Box<dyn ReadWrite>>),
    Traced(UnixStream),
}

impl Conn {
    pub fn open(sock: &Path, traced: bool) -> Result<Self, String> {
        let err = |e: io::Error| format!("connecting to {}: {e}", sock.display());
        Ok(if traced {
            Conn::Traced(UnixStream::connect(sock).map_err(err)?)
        } else {
            Conn::Plain(serve::connect(&format!("unix:{}", sock.display())).map_err(err)?)
        })
    }

    /// One round trip inside a `Query` span tagged `seq`; returns the
    /// response and, on a traced connection, the answer frame's bytes.
    pub fn call(
        &mut self,
        request: &Request,
        kind: Kind,
        seq: u64,
        log: &mut SpanLog,
    ) -> io::Result<(Response, usize)> {
        let open = log.begin(Stage::Query(kind), seq);
        let out = match self {
            Conn::Plain(client) => client.call(request).map(|r| (r, 0)),
            Conn::Traced(stream) => {
                let body = log.span(Stage::CliEncode, seq, || request.encode());
                log.span(Stage::CliWrite, seq, || write_frame(stream, &body))?;
                let frame = log
                    .span(Stage::CliRead, seq, || read_frame(stream))?
                    .ok_or_else(|| io::Error::other("server closed the connection"))?;
                let response = log.span(Stage::CliDecode, seq, || Response::decode(&frame))?;
                Ok((response, frame.len()))
            }
        };
        log.end(open);
        out
    }
}
