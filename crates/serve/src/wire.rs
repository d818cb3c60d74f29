//! Length-prefixed wire protocol over Unix or TCP sockets, std-only.
//!
//! Answers ride the existing `CEP1` epoch envelope
//! ([`cocosketch::epoch::encode`]): a query response *is* a (derived)
//! epoch whose tables carry the answer entries keyed by the queried
//! spec, so clients reuse the same total decoder that reads epoch
//! files off disk. Key specs travel in the `CFT1` snapshot encoding
//! (`src_bits u8 | dst_bits u8 | flags u8`).
//!
//! # Framing
//!
//! Every message, both directions, is `len u32 LE | body`, `len =
//! body.len() <=` [`MAX_FRAME`]. Request bodies:
//!
//! ```text
//! op 1  partial   sel u8 (0 latest | 1 id) | id u64 | spec 3B
//! op 2  multi     sel u8 | id u64 | threshold u64 | n u16 | spec 3B x n
//! op 3  window    first u64 | last u64 | spec 3B
//! op 4  info
//! op 5  shutdown
//! ```
//!
//! Response bodies are `status u8 | payload`:
//!
//! ```text
//! status 0  answer    CEP1 epoch (id/packets/weight from the answering
//!                     epoch; one table per queried spec, rows sorted)
//! status 1  error     utf-8 message
//! status 2  info      present u8 | oldest u64 | latest u64 |
//!                     epochs u64 | hits u64 | misses u64 | bypasses u64
//! status 3  bye       empty (shutdown acknowledgement)
//! ```
//!
//! The server answers requests sequentially per connection and
//! connections concurrently (one thread each — readers never lock, so
//! they scale with cores). TCP streams on both ends run with
//! `TCP_NODELAY`: a frame is two writes (length, then body), and
//! Nagle's algorithm would hold the second for the peer's delayed ACK. A `shutdown` request stops the accept loop
//! and ends [`Server::run`] once in-flight connections finish; that
//! keeps CLI end-to-end tests hermetic.
//!
//! Accepted sockets carry read/write timeouts
//! ([`DEFAULT_IO_TIMEOUT`], 5 s; configurable via
//! [`Server::set_io_timeout`], `None` disables): a client that stalls
//! mid-frame — half a length prefix, a body that never arrives, a
//! response never drained — has its connection closed at the next
//! timed-out `read`/`write` instead of parking a server thread
//! forever. Well-behaved clients are unaffected; the per-connection
//! thread just returns and the socket drops.

use crate::service::{Select, Service, ServiceInfo};
use cocosketch::{epoch, Epoch, FlowTable};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use traffic::KeySpec;

/// Upper bound on one frame's body, both directions. Large enough for
/// multi-million-row answers, small enough that a garbage length
/// prefix cannot trigger a huge allocation.
pub const MAX_FRAME: usize = 64 << 20;

const OP_PARTIAL: u8 = 1;
const OP_MULTI: u8 = 2;
const OP_WINDOW: u8 = 3;
const OP_INFO: u8 = 4;
const OP_SHUTDOWN: u8 = 5;

const ST_ANSWER: u8 = 0;
const ST_ERROR: u8 = 1;
const ST_INFO: u8 = 2;
const ST_BYE: u8 = 3;

/// A decoded request, as the server sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// One partial-key query.
    Partial(Select, KeySpec),
    /// A spec list (hierarchy) with a size threshold (0 = unfiltered).
    Multi(Select, Vec<KeySpec>, u64),
    /// One spec summed over the retained epochs in `first..=last`.
    Window(u64, u64, KeySpec),
    /// Catalog/cache counters.
    Info,
    /// Stop the server once in-flight connections finish.
    Shutdown,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Byte-slice cursor; every read is checked, malformed input is `Err`,
/// never a panic.
struct Cursor<'a> {
    data: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.data.len() {
            return Err(invalid("truncated request"));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0]) // LINT: bounded(take(1) returned a 1-byte slice)
    }

    fn u16(&mut self) -> io::Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]])) // LINT: bounded(take(2) returned a 2-byte slice)
    }

    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn spec(&mut self) -> io::Result<KeySpec> {
        let b = self.take(3)?;
        let spec = KeySpec {
            src_ip_bits: b[0],       // LINT: bounded(take(3) returned a 3-byte slice)
            dst_ip_bits: b[1],       // LINT: bounded(take(3) returned a 3-byte slice)
            src_port: b[2] & 1 != 0, // LINT: bounded(take(3) returned a 3-byte slice)
            dst_port: b[2] & 2 != 0, // LINT: bounded(take(3) returned a 3-byte slice)
            proto: b[2] & 4 != 0,    // LINT: bounded(take(3) returned a 3-byte slice)
        };
        if spec.src_ip_bits > 32 || spec.dst_ip_bits > 32 {
            return Err(invalid("invalid key spec"));
        }
        Ok(spec)
    }

    fn done(&self) -> io::Result<()> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(invalid("trailing bytes in request"))
        }
    }
}

fn push_spec(out: &mut Vec<u8>, spec: &KeySpec) {
    out.push(spec.src_ip_bits);
    out.push(spec.dst_ip_bits);
    out.push(u8::from(spec.src_port) | u8::from(spec.dst_port) << 1 | u8::from(spec.proto) << 2);
}

fn push_select(out: &mut Vec<u8>, sel: Select) {
    match sel {
        Select::Latest => {
            out.push(0);
            out.extend_from_slice(&0u64.to_le_bytes());
        }
        Select::Id(id) => {
            out.push(1);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
}

fn take_select(cur: &mut Cursor<'_>) -> io::Result<Select> {
    let tag = cur.u8()?;
    let id = cur.u64()?;
    match tag {
        0 => Ok(Select::Latest),
        1 => Ok(Select::Id(id)),
        _ => Err(invalid("bad epoch selector")),
    }
}

impl Request {
    /// Encode this request's frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Partial(sel, spec) => {
                out.push(OP_PARTIAL);
                push_select(&mut out, *sel);
                push_spec(&mut out, spec);
            }
            Request::Multi(sel, specs, threshold) => {
                out.push(OP_MULTI);
                push_select(&mut out, *sel);
                out.extend_from_slice(&threshold.to_le_bytes());
                out.extend_from_slice(&(specs.len() as u16).to_le_bytes());
                for spec in specs {
                    push_spec(&mut out, spec);
                }
            }
            Request::Window(first, last, spec) => {
                out.push(OP_WINDOW);
                out.extend_from_slice(&first.to_le_bytes());
                out.extend_from_slice(&last.to_le_bytes());
                push_spec(&mut out, spec);
            }
            Request::Info => out.push(OP_INFO),
            Request::Shutdown => out.push(OP_SHUTDOWN),
        }
        out
    }

    /// Decode a frame body. Total: garbage is `Err`, never a panic.
    pub fn decode(body: &[u8]) -> io::Result<Request> {
        let mut cur = Cursor { data: body };
        let req = match cur.u8()? {
            OP_PARTIAL => Request::Partial(take_select(&mut cur)?, cur.spec()?),
            OP_MULTI => {
                let sel = take_select(&mut cur)?;
                let threshold = cur.u64()?;
                let n = usize::from(cur.u16()?);
                let mut specs = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    specs.push(cur.spec()?);
                }
                Request::Multi(sel, specs, threshold)
            }
            OP_WINDOW => Request::Window(cur.u64()?, cur.u64()?, cur.spec()?),
            OP_INFO => Request::Info,
            OP_SHUTDOWN => Request::Shutdown,
            _ => return Err(invalid("unknown request op")),
        };
        cur.done()?;
        Ok(req)
    }
}

/// A decoded response, as the client sees it.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The answer epoch: one table per queried spec, rows sorted.
    Answer(Epoch),
    /// The request failed; the message says why.
    Error(String),
    /// Catalog occupancy and cache counters.
    Info(ServiceInfo),
    /// Shutdown acknowledged.
    Bye,
}

impl Response {
    /// Encode this response's frame body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Answer(e) => {
                let mut out = vec![ST_ANSWER];
                epoch::encode_into(e, &mut out);
                out
            }
            Response::Error(msg) => {
                let mut out = vec![ST_ERROR];
                out.extend_from_slice(msg.as_bytes());
                out
            }
            Response::Info(info) => {
                let mut out = vec![ST_INFO];
                let (present, oldest, latest) = match info.ids {
                    Some((a, b)) => (1u8, a, b),
                    None => (0u8, 0, 0),
                };
                out.push(present);
                for v in [
                    oldest,
                    latest,
                    info.epochs as u64,
                    info.cache.hits,
                    info.cache.misses,
                    info.cache.bypasses,
                    info.cold_errors,
                ] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out
            }
            Response::Bye => vec![ST_BYE],
        }
    }

    /// Decode a frame body. Total: garbage is `Err`, never a panic.
    pub fn decode(body: &[u8]) -> io::Result<Response> {
        let mut cur = Cursor { data: body };
        match cur.u8()? {
            ST_ANSWER => Ok(Response::Answer(epoch::decode(cur.data)?)),
            ST_ERROR => Ok(Response::Error(
                String::from_utf8_lossy(cur.data).into_owned(),
            )),
            ST_INFO => {
                let present = cur.u8()? != 0;
                let (oldest, latest) = (cur.u64()?, cur.u64()?);
                let info = ServiceInfo {
                    ids: present.then_some((oldest, latest)),
                    epochs: usize::try_from(cur.u64()?).map_err(|_| invalid("epoch count"))?,
                    cache: crate::cache::CacheStats {
                        hits: cur.u64()?,
                        misses: cur.u64()?,
                        bypasses: cur.u64()?,
                    },
                    cold_errors: cur.u64()?,
                };
                cur.done()?;
                Ok(Response::Info(info))
            }
            ST_BYE => Ok(Response::Bye),
            _ => Err(invalid("unknown response status")),
        }
    }
}

/// Write one `len | body` frame.
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(invalid("frame too large"));
    }
    stream.write_all(&(body.len() as u32).to_le_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Read one `len | body` frame. `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up between requests).
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(invalid("frame too large"));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Evaluate one request against the service. Answer construction is
/// pure reuse: sorted entries become [`FlowTable`]s keyed by their
/// spec inside a derived [`Epoch`].
pub fn respond(service: &Service, request: &Request) -> Response {
    let answer_epoch = |id: u64, packets: u64, weight: u64, tables: Vec<FlowTable>| -> Response {
        Response::Answer(Epoch {
            id,
            packets,
            weight,
            tables,
        })
    };
    match request {
        Request::Partial(sel, spec) => match service.partial(*sel, spec) {
            Some(ans) => answer_epoch(
                ans.epoch,
                ans.packets,
                ans.weight,
                vec![FlowTable::new(ans.spec, ans.entries)],
            ),
            None => Response::Error("no such epoch, or spec not partial of the table".into()),
        },
        Request::Multi(sel, specs, threshold) => match service.multi(*sel, specs, *threshold) {
            Some(answers) => {
                let (id, packets, weight) = answers
                    .first()
                    .map(|a| (a.epoch, a.packets, a.weight))
                    .unwrap_or((0, 0, 0));
                answer_epoch(
                    id,
                    packets,
                    weight,
                    answers
                        .into_iter()
                        .map(|a| FlowTable::new(a.spec, a.entries))
                        .collect(),
                )
            }
            None => Response::Error("no such epoch, or a spec not partial of the table".into()),
        },
        Request::Window(first, last, spec) => match service.window(*first, *last, spec) {
            Some((ans, _contributed)) => answer_epoch(
                ans.epoch,
                ans.packets,
                ans.weight,
                vec![FlowTable::new(ans.spec, ans.entries)],
            ),
            None => Response::Error("no retained epoch in range, or spec not partial".into()),
        },
        Request::Info => Response::Info(service.info()),
        Request::Shutdown => Response::Bye,
    }
}

/// One bound listening socket, Unix or TCP.
#[derive(Debug)]
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// Connection stream counterpart to [`Listener`].
#[derive(Debug)]
enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Default per-connection I/O timeout (see
/// [`Server::set_io_timeout`]): generous for a LAN round trip, tight
/// enough that a peer stalling mid-frame cannot hold a worker thread —
/// and the shutdown join waiting on it — hostage indefinitely.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The wire server: bind, then [`run`](Self::run) until a client sends
/// `shutdown`.
#[derive(Debug)]
pub struct Server {
    listener: Listener,
    addr: String,
    io_timeout: Option<Duration>,
}

impl Server {
    /// Bind `addr`: `unix:PATH`, `tcp:HOST:PORT`, or a bare
    /// `HOST:PORT` (TCP). `PORT` may be 0 to pick a free port — the
    /// chosen one is reflected by [`addr`](Self::addr).
    pub fn bind(addr: &str) -> io::Result<Server> {
        if let Some(path) = addr.strip_prefix("unix:") {
            // A stale socket file from a previous run would fail the
            // bind; removing it is the canonical Unix-socket dance.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            Ok(Server {
                listener: Listener::Unix(listener),
                addr: format!("unix:{path}"),
                io_timeout: Some(DEFAULT_IO_TIMEOUT),
            })
        } else {
            let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
            let listener = TcpListener::bind(hostport)?;
            let local = listener.local_addr()?;
            Ok(Server {
                listener: Listener::Tcp(listener),
                addr: format!("tcp:{local}"),
                io_timeout: Some(DEFAULT_IO_TIMEOUT),
            })
        }
    }

    /// Override the per-connection read/write timeout applied to every
    /// accepted stream (default [`DEFAULT_IO_TIMEOUT`]; `None` waits
    /// forever, the pre-timeout behaviour). A peer that stalls past
    /// the deadline mid-frame gets its connection closed; the server
    /// and every other connection keep running.
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) {
        self.io_timeout = timeout;
    }

    /// The bound address, in the same `unix:`/`tcp:` syntax
    /// [`bind`](Self::bind) takes.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Serve until some client sends `shutdown`. Each connection gets
    /// a thread; per-request work is lock-free reads on `service`, so
    /// concurrent connections scale with cores. Returns the number of
    /// connections served.
    pub fn run(self, service: Arc<Service>) -> io::Result<usize> {
        match &self.listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Unix(l) => l.set_nonblocking(true)?,
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        let mut served = 0usize;
        while !stop.load(Ordering::Acquire) {
            let accepted = match &self.listener {
                Listener::Tcp(l) => match l.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false)?;
                        s.set_nodelay(true)?;
                        s.set_read_timeout(self.io_timeout)?;
                        s.set_write_timeout(self.io_timeout)?;
                        Some(Stream::Tcp(s))
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
                Listener::Unix(l) => match l.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false)?;
                        s.set_read_timeout(self.io_timeout)?;
                        s.set_write_timeout(self.io_timeout)?;
                        Some(Stream::Unix(s))
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => return Err(e),
                },
            };
            match accepted {
                Some(stream) => {
                    served += 1;
                    let service = Arc::clone(&service);
                    let stop = Arc::clone(&stop);
                    workers.push(std::thread::spawn(move || {
                        // Connection errors (peer reset mid-frame, bad
                        // framing) end that connection only.
                        let _ = serve_connection(stream, &service, &stop);
                    }));
                }
                // Poll-accept: cheap (one syscall per 500µs while
                // idle) and keeps shutdown prompt without signals.
                None => std::thread::sleep(Duration::from_micros(500)),
            }
        }
        for worker in workers {
            let _ = worker.join();
        }
        if let Some(path) = self.addr.strip_prefix("unix:") {
            let _ = std::fs::remove_file(path);
        }
        Ok(served)
    }
}

fn serve_connection(mut stream: Stream, service: &Service, stop: &AtomicBool) -> io::Result<()> {
    while let Some(body) = read_frame(&mut stream)? {
        let response = match Request::decode(&body) {
            Ok(request) => {
                let response = respond(service, &request);
                if request == Request::Shutdown {
                    stop.store(true, Ordering::Release);
                }
                response
            }
            Err(e) => Response::Error(e.to_string()),
        };
        write_frame(&mut stream, &response.encode())?;
        if stop.load(Ordering::Acquire) {
            break;
        }
    }
    Ok(())
}

/// A blocking client over any frame-capable stream.
#[derive(Debug)]
pub struct Client<S> {
    stream: S,
}

/// Connect to a server address in [`Server::bind`] syntax.
pub fn connect(addr: &str) -> io::Result<Client<Box<dyn ReadWrite>>> {
    if let Some(path) = addr.strip_prefix("unix:") {
        Ok(Client::new(Box::new(UnixStream::connect(path)?)))
    } else {
        let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
        let stream = TcpStream::connect(hostport)?;
        stream.set_nodelay(true)?;
        Ok(Client::new(Box::new(stream)))
    }
}

/// [`Read`] + [`Write`], nameable for trait objects.
pub trait ReadWrite: Read + Write + Send {}
impl<T: Read + Write + Send> ReadWrite for T {}

impl<S: Read + Write> Client<S> {
    /// Wrap an already-connected stream.
    ///
    /// A caller wrapping its own [`TcpStream`] must call
    /// [`TcpStream::set_nodelay`] on it first, as [`connect`] does:
    /// [`write_frame`] sends the length prefix and the body as two
    /// writes, and with Nagle's algorithm on, the second waits for the
    /// peer's delayed ACK — tens of milliseconds per round trip.
    pub fn new(stream: S) -> Self {
        Self { stream }
    }

    /// Send one request and read its response.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &request.encode())?;
        let body =
            read_frame(&mut self.stream)?.ok_or_else(|| invalid("server closed the connection"))?;
        Response::decode(&body)
    }

    /// Partial-key query; the answer epoch's single table holds the
    /// sorted entries.
    pub fn partial(&mut self, sel: Select, spec: &KeySpec) -> io::Result<Epoch> {
        match self.call(&Request::Partial(sel, *spec))? {
            Response::Answer(e) => Ok(e),
            Response::Error(msg) => Err(invalid(&msg)),
            _ => Err(invalid("unexpected response")),
        }
    }

    /// Spec-list query (one answer table per spec, `specs` order).
    pub fn multi(&mut self, sel: Select, specs: &[KeySpec], threshold: u64) -> io::Result<Epoch> {
        match self.call(&Request::Multi(sel, specs.to_vec(), threshold))? {
            Response::Answer(e) => Ok(e),
            Response::Error(msg) => Err(invalid(&msg)),
            _ => Err(invalid("unexpected response")),
        }
    }

    /// Windowed rollup over `first..=last`.
    pub fn window(&mut self, first: u64, last: u64, spec: &KeySpec) -> io::Result<Epoch> {
        match self.call(&Request::Window(first, last, *spec))? {
            Response::Answer(e) => Ok(e),
            Response::Error(msg) => Err(invalid(&msg)),
            _ => Err(invalid("unexpected response")),
        }
    }

    /// Catalog/cache counters.
    pub fn info(&mut self) -> io::Result<ServiceInfo> {
        match self.call(&Request::Info)? {
            Response::Info(info) => Ok(info),
            Response::Error(msg) => Err(invalid(&msg)),
            _ => Err(invalid("unexpected response")),
        }
    }

    /// Ask the server to stop (acknowledged before it does).
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            Response::Error(msg) => Err(invalid(&msg)),
            _ => Err(invalid("unexpected response")),
        }
    }
}

#[cfg(test)]
#[cfg(not(feature = "loom"))]
mod tests {
    use super::*;
    use crate::service::service;
    use traffic::FiveTuple;

    fn publish_demo(publisher: &mut crate::service::Publisher, id: u64, rows: u32) -> Epoch {
        let full = KeySpec::FIVE_TUPLE;
        let table = FlowTable::new(
            full,
            (0..rows)
                .map(|i| {
                    (
                        full.project(&FiveTuple::new(i % 31, i % 17, 443, 80, 6)),
                        u64::from(i) + 1,
                    )
                })
                .collect(),
        );
        let e = Epoch {
            id,
            packets: u64::from(rows),
            weight: (0..u64::from(rows)).map(|i| i + 1).sum(),
            tables: vec![table],
        };
        publisher.publish_epoch(e.clone());
        e
    }

    #[test]
    fn request_roundtrip() {
        let cases = [
            Request::Partial(Select::Latest, KeySpec::SRC_IP),
            Request::Partial(Select::Id(42), KeySpec::FIVE_TUPLE),
            Request::Multi(Select::Id(7), vec![KeySpec::SRC_DST, KeySpec::EMPTY], 1000),
            Request::Window(3, 9, KeySpec::DST_IP),
            Request::Info,
            Request::Shutdown,
        ];
        for req in cases {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn request_decode_is_total() {
        use hashkit::XorShift64Star;
        let mut rng = XorShift64Star::new(0x51E7);
        for len in 0..120usize {
            let body: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            let _ = Request::decode(&body); // Ok or Err, never panic
        }
        // Truncations of every valid request must Err or decode.
        let full = Request::Multi(Select::Latest, vec![KeySpec::SRC_IP; 3], 5).encode();
        for cut in 0..full.len() {
            let _ = Request::decode(&full[..cut]);
        }
    }

    #[test]
    fn response_roundtrip() {
        let info = ServiceInfo {
            ids: Some((3, 9)),
            epochs: 7,
            cache: crate::cache::CacheStats {
                hits: 100,
                misses: 6,
                bypasses: 1,
            },
            cold_errors: 2,
        };
        let cases = [
            Response::Error("nope".into()),
            Response::Info(info),
            Response::Info(ServiceInfo::default()),
            Response::Bye,
        ];
        for resp in cases {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
        let e = Epoch {
            id: 5,
            packets: 10,
            weight: 20,
            tables: vec![FlowTable::new(KeySpec::SRC_IP, vec![])],
        };
        assert_eq!(
            Response::decode(&Response::Answer(e.clone()).encode()).unwrap(),
            Response::Answer(e)
        );
    }

    #[test]
    fn end_to_end_over_tcp() {
        let (mut publisher, svc) = service(4);
        let sealed = publish_demo(&mut publisher, 0, 300);
        publish_demo(&mut publisher, 1, 200);

        let server = Server::bind("tcp:127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let join = std::thread::spawn(move || server.run(svc).unwrap());

        let mut client = connect(&addr).unwrap();
        // Served answers are bit-identical to direct query_all_entries.
        for spec in [KeySpec::SRC_IP, KeySpec::SRC_DST, KeySpec::FIVE_TUPLE] {
            let answer = client.partial(Select::Id(0), &spec).unwrap();
            let direct = sealed.primary().query_all_entries(&[spec]);
            assert_eq!(answer.primary().rows(), direct[0].as_slice());
            assert_eq!(answer.id, 0);
            assert_eq!(answer.packets, sealed.packets);
        }
        // Multi: one table per spec, same order.
        let specs = [KeySpec::SRC_DST, KeySpec::SRC_IP];
        let answer = client.multi(Select::Latest, &specs, 0).unwrap();
        assert_eq!(answer.tables.len(), 2);
        assert_eq!(answer.id, 1);
        // Window over both epochs.
        let win = client.window(0, 1, &KeySpec::SRC_IP).unwrap();
        assert_eq!(win.packets, 500);
        // Info.
        let info = client.info().unwrap();
        assert_eq!(info.ids, Some((0, 1)));
        // Errors come back as errors, not hangups.
        assert!(client.partial(Select::Id(99), &KeySpec::SRC_IP).is_err());
        let still = client.info().unwrap();
        assert_eq!(still.epochs, 2);
        // A second concurrent client works while the first is open.
        let mut c2 = connect(&addr).unwrap();
        assert_eq!(c2.info().unwrap().ids, Some((0, 1)));
        drop(c2);
        client.shutdown().unwrap();
        let served = join.join().unwrap();
        assert!(served >= 2);
    }

    #[test]
    fn tcp_round_trips_do_not_wait_for_delayed_acks() {
        let (_publisher, svc) = service(1);
        let server = Server::bind("tcp:127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let join = std::thread::spawn(move || server.run(svc).unwrap());
        let mut client = connect(&addr).unwrap();
        client.info().unwrap(); // connection set up outside the clock
        let start = std::time::Instant::now();
        for _ in 0..20 {
            client.info().unwrap();
        }
        let took = start.elapsed();
        client.shutdown().unwrap();
        join.join().unwrap();
        // Without TCP_NODELAY every round trip stalls ~40-90 ms on a
        // delayed ACK (~1.8 s for 20); with it they take microseconds.
        assert!(
            took < Duration::from_millis(500),
            "20 round trips took {took:?}"
        );
    }

    #[test]
    fn response_encoding_is_the_status_byte_then_the_payload() {
        let sealed = Epoch {
            id: 9,
            packets: 3,
            weight: 40,
            tables: vec![
                FlowTable::new(
                    KeySpec::SRC_IP,
                    vec![(KeySpec::SRC_IP.project(&FiveTuple::new(5, 0, 0, 0, 0)), 40)],
                ),
                FlowTable::new(KeySpec::EMPTY, vec![]),
            ],
        };
        let mut want = vec![ST_ANSWER];
        want.extend_from_slice(&epoch::encode(&sealed));
        assert_eq!(Response::Answer(sealed).encode(), want);

        let mut want = vec![ST_ERROR];
        want.extend_from_slice(b"nope");
        assert_eq!(Response::Error("nope".into()).encode(), want);

        let info = ServiceInfo {
            ids: Some((3, 9)),
            epochs: 7,
            cache: crate::cache::CacheStats {
                hits: 100,
                misses: 6,
                bypasses: 1,
            },
            cold_errors: 2,
        };
        let mut want = vec![ST_INFO, 1];
        for v in [3u64, 9, 7, 100, 6, 1, 2] {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(Response::Info(info).encode(), want);
        assert_eq!(Response::Bye.encode(), vec![ST_BYE]);
    }

    #[test]
    fn end_to_end_over_unix_socket() {
        let path = std::env::temp_dir().join(format!("serve-wire-{}.sock", std::process::id()));
        let addr = format!("unix:{}", path.display());
        let (mut publisher, svc) = service(2);
        publish_demo(&mut publisher, 0, 64);

        let server = Server::bind(&addr).unwrap();
        let bound = server.addr().to_string();
        assert_eq!(bound, addr);
        let join = std::thread::spawn(move || server.run(svc).unwrap());

        let mut client = connect(&addr).unwrap();
        let answer = client.partial(Select::Latest, &KeySpec::DST_IP).unwrap();
        assert_eq!(answer.id, 0);
        client.shutdown().unwrap();
        join.join().unwrap();
        assert!(!path.exists(), "socket file cleaned up");
    }

    #[test]
    fn oversized_and_garbage_frames_fail_cleanly() {
        let (_publisher, svc) = service(1);
        let server = Server::bind("tcp:127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let join = std::thread::spawn(move || server.run(svc).unwrap());

        // Garbage body: server responds with an error frame.
        let hostport = addr.strip_prefix("tcp:").unwrap().to_string();
        let mut raw = TcpStream::connect(&hostport).unwrap();
        write_frame(&mut raw, &[0xFF, 0xEE]).unwrap();
        let resp = Response::decode(&read_frame(&mut raw).unwrap().unwrap()).unwrap();
        assert!(matches!(resp, Response::Error(_)));
        drop(raw);

        // Oversized length prefix: connection dropped, server lives.
        let mut raw = TcpStream::connect(&hostport).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.flush().unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(raw.read(&mut buf).unwrap_or(0), 0);
        drop(raw);

        let mut client = connect(&addr).unwrap();
        client.shutdown().unwrap();
        join.join().unwrap();
    }

    #[test]
    fn half_written_frame_times_out_and_closes_cleanly() {
        let (_publisher, svc) = service(1);
        let mut server = Server::bind("tcp:127.0.0.1:0").unwrap();
        server.set_io_timeout(Some(Duration::from_millis(50)));
        let addr = server.addr().to_string();
        let join = std::thread::spawn(move || server.run(svc).unwrap());

        // A stalling client: the length prefix promises 8 body bytes,
        // only 3 ever arrive. The server's read timeout must end the
        // connection instead of parking the worker thread forever.
        let hostport = addr.strip_prefix("tcp:").unwrap().to_string();
        let mut stalled = TcpStream::connect(&hostport).unwrap();
        stalled.write_all(&8u32.to_le_bytes()).unwrap();
        stalled.write_all(&[1, 2, 3]).unwrap();
        stalled.flush().unwrap();
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 1];
        match stalled.read(&mut buf) {
            Ok(0) => {}                                                // clean close
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {} // also a close
            Ok(n) => panic!("server answered a half-written frame with {n} bytes"),
            Err(e) => panic!("server did not close the stalled connection: {e}"),
        }
        drop(stalled);

        // The timeout ended that connection only: the server still
        // answers well-behaved clients.
        let mut client = connect(&addr).unwrap();
        assert_eq!(client.info().unwrap().epochs, 0);
        client.shutdown().unwrap();
        join.join().unwrap();
    }
}
