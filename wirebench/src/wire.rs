//! The closed-loop TCP client: one command per write, `TCP_NODELAY`,
//! and a check of every framed reply against the generator's model.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::gen::{checksum, Expect, Kind, Stream, WriteLog};
use crate::stats::Hist;

/// A reply that takes longer than this counts as failed (the socket
/// read times out).
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One framed reply.
#[derive(Default)]
pub struct Reply {
    pub ok: bool,
    /// The header after `OK <n> ` (or the `ERR` message).
    pub info: String,
    pub body: Vec<String>,
    /// Bytes received for the whole frame.
    pub bytes: usize,
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Without NODELAY a small request can sit behind Nagle's
        // algorithm waiting for a delayed ACK (tens of milliseconds).
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::with_capacity(256),
        })
    }

    /// Sends `line` in a single write and reads the whole framed reply.
    pub fn send(&mut self, line: &str, reply: &mut Reply) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        reply.body.clear();
        reply.info.clear();
        let mut head = String::new();
        let n = self.reader.read_line(&mut head)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server hung up",
            ));
        }
        reply.bytes = n;
        let head = head.trim_end();
        if let Some(rest) = head.strip_prefix("OK ") {
            let (count, info) = rest.split_once(' ').unwrap_or((rest, ""));
            let count: usize = count
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, head.to_owned()))?;
            reply.ok = true;
            reply.info.push_str(info);
            for _ in 0..count {
                let mut l = String::new();
                let n = self.reader.read_line(&mut l)?;
                if n == 0 {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "short body"));
                }
                reply.bytes += n;
                l.truncate(l.trim_end_matches(['\n', '\r']).len());
                reply.body.push(l);
            }
        } else {
            reply.ok = false;
            reply.info.push_str(head);
        }
        Ok(())
    }
}

/// Whether `reply` is the answer `expect` describes.
pub fn check(expect: &Expect, reply: &Reply) -> bool {
    if !reply.ok {
        return false;
    }
    match expect {
        Expect::Row(line) => reply.body.len() == 1 && reply.body[0] == *line,
        Expect::Set { rows, sum } => reply.body.len() == *rows && checksum(&reply.body) == *sum,
        Expect::Inserted => reply.body.is_empty() && reply.info == "inserted=true",
        Expect::Deleted(n) => reply.body.is_empty() && reply.info == format!("deleted={n}"),
    }
}

/// What one client observed.
#[derive(Default)]
pub struct ClientLog {
    /// QUERY round trips, µs.
    pub reads: Hist,
    /// INSERT/DELETE acknowledgement round trips, µs.
    pub writes: Hist,
    /// INSERT sent to the reply of the read that returned the row, µs.
    pub visible: Hist,
    /// Bytes of the checked QUERY replies (frame header and body).
    pub read_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Commands completed with a reply that passed its check.
    pub checked: u64,
    /// Checked commands of a timed phase per second since its start.
    pub per_second: Vec<u64>,
    /// The first few failures, for the run record.
    pub errors: Vec<String>,
    pub writes_log: WriteLog,
}

impl ClientLog {
    fn fail(&mut self, line: &str, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(format!("{line}: {why}"));
        }
    }

    /// Folds another phase's or client's log into this one.
    pub fn absorb(&mut self, o: ClientLog) {
        self.reads.merge(&o.reads);
        self.writes.merge(&o.writes);
        self.visible.merge(&o.visible);
        self.read_bytes += o.read_bytes;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.checked += o.checked;
        if o.per_second.len() > self.per_second.len() {
            self.per_second.resize(o.per_second.len(), 0);
        }
        for (a, b) in self.per_second.iter_mut().zip(&o.per_second) {
            *a += b;
        }
        for e in o.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.writes_log.merge(o.writes_log);
    }
}

/// How long a phase runs.
#[derive(Clone, Copy)]
pub enum Limit {
    Commands(usize),
    Until(Instant),
}

/// A client's connection, its stream, and the state a write cycle
/// carries from its INSERT to its read.
pub struct ClientLoop<'a> {
    pub client: Client,
    pub stream: Stream<'a>,
    insert_sent: Option<Instant>,
    reply: Reply,
}

impl<'a> ClientLoop<'a> {
    pub fn new(client: Client, stream: Stream<'a>) -> ClientLoop<'a> {
        ClientLoop {
            client,
            stream,
            insert_sent: None,
            reply: Reply::default(),
        }
    }

    /// Runs the closed loop until `limit`, recording into `log`.
    /// Returns `false` when the connection broke.
    pub fn run(&mut self, limit: Limit, log: &mut ClientLog) -> bool {
        let start = Instant::now();
        let mut sent = 0usize;
        loop {
            match limit {
                Limit::Commands(n) if sent >= n => return true,
                Limit::Until(t) if Instant::now() >= t => return true,
                _ => {}
            }
            sent += 1;
            let cmd = self.stream.next().expect("streams are endless");
            log.attempted += 1;
            let t0 = Instant::now();
            if cmd.kind == Kind::Insert {
                self.insert_sent = Some(t0);
            }
            if let Err(e) = self.client.send(&cmd.line, &mut self.reply) {
                log.fail(&cmd.line, format!("i/o: {e}"));
                return false;
            }
            let t1 = Instant::now();
            let us = (t1 - t0).as_secs_f64() * 1e6;
            if !check(&cmd.expect, &self.reply) {
                let got = if self.reply.ok {
                    format!("{} rows, info `{}`", self.reply.body.len(), self.reply.info)
                } else {
                    self.reply.info.clone()
                };
                log.fail(&cmd.line, format!("unexpected reply: {got}"));
                continue;
            }
            log.checked += 1;
            if matches!(limit, Limit::Until(_)) {
                let sec = (t1 - start).as_secs() as usize;
                if sec >= log.per_second.len() {
                    log.per_second.resize(sec + 1, 0);
                }
                log.per_second[sec] += 1;
            }
            match cmd.kind {
                Kind::Read => {
                    log.reads.record(us);
                    log.read_bytes += self.reply.bytes as u64;
                    if cmd.after_write {
                        if let Some(ts) = self.insert_sent.take() {
                            log.visible.record((t1 - ts).as_secs_f64() * 1e6);
                        }
                    }
                }
                Kind::Insert | Kind::Delete => {
                    log.writes.record(us);
                    log.writes_log
                        .ack(cmd.kind, cmd.row.as_ref().expect("writes carry their row"));
                }
            }
        }
    }

    /// `n` PING round trips, µs.
    pub fn pings(&mut self, n: usize, log: &mut ClientLog) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            log.attempted += 1;
            let t0 = Instant::now();
            match self.client.send("PING", &mut self.reply) {
                Ok(()) if self.reply.ok && self.reply.info == "pong" => {
                    out.push(t0.elapsed().as_secs_f64() * 1e6);
                    log.checked += 1;
                }
                Ok(()) => log.fail("PING", format!("unexpected reply `{}`", self.reply.info)),
                Err(e) => {
                    log.fail("PING", format!("i/o: {e}"));
                    break;
                }
            }
        }
        out
    }
}
