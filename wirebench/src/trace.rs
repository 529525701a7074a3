//! The traced run: the same command stream replayed in-process through
//! the public functions of each layer, with a span around every call.
//!
//! A read is either *split* — `proto::parse_command` →
//! `Session::resolve` → (replica) `Follower::wait_for_lsn` →
//! `Engine::snapshot` → `EngineSnapshot::statistics` → a
//! `PinnedSnapshot` run — or *unsplit*: `parse_command` →
//! `Session::resolve` → `Session::query`. A split run is either
//! profiled, so the planner's profile splits plan from exec and names
//! the operators, or plain, which is the path compared with the
//! unsplit one (profiling has a fixed per-query cost). Writes split the
//! same way into the session's resolution and the storage call, against
//! `Session::insert`/`Session::delete`. Units (one command, or one
//! INSERT-read-DELETE cycle) cycle through the three modes per client,
//! and one block of rounds in four runs with tracing off, so every
//! comparison is interleaved and machine drift cancels.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use toposem_extension::{Instance, Value};
use toposem_obs::{MetricsSnapshot, OpProfile};
use toposem_planner::{PinnedSnapshot, QueryRequest, QueryTarget};
use toposem_server::{parse_command, Command, Session};
use toposem_storage::Engine;

use crate::durable::render;
use crate::gen::{checksum, Cmd, Expect, Inputs, Kind, Mix, Workload, WriteLog};
use crate::setup::{wal_bytes, Fixture};

/// Rounds per tracing block; every fourth block runs untraced.
const BLOCK_ROUNDS: u64 = 4;
/// Commands replayed at most, which bounds the span buffer.
const MAX_COMMANDS: u64 = 20_000;

/// One recorded span. Times are ns since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

/// Spans stay in memory until the run ends.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when tracing is off.
    pub fn begin(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end = self.now();
            self.spans[id as usize].end = end;
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Records a child of `parent` whose times were measured inside the
    /// called function (the planner's own plan/exec split).
    fn child(&mut self, parent: Option<u32>, name: &'static str, start: u64, dur: u64) {
        if let Some(p) = parent {
            self.spans.push(Span {
                name,
                start,
                end: start + dur,
                parent: Some(p),
                req: self.req,
            });
        }
    }

    /// Durations (ns) of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Each span's self time: its duration minus the part of it that
    /// its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"req\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        w.flush()
    }
}

/// Samples gathered next to the spans, in traced blocks only.
#[derive(Default)]
pub struct Samples {
    pub join_ns: Vec<f64>,
    pub rows_in: u64,
    pub rows_out: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    /// Per split read-after-write: (snapshot + statistics) ÷ whole read.
    pub raw_snapshot_share: Vec<f64>,
    /// The read path after resolve, per mode, ns, tagged with the
    /// read's shape (see [`shape`]) so modes compare like with like.
    pub profiled_ns: Vec<(String, f64)>,
    pub plain_ns: Vec<(String, f64)>,
    pub unsplit_ns: Vec<(String, f64)>,
    /// From a primary insert returning until the follower applied it,
    /// µs (seen by the next split replica read's wait).
    pub lag_us: Vec<f64>,
}

/// Counters read before and after the replay.
pub struct Counters {
    primary: MetricsSnapshot,
    follower: Option<MetricsSnapshot>,
    wal_bytes: u64,
}

impl Counters {
    fn take(fx: &Fixture) -> Counters {
        Counters {
            primary: fx.engine.metrics_snapshot(),
            follower: fx
                .repl
                .as_ref()
                .map(|r| r.follower.engine().metrics_snapshot()),
            wal_bytes: wal_bytes(&fx.wal_dir),
        }
    }
}

pub struct Replay {
    pub tracer: Tracer,
    pub samples: Samples,
    pub before: Counters,
    pub after: Counters,
    pub writes: u64,
    pub user_bytes: u64,
    /// Reads issued through `Session::query` with a replica pool, and
    /// the follower's planned-query delta across them.
    pub session_reads: u64,
    pub replica_planned: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub traced: (u64, f64),
    pub untraced: (u64, f64),
    pub writes_log: WriteLog,
}

/// How a unit is replayed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Profiled,
    Unsplit,
    Plain,
}

impl Mode {
    const CYCLE: [Mode; 3] = [Mode::Profiled, Mode::Unsplit, Mode::Plain];
}

struct Ctx<'a> {
    fx: &'a Fixture,
    tr: Tracer,
    s: Samples,
    writes: u64,
    user_bytes: u64,
    session_reads: u64,
    replica_planned: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    writes_log: WriteLog,
}

/// A read's shape: reads of one shape cost about the same, so split
/// and unsplit samples are compared within a shape. Fixed texts (the
/// scans) are their own shape.
pub fn shape(cmd: &Cmd) -> String {
    if cmd.after_write {
        "read_after_write".to_owned()
    } else if cmd.line.contains(" join ") || cmd.line.contains("depname >=") {
        cmd.line.clone()
    } else if cmd.line.contains("age >=") {
        "range".to_owned()
    } else {
        "point".to_owned()
    }
}

/// Split ÷ unsplit: the ratio of medians per shape, and their geometric
/// mean weighted by the smaller sample count.
pub fn agreement(split: &[(String, f64)], unsplit: &[(String, f64)]) -> Option<(f64, usize)> {
    let mut shapes: Vec<&str> = split.iter().map(|(s, _)| s.as_str()).collect();
    shapes.sort_unstable();
    shapes.dedup();
    let of = |v: &[(String, f64)], shape: &str| -> Vec<f64> {
        v.iter()
            .filter(|(s, _)| s == shape)
            .map(|(_, x)| *x)
            .collect()
    };
    let (mut num, mut den, mut n) = (0.0, 0.0, 0);
    for shape in shapes {
        let (a, b) = (of(split, shape), of(unsplit, shape));
        if let (Some(x), Some(y)) = (crate::stats::median(&a), crate::stats::median(&b)) {
            let w = a.len().min(b.len()) as f64;
            num += w * (x / y).ln();
            den += w;
            n += 1;
        }
    }
    (den > 0.0).then(|| ((num / den).exp(), n))
}

fn leaf_rows_in(op: &OpProfile) -> u64 {
    if op.children.is_empty() {
        op.stats.rows_in
    } else {
        op.children.iter().map(leaf_rows_in).sum()
    }
}

fn join_wall(op: &OpProfile) -> Option<u64> {
    let own = op.label.contains("Join").then_some(op.stats.wall_ns);
    op.children
        .iter()
        .filter_map(join_wall)
        .chain(own)
        .reduce(|a, b| a + b)
}

fn matches(eng: &Engine, rows: &[Instance], expect: &Expect) -> bool {
    let lines: Vec<String> = rows.iter().map(|t| render(eng, t)).collect();
    match expect {
        Expect::Row(l) => lines.len() == 1 && lines[0] == *l,
        Expect::Set { rows, sum } => lines.len() == *rows && checksum(&lines) == *sum,
        Expect::Inserted | Expect::Deleted(_) => false,
    }
}

impl Ctx<'_> {
    fn fail(&mut self, cmd: &Cmd, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(format!("{}: {why}", cmd.line));
        }
    }

    /// Replays one command in `mode`; `w` carries the client's read
    /// floor from its writes to its reads.
    fn exec(&mut self, session: &mut Session, cmd: &Cmd, mode: Mode, w: &mut WriteState) {
        self.attempted += 1;
        let root = self.tr.begin(match cmd.kind {
            Kind::Read => "cmd.read",
            Kind::Insert => "cmd.insert",
            Kind::Delete => "cmd.delete",
        });
        let parsed = self.tr.span("proto.parse", || parse_command(&cmd.line));
        let ok = match parsed {
            Ok(Command::Query(spec)) => self.read(session, cmd, &spec, mode, w),
            Ok(Command::Insert { ty, fields }) | Ok(Command::Delete { ty, fields }) => {
                self.write(session, cmd, &ty, &fields, mode != Mode::Unsplit, w)
            }
            Ok(other) => Err(format!("unexpected command {other:?}")),
            Err(e) => Err(e.to_string()),
        };
        self.tr.end(root);
        if let Err(why) = ok {
            self.fail(cmd, why);
        }
    }

    fn read(
        &mut self,
        session: &Session,
        cmd: &Cmd,
        spec: &toposem_server::QuerySpec,
        mode: Mode,
        w: &mut WriteState,
    ) -> Result<(), String> {
        let q = self
            .tr
            .span("session.resolve", || session.resolve(spec))
            .map_err(|e| e.to_string())?;
        let fx = self.fx;
        let t0 = Instant::now();
        if mode == Mode::Unsplit {
            let planned = || {
                fx.repl.as_ref().map_or(0, |r| {
                    r.follower.engine().metrics_snapshot().queries.planned
                })
            };
            let before = planned();
            let (_, rows) = self
                .tr
                .span("session.query", || session.query(&q))
                .map_err(|e| e.to_string())?;
            let took = t0.elapsed().as_nanos() as f64;
            if self.tr.on {
                self.s.unsplit_ns.push((shape(cmd), took));
                if fx.repl.is_some() {
                    self.session_reads += 1;
                    self.replica_planned += planned().saturating_sub(before);
                }
            }
            return if matches(&fx.engine, &rows, &cmd.expect) {
                Ok(())
            } else {
                Err(format!("unexpected {} rows", rows.len()))
            };
        }
        // The session's route: a follower that reaches the read floor
        // within the pool's bound, else the primary's snapshot.
        let eng: Arc<Engine> = match &fx.repl {
            Some(r) => {
                let (floor, bound) = (w.floor, r.pool.staleness_bound());
                if self.tr.span("repl.wait_for_lsn", || {
                    r.follower.wait_for_lsn(floor, bound)
                }) {
                    if let Some(t) = w.inserted.take() {
                        if self.tr.on {
                            self.s.lag_us.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                    }
                    r.follower.engine()
                } else {
                    Arc::clone(&fx.engine)
                }
            }
            None => Arc::clone(&fx.engine),
        };
        let snap_start = Instant::now();
        let snap = self
            .tr
            .span("storage.snapshot", || eng.snapshot())
            .ok_or("no committed snapshot")?;
        self.tr.span("storage.statistics", || snap.statistics());
        let snap_ns = snap_start.elapsed().as_nanos() as f64;
        let pin = PinnedSnapshot::new(Arc::clone(&eng), snap);
        let req = QueryRequest::new(q).ordered();
        let req = if mode == Mode::Profiled {
            req.profiled()
        } else {
            req
        };
        let run = self.tr.begin("planner.run");
        let run_start = self
            .tr
            .on
            .then(|| self.tr.spans[run.unwrap_or(0) as usize].start);
        let resp = pin.run(&req).map_err(|e| e.to_string());
        self.tr.end(run);
        let resp = resp?;
        let took = t0.elapsed().as_nanos() as f64;
        if let (Some(p), Some(start)) = (&resp.profile, run_start) {
            self.tr.child(run, "planner.plan", start, p.plan_ns);
            self.tr
                .child(run, "planner.exec", start + p.plan_ns, p.exec_ns);
            self.s.cache_lookups += 1;
            self.s.cache_hits += u64::from(p.cache_hit);
            self.s.rows_in += leaf_rows_in(&p.root);
            self.s.rows_out += p.rows;
            if let Some(j) = join_wall(&p.root) {
                self.s.join_ns.push(j as f64);
            }
        }
        if self.tr.on {
            match mode {
                Mode::Profiled => self.s.profiled_ns.push((shape(cmd), took)),
                _ => self.s.plain_ns.push((shape(cmd), took)),
            }
            if cmd.after_write {
                self.s.raw_snapshot_share.push(snap_ns / took);
            }
        }
        let rows = resp
            .rows
            .seq()
            .ok_or("ordered request without a sequence")?;
        if matches(&eng, &rows, &cmd.expect) {
            Ok(())
        } else {
            Err(format!("unexpected {} rows", rows.len()))
        }
    }

    fn write(
        &mut self,
        session: &mut Session,
        cmd: &Cmd,
        ty: &str,
        fields: &[(String, Value)],
        split: bool,
        w: &mut WriteState,
    ) -> Result<(), String> {
        let fx = self.fx;
        let borrowed: Vec<(&str, Value)> = fields
            .iter()
            .map(|(a, v)| (a.as_str(), v.clone()))
            .collect();
        let ok = match (cmd.kind, split) {
            (Kind::Insert, true) => {
                let t = self
                    .tr
                    .span("session.resolve_write", || session.type_id(ty))
                    .map_err(|e| e.to_string())?;
                let r = self
                    .tr
                    .span("storage.insert", || fx.engine.insert(t, &borrowed));
                w.wrote(fx, true);
                r.map_err(|e| e.to_string())?
            }
            (Kind::Insert, false) => {
                let t = self
                    .tr
                    .span("session.resolve_write", || session.type_id(ty))
                    .map_err(|e| e.to_string())?;
                let r = self
                    .tr
                    .span("session.insert", || session.insert(t, &borrowed));
                w.wrote(fx, false);
                r.map_err(|e| e.to_string())?
            }
            (_, true) => {
                let (t, inst) = self.tr.span("session.resolve_write", || {
                    let t = session.type_id(ty).map_err(|e| e.to_string())?;
                    let inst = fx
                        .engine
                        .with_db(|db| Instance::new(db.schema(), db.catalog(), t, &borrowed))
                        .map_err(|e| e.to_string())?;
                    Ok::<_, String>((t, inst))
                })?;
                let n = self
                    .tr
                    .span("storage.delete", || fx.engine.delete(t, &inst));
                w.wrote(fx, false);
                n.map_err(|e| e.to_string())? == 1
            }
            (_, false) => {
                let t = self
                    .tr
                    .span("session.resolve_write", || session.type_id(ty))
                    .map_err(|e| e.to_string())?;
                let n = self
                    .tr
                    .span("session.delete", || session.delete(t, &borrowed));
                w.wrote(fx, false);
                n.map_err(|e| e.to_string())? == 1
            }
        };
        self.writes += 1;
        self.user_bytes += cmd.line.len() as u64;
        if !ok {
            return Err("write not applied".to_owned());
        }
        self.writes_log
            .ack(cmd.kind, cmd.row.as_ref().expect("writes carry their row"));
        Ok(())
    }
}

/// A client's read floor (the primary's WAL watermark after its last
/// write, as its session keeps it) and when its last split insert
/// returned.
#[derive(Default)]
struct WriteState {
    floor: u64,
    inserted: Option<Instant>,
}

impl WriteState {
    fn wrote(&mut self, fx: &Fixture, split_insert: bool) {
        self.floor = fx.engine.wal_next_lsn().unwrap_or(0);
        self.inserted = split_insert.then(Instant::now);
    }
}

/// Replays `workload`'s streams (tagged apart from the wire phase's)
/// for up to `seconds`.
pub fn replay(
    fx: &Fixture,
    inputs: &Inputs,
    seed: u64,
    workload: Workload,
    seconds: f64,
) -> Replay {
    let pool = fx.repl.as_ref().map(|r| Arc::clone(&r.pool));
    let mut sessions: Vec<Session> = (0..2)
        .map(|_| Session::with_replicas(Arc::clone(&fx.engine), pool.clone()))
        .collect();
    let mut streams: Vec<_> = (0..2)
        .map(|c| inputs.stream(seed, workload, c, "t"))
        .collect();
    let mut writes: [WriteState; 2] = Default::default();
    let mut units = [0u64; 2];
    let before = Counters::take(fx);
    let mut cx = Ctx {
        fx,
        tr: Tracer::new(),
        s: Samples::default(),
        writes: 0,
        user_bytes: 0,
        session_reads: 0,
        replica_planned: 0,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        writes_log: WriteLog::default(),
    };
    let (mut traced, mut untraced) = ((0u64, 0f64), (0u64, 0f64));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while Instant::now() < deadline && cx.attempted < MAX_COMMANDS {
        cx.tr.on = (round / BLOCK_ROUNDS) % 4 != 3;
        let t0 = Instant::now();
        let start = cx.attempted;
        for c in 0..2 {
            let mode = Mode::CYCLE[(units[c] % 3) as usize];
            units[c] += 1;
            let n = if streams[c].mix() == Mix::Cycle { 3 } else { 1 };
            for _ in 0..n {
                let cmd = streams[c].next().expect("streams are endless");
                cx.tr.req = cx.attempted;
                cx.exec(&mut sessions[c], &cmd, mode, &mut writes[c]);
            }
        }
        let took = t0.elapsed().as_secs_f64();
        let slot = if cx.tr.on { &mut traced } else { &mut untraced };
        slot.0 += cx.attempted - start;
        slot.1 += took;
        round += 1;
    }
    let after = Counters::take(fx);
    drop(sessions);
    Replay {
        tracer: cx.tr,
        samples: cx.s,
        before,
        after,
        writes: cx.writes,
        user_bytes: cx.user_bytes,
        session_reads: cx.session_reads,
        replica_planned: cx.replica_planned,
        attempted: cx.attempted,
        failed: cx.failed,
        errors: cx.errors,
        traced,
        untraced,
        writes_log: cx.writes_log,
    }
}

impl Replay {
    /// `after − before` of a primary counter.
    pub fn delta(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> u64 {
        f(&self.after.primary).saturating_sub(f(&self.before.primary))
    }

    /// `after − before` of a follower counter (0 without a follower).
    pub fn follower_delta(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> u64 {
        match (&self.before.follower, &self.after.follower) {
            (Some(b), Some(a)) => f(a).saturating_sub(f(b)),
            _ => 0,
        }
    }

    pub fn wal_bytes(&self) -> u64 {
        self.after.wal_bytes.saturating_sub(self.before.wal_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "root",
                start: 0,
                end: 100,
                parent: None,
                req: 0,
            },
            Span {
                name: "a",
                start: 10,
                end: 30,
                parent: Some(0),
                req: 0,
            },
            Span {
                name: "b",
                start: 25,
                end: 60,
                parent: Some(0),
                req: 0,
            },
            Span {
                name: "a.child",
                start: 12,
                end: 20,
                parent: Some(1),
                req: 0,
            },
        ];
        // root: 100 minus the union [10, 60) of its children.
        assert_eq!(t.self_times(), vec![50, 12, 35, 8]);
    }

    #[test]
    fn spans_nest_and_stay_off_when_disabled() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        t.span("x", || ());
        t.end(outer);
        assert!(t.spans.is_empty(), "tracing starts off");
        t.on = true;
        let outer = t.begin("outer");
        t.span("inner", || ());
        t.end(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].end >= t.spans[1].end);
    }
}
