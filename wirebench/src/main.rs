//! `wirebench`: the repository's end-to-end benchmark.
//!
//! ```text
//! wirebench --workload <point_zipf|join_scan|write_read|replica_rw>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it serves a seeded 50k-employee engine over the
//! TCP line protocol, drives it with two closed-loop client
//! connections for `--seconds`, checks every reply against the
//! generator's model, runs the durability check on the writing
//! workloads, and prints the end-to-end metrics. With `--trace 1` it
//! replays the same command stream in-process through each layer's
//! public functions under spans and prints the per-layer metrics. The
//! last stdout line is the JSON result; a fuller run record and (when
//! traced) the spans go under `.wirebench/` in the working directory.

mod durable;
mod gen;
mod host;
mod json;
mod setup;
mod stats;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use gen::{Inputs, Mix, Workload};
use json::J;
use setup::{BoxError, Fixture};
use stats::{median, percentile, quartiles, supports, Samples};
use wire::{Client, ClientLog, ClientLoop, Limit};

/// Closed-loop client connections (one per core of the reference box).
const CLIENTS: usize = 2;
/// Fixtures per end-to-end run; `setup_s` is the median of their
/// set-ups, and each is measured for an equal share of the window.
/// Every fixture's writes are durability-checked.
const SETUPS: usize = 4;
/// PING round trips sampled after the first fixture's window.
const PINGS: usize = 500;
/// Where run records, spans, and the log directories go.
const OUT_DIR: &str = ".wirebench";

/// Which end-to-end metric each per-layer metric should move, and on
/// which workload (`join_scan` is run by hand; see [`Workload`]).
const LAYER_MAP: &[(&str, &str, &str)] = &[
    ("server.ping_rtt_us", "read_p50_us", "point_zipf"),
    ("server.wire_gap_us", "read_p50_us", "point_zipf"),
    ("server.reply_bytes_per_read", "read_p50_us", "join_scan"),
    ("proto.parse_ns", "read_p50_us", "point_zipf"),
    ("session.resolve_ns", "read_p50_us", "point_zipf"),
    ("session.query_us", "read_p50_us", "all"),
    ("session.insert_us", "write_p50_us", "write_read"),
    ("session.delete_us", "write_p50_us", "write_read"),
    ("session.replica_read_ratio", "visible_p50_us", "replica_rw"),
    ("storage.snapshot_us", "visible_p50_us", "write_read"),
    ("storage.statistics_us", "visible_p50_us", "write_read"),
    (
        "storage.snapshot_rebuilds_per_write",
        "visible_p50_us",
        "write_read",
    ),
    ("storage.insert_us", "write_p50_us", "write_read"),
    ("storage.delete_us", "write_p50_us", "write_read"),
    ("planner.plan_us", "read_p50_us", "point_zipf"),
    ("planner.exec_us", "read_p50_us", "join_scan"),
    ("planner.plan_cache_hit_ratio", "read_p50_us", "point_zipf"),
    ("planner.rows_in_per_row_out", "read_p50_us", "join_scan"),
    ("planner.join_us", "read_p50_us", "join_scan"),
    ("wal.fsync_us", "write_p50_us", "write_read"),
    ("wal.flushes_per_commit", "write_p50_us", "write_read"),
    ("wal.bytes_per_user_byte", "write_p50_us", "write_read"),
    ("repl.lag_us", "visible_p50_us", "replica_rw"),
    (
        "repl.bytes_shipped_per_wal_byte",
        "throughput_ops_s",
        "replica_rw",
    ),
    (
        "repl.records_applied_per_write",
        "visible_p50_us",
        "replica_rw",
    ),
];

/// The end-to-end metrics the result line carries: the ones every
/// workload produces in every run, never zero, and steady from run to
/// run. The write and visibility latencies exist only on the writing
/// workloads, the tails need enough samples beyond them (write cycles
/// are slow), `failed_ratio` is the line's own `failed ÷ attempted`,
/// and closed-loop throughput swings with the host's CPU share far more
/// than the median latency does; all of them go to stdout and the run
/// record.
const GATED: &[&str] = &["setup_s", "read_p50_us", "peak_rss_mb"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {val}"))?,
                )
            }
            "--trace" => trace = Some(val == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "wirebench: {e}\nusage: wirebench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The fixed setting is the default build with no `TOPOSEM_*` knobs:
    // they are read lazily, so clearing them here keeps them out.
    let mut cleared: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("TOPOSEM_"))
        .collect();
    cleared.sort();
    for k in &cleared {
        std::env::remove_var(k);
    }
    let run_dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&run_dir)
        .map_err(BoxError::from)
        .and_then(|()| run(&args, &run_dir, cleared));
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds a fixture, connects one client per stream (fresh from the
/// seed), and warms up; returns the set-up time with everything ready
/// for the first timed command.
fn setup<'a>(
    inputs: &'a Inputs,
    args: &Args,
    dir: &Path,
    warm: &mut ClientLog,
) -> Result<(Fixture, Vec<ClientLoop<'a>>, f64), BoxError> {
    let t0 = Instant::now();
    let fx = setup::build(&inputs.data, dir, args.workload.replicated())?;
    let mut loops = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let stream = inputs.stream(args.seed, args.workload, c, "w");
        loops.push(ClientLoop::new(Client::connect(fx.handle.addr())?, stream));
    }
    let limits: Vec<Limit> = loops
        .iter()
        .map(|d| {
            Limit::Commands(match d.stream.mix() {
                Mix::Point => 5000,
                Mix::Scan => 2 * inputs.scans.len(),
                Mix::Cycle => 9,
            })
        })
        .collect();
    for (log, _) in run_phase(&mut loops, &limits) {
        warm.absorb(log);
    }
    Ok((fx, loops, t0.elapsed().as_secs_f64()))
}

/// Runs every client loop on its own thread; returns each client's log and
/// the seconds from the phase start to its last reply.
fn run_phase(loops: &mut [ClientLoop<'_>], limits: &[Limit]) -> Vec<(ClientLog, f64)> {
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = loops
            .iter_mut()
            .zip(limits)
            .map(|(d, &limit)| {
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    d.run(limit, &mut log);
                    (log, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A latency summary with its spread, for the run record.
fn spread<S: Samples + ?Sized>(samples: &S) -> J {
    let (q1, q3) = quartiles(samples).unzip();
    json::obj([
        ("n", J::UInt(samples.count() as u64)),
        ("p25", json::opt(q1)),
        ("p50", json::opt(median(samples))),
        ("p75", json::opt(q3)),
    ])
}

/// A tail percentile, reported only with ≥10 samples beyond it.
fn tail<S: Samples + ?Sized>(samples: &S, p: f64) -> Option<f64> {
    supports(samples.count(), p)
        .then(|| percentile(samples, p))
        .flatten()
}

/// The highest percentile the samples support, with its value.
fn tail_of<S: Samples + ?Sized>(samples: &S) -> J {
    match stats::highest_supported(samples.count(), &[0.5, 0.9, 0.99, 0.999]) {
        Some(p) => json::obj([
            ("p", J::Float(p)),
            ("value", json::opt(percentile(samples, p))),
        ]),
        None => J::Null,
    }
}

fn setting(args: &Args, cleared: &[String]) -> J {
    let wal = toposem_wal::WalConfig::default();
    let ship = toposem_repl::ShipperConfig::default();
    let follow = toposem_repl::FollowerConfig::default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::obj([
        ("nproc", J::UInt(nproc as u64)),
        (
            "profile",
            json::text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("features", json::text("default (planner `parallel` off)")),
        (
            "env_knobs_cleared",
            J::Array(cleared.iter().map(json::text).collect()),
        ),
        ("flush_policy", json::text(format!("{:?}", wal.flush))),
        ("segment_bytes", J::UInt(wal.segment_bytes)),
        (
            "shipper_poll_ms",
            J::Float(ship.poll_interval.as_secs_f64() * 1e3),
        ),
        (
            "follower_poll_ms",
            J::Float(follow.poll_interval.as_secs_f64() * 1e3),
        ),
        (
            "follower_max_lsn_wait_ms",
            J::Float(follow.max_lsn_wait.as_secs_f64() * 1e3),
        ),
        (
            "replica_staleness_bound_ms",
            J::Float(toposem_server::replica::DEFAULT_STALENESS_BOUND.as_secs_f64() * 1e3),
        ),
        ("employees", J::UInt(gen::EMPLOYEES as u64)),
        ("departments", J::UInt(gen::DEPARTMENTS as u64)),
        ("locations", J::UInt(gen::LOCATIONS as u64)),
        ("containment", json::text("Eager")),
        (
            "indexes",
            json::text("hash employee.name, ordered employee.age"),
        ),
        ("clients", J::UInt(CLIENTS as u64)),
        (
            "load",
            json::text("closed loop, one command in flight per client"),
        ),
        ("zipf_s", J::Float(gen::ZIPF_S)),
        ("range_share", J::Float(gen::RANGE_SHARE)),
        ("workload", json::text(args.workload.name())),
        ("seed", J::UInt(args.seed)),
        ("seconds", J::Float(args.seconds)),
        ("trace", J::Bool(args.trace)),
    ])
}

fn layer_map() -> J {
    J::Array(
        LAYER_MAP
            .iter()
            .map(|(l, e, w)| {
                json::obj([
                    ("layer", json::text(*l)),
                    ("moves", json::text(*e)),
                    ("on", json::text(*w)),
                ])
            })
            .collect(),
    )
}

fn durability(
    fx: &Fixture,
    inputs: &Inputs,
    log: &mut ClientLog,
    dir: &Path,
) -> Result<J, BoxError> {
    let r = durable::check(fx, &inputs.data, &log.writes_log, dir)?;
    log.failed += (r.missing + r.unexpected) as u64;
    if r.follower_equal == Some(false) {
        log.attempted += 1;
        log.failed += 1;
        log.errors
            .push("follower differs from the primary at its final LSN".into());
    }
    if !r.ok() {
        log.errors.push(format!(
            "durability: {} acknowledged rows missing, {} unexpected",
            r.missing, r.unexpected
        ));
    }
    Ok(json::obj([
        ("acked_writes", J::UInt(log.writes_log.acked_ops() as u64)),
        ("rows_compared", J::UInt(r.rows as u64)),
        ("missing", J::UInt(r.missing as u64)),
        ("unexpected", J::UInt(r.unexpected as u64)),
        ("follower_equal", r.follower_equal.map_or(J::Null, J::Bool)),
        ("recover_s", J::Float(r.recover_s)),
    ]))
}

fn write_record(args: &Args, record: J) -> PathBuf {
    let path = Path::new(OUT_DIR).join(format!(
        "record-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, json::render(&record) + "\n") {
        eprintln!("wirebench: cannot write {}: {e}", path.display());
    }
    path
}

fn run(args: &Args, dir: &Path, cleared: Vec<String>) -> Result<String, BoxError> {
    let inputs = Inputs::generate(args.seed);
    if args.trace {
        traced(args, dir, &inputs, &cleared)
    } else {
        end_to_end(args, dir, &inputs, &cleared)
    }
}

fn end_to_end(
    args: &Args,
    dir: &Path,
    inputs: &Inputs,
    cleared: &[String],
) -> Result<String, BoxError> {
    let mut calibration = vec![host::calibrate()];
    let mut total = ClientLog::default();
    let mut timed = ClientLog::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut dura = Vec::new();
    let (mut per_second, mut pings, mut rss) = (Vec::new(), Vec::new(), 0.0);
    let mut fixture_read_p50 = Vec::with_capacity(SETUPS);
    let mut elapsed = 0.0;
    let mut ticks = (0, 0);
    // The window is split evenly over the fixtures: a fixture's read
    // latency holds steady within its own window but differs from the
    // next fresh fixture's by up to a third, so a run's median over
    // several fixtures is steadier than over one.
    let window = args.seconds / SETUPS as f64;
    for k in 0..SETUPS {
        let mut log = ClientLog::default();
        let (fx, mut loops, secs) = setup(inputs, args, &dir.join(format!("wal{k}")), &mut log)?;
        setup_s.push(secs);
        let ticks0 = host::cpu_ticks();
        let until = Instant::now() + Duration::from_secs_f64(window);
        let mut fixture = ClientLog::default();
        let mut took: f64 = 0.0;
        for (l, t) in run_phase(&mut loops, &[Limit::Until(until); CLIENTS]) {
            fixture.absorb(l);
            took = took.max(t);
        }
        elapsed += took;
        let ticks1 = host::cpu_ticks();
        ticks = (ticks.0 + ticks1.0 - ticks0.0, ticks.1 + ticks1.1 - ticks0.1);
        per_second.append(&mut fixture.per_second);
        fixture_read_p50.push(json::opt(median(&fixture.reads)));
        if k == 0 {
            calibration.push(host::calibrate());
            // Before the durability check, whose recovered copy would
            // count.
            rss = peak_rss_mb();
            pings = loops[0].pings(PINGS, &mut log);
        }
        drop(loops);
        // The fixture's warm-up and timed writes are checked together.
        log.writes_log
            .merge(std::mem::take(&mut fixture.writes_log));
        timed.absorb(fixture);
        if args.workload.writes() {
            dura.push(durability(&fx, inputs, &mut log, dir)?);
        }
        fx.teardown()?;
        total.absorb(log);
    }
    calibration.push(host::calibrate());

    let throughput = timed.checked as f64 / elapsed;
    let (reads, w, v) = (
        std::mem::take(&mut timed.reads),
        std::mem::take(&mut timed.writes),
        std::mem::take(&mut timed.visible),
    );
    total.absorb(timed);
    let (reads, w, v) = (&reads, &w, &v);
    let setup_med = median(&setup_s).unwrap_or(0.0);
    let failed_ratio = total.failed as f64 / total.attempted.max(1) as f64;
    let all: Vec<(&str, &str, Option<f64>)> = vec![
        ("setup_s", "s", Some(setup_med)),
        ("throughput_ops_s", "1/s", Some(throughput)),
        ("read_p50_us", "us", median(reads)),
        ("read_p90_us", "us", tail(reads, 0.9)),
        ("read_p99_us", "us", tail(reads, 0.99)),
        ("write_p50_us", "us", median(w)),
        ("write_p99_us", "us", tail(w, 0.99)),
        ("visible_p50_us", "us", median(v)),
        ("visible_p90_us", "us", tail(v, 0.9)),
        ("failed_ratio", "ratio", Some(failed_ratio)),
        ("peak_rss_mb", "MB", Some(rss)),
    ];
    println!(
        "# wirebench {} seed={} seconds={} clients={CLIENTS} (closed loop)",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    for (name, unit, val) in &all {
        match val {
            Some(x) => println!("# {name:<18} {x:>14.3} {unit}"),
            None => println!(
                "# {name:<18} {:>14} {unit} (no such operation, or too few samples)",
                "n/a"
            ),
        }
    }
    println!(
        "# server.ping_rtt_us {:.3} (p50 of {} PINGs)",
        median(&pings).unwrap_or(f64::NAN),
        pings.len()
    );
    println!(
        "# host calibration ns/iter: start {:.3}, after window {:.3}, end {:.3}",
        calibration[0], calibration[1], calibration[2]
    );
    for e in &total.errors {
        println!("# failure: {e}");
    }
    let record = json::obj([
        ("setting", setting(args, cleared)),
        (
            "metrics",
            json::obj(all.iter().map(|(n, u, v)| {
                (
                    *n,
                    json::obj([("value", json::opt(*v)), ("unit", json::text(*u))]),
                )
            })),
        ),
        (
            "setup_s_each",
            J::Array(setup_s.iter().map(|s| J::Float(*s)).collect()),
        ),
        (
            "samples",
            json::obj([
                ("reads", spread(reads)),
                ("read_tail", tail_of(reads)),
                ("writes", spread(w)),
                ("write_tail", tail_of(w)),
                ("visible_tail", tail_of(v)),
                ("visible", spread(v)),
                ("ping_rtt_us", spread(&pings)),
                ("attempted", J::UInt(total.attempted)),
                ("failed", J::UInt(total.failed)),
                ("checked", J::UInt(total.checked)),
                ("window_s", J::Float(elapsed)),
                ("read_p50_us_per_fixture", J::Array(fixture_read_p50)),
                (
                    "checked_per_second",
                    J::Array(per_second.into_iter().map(J::UInt).collect()),
                ),
            ]),
        ),
        (
            "host",
            json::obj([
                (
                    "calibration_ns_per_iter",
                    J::Array(calibration.iter().map(|c| J::Float(*c)).collect()),
                ),
                ("window_steal_ticks", J::UInt(ticks.0)),
                ("window_cpu_ticks", J::UInt(ticks.1)),
            ]),
        ),
        ("durability", J::Array(dura)),
        (
            "errors",
            J::Array(total.errors.iter().map(json::text).collect()),
        ),
        ("layer_map", layer_map()),
    ]);
    let path = write_record(args, record);
    println!("# run record: {}", path.display());

    let metrics = json::obj(GATED.iter().map(|name| {
        let (_, unit, v) = all
            .iter()
            .find(|(n, _, _)| n == name)
            .expect("gated metric");
        if v.is_none() {
            eprintln!("wirebench: {name} has too few samples in this run");
        }
        (
            *name,
            json::obj([("value", json::opt(*v)), ("unit", json::text(*unit))]),
        )
    }));
    Ok(json::render(&json::obj([
        ("correct", J::Bool(total.failed == 0)),
        ("attempted", J::UInt(total.attempted.max(1))),
        ("failed", J::UInt(total.failed)),
        ("metrics", metrics),
    ])))
}

fn traced(
    args: &Args,
    dir: &Path,
    inputs: &Inputs,
    cleared: &[String],
) -> Result<String, BoxError> {
    let mut total = ClientLog::default();
    let (fx, mut loops, _) = setup(inputs, args, &dir.join("wal"), &mut total)?;
    let pings = loops[0].pings(PINGS, &mut total);
    // A short wire phase gives the wire-side read latency and reply
    // size the in-process replay is compared with.
    let wire_secs = (args.seconds * 0.25).max(1.0);
    let deadline = Instant::now() + Duration::from_secs_f64(wire_secs);
    let mut wire_log = ClientLog::default();
    for (log, _) in run_phase(&mut loops, &[Limit::Until(deadline); CLIENTS]) {
        wire_log.absorb(log);
    }
    drop(loops);
    let wire_read_p50 = median(&wire_log.reads);
    let reply_bytes_per_read = wire_log.read_bytes as f64 / wire_log.reads.count().max(1) as f64;
    total.absorb(wire_log);

    let rp = trace::replay(&fx, inputs, args.seed, args.workload, args.seconds * 0.75);
    total.attempted += rp.attempted;
    total.failed += rp.failed;
    total.errors.extend(rp.errors.iter().cloned());
    let mut rp = rp;
    total.writes_log.merge(std::mem::take(&mut rp.writes_log));
    let dura = if args.workload.writes() {
        durability(&fx, inputs, &mut total, dir)?
    } else {
        J::Null
    };
    let tr = &rp.tracer;
    let us = |name: &str| -> Vec<f64> { tr.durations(name).iter().map(|ns| ns / 1e3).collect() };
    let p50 = |v: &[f64]| median(v).unwrap_or(0.0);
    let per_write = |n: u64| {
        if rp.writes == 0 {
            0.0
        } else {
            n as f64 / rp.writes as f64
        }
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let session_query = us("session.query");
    let fsync = rp.delta(|m| m.wal.fsync_ns.sum);
    let fsyncs = rp.delta(|m| m.wal.fsync_ns.count);
    let commits = rp.delta(|m| m.txn.commits);
    let join_us: Vec<f64> = rp.samples.join_ns.iter().map(|ns| ns / 1e3).collect();
    let per_layer: Vec<(&str, &str, f64, Option<J>)> = vec![
        (
            "server.ping_rtt_us",
            "us",
            p50(&pings),
            Some(spread(&pings)),
        ),
        (
            "server.wire_gap_us",
            "us",
            wire_read_p50.map_or(0.0, |w| w - p50(&session_query)),
            None,
        ),
        (
            "server.reply_bytes_per_read",
            "bytes",
            reply_bytes_per_read,
            None,
        ),
        (
            "proto.parse_ns",
            "ns",
            p50(&tr.durations("proto.parse")),
            None,
        ),
        (
            "session.resolve_ns",
            "ns",
            p50(&tr.durations("session.resolve")),
            None,
        ),
        (
            "session.query_us",
            "us",
            p50(&session_query),
            Some(spread(&session_query)),
        ),
        (
            "session.insert_us",
            "us",
            p50(&us("session.insert")),
            Some(spread(&us("session.insert"))),
        ),
        (
            "session.delete_us",
            "us",
            p50(&us("session.delete")),
            Some(spread(&us("session.delete"))),
        ),
        (
            "session.replica_read_ratio",
            "ratio",
            ratio(rp.replica_planned, rp.session_reads),
            None,
        ),
        (
            "storage.snapshot_us",
            "us",
            p50(&us("storage.snapshot")),
            Some(spread(&us("storage.snapshot"))),
        ),
        (
            "storage.statistics_us",
            "us",
            p50(&us("storage.statistics")),
            Some(spread(&us("storage.statistics"))),
        ),
        (
            "storage.snapshot_rebuilds_per_write",
            "count",
            per_write(rp.delta(|m| m.mvcc.snapshot_rebuilds)),
            None,
        ),
        (
            "storage.insert_us",
            "us",
            p50(&us("storage.insert")),
            Some(spread(&us("storage.insert"))),
        ),
        (
            "storage.delete_us",
            "us",
            p50(&us("storage.delete")),
            Some(spread(&us("storage.delete"))),
        ),
        (
            "planner.plan_us",
            "us",
            p50(&us("planner.plan")),
            Some(spread(&us("planner.plan"))),
        ),
        (
            "planner.exec_us",
            "us",
            p50(&us("planner.exec")),
            Some(spread(&us("planner.exec"))),
        ),
        (
            "planner.plan_cache_hit_ratio",
            "ratio",
            ratio(rp.samples.cache_hits, rp.samples.cache_lookups),
            None,
        ),
        (
            "planner.rows_in_per_row_out",
            "ratio",
            ratio(rp.samples.rows_in, rp.samples.rows_out),
            None,
        ),
        (
            "planner.join_us",
            "us",
            p50(&join_us),
            Some(spread(&join_us)),
        ),
        ("wal.fsync_us", "us", ratio(fsync, fsyncs) / 1e3, None),
        (
            "wal.flushes_per_commit",
            "ratio",
            ratio(rp.delta(|m| m.wal.flushes), commits),
            None,
        ),
        (
            "wal.bytes_per_user_byte",
            "ratio",
            ratio(rp.wal_bytes(), rp.user_bytes),
            None,
        ),
        (
            "repl.lag_us",
            "us",
            p50(&rp.samples.lag_us),
            Some(spread(&rp.samples.lag_us)),
        ),
        (
            "repl.bytes_shipped_per_wal_byte",
            "ratio",
            ratio(rp.delta(|m| m.repl.bytes_shipped), rp.wal_bytes()),
            None,
        ),
        (
            "repl.records_applied_per_write",
            "count",
            per_write(rp.follower_delta(|m| m.repl.records_applied)),
            None,
        ),
    ];

    let spans_path = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", args.workload.name()));
    tr.write(&spans_path)?;
    let plain = trace::agreement(&rp.samples.plain_ns, &rp.samples.unsplit_ns);
    let profiled = trace::agreement(&rp.samples.profiled_ns, &rp.samples.unsplit_ns);
    let show = |a: Option<(f64, usize)>| {
        a.map_or("n/a".to_owned(), |(r, n)| format!("{r:.3} over {n} shapes"))
    };
    let agreement_json = |a: Option<(f64, usize)>| {
        a.map_or(J::Null, |(r, n)| {
            json::obj([("ratio", J::Float(r)), ("shapes", J::UInt(n as u64))])
        })
    };
    let thr = |(n, s): (u64, f64)| if s > 0.0 { n as f64 / s } else { 0.0 };
    let overhead = {
        let (t, u) = (thr(rp.traced), thr(rp.untraced));
        (u > 0.0).then(|| t / u)
    };
    let mut by_name: Vec<(&str, Vec<f64>, u64)> = Vec::new();
    for (s, self_ns) in tr.spans.iter().zip(tr.self_times()) {
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some((_, d, t)) => {
                d.push((s.end - s.start) as f64);
                *t += self_ns;
            }
            None => by_name.push((s.name, vec![(s.end - s.start) as f64], self_ns)),
        }
    }

    println!(
        "# wirebench {} seed={} traced replay ({} commands, {} spans)",
        args.workload.name(),
        args.seed,
        rp.attempted,
        tr.spans.len()
    );
    for (name, unit, v, _) in &per_layer {
        println!("# {name:<38} {v:>14.3} {unit}");
    }
    println!(
        "# split ÷ unsplit (Session::query) read p50: plain {}; profiled {}",
        show(plain),
        show(profiled)
    );
    println!(
        "# tracing overhead (traced ÷ untraced in-process throughput): {}",
        overhead.map_or("n/a".into(), |r| format!("{r:.3}"))
    );
    if !rp.samples.raw_snapshot_share.is_empty() {
        let (q1, q3) = quartiles(&rp.samples.raw_snapshot_share).unwrap_or((0.0, 0.0));
        println!(
            "# read-after-write share in snapshot+statistics: p50 {:.3} (p25 {q1:.3}, p75 {q3:.3})",
            p50(&rp.samples.raw_snapshot_share)
        );
    }
    for e in &total.errors {
        println!("# failure: {e}");
    }
    let record = json::obj([
        ("setting", setting(args, cleared)),
        (
            "per_layer",
            json::obj(per_layer.iter().map(|(n, u, v, s)| {
                (
                    *n,
                    json::obj([
                        ("value", J::Float(*v)),
                        ("unit", json::text(*u)),
                        ("spread", s.clone().unwrap_or(J::Null)),
                    ]),
                )
            })),
        ),
        (
            "head_costs",
            json::obj([
                (
                    "read_after_write_snapshot_share",
                    spread(&rp.samples.raw_snapshot_share),
                ),
                (
                    "plan_cache_hit_ratio",
                    J::Float(ratio(rp.samples.cache_hits, rp.samples.cache_lookups)),
                ),
                ("repl_lag_us", spread(&rp.samples.lag_us)),
            ]),
        ),
        (
            "split_vs_unsplit",
            json::obj([
                ("plain", agreement_json(plain)),
                ("profiled", agreement_json(profiled)),
                (
                    "samples",
                    json::obj([
                        ("plain", J::UInt(rp.samples.plain_ns.len() as u64)),
                        ("profiled", J::UInt(rp.samples.profiled_ns.len() as u64)),
                        ("unsplit", J::UInt(rp.samples.unsplit_ns.len() as u64)),
                    ]),
                ),
            ]),
        ),
        (
            "tracing_overhead",
            json::obj([
                ("traced_ops_s", J::Float(thr(rp.traced))),
                ("untraced_ops_s", J::Float(thr(rp.untraced))),
                ("traced_over_untraced", json::opt(overhead)),
            ]),
        ),
        (
            "spans",
            json::obj([
                ("file", json::text(spans_path.display().to_string())),
                ("count", J::UInt(tr.spans.len() as u64)),
                (
                    "by_name",
                    json::obj(by_name.iter().map(|(n, d, self_ns)| {
                        (
                            *n,
                            json::obj([
                                ("count", J::UInt(d.len() as u64)),
                                ("p50_ns", json::opt(median(d))),
                                ("self_total_ns", J::UInt(*self_ns)),
                            ]),
                        )
                    })),
                ),
            ]),
        ),
        (
            "samples",
            json::obj([
                ("replayed", J::UInt(rp.attempted)),
                ("writes", J::UInt(rp.writes)),
                ("attempted", J::UInt(total.attempted)),
                ("failed", J::UInt(total.failed)),
            ]),
        ),
        ("durability", dura),
        (
            "errors",
            J::Array(total.errors.iter().map(json::text).collect()),
        ),
        ("layer_map", layer_map()),
    ]);
    drop(rp);
    fx.teardown()?;
    let path = write_record(args, record);
    println!("# run record: {}", path.display());
    let metrics = json::obj(per_layer.iter().map(|(n, u, v, _)| {
        (
            *n,
            json::obj([("value", J::Float(*v)), ("unit", json::text(*u))]),
        )
    }));
    Ok(json::render(&json::obj([
        ("correct", J::Bool(total.failed == 0)),
        ("attempted", J::UInt(total.attempted.max(1))),
        ("failed", J::UInt(total.failed)),
        ("metrics", metrics),
    ])))
}
