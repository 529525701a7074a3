//! Seeded inputs: the data set, the per-client command streams, and the
//! model every reply is checked against.
//!
//! Everything here is a pure function of the seed. The same seed gives
//! the same rows and a byte-identical command stream per client, so two
//! runs (or two commits) replay exactly the same work.

use std::collections::HashMap;

/// Employees loaded before the run.
pub const EMPLOYEES: usize = 50_000;
/// Departments the employees are spread over.
pub const DEPARTMENTS: usize = 200;
/// Locations the departments are spread over (25 departments each).
pub const LOCATIONS: usize = 8;
/// Employee ages are drawn uniformly from `AGE_MIN..AGE_MIN + AGE_SPAN`.
pub const AGE_MIN: i64 = 18;
/// Width of the age range.
pub const AGE_SPAN: i64 = 50;
/// The department fresh employees are inserted into; it has no
/// `department` row.
pub const FRESH_DEPT: usize = DEPARTMENTS;
/// Zipf exponent of the point-read key distribution.
pub const ZIPF_S: f64 = 0.99;
/// Share of `point_zipf` commands that are short age ranges instead of
/// point reads.
pub const RANGE_SHARE: f64 = 0.10;

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from this seed and a label.
    pub fn derive(seed: u64, label: u64) -> Rng {
        let mut r = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF: rank 0 is the most popular.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One stored employee.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Emp {
    pub name: String,
    pub age: i64,
    pub dept: usize,
}

pub fn dept_name(d: usize) -> String {
    format!("dept{d:03}")
}

pub fn loc_name(l: usize) -> String {
    format!("loc{l}")
}

/// The data set: departments with their locations, and employees.
pub struct Data {
    /// `dept_loc[d]` is department `d`'s location.
    pub dept_loc: Vec<usize>,
    pub emps: Vec<Emp>,
    /// Employee indexes per department.
    pub by_dept: Vec<Vec<usize>>,
    /// Point-read popularity: zipf rank -> employee index.
    pub hot: Vec<usize>,
}

impl Data {
    pub fn generate(seed: u64) -> Data {
        let mut rng = Rng::derive(seed, 1);
        let mut depts: Vec<usize> = (0..DEPARTMENTS).collect();
        shuffle(&mut depts, &mut rng);
        let mut dept_loc = vec![0; DEPARTMENTS];
        for (i, d) in depts.iter().enumerate() {
            dept_loc[*d] = i % LOCATIONS;
        }
        let mut emps = Vec::with_capacity(EMPLOYEES);
        let mut by_dept = vec![Vec::new(); DEPARTMENTS];
        for i in 0..EMPLOYEES {
            let dept = rng.below(DEPARTMENTS);
            by_dept[dept].push(i);
            emps.push(Emp {
                name: format!("emp{i:05}"),
                age: AGE_MIN + rng.below(AGE_SPAN as usize) as i64,
                dept,
            });
        }
        let mut hot: Vec<usize> = (0..EMPLOYEES).collect();
        shuffle(&mut hot, &mut rng);
        Data {
            dept_loc,
            emps,
            by_dept,
            hot,
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// The server's rendering of a stored employee row (attributes in
/// schema order, strings quoted).
pub fn emp_line(name: &str, age: i64, dept: usize) -> String {
    format!("name={name:?} age={age} depname={:?}", dept_name(dept))
}

/// The server's rendering of a `worksfor` row of the employee ⋈
/// department join.
pub fn join_line(e: &Emp, loc: usize) -> String {
    format!(
        "name={:?} age={} depname={:?} location={:?}",
        e.name,
        e.age,
        dept_name(e.dept),
        loc_name(loc)
    )
}

/// A checksum of the multiset of lines: the wrapping sum of each
/// line's FNV-1a hash. Equal for every order of the same rows, so it
/// checks a reply against the sorted model rows without sorting.
pub fn checksum<S: AsRef<str>>(lines: &[S]) -> u64 {
    lines.iter().fold(0u64, |acc, l| {
        let h = l.as_ref().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        acc.wrapping_add(h)
    })
}

/// What a reply must contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Exactly this one line.
    Row(String),
    /// Exactly this many rows with this [`checksum`].
    Set { rows: usize, sum: u64 },
    /// `OK 0 inserted=true`.
    Inserted,
    /// `OK 0 deleted=<n>`: the employee tuple only; its person
    /// projection stays, since the person still exists.
    Deleted(usize),
}

/// A command's role in the measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read,
    Insert,
    Delete,
}

/// One generated command: the exact line sent, and its expected reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cmd {
    pub line: String,
    pub kind: Kind,
    pub expect: Expect,
    /// For writes: the row written (the durability model's unit).
    pub row: Option<Emp>,
    /// Whether this read follows the same client's insert of the row it
    /// reads (a read-your-writes read).
    pub after_write: bool,
}

/// The named workloads. `join_scan` runs by hand only: its read
/// latency (a full join over the 50k employees) settles at a different
/// level in each fresh process and fixture, so from run to run it spread
/// wider than the benchmark's bound and `BENCHMARK.json` leaves it out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointZipf,
    JoinScan,
    WriteRead,
    ReplicaRw,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointZipf,
        Workload::JoinScan,
        Workload::WriteRead,
        Workload::ReplicaRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointZipf => "point_zipf",
            Workload::JoinScan => "join_scan",
            Workload::WriteRead => "write_read",
            Workload::ReplicaRw => "replica_rw",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload writes (and so gets the durability check).
    pub fn writes(self) -> bool {
        matches!(self, Workload::WriteRead | Workload::ReplicaRw)
    }

    pub fn replicated(self) -> bool {
        self == Workload::ReplicaRw
    }

    /// What every client runs. On `replica_rw` both clients write, so
    /// every read waits on the follower for the session's read floor.
    pub fn mix(self) -> Mix {
        match self {
            Workload::PointZipf => Mix::Point,
            Workload::JoinScan => Mix::Scan,
            Workload::WriteRead | Workload::ReplicaRw => Mix::Cycle,
        }
    }
}

/// A client's command mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Zipf point reads plus a minority of short age ranges.
    Point,
    /// The fixed join and filter-scan texts.
    Scan,
    /// INSERT a fresh employee, read it back, DELETE it.
    Cycle,
}

/// The fixed `join_scan` texts with their expected answers, computed
/// from the data once.
pub fn scan_texts(data: &Data) -> Vec<(String, Expect)> {
    let mut out = Vec::new();
    for loc in 0..LOCATIONS {
        let line = format!(
            "QUERY scan employee | join (scan department) | select location = '{}' \
             | order by age, name",
            loc_name(loc)
        );
        let rows: Vec<String> = data
            .emps
            .iter()
            .filter(|e| data.dept_loc[e.dept] == loc)
            .map(|e| join_line(e, loc))
            .collect();
        let expect = Expect::Set {
            rows: rows.len(),
            sum: checksum(&rows),
        };
        out.push((line, expect));
    }
    // Multi-predicate filter scans: a five-year age band crossed with a
    // 40-department name band (about 1k rows each). Fewer than the
    // joins, so the read median sits well inside the join mode.
    for i in 0..4i64 {
        let (lo, hi) = (AGE_MIN + 8 * i, AGE_MIN + 8 * i + 4);
        let d0 = (i as usize * 31) % (DEPARTMENTS - 40);
        let (dlo, dhi) = (d0, d0 + 39);
        let line = format!(
            "QUERY scan employee | select age >= {lo} | select age <= {hi} \
             | select depname >= '{}' | select depname <= '{}'",
            dept_name(dlo),
            dept_name(dhi)
        );
        let rows: Vec<String> = data
            .emps
            .iter()
            .filter(|e| e.age >= lo && e.age <= hi && e.dept >= dlo && e.dept <= dhi)
            .map(|e| emp_line(&e.name, e.age, e.dept))
            .collect();
        let expect = Expect::Set {
            rows: rows.len(),
            sum: checksum(&rows),
        };
        out.push((line, expect));
    }
    out
}

/// A client's endless, seeded command stream.
pub struct Stream<'a> {
    data: &'a Data,
    zipf: &'a Zipf,
    scans: &'a [(String, Expect)],
    mix: Mix,
    rng: Rng,
    /// Name prefix of this stream's fresh employees.
    tag: String,
    cycle: u64,
    /// Commands still to emit from the current write cycle.
    pending: Vec<Cmd>,
}

/// Shared read-only inputs of every stream.
pub struct Inputs {
    pub data: Data,
    pub zipf: Zipf,
    pub scans: Vec<(String, Expect)>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let data = Data::generate(seed);
        let scans = scan_texts(&data);
        Inputs {
            data,
            zipf: Zipf::new(EMPLOYEES, ZIPF_S),
            scans,
        }
    }

    /// The stream of client `client` in `workload`. `tag` keeps the
    /// fresh names of separate phases (and processes) apart.
    pub fn stream(&self, seed: u64, workload: Workload, client: usize, tag: &str) -> Stream<'_> {
        let label = 100 + 10 * workload as u64 + client as u64;
        Stream {
            data: &self.data,
            zipf: &self.zipf,
            scans: &self.scans,
            mix: workload.mix(),
            rng: Rng::derive(seed, label),
            tag: format!("{tag}{client}x"),
            cycle: 0,
            pending: Vec::new(),
        }
    }
}

impl Stream<'_> {
    pub fn mix(&self) -> Mix {
        self.mix
    }

    fn point(&mut self) -> Cmd {
        if self.rng.unit() < RANGE_SHARE {
            // A short age range inside one department (~15 rows).
            let dept = self.rng.below(DEPARTMENTS);
            let lo = AGE_MIN + self.rng.below(AGE_SPAN as usize - 2) as i64;
            let hi = lo + 2;
            let rows: Vec<String> = self.data.by_dept[dept]
                .iter()
                .map(|&i| &self.data.emps[i])
                .filter(|e| e.age >= lo && e.age <= hi)
                .map(|e| emp_line(&e.name, e.age, e.dept))
                .collect();
            let expect = Expect::Set {
                rows: rows.len(),
                sum: checksum(&rows),
            };
            return Cmd {
                line: format!(
                    "QUERY scan employee | select depname = '{}' | select age >= {lo} \
                     | select age <= {hi}",
                    dept_name(dept)
                ),
                kind: Kind::Read,
                expect,
                row: None,
                after_write: false,
            };
        }
        let e = &self.data.emps[self.data.hot[self.zipf.sample(&mut self.rng)]];
        Cmd {
            line: format!("QUERY scan employee | select name = '{}'", e.name),
            kind: Kind::Read,
            expect: Expect::Row(emp_line(&e.name, e.age, e.dept)),
            row: None,
            after_write: false,
        }
    }

    fn cycle_cmds(&mut self) -> Vec<Cmd> {
        self.cycle += 1;
        // Fresh hires join a department of their own, outside every
        // range, filter, and join the read-only mixes send, so those
        // answers stay exact while another client writes.
        let row = Emp {
            name: format!("{}{:06}", self.tag, self.cycle),
            age: AGE_MIN + self.rng.below(AGE_SPAN as usize) as i64,
            dept: FRESH_DEPT,
        };
        let fields = format!(
            "name='{}', age={}, depname='{}'",
            row.name,
            row.age,
            dept_name(row.dept)
        );
        vec![
            Cmd {
                line: format!("INSERT employee {fields}"),
                kind: Kind::Insert,
                expect: Expect::Inserted,
                row: Some(row.clone()),
                after_write: false,
            },
            Cmd {
                line: format!("QUERY scan employee | select name = '{}'", row.name),
                kind: Kind::Read,
                expect: Expect::Row(emp_line(&row.name, row.age, row.dept)),
                row: None,
                after_write: true,
            },
            Cmd {
                line: format!("DELETE employee {fields}"),
                kind: Kind::Delete,
                expect: Expect::Deleted(1),
                row: Some(row),
                after_write: false,
            },
        ]
    }
}

impl Iterator for Stream<'_> {
    type Item = Cmd;

    fn next(&mut self) -> Option<Cmd> {
        Some(match self.mix {
            Mix::Point => self.point(),
            Mix::Scan => {
                let (line, expect) = &self.scans[self.rng.below(self.scans.len())];
                Cmd {
                    line: line.clone(),
                    kind: Kind::Read,
                    expect: expect.clone(),
                    row: None,
                    after_write: false,
                }
            }
            Mix::Cycle => {
                if self.pending.is_empty() {
                    self.pending = self.cycle_cmds();
                    self.pending.reverse();
                }
                self.pending.pop().expect("a cycle has three commands")
            }
        })
    }
}

/// The durability model: acknowledged writes per fresh row.
#[derive(Default)]
pub struct WriteLog {
    /// name -> (row, insert acknowledged, delete acknowledged).
    pub rows: HashMap<String, (Emp, bool, bool)>,
}

impl WriteLog {
    pub fn ack(&mut self, kind: Kind, row: &Emp) {
        let entry = self
            .rows
            .entry(row.name.clone())
            .or_insert_with(|| (row.clone(), false, false));
        match kind {
            Kind::Insert => entry.1 = true,
            Kind::Delete => entry.2 = true,
            Kind::Read => {}
        }
    }

    pub fn merge(&mut self, other: WriteLog) {
        for (name, (row, ins, del)) in other.rows {
            let e = self.rows.entry(name).or_insert((row, false, false));
            e.1 |= ins;
            e.2 |= del;
        }
    }

    /// Employees that must be present after recovery: inserted and not
    /// deleted.
    pub fn live(&self) -> impl Iterator<Item = &Emp> {
        self.rows
            .values()
            .filter(|(_, ins, del)| *ins && !*del)
            .map(|(r, _, _)| r)
    }

    /// Every acknowledged insert: its person projection survives the
    /// employee's delete.
    pub fn inserted(&self) -> impl Iterator<Item = &Emp> {
        self.rows
            .values()
            .filter(|(_, ins, _)| *ins)
            .map(|(r, _, _)| r)
    }

    /// Acknowledged write operations.
    pub fn acked_ops(&self) -> usize {
        self.rows
            .values()
            .map(|(_, i, d)| usize::from(*i) + usize::from(*d))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        let a = Inputs::generate(7);
        let b = Inputs::generate(7);
        for w in Workload::ALL {
            for c in 0..2 {
                let x: Vec<Cmd> = a.stream(7, w, c, "w").take(500).collect();
                let y: Vec<Cmd> = b.stream(7, w, c, "w").take(500).collect();
                assert_eq!(x, y, "{} client {c}", w.name());
            }
        }
        let other = Inputs::generate(8);
        let x: Vec<String> = a
            .stream(7, Workload::PointZipf, 0, "w")
            .take(50)
            .map(|c| c.line)
            .collect();
        let y: Vec<String> = other
            .stream(8, Workload::PointZipf, 0, "w")
            .take(50)
            .map(|c| c.line)
            .collect();
        assert_ne!(x, y, "another seed gives another stream");
    }

    #[test]
    fn zipf_follows_its_power_law() {
        let n = 1000;
        let z = Zipf::new(n, ZIPF_S);
        let mut rng = Rng::derive(42, 0);
        let draws = 200_000;
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        // P(rank k) = k^-s / H(n, s).
        let h: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(ZIPF_S)).sum();
        for k in [1usize, 2, 10, 100] {
            let want = draws as f64 / (k as f64).powf(ZIPF_S) / h;
            let got = counts[k - 1] as f64;
            let sd = want.sqrt();
            assert!(
                (got - want).abs() < 5.0 * sd + 1.0,
                "rank {k}: got {got}, want {want:.0}"
            );
        }
        // Monotone in expectation: the head outweighs the tail.
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        // Every sample is a valid rank.
        assert_eq!(counts.iter().sum::<usize>(), draws);
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let z = Zipf::new(50_000, ZIPF_S);
        let a: Vec<usize> = {
            let mut r = Rng::derive(3, 0);
            (0..100).map(|_| z.sample(&mut r)).collect()
        };
        let b: Vec<usize> = {
            let mut r = Rng::derive(3, 0);
            (0..100).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&k| k < 50_000));
    }

    #[test]
    fn checksum_ignores_order_but_not_content() {
        let a = ["x=1", "y=2", "z=3"];
        let b = ["z=3", "x=1", "y=2"];
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&["x=1", "y=2", "z=4"]));
        assert_ne!(checksum(&a), checksum(&["x=1", "y=2"]));
    }

    #[test]
    fn write_cycles_use_fresh_names_and_expect_their_row() {
        let inputs = Inputs::generate(1);
        let cmds: Vec<Cmd> = inputs
            .stream(1, Workload::WriteRead, 1, "w")
            .take(6)
            .collect();
        let kinds: Vec<Kind> = cmds.iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            [
                Kind::Insert,
                Kind::Read,
                Kind::Delete,
                Kind::Insert,
                Kind::Read,
                Kind::Delete
            ]
        );
        assert!(cmds[1].after_write);
        assert_ne!(cmds[0].row, cmds[3].row);
        // The replicated workload runs the same cycle on every client.
        assert_eq!(Workload::ReplicaRw.mix(), Mix::Cycle);
        let row = cmds[0].row.as_ref().unwrap();
        assert!(row.name.starts_with("w1x"));
        assert_eq!(
            cmds[1].expect,
            Expect::Row(emp_line(&row.name, row.age, row.dept))
        );
    }

    #[test]
    fn scan_texts_are_few_and_sized_in_the_hundreds_to_thousands() {
        let inputs = Inputs::generate(5);
        assert!(inputs.scans.len() < 16);
        for (line, e) in &inputs.scans {
            let Expect::Set { rows, .. } = e else {
                panic!("{line}")
            };
            assert!((100..=10_000).contains(rows), "{line}: {rows}");
        }
    }

    #[test]
    fn write_log_keeps_inserted_and_undeleted_rows_live() {
        let mut log = WriteLog::default();
        let a = Emp {
            name: "a".into(),
            age: 20,
            dept: 1,
        };
        let b = Emp {
            name: "b".into(),
            age: 30,
            dept: 2,
        };
        log.ack(Kind::Insert, &a);
        log.ack(Kind::Insert, &b);
        log.ack(Kind::Delete, &b);
        let live: Vec<&Emp> = log.live().collect();
        assert_eq!(live, vec![&a]);
        assert_eq!(log.acked_ops(), 3);
    }
}
