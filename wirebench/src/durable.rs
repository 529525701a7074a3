//! The untimed durability check: copy the live log directory (no
//! `sync` first), recover the copy, and compare it with the model of
//! acknowledged writes; on the replicated workload also compare the
//! follower with the primary at the primary's final LSN.

use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

use toposem_core::TypeId;
use toposem_extension::Instance;
use toposem_storage::Engine;

use crate::gen::{emp_line, Data, WriteLog};
use crate::setup::{BoxError, Fixture};

pub struct Report {
    /// Rows compared (expected employees plus person projections).
    pub rows: usize,
    /// Acknowledged inserts absent from the recovered state.
    pub missing: usize,
    /// Rows present that the model says are not (acknowledged deletes
    /// undone, or rows never written).
    pub unexpected: usize,
    /// Whether the follower equals the primary at its final LSN.
    pub follower_equal: Option<bool>,
    pub recover_s: f64,
}

impl Report {
    pub fn ok(&self) -> bool {
        self.missing == 0 && self.unexpected == 0 && self.follower_equal != Some(false)
    }
}

/// The server's rendering of a stored row.
pub fn render(eng: &Engine, t: &Instance) -> String {
    eng.with_db(|db| {
        let schema = db.schema();
        t.fields()
            .iter()
            .map(|(a, v)| format!("{}={v}", schema.attr_name(*a)))
            .collect::<Vec<_>>()
            .join(" ")
    })
}

fn lines(eng: &Engine, ty: TypeId) -> HashSet<String> {
    eng.extension(ty).iter().map(|t| render(eng, t)).collect()
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

pub fn check(
    fx: &Fixture,
    data: &Data,
    log: &WriteLog,
    work_dir: &Path,
) -> Result<Report, BoxError> {
    let copy = work_dir.join("wal-copy");
    let _ = std::fs::remove_dir_all(&copy);
    copy_dir(&fx.wal_dir, &copy)?;
    let t0 = Instant::now();
    let recovered = Engine::recover(&copy)?;
    let recover_s = t0.elapsed().as_secs_f64();

    let mut want_emp = HashSet::new();
    let mut want_person = HashSet::new();
    for e in data.emps.iter().chain(log.live()) {
        want_emp.insert(emp_line(&e.name, e.age, e.dept));
    }
    for e in data.emps.iter().chain(log.inserted()) {
        want_person.insert(format!("name={:?} age={}", e.name, e.age));
    }
    let got_emp = lines(&recovered, fx.employee);
    let got_person = lines(&recovered, fx.person);
    let missing =
        want_emp.difference(&got_emp).count() + want_person.difference(&got_person).count();
    let unexpected =
        got_emp.difference(&want_emp).count() + got_person.difference(&want_person).count();
    drop(recovered);
    std::fs::remove_dir_all(&copy)?;

    let follower_equal = fx.repl.as_ref().map(|r| {
        let lsn = fx.engine.wal_next_lsn().unwrap_or(0);
        r.follower.wait_for_lsn(lsn, Duration::from_secs(30)) && {
            let replica = r.follower.engine();
            [fx.employee, fx.person]
                .iter()
                .all(|&t| replica.extension(t) == fx.engine.extension(t))
        }
    });
    Ok(Report {
        rows: want_emp.len() + want_person.len(),
        missing,
        unexpected,
        follower_equal,
        recover_s,
    })
}
