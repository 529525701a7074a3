//! The fixed setting: a durable 50k-employee engine under the Eager
//! containment policy, its two indexes, the TCP server, and (for the
//! replicated workload) one in-process follower.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use toposem_core::{employee_schema, Intension, TypeId};
use toposem_extension::{ContainmentPolicy, Database, DomainCatalog, DomainSpec, Value};
use toposem_repl::{
    Follower, FollowerConfig, InProcessTransport, SegmentTransport, Shipper, ShipperConfig,
};
use toposem_server::{serve, serve_with_replicas, ReplicaPool, ServerHandle};
use toposem_storage::{Engine, IndexKind};
use toposem_wal::{Wal, WalConfig};

use crate::gen::{dept_name, loc_name, Data, DEPARTMENTS};

/// An open catalog: `employee_defaults` admits only three department
/// names and two locations.
pub fn catalog() -> DomainCatalog {
    let mut c = DomainCatalog::new();
    c.bind("person-names", DomainSpec::AnyStr)
        .bind("ages", DomainSpec::IntRange(0, 150))
        .bind("department-names", DomainSpec::AnyStr)
        .bind("amounts", DomainSpec::AnyInt)
        .bind("locations", DomainSpec::AnyStr);
    c
}

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Replication pieces of the `replica_rw` fixture.
pub struct Replication {
    pub shipper: Shipper,
    pub follower: Arc<Follower>,
    pub pool: Arc<ReplicaPool>,
}

/// A served engine, ready for clients.
pub struct Fixture {
    pub engine: Arc<Engine>,
    pub handle: ServerHandle,
    pub repl: Option<Replication>,
    pub wal_dir: PathBuf,
    pub employee: TypeId,
    pub person: TypeId,
}

/// Builds the database in memory, wraps it durably (initial checkpoint),
/// builds the hash index on `employee.name` and the ordered index on
/// `employee.age`, checkpoints again so the index definitions are in
/// the base image, and starts serving.
pub fn build(data: &Data, wal_dir: &Path, replicated: bool) -> Result<Fixture, BoxError> {
    let mut db = Database::new(
        Intension::analyse(employee_schema()),
        catalog(),
        ContainmentPolicy::Eager,
    );
    let schema = db.schema();
    let employee = schema.type_id("employee").ok_or("no employee type")?;
    let person = schema.type_id("person").ok_or("no person type")?;
    let department = schema.type_id("department").ok_or("no department type")?;
    let name = schema.attr_id("name").ok_or("no name attribute")?;
    let age = schema.attr_id("age").ok_or("no age attribute")?;
    for d in 0..DEPARTMENTS {
        db.insert_fields(
            department,
            &[
                ("depname", Value::str(&dept_name(d))),
                ("location", Value::str(&loc_name(data.dept_loc[d]))),
            ],
        )?;
    }
    for e in &data.emps {
        db.insert_fields(
            employee,
            &[
                ("name", Value::str(&e.name)),
                ("age", Value::Int(e.age)),
                ("depname", Value::str(&dept_name(e.dept))),
            ],
        )?;
    }
    let _ = std::fs::remove_dir_all(wal_dir);
    let wal = Wal::create(wal_dir, WalConfig::default())?;
    let engine = Arc::new(Engine::durable(db, wal)?);
    engine.create_index_of(employee, IndexKind::Hash, &[name])?;
    engine.create_index_of(employee, IndexKind::Ordered, &[age])?;
    engine.checkpoint()?;

    let (handle, repl) = if replicated {
        let transport = Arc::new(InProcessTransport::new());
        let shipper = Shipper::start(
            Arc::clone(&engine),
            transport.clone() as Arc<dyn SegmentTransport>,
            ShipperConfig::default(),
        )?;
        let follower = Arc::new(Follower::start_when_ready(
            transport as Arc<dyn SegmentTransport>,
            FollowerConfig::default(),
            Duration::from_secs(60),
        )?);
        let pool = Arc::new(ReplicaPool::new(vec![Arc::clone(&follower)]));
        let handle = serve_with_replicas(Arc::clone(&engine), Arc::clone(&pool), "127.0.0.1:0")?;
        (
            handle,
            Some(Replication {
                shipper,
                follower,
                pool,
            }),
        )
    } else {
        (serve(Arc::clone(&engine), "127.0.0.1:0")?, None)
    };
    Ok(Fixture {
        engine,
        handle,
        repl,
        wal_dir: wal_dir.to_path_buf(),
        employee,
        person,
    })
}

impl Fixture {
    /// Stops the listener and the replication threads and removes the
    /// log directory. Clients must have disconnected first.
    pub fn teardown(self) -> io::Result<()> {
        let Fixture {
            engine,
            mut handle,
            repl,
            wal_dir,
            ..
        } = self;
        handle.shutdown();
        if let Some(r) = repl {
            r.shipper.stop();
            drop(r.pool);
            drop(r.follower);
        }
        drop(engine);
        std::fs::remove_dir_all(wal_dir)
    }
}

/// Total bytes of the log's segment files (the checkpoint excluded).
pub fn wal_bytes(dir: &Path) -> u64 {
    toposem_wal::list_segments(dir)
        .map(|segs| {
            segs.iter()
                .filter_map(|p| std::fs::metadata(p).ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
