//! Chaos tests: the hardened server and retrying client under deterministic
//! fault injection, plus the crash-safe checkpoint path.
//!
//! Everything here is seeded — fault schedules ([`FaultPlan`]) and retry
//! backoff jitter are pure functions of their seeds, so a failing case
//! replays exactly from its printed inputs.

use autopower::{
    encode_checkpoint, load_checkpoint_salvaged, load_model, save_checkpoint, save_checkpoint_with,
    ChunkCursor, ModelKind, StreamSpec, SweepAggregator, SweepCheckpoint, SweepEngine, SweepPoint,
    SweepSpec,
};
use autopower_config::{boom_configs, ConfigId, CpuConfig, DesignSpace, Workload};
use autopower_serve::client::{Client, ClientError, RetryPolicy};
use autopower_serve::faults::{io_fault_at, panic_at, torn_write_at, Fault, FaultPlan, MAX_STALL};
use autopower_serve::protocol::{ErrorCode, ServedPoint};
use autopower_serve::server::{ServeOptions, Server};
use proptest::prelude::*;
use std::io::Read as _;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Duration;

/// Trains and saves the fixture model once per test process.
fn fixture_model() -> &'static PathBuf {
    static FIXTURE: OnceLock<PathBuf> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("autopower-faults-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        let cfgs = boom_configs();
        let corpus = autopower::Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &autopower::CorpusSpec::fast(),
        );
        let path = dir.join("autopower.apm");
        let model = ModelKind::AutoPower
            .train(&corpus, &[ConfigId::new(1), ConfigId::new(15)])
            .expect("train fixture model");
        autopower::save_model(model.as_ref(), &path).expect("save fixture model");
        path
    })
}

/// The offline reference the served answers must match bit for bit.
fn offline_points(path: &Path, configs: &[CpuConfig], workloads: &[Workload]) -> Vec<SweepPoint> {
    let model = load_model(path).expect("load reference model");
    SweepEngine::new(model.as_ref(), SweepSpec::fast().threads(1)).run(configs, workloads)
}

fn assert_matches_offline(served: &[ServedPoint], reference: &[SweepPoint]) {
    assert_eq!(served.len(), reference.len());
    for (got, want) in served.iter().zip(reference) {
        assert_eq!(got.power, want.power, "prediction diverged under faults");
        assert_eq!(got.ipc.to_bits(), want.ipc.to_bits(), "ipc diverged");
    }
}

/// Drains a fault-injected server: shutdown may itself hit injected resets,
/// so keep asking (each attempt reconnects) until the drain is confirmed.
fn stop_faulty(server: Server) {
    for _ in 0..200 {
        match Client::connect(server.addr()).and_then(|mut c| c.shutdown()) {
            Ok(()) => break,
            // Connect refused after the listener closed means a previous
            // attempt's request got through even if its ack was lost.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    server.join().expect("faulty server drains and exits");
}

proptest! {
    /// The three fault schedules are pure functions of (seed, counter): a
    /// fresh plan replays the free-function schedule exactly, torn writes
    /// always cut a strict prefix, and stalls stay bounded.
    #[test]
    fn fault_schedules_are_deterministic(seed in 0u64..1_000_000) {
        let a = FaultPlan::new(seed);
        let b = FaultPlan::new(seed);
        for op in 0..256 {
            let expected = io_fault_at(seed, op);
            prop_assert_eq!(a.next_io_fault(), expected);
            prop_assert_eq!(b.next_io_fault(), expected);
            if let Some(Fault::Stall(d)) = expected {
                prop_assert!(d <= MAX_STALL);
            }
            prop_assert_eq!(a.next_worker_panic(), panic_at(seed, op));
            let len = 1 + (op as usize % 257);
            let cut = torn_write_at(seed, op, len);
            prop_assert_eq!(a.next_torn_write(len), cut);
            if let Some(cut) = cut {
                prop_assert!(cut < len, "torn write must be a strict prefix");
            }
        }
    }

    /// End to end under an armed fault plan: short reads/writes, stalls,
    /// resets and worker panics notwithstanding, a retrying client's answer
    /// is bit-identical to the offline sweep on the same model file.
    #[test]
    fn retrying_client_is_bit_identical_under_faults(
        fault_seed in 1u64..1_000,
        n_configs in 1usize..4,
        n_workloads in 1usize..3,
        sample_seed in 0u64..100,
    ) {
        let path = fixture_model();
        let options = ServeOptions {
            workers: 2,
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            fault_seed: Some(fault_seed),
            ..ServeOptions::fast()
        };
        let server = Server::start("127.0.0.1:0", vec![path.clone()], options)
            .expect("faulty server starts");
        let policy = RetryPolicy {
            attempts: 50,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            seed: fault_seed,
            timeout: Duration::from_secs(5),
        };
        let mut client = Client::connect_with(server.addr(), policy).expect("client connects");
        let configs = DesignSpace::boom().sample(n_configs, sample_seed);
        let workloads: Vec<Workload> = Workload::ALL[..n_workloads].to_vec();
        let served = client
            .predict(ModelKind::AutoPower, &configs, &workloads)
            .expect("retrying client converges through the fault schedule");
        assert_matches_offline(&served, &offline_points(path, &configs, &workloads));
        stop_faulty(server);
    }
}

#[test]
fn overload_sheds_with_a_typed_answer_and_ping_reports_the_pressure() {
    let path = fixture_model();
    // One worker, a huge merge window and a 4-point queue bound: the first
    // request parks in the queue, so the second must be shed.
    let options = ServeOptions {
        workers: 1,
        max_batch: 1_000_000,
        max_wait: Duration::from_millis(600),
        max_queue: 4,
        ..ServeOptions::fast()
    };
    let server = Server::start("127.0.0.1:0", vec![path.clone()], options).expect("server starts");
    let configs = DesignSpace::boom().sample(2, 3);
    let workloads = [Workload::Dhrystone, Workload::Qsort];
    let reference = offline_points(path, &configs, &workloads);

    let admitted = std::thread::scope(|scope| {
        let parked = {
            let configs = &configs;
            let workloads = &workloads;
            let server = &server;
            scope.spawn(move || {
                Client::connect(server.addr())
                    .expect("first client connects")
                    .predict(ModelKind::AutoPower, configs, workloads)
                    .expect("the admitted request completes")
            })
        };
        // Let the 4-point request reach the queue, then watch it through
        // ping and push one more point over the bound.
        std::thread::sleep(Duration::from_millis(150));
        let health = Client::connect(server.addr())
            .expect("ping client connects")
            .ping()
            .expect("ping answers under load");
        assert_eq!(health.queued_points, 4);
        assert_eq!(health.max_queue, 4);
        assert_eq!(health.workers, 1);

        let mut shed_client = Client::connect(server.addr()).expect("second client connects");
        match shed_client.predict(ModelKind::AutoPower, &configs[..1], &workloads[..1]) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Overloaded);
                assert!(message.contains("queue full"), "{message}");
            }
            other => panic!("expected overload shed, got {other:?}"),
        }
        // Answers-and-closes: the shed connection is gone server-side; the
        // client transparently re-dials once the pressure clears.
        parked.join().expect("admitted client thread")
    });
    assert_matches_offline(&admitted, &reference);

    let mut client = Client::connect(server.addr()).expect("post-shed connect");
    let served = client
        .predict(ModelKind::AutoPower, &configs, &workloads)
        .expect("server serves again after the queue drains");
    assert_matches_offline(&served, &reference);
    // The worker decrements in-flight just after sending replies, so give
    // the counters a moment to settle before pinning them to zero.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let health = client.ping().expect("ping when idle");
        if health.queued_points == 0 && health.in_flight_points == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "queue/in-flight never drained: {health:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    stop_faulty(server);
}

#[test]
fn idle_and_mid_frame_timeouts_drop_stuck_connections() {
    let path = fixture_model();
    let options = ServeOptions {
        workers: 1,
        idle_timeout: Duration::from_millis(150),
        io_timeout: Duration::from_millis(150),
        ..ServeOptions::fast()
    };
    let server = Server::start("127.0.0.1:0", vec![path.clone()], options).expect("server starts");

    // A connection that never sends a frame is dropped at the idle deadline.
    let mut silent = TcpStream::connect(server.addr()).expect("silent connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(
        silent
            .read(&mut buf)
            .expect("server closes the idle socket"),
        0,
        "idle connection should see EOF"
    );

    // A half-sent frame (slowloris) is dropped at the I/O deadline, not held
    // until the idle deadline times the whole connection out.
    let mut stuck = TcpStream::connect(server.addr()).expect("slow connect");
    stuck
        .write_all(b"APSV")
        .expect("send a frame prefix, then stall");
    stuck
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(
        stuck
            .read(&mut buf)
            .expect("server closes the stuck socket"),
        0,
        "mid-frame stall should see EOF"
    );

    // A retrying client shrugs off the idle drop: the next request re-dials.
    let policy = RetryPolicy {
        attempts: 3,
        timeout: Duration::from_secs(5),
        ..RetryPolicy::none()
    };
    let mut client = Client::connect_with(server.addr(), policy).expect("client connects");
    client.info().expect("first info");
    std::thread::sleep(Duration::from_millis(400)); // outlive the idle deadline
    client.info().expect("info after idle drop reconnects");
    stop_faulty(server);
}

#[test]
fn torn_checkpoint_writes_always_leave_a_loadable_durable_state() {
    let plan = FaultPlan::new(0xC0FF_EE00);
    let dir = std::env::temp_dir().join(format!("autopower-faults-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let path = dir.join("chaos.ckpt");
    let checkpoint_at = |offset: u64| SweepCheckpoint {
        fingerprint: 0xFEED_FACE,
        cursor: ChunkCursor { offset },
        aggregator: SweepAggregator::new(1, &StreamSpec::default()),
        audit: None,
    };

    let (mut torn, mut clean) = (0u32, 0u32);
    let mut last_durable: Option<u64> = None;
    for round in 1..=64 {
        let checkpoint = checkpoint_at(round);
        let len = encode_checkpoint(&checkpoint).len();
        match plan.next_torn_write(len) {
            // The schedule says this write dies after `cut` bytes: the
            // writer hook mirrors a process killed mid-write (partial temp
            // file, no rename).
            Some(cut) => {
                torn += 1;
                let err = save_checkpoint_with(&checkpoint, &path, |tmp, bytes| {
                    std::fs::write(tmp, &bytes[..cut])?;
                    Err(std::io::Error::other("injected torn write"))
                })
                .expect_err("a torn write must fail the save");
                assert!(err.to_string().contains("injected torn write"));
            }
            None => {
                clean += 1;
                save_checkpoint(&checkpoint, &path).expect("clean save");
                last_durable = Some(round);
            }
        }
        // After every round, resume sees exactly the last durable cursor —
        // or refuses loudly when nothing was ever durably written.
        match (
            last_durable,
            load_checkpoint_salvaged(&path, Some(0xFEED_FACE)),
        ) {
            (Some(durable), Ok((loaded, _))) => assert_eq!(loaded.cursor.offset, durable),
            (None, Err(e)) => assert!(e.to_string().contains("chaos.ckpt")),
            (expected, got) => panic!("round {round}: expected {expected:?}, got {got:?}"),
        }
    }
    assert!(
        torn > 0 && clean > 0,
        "the schedule must exercise both torn ({torn}) and clean ({clean}) writes"
    );
    std::fs::remove_dir_all(&dir).ok();
}
