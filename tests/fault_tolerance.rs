//! Fault tolerance of the threaded FL transport, end to end.
//!
//! The seed repo's threaded transport collected each round with a bare
//! blocking `recv()`: one dead client thread hung the server forever. These
//! tests pin the replacement behaviour — deadline-driven collection, quorum
//! aggregation, deterministic fault injection, bounded retry — and its
//! determinism contract: the same seed and the same [`FaultPlan`] must
//! produce a bit-identical global model for any worker-pool width.

use dinar_fl::clock::{ManualClock, WallClock};
use dinar_fl::{
    run_threaded_wire, ClientMiddleware, FaultPlan, FlConfig, FlError, FlSystem, Quorum,
    ResilientRun, RetryPolicy, RoundPolicy, WireConfig,
};
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::Sgd;
use dinar_nn::ModelParams;
use dinar_telemetry::Telemetry;
use dinar_tensor::{par, Rng, Tensor};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Serializes mutations of the process-global pool width across tests.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 3] = [1, 2, 4];

/// Runs `f` once per width in [`WIDTHS`] and returns the results in order,
/// restoring the default width afterwards.
fn per_width<T>(f: impl Fn() -> T) -> Vec<T> {
    let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let results = WIDTHS
        .iter()
        .map(|&w| {
            par::set_threads(w);
            f()
        })
        .collect();
    par::reset_threads();
    results
}

/// The tiny model most of the matrix runs on: no kernel of it clears the
/// pool's grain rule (`par::parts`).
const TINY: [usize; 3] = [2, 8, 2];
/// A model whose first weight matrix (524,288 elements) does: its parameter
/// sweeps fan out on any thread that is not a pool worker.
const WIDE: [usize; 3] = [64, 8192, 10];

/// The parts `par::parts` gives a region of `granules` granules of
/// `work_per_granule` units each at width 2.
fn parts_at_width_2(granules: usize, work_per_granule: usize) -> usize {
    let _guard = WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_threads(2);
    let parts = par::parts(granules, work_per_granule);
    par::reset_threads();
    parts
}

/// `n` samples in `features` dimensions, one Gaussian blob per class with
/// the class centres spread evenly over [-2, 2].
fn blob_dataset(n: usize, features: usize, classes: usize, seed: u64) -> dinar_data::Dataset {
    let mut rng = Rng::seed_from(seed);
    let mut x = Tensor::zeros(&[n, features]);
    let mut labels = Vec::new();
    for i in 0..n {
        let class = i % classes;
        let c = -2.0 + 4.0 * class as f32 / (classes - 1) as f32;
        for j in 0..features {
            x.set(&[i, j], rng.normal_with(c, 0.6)).expect("set");
        }
        labels.push(class);
    }
    dinar_data::Dataset::new(x, labels, &[features], classes).expect("dataset")
}

fn build_system() -> FlSystem {
    build_system_of(&TINY, |_| Vec::new())
}

/// Three clients over 90 blob samples, each an MLP of `layers`, with the
/// client middleware `middleware` builds per id.
fn build_system_of(
    layers: &[usize],
    middleware: impl Fn(usize) -> Vec<Box<dyn ClientMiddleware>>,
) -> FlSystem {
    let (features, classes) = (layers[0], layers[layers.len() - 1]);
    let data = blob_dataset(90, features, classes, 5);
    let mut rng = Rng::seed_from(9);
    let shards = dinar_data::partition::partition_dataset(
        &data,
        3,
        dinar_data::partition::Distribution::Iid,
        &mut rng,
    )
    .expect("partition");
    FlSystem::builder(FlConfig {
        local_epochs: 2,
        batch_size: 16,
        seed: 3,
    })
    .clients_from_shards(
        shards,
        |rng| models::mlp(layers, Activation::ReLU, rng),
        |_| Box::new(Sgd::new(0.1)),
    )
    .expect("clients")
    .with_client_middleware(middleware)
    .build()
    .expect("system")
}

fn param_bits(params: &ModelParams) -> Vec<u32> {
    params.to_flat().iter().map(|x| x.to_bits()).collect()
}

fn global_bits(run: &ResilientRun) -> Vec<u32> {
    param_bits(run.system.global_params())
}

fn resilient(policy: RoundPolicy, rounds: usize) -> ResilientRun {
    let clock = Arc::new(ManualClock::new());
    run_threaded_wire(build_system(), rounds, clock, policy, WireConfig::default())
        .expect("resilient run")
}

/// The original bug, as a regression test: under the strict (default)
/// policy a client that dies mid-run must surface as
/// [`FlError::ClientFailure`] — the seed transport blocked forever on its
/// bare `recv()` here. The run executes on a worker thread with a watchdog
/// timeout so a reintroduced hang fails the test instead of wedging CI.
#[test]
fn dead_client_surfaces_error_instead_of_hanging() {
    let (tx, rx) = channel();
    thread::spawn(move || {
        let policy = RoundPolicy::strict().with_faults(FaultPlan::new().crash(1, 2));
        let clock = Arc::new(WallClock::new());
        let result = run_threaded_wire(build_system(), 4, clock, policy, WireConfig::default());
        let _ = tx.send(result);
    });
    let result = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("transport hung on a dead client — the recv() bug is back");
    match result {
        Err(FlError::ClientFailure { client, round, .. }) => {
            assert_eq!(client, 1);
            assert_eq!(round, 2);
        }
        other => panic!("expected ClientFailure, got {other:?}"),
    }
}

/// A crash tolerated by a quorum policy terminates, meets quorum, and
/// yields a bit-identical global model for every worker-pool width.
#[test]
fn crash_with_quorum_is_bit_identical_across_widths() {
    let results = per_width(|| {
        let policy = RoundPolicy::with_quorum(Quorum::AtLeast(2), None)
            .with_faults(FaultPlan::new().crash(1, 2));
        let run = resilient(policy, 4);
        assert_eq!(run.reports.len(), 4, "run did not complete all rounds");
        // Round 1 is healthy; the crash costs one participant thereafter.
        assert_eq!(run.fault_stats[0].participants, 3);
        assert_eq!(run.fault_stats[0].clients_dropped, 0);
        for s in &run.fault_stats[1..] {
            assert_eq!(s.participants, 2, "round {}", s.round);
            assert_eq!(s.clients_dropped, 1, "round {}", s.round);
        }
        // Even the crashed client's state is recovered at join time for
        // post-mortem reassembly (its model is stale at the crash round).
        let ids: Vec<usize> = run.system.clients().iter().map(|c| c.id()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        global_bits(&run)
    });
    for (w, r) in WIDTHS.iter().zip(&results).skip(1) {
        assert_eq!(r, &results[0], "crash run diverged at {w} threads");
    }
}

/// `DropUpdate` (upload lost) and `Delay` (upload late) both exclude the
/// client from that round's aggregate while the client still trains, so the
/// two runs must end bit-identical — and the delayed upload must arrive
/// during the next round and be discarded by the stale tag check.
#[test]
fn delayed_and_dropped_updates_aggregate_identically() {
    let quorum = || RoundPolicy::with_quorum(Quorum::AtLeast(2), None);
    let dropped = resilient(quorum().with_faults(FaultPlan::new().drop_update(1, 2)), 4);
    let delayed = resilient(quorum().with_faults(FaultPlan::new().delay(1, 2)), 4);
    assert_eq!(
        global_bits(&dropped),
        global_bits(&delayed),
        "a lost upload and a late upload produced different global models"
    );
    assert_eq!(dropped.fault_stats[1].clients_dropped, 1);
    assert_eq!(dropped.fault_stats[1].participants, 2);
    // The held round-2 update flushes when round 3 starts; the server must
    // tag-check and discard it (the seed server aggregated any ClientMsg
    // without checking msg.round).
    assert_eq!(delayed.fault_stats[2].stale_discarded, 1);
    assert_eq!(
        dropped
            .fault_stats
            .iter()
            .map(|s| s.stale_discarded)
            .sum::<usize>(),
        0
    );
    // Every round still aggregated: stale updates never count as fresh.
    for s in &delayed.fault_stats {
        assert!(s.participants >= 2, "round {}", s.round);
    }
}

/// A transient failure retried to recovery consumes no client RNG (the
/// fault intercepts before training), so the run ends bit-identical to a
/// fault-free run.
#[test]
fn transient_retry_recovers_bit_identical_to_fault_free() {
    let healthy = resilient(RoundPolicy::strict(), 4);
    let policy = RoundPolicy::strict()
        .with_retry(RetryPolicy::retries(2))
        .with_faults(FaultPlan::new().transient(1, 2, 2));
    let recovered = resilient(policy, 4);
    assert_eq!(
        global_bits(&healthy),
        global_bits(&recovered),
        "retried run diverged from the fault-free run"
    );
    assert_eq!(recovered.fault_stats[1].clients_retried, 2);
    assert_eq!(recovered.fault_stats[1].participants, 3);
    assert_eq!(healthy.fault_stats[1].clients_retried, 0);
}

/// When the retry budget is smaller than the failure count, the client is
/// dropped for the round; with a quorum the round still aggregates, and
/// under full participation the run fails.
#[test]
fn exhausted_retries_drop_the_client() {
    let faults = || FaultPlan::new().transient(1, 2, 5);
    let lenient = RoundPolicy::with_quorum(Quorum::AtLeast(2), None)
        .with_retry(RetryPolicy::retries(1))
        .with_faults(faults());
    let run = resilient(lenient, 3);
    assert_eq!(run.fault_stats[1].clients_retried, 1);
    assert_eq!(run.fault_stats[1].clients_dropped, 1);
    assert_eq!(run.fault_stats[1].participants, 2);
    // The client recovers next round: the failure counter is per-round.
    assert_eq!(run.fault_stats[2].participants, 3);

    let strict = RoundPolicy::strict()
        .with_retry(RetryPolicy::retries(1))
        .with_faults(faults());
    let err = run_threaded_wire(
        build_system(),
        3,
        Arc::new(ManualClock::new()),
        strict,
        WireConfig::default(),
    )
    .expect_err("full participation cannot survive exhausted retries");
    assert!(
        matches!(
            err,
            FlError::ClientFailure {
                client: 1,
                round: 2,
                ..
            }
        ),
        "{err}"
    );
}

/// The crash, lost-upload and deadline paths again, on a model large enough
/// that its kernels would fan out: the client threads are pool workers, so
/// they run them inline, and every path accounts and aggregates exactly as
/// on the tiny model — to the same bits at every pool width.
#[test]
fn fault_paths_hold_on_a_model_large_enough_to_fan_out() {
    // The server's FedAvg `axpy` over the first weight (12 bytes read and
    // written per element) splits at widths 2 and 4.
    assert_eq!(parts_at_width_2(WIDE[0] * WIDE[1], 12), 2);
    let wide = |policy: RoundPolicy, clock: Arc<dyn dinar_fl::clock::Clock>| {
        let system = build_system_of(&WIDE, |_| Vec::new());
        run_threaded_wire(system, 3, clock, policy, WireConfig::default()).expect("wide run")
    };
    let results = per_width(|| {
        let quorum = |deadline| RoundPolicy::with_quorum(Quorum::AtLeast(2), deadline);
        let manual = || Arc::new(ManualClock::new());
        let crashed = wide(
            quorum(None).with_faults(FaultPlan::new().crash(1, 2)),
            manual(),
        );
        let dropped = wide(
            quorum(None).with_faults(FaultPlan::new().drop_update(1, 2)),
            manual(),
        );
        let stalled = wide(
            quorum(Some(Duration::from_millis(500))).with_faults(FaultPlan::new().stall(1, 2)),
            Arc::new(WallClock::new()),
        );
        let participants = |run: &ResilientRun| -> Vec<usize> {
            run.fault_stats.iter().map(|s| s.participants).collect()
        };
        assert_eq!(participants(&crashed), [3, 2, 2]);
        assert_eq!(participants(&dropped), [3, 2, 3]);
        assert_eq!(participants(&stalled), [3, 2, 3]);
        assert!(stalled.fault_stats[1].deadline_expired);
        // A stalled client neither trains nor uploads in round 2; a client
        // whose upload is lost trains on — so the two diverge in round 3.
        [
            global_bits(&crashed),
            global_bits(&dropped),
            global_bits(&stalled),
        ]
    });
    for (w, r) in WIDTHS.iter().zip(&results).skip(1) {
        assert!(
            r == &results[0],
            "a wide-model fault run diverged at {w} threads"
        );
    }
}

/// Records, from inside a client's upload transform, whether the thread it
/// runs on is a pool worker.
#[derive(Debug)]
struct WorkerProbe(Arc<Mutex<Vec<bool>>>);

impl ClientMiddleware for WorkerProbe {
    fn transform_upload(&mut self, _: usize, _: &mut ModelParams) -> dinar_fl::Result<()> {
        self.0
            .lock()
            .expect("probe lock")
            .push(par::in_parallel_region());
        Ok(())
    }

    fn name(&self) -> &'static str {
        "worker-probe"
    }
}

/// One rule in both engines — one client, one core; a worker's nested
/// regions run inline: wherever a client's round runs next to other work,
/// it runs on a pool worker (the in-process engine's fan-out at widths ≥ 2,
/// the threaded engine's client threads at every width), and both engines
/// reach the same global model bit for bit at every width.
#[test]
fn both_engines_run_clients_on_pool_workers() {
    let results = per_width(|| {
        let marks = Arc::new(Mutex::new(Vec::new()));
        let probed = || {
            build_system_of(&WIDE, |_| {
                vec![Box::new(WorkerProbe(marks.clone())) as Box<dyn ClientMiddleware>]
            })
        };
        let take = || std::mem::take(&mut *marks.lock().expect("probe lock"));

        let mut in_process = probed();
        in_process.run(2).expect("in-process rounds");
        let in_process_marks = take();
        let clock = Arc::new(ManualClock::new());
        let threaded = run_threaded_wire(
            probed(),
            2,
            clock,
            RoundPolicy::strict(),
            WireConfig::default(),
        )
        .expect("threaded rounds");
        let threaded_marks = take();

        let global = param_bits(in_process.global_params());
        assert!(global == global_bits(&threaded), "the two engines diverged");
        (in_process_marks, threaded_marks, global)
    });
    for (&width, (in_process, threaded, global)) in WIDTHS.iter().zip(&results) {
        // Three clients, two rounds, one upload each.
        assert_eq!((in_process.len(), threaded.len()), (6, 6), "width {width}");
        // At width 1 the in-process engine has nothing to fan out to: the
        // clients take turns on the calling thread, which is no worker.
        assert!(
            in_process.iter().all(|&m| m == (width > 1)),
            "width {width}: {in_process:?}"
        );
        assert!(threaded.iter().all(|&m| m), "width {width}: {threaded:?}");
        assert!(
            global == &results[0].2,
            "global model diverged at {width} threads"
        );
    }
}

/// A silently stalling client (alive but never replying) is resolved by the
/// wall-clock round deadline: the round proceeds on quorum and flags the
/// expiry.
#[test]
fn stalled_client_is_cut_off_by_the_deadline() {
    let policy = RoundPolicy::with_quorum(Quorum::AtLeast(2), Some(Duration::from_millis(250)))
        .with_faults(FaultPlan::new().stall(1, 2));
    let clock = Arc::new(WallClock::new());
    let run = run_threaded_wire(build_system(), 3, clock, policy, WireConfig::default())
        .expect("quorum run survives a stall");
    assert_eq!(run.reports.len(), 3);
    let s = &run.fault_stats[1];
    assert!(
        s.deadline_expired,
        "deadline should have expired in round 2"
    );
    assert_eq!(s.participants, 2);
    assert_eq!(s.clients_dropped, 1);
    // The stalled client is still alive and serves later rounds.
    assert_eq!(run.fault_stats[2].participants, 3);
    assert_eq!(run.system.clients().len(), 3);
}

/// Losing too many clients at once fails the round with a `ClientFailure`
/// that names the shortfall.
#[test]
fn below_quorum_round_fails_with_client_failure() {
    let policy = RoundPolicy::with_quorum(Quorum::AtLeast(2), None)
        .with_faults(FaultPlan::new().crash(0, 1).crash(2, 1));
    let err = run_threaded_wire(
        build_system(),
        2,
        Arc::new(ManualClock::new()),
        policy,
        WireConfig::default(),
    )
    .expect_err("one survivor cannot meet a quorum of two");
    match err {
        FlError::ClientFailure { round, cause, .. } => {
            assert_eq!(round, 1);
            assert!(cause.contains("below quorum"), "{cause}");
        }
        other => panic!("expected ClientFailure, got {other:?}"),
    }
}

/// A lenient policy with an *empty* fault plan changes nothing: the run
/// matches the strict sequential engine bit for bit.
#[test]
fn lenient_policy_without_faults_matches_sequential() {
    let mut sequential = build_system();
    sequential.run(4).expect("sequential run");
    let policy = RoundPolicy::with_quorum(Quorum::Fraction(0.5), Some(Duration::from_secs(60)))
        .with_retry(RetryPolicy::retries(3));
    let clock = Arc::new(WallClock::new());
    let run = run_threaded_wire(build_system(), 4, clock, policy, WireConfig::default())
        .expect("threaded run");
    let diff = sequential
        .global_params()
        .max_abs_diff(run.system.global_params())
        .expect("diff");
    assert!(diff < 1e-7, "lenient healthy run diverged by {diff}");
    for s in &run.fault_stats {
        assert_eq!(
            (s.participants, s.clients_dropped),
            (3, 0),
            "round {}",
            s.round
        );
    }
}

/// The transport's fault counters are deterministic telemetry: they reflect
/// message accounting, not scheduling.
#[test]
fn telemetry_counts_faults_per_round() {
    let telemetry = Telemetry::new();
    let mut system = build_system();
    system.set_telemetry(telemetry.clone());
    let policy = RoundPolicy::with_quorum(Quorum::AtLeast(2), None)
        .with_retry(RetryPolicy::retries(1))
        .with_faults(
            FaultPlan::new()
                .drop_update(1, 1)
                .transient(2, 2, 1)
                .delay(0, 2),
        );
    let clock = Arc::new(ManualClock::new());
    let run = run_threaded_wire(system, 3, clock, policy, WireConfig::default())
        .expect("faulty quorum run");
    assert_eq!(telemetry.counter_value("fl.transport.rounds"), 3);
    assert_eq!(telemetry.counter_value("fl.transport.clients_dropped"), 2);
    assert_eq!(telemetry.counter_value("fl.transport.clients_retried"), 1);
    assert_eq!(telemetry.counter_value("fl.transport.stale_updates"), 1);
    assert_eq!(
        telemetry.counter_value("fl.transport.updates"),
        run.fault_stats
            .iter()
            .map(|s| s.participants as u64)
            .sum::<u64>()
    );
    // The run's telemetry handle survives the thread round trip.
    assert!(run.system.telemetry().is_enabled());
}

/// Seeded dropout schedules are reproducible and respect their bounds.
#[test]
fn seeded_dropout_plans_are_reproducible() {
    let a = FaultPlan::seeded_dropout(7, 10, 20, 0.3);
    let b = FaultPlan::seeded_dropout(7, 10, 20, 0.3);
    assert_eq!(a, b, "same seed must give the same schedule");
    let c = FaultPlan::seeded_dropout(8, 10, 20, 0.3);
    assert_ne!(a, c, "different seeds should differ");
    assert!(FaultPlan::seeded_dropout(7, 10, 20, 0.0).is_empty());
    assert_eq!(FaultPlan::seeded_dropout(7, 10, 20, 1.0).len(), 200);
}
