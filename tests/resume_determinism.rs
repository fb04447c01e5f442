//! Mid-round resume determinism: a run killed after client *k* of a
//! round, checkpointed, and resumed into a freshly rebuilt system must
//! produce a final global model bit-identical to the uninterrupted run —
//! at every worker-pool width, because the resume image carries exact RNG
//! counter state, optimizer state, and the partial round's updates.
//!
//! The same file gates the round engine as a whole: every way of running a
//! round (`run_round`, full selection, every begin/finish split, the
//! threaded wire transport under its defaults) closes through one `Round`,
//! so they must agree bit for bit, and a round finished through the resume
//! pair must leave the same report fields and counters as any other.
//!
//! A noised defense resumes bit for bit or refuses the image: WDP carries
//! its noise stream in the image, while DP-SGD and central DP, whose state
//! the image does not carry, fail `restore` with a typed error. A refused
//! restore writes nothing.
//!
//! These tests also run under `--features sanitize`.

use dinar_defenses::{CentralDp, DpOptimizer, DpParams, WeakDp};
use dinar_fl::ckpt::{decode_resume, encode_resume, FlCheckpoint};
use dinar_fl::clock::WallClock;
use dinar_fl::{
    run_threaded_wire, FlConfig, FlError, FlSystem, RoundPolicy, RoundReport, WireConfig,
};
use dinar_nn::models::{self, Activation};
use dinar_nn::optim::{Adam, Optimizer};
use dinar_nn::NnError;
use dinar_telemetry::{ManualClock, Telemetry};
use dinar_tensor::{par, Rng, Tensor};
use std::sync::{Arc, Mutex};

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

/// The defense a fixture system runs: the resume image must carry every
/// piece of state it keeps between rounds, or `restore` must refuse.
#[derive(Debug, Clone, Copy)]
enum Defense {
    None,
    /// Weak DP: a per-client noise stream in the upload middleware.
    Wdp,
    /// DP-SGD: a noise stream and the wrapped Adam inside the optimizer.
    DpSgd,
    /// Central DP: a noise stream and the previous global on the server.
    Cdp,
}

fn build_system() -> FlSystem {
    build_defended(Defense::None)
}

fn build_defended(defense: Defense) -> FlSystem {
    let data = {
        let mut rng = Rng::seed_from(5);
        let mut features = Tensor::zeros(&[90, 2]);
        let mut labels = Vec::new();
        for i in 0..90 {
            let class = i % 2;
            let c = if class == 0 { -2.0 } else { 2.0 };
            features.set(&[i, 0], rng.normal_with(c, 0.6)).expect("set");
            features.set(&[i, 1], rng.normal_with(c, 0.6)).expect("set");
            labels.push(class);
        }
        dinar_data::Dataset::new(features, labels, &[2], 2).expect("dataset")
    };
    let mut rng = Rng::seed_from(9);
    let shards = dinar_data::partition::partition_dataset(
        &data,
        3,
        dinar_data::partition::Distribution::Iid,
        &mut rng,
    )
    .expect("partition");
    let builder = FlSystem::builder(FlConfig {
        local_epochs: 2,
        batch_size: 16,
        seed: 3,
    })
    .clients_from_shards(
        shards,
        |rng| models::mlp(&[2, 8, 2], Activation::ReLU, rng),
        // Adam carries per-tensor moments and a step counter, so any state
        // the resume image drops would surface as divergent bits.
        move |id| -> Box<dyn Optimizer> {
            let adam = Box::new(Adam::new(0.05));
            match defense {
                Defense::DpSgd => Box::new(DpOptimizer::new(
                    adam,
                    DpParams::paper_default(),
                    Rng::seed_from(100 + id as u64),
                )),
                _ => adam,
            }
        },
    )
    .expect("clients");
    match defense {
        Defense::Wdp => builder.with_client_middleware(|id| {
            vec![Box::new(WeakDp::paper_default(Rng::seed_from(
                200 + id as u64,
            )))]
        }),
        Defense::Cdp => builder.with_server_middleware(Box::new(CentralDp::new(
            DpParams::paper_default(),
            3,
            Rng::seed_from(300),
        ))),
        Defense::None | Defense::DpSgd => builder,
    }
    .build()
    .expect("system")
}

fn global_bits(system: &FlSystem) -> Vec<u32> {
    system
        .global_params()
        .to_flat()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

/// The uninterrupted reference: `rounds` full rounds.
fn straight_run(defense: Defense, rounds: usize) -> Vec<u32> {
    let mut system = build_defended(defense);
    system.run(rounds).expect("straight run");
    global_bits(&system)
}

/// One warm-up round, then the next round is stopped after `k` clients
/// and its image crosses bytes (the simulated kill).
fn killed_after(defense: Defense, k: usize) -> FlCheckpoint {
    let mut first = build_defended(defense);
    first.run(1).expect("warm-up round");
    first.begin_round_partial(k).expect("partial round");
    let bytes = encode_resume(&first.checkpoint()).expect("encode");
    drop(first); // the "killed" process
    decode_resume(&bytes).expect("decode")
}

/// Kill-and-resume: a fresh system restores the image of
/// [`killed_after`] and finishes the round plus `rounds_after` more.
fn resumed_run(defense: Defense, k: usize, rounds_after: usize) -> Vec<u32> {
    let mut second = build_defended(defense);
    second.restore(killed_after(defense, k)).expect("restore");
    assert!(second.has_pending_round());
    second.finish_round().expect("finish interrupted round");
    second.run(rounds_after).expect("post-resume rounds");
    global_bits(&second)
}

/// Killing after any client of the round changes nothing: the resumed
/// final model is bit-identical to the uninterrupted 3-round run, at
/// every pool width.
#[test]
fn resumed_run_is_bit_identical_at_every_width_and_kill_point() {
    let reference = per_width(|| straight_run(Defense::None, 3));
    for k in 1..=3 {
        let resumed = per_width(|| resumed_run(Defense::None, k, 1));
        assert_eq!(
            reference, resumed,
            "kill after client {k} diverged from the uninterrupted run"
        );
    }
}

/// The widths also agree with each other — the checkpoint plane preserves
/// the repo-wide pool-width bit-identity contract.
#[test]
fn resume_bits_agree_across_widths() {
    let runs = per_width(|| resumed_run(Defense::None, 2, 1));
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "pool widths disagree after resume"
    );
}

/// A checkpoint taken *between* rounds (no pending partial round) resumes
/// into the same bits too.
#[test]
fn between_round_checkpoints_resume_bit_identically() {
    let reference = straight_run(Defense::None, 3);
    let mut first = build_system();
    first.run(2).expect("two rounds");
    let bytes = encode_resume(&first.checkpoint()).expect("encode");
    drop(first);

    let mut second = build_system();
    second
        .restore(decode_resume(&bytes).expect("decode"))
        .expect("restore");
    assert!(!second.has_pending_round());
    second.run(1).expect("final round");
    assert_eq!(reference, global_bits(&second));
}

/// WDP's noise stream crosses the resume image, so a WDP run killed after
/// client 1 resumes into the uninterrupted run's bits at every width.
#[test]
fn wdp_resume_is_bit_identical_at_every_width() {
    let reference = per_width(|| straight_run(Defense::Wdp, 3));
    let resumed = per_width(|| resumed_run(Defense::Wdp, 1, 1));
    assert_eq!(reference, resumed, "WDP resume diverged");
}

/// The image carries neither DP-SGD's noise stream nor its wrapped Adam's
/// moments, so `restore` refuses it with a typed error naming them.
#[test]
fn dpsgd_restore_is_refused_with_a_typed_error() {
    let mut system = build_defended(Defense::DpSgd);
    match system.restore(killed_after(Defense::DpSgd, 1)) {
        Err(FlError::Nn(NnError::InvalidConfig { reason })) => {
            assert!(reason.contains("noise stream"), "{reason}");
            assert!(reason.contains("adam"), "{reason}");
        }
        other => panic!("DP-SGD restore returned {other:?}"),
    }
}

/// The image carries no server middleware state, so a central-DP system
/// refuses to restore one.
#[test]
fn cdp_restore_is_refused_with_a_typed_error() {
    let mut system = build_defended(Defense::Cdp);
    match system.restore(killed_after(Defense::Cdp, 1)) {
        Err(FlError::InvalidConfig { reason }) => assert!(reason.contains("cdp"), "{reason}"),
        other => panic!("CDP restore returned {other:?}"),
    }
}

/// Everything a restore may write, as bytes: the global model, the round
/// counter, and every client's parameters, RNG state, optimizer state and
/// middleware state (the system's own resume image).
fn system_state(system: &FlSystem) -> Vec<u8> {
    encode_resume(&system.checkpoint()).expect("encode")
}

/// A system two rounds in, whose state differs from every image
/// [`killed_after`] makes.
fn trained(defense: Defense) -> FlSystem {
    let mut system = build_defended(defense);
    system.run(2).expect("two rounds");
    system
}

/// A refused restore writes nothing: for DP-SGD (refused by a client's
/// optimizer) and central DP (refused by the server), the global and every
/// client are bit for bit as before, not the image's.
#[test]
fn refused_restores_change_nothing() {
    for defense in [Defense::DpSgd, Defense::Cdp] {
        let mut system = trained(defense);
        let before = system_state(&system);
        let global = global_bits(&system);
        let refused = system.restore(killed_after(defense, 1));
        assert!(refused.is_err(), "{defense:?} restore returned {refused:?}");
        assert_eq!(
            global_bits(&system),
            global,
            "{defense:?}: the global moved"
        );
        assert!(
            system_state(&system) == before,
            "{defense:?}: the refused restore wrote state"
        );
        assert!(!system.has_pending_round());
    }
}

/// An image whose last client carries another id is refused before the
/// server or any earlier client is written.
#[test]
fn wrong_id_at_the_last_client_changes_nothing() {
    let mut system = trained(Defense::None);
    let before = system_state(&system);
    let mut image = killed_after(Defense::None, 1);
    let last = image.clients.last_mut().expect("clients");
    last.id = 7;
    match system.restore(image) {
        Err(FlError::InvalidConfig { reason }) => {
            assert!(reason.contains("client 7"), "{reason}");
        }
        other => panic!("wrong-id restore returned {other:?}"),
    }
    assert!(
        system_state(&system) == before,
        "the refused restore wrote state"
    );
    assert!(!system.has_pending_round());
}

/// What the engine gate compares: the final global model's bits and every
/// round's `(round, mean_train_loss bits)`.
type Outcome = (Vec<u32>, Vec<(usize, u32)>);

fn outcome(system: &FlSystem, reports: &[RoundReport]) -> Outcome {
    let rounds = reports
        .iter()
        .map(|r| (r.round, r.mean_train_loss.to_bits()))
        .collect();
    (global_bits(system), rounds)
}

/// One seed, every entry point, every pool width: `run_round`, selection of
/// all clients, every split of the resume pair and the threaded wire
/// transport under its default policy and wire config produce the same
/// model bits and the same report numbers.
#[test]
fn every_way_of_running_a_round_agrees_bit_for_bit() {
    const ROUNDS: usize = 2;
    let clients = build_system().clients().len();
    let runs = per_width(|| {
        let mut ways: Vec<(String, Outcome)> = Vec::new();

        let mut plain = build_system();
        let reports = plain.run(ROUNDS).expect("run_round");
        ways.push(("run_round".into(), outcome(&plain, &reports)));

        let mut selected = build_system();
        let mut rng = Rng::seed_from(17);
        let reports: Vec<RoundReport> = (0..ROUNDS)
            .map(|_| {
                selected
                    .run_round_with_selection(clients, &mut rng)
                    .expect("full selection")
            })
            .collect();
        ways.push((
            "run_round_with_selection(all)".into(),
            outcome(&selected, &reports),
        ));

        for k in 1..=clients {
            let mut split = build_system();
            let reports: Vec<RoundReport> = (0..ROUNDS)
                .map(|_| {
                    split.begin_round_partial(k).expect("partial round");
                    split.finish_round().expect("finish round")
                })
                .collect();
            ways.push((
                format!("begin_round_partial({k})/finish_round"),
                outcome(&split, &reports),
            ));
        }

        let run = run_threaded_wire(
            build_system(),
            ROUNDS,
            Arc::new(WallClock::new()),
            RoundPolicy::default(),
            WireConfig::default(),
        )
        .expect("threaded wire run");
        ways.push((
            "run_threaded_wire".into(),
            outcome(&run.system, &run.reports),
        ));
        ways
    });

    let reference = &runs[0][0].1;
    for (width, ways) in WIDTHS.iter().zip(&runs) {
        assert_eq!(ways.len(), clients + 3);
        for (way, got) in ways {
            assert_eq!(
                got, reference,
                "{way} at {width} thread(s) diverged from run_round at 1"
            );
        }
    }
}

/// A round finished through the resume pair is a full round to the
/// engine: it measures client memory, opens the `round[N]`/`aggregate`
/// spans and counts itself in `fl.rounds`/`fl.updates` exactly as
/// `run_round` does.
#[test]
fn resumed_round_reports_memory_and_counts_like_run_round() {
    let instrumented = || {
        let tel = Telemetry::with_clock(Arc::new(ManualClock::new()));
        let mut system = build_system();
        system.set_telemetry(tel.clone());
        (system, tel)
    };
    let (mut plain, plain_tel) = instrumented();
    let plain_report = plain.run_round().expect("run_round");
    assert!(plain_report.cost.client_peak_mem_bytes > 0);

    for k in 1..plain.clients().len() {
        let (mut split, tel) = instrumented();
        split.begin_round_partial(k).expect("partial round");
        let report = split.finish_round().expect("finish round");
        assert!(
            report.cost.client_peak_mem_bytes > 0,
            "finish_round after {k} parked client(s) dropped the memory reading"
        );
        for counter in ["fl.rounds", "fl.updates"] {
            assert_eq!(
                tel.counter_value(counter),
                plain_tel.counter_value(counter),
                "{counter} after a round split at {k}"
            );
        }
        assert!(
            tel.spans().iter().any(|s| s.path == "round[1]/aggregate"),
            "finish_round opened no round[1]/aggregate span"
        );
    }
}
