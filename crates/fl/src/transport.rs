//! Threaded, message-passing execution of an FL system — fault-tolerant.
//!
//! [`FlSystem::run`](crate::FlSystem::run) drives clients sequentially —
//! ideal for deterministic benchmarking on one core. This module provides
//! the *distributed* execution mode: every client runs on its own OS thread
//! and communicates with the server **exclusively through typed messages
//! over channels**, the way a deployed cross-silo system exchanges models
//! over the network. No memory is shared between server and clients beyond
//! the messages.
//!
//! # Thread model
//!
//! One rule, the same as the in-process engine's: **one client, one core; a
//! worker's nested regions run inline.** A client thread is started with
//! [`par::spawn_worker`], so it is a pool worker from its first
//! instruction and every kernel in its decode → train → defense → encode
//! chain runs on that thread. A client thread spawns nothing: the thread
//! count of a run is clients + the server, never clients × pool width.
//! The server is the calling thread, not a worker, so its own decode and
//! aggregation may fan out while it waits on the clients. This file
//! creates no thread itself — `dinar_tensor::par` owns every compute
//! thread in the workspace (lint L006).
//!
//! # Fault tolerance
//!
//! Unlike the sequential engine, the threaded engine must survive partial
//! participation: client threads can die mid-round, drop their upload,
//! straggle past a deadline, or fail transiently and recover. Collection is
//! therefore **accounting-driven with a deadline backstop**
//! ([`RoundPolicy`]): the server tracks every outstanding client until it is
//! accounted for — by an update, a fault notice, a detected thread death, or
//! the round deadline (budgeted on the injectable [`Clock`], so a
//! [`ManualClock`](crate::clock::ManualClock) replay, whose deadline never
//! expires, still terminates through the accounting paths). The round then
//! aggregates if at least [`Quorum::required`] updates arrived — FedAvg is
//! sample-weighted, so the partial aggregate renormalizes over the arrived
//! subset — and otherwise fails with [`FlError::ClientFailure`]. Stale
//! updates from earlier rounds are tag-checked and discarded. Transient
//! failures are retried per [`RetryPolicy`]. Deterministic fault schedules
//! come from a [`FaultPlan`].
//!
//! # The wire plane
//!
//! Every model crossing a channel here is **encoded wire bytes**, not a
//! parameter handle: the server encodes the global snapshot once per round
//! (straight out of its copy-on-write buffers, no materialization) and
//! broadcasts the same `Arc`'d frame to every client; each client decodes
//! it, trains, and uploads an encoded frame back. [`WireConfig`] picks the
//! codec per direction — lossless `f32`, 1-bit signs, or quantized `i8`
//! deltas, with error-feedback residuals carried client-side — and a
//! [`NetworkModel`](crate::netsim::NetworkModel) prices every transfer on
//! a deterministic simulated network. Byte counts, frame counts and the
//! simulated per-round makespan surface as `fl.transport.*` telemetry and
//! in [`ResilientRun::wire_stats`]. A frame that fails to decode is typed
//! data, not a panic: a corrupt broadcast fails that client
//! ([`ClientReply::Fatal`]), a corrupt upload drops that update — the run
//! reports, it does not abort.
//!
//! Both engines close their rounds through the same crate-private
//! `round::Round`: this module supplies the broadcast, the collection
//! policy and the fault accounting, and hands every decoded upload to the
//! round, which sorts by client id, folds and aggregates. So
//! [`run_threaded_wire`] under the default [`RoundPolicy`] and
//! [`WireConfig`] produces bit-identical global models to the in-process
//! engine given the same seeds (the lossless codec moves exact `f32` bit
//! patterns), and keeps doing so under an injected [`FaultPlan`] for any
//! worker-pool width (asserted by the integration tests).

use crate::clock::Clock;
use crate::deadline::{recv_blocking, DeadlineReceiver, Step};
use crate::fault::{FaultKind, FaultPlan, RoundFaultStats, RoundPolicy};
use crate::netsim::{RoundMeter, RoundWireStats, WireConfig};
use crate::round::{Contribution, Round};
use crate::{ClientUpdate, FlClient, FlError, FlSystem, Result, RoundReport};
use dinar_nn::snapshot::{decode_params, decode_params_onto, encode_params, ErrorFeedback};
use dinar_nn::ModelParams;
use dinar_telemetry::bridge;
use dinar_tensor::par;
use dinar_tensor::wire::Codec;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A message from the server to a client.
#[derive(Debug)]
pub enum ServerMsg {
    /// Start (or retry) a round: here is the current global model as an
    /// encoded wire frame. One frame is encoded per round and shared
    /// (`Arc`) across the whole broadcast; each client decodes its own
    /// copy-free view.
    StartRound {
        /// Round number (1-based).
        round: usize,
        /// The global snapshot, encoded under
        /// [`WireConfig::downlink`].
        frame: Arc<Vec<u8>>,
    },
    /// Training is over; the client thread should return its client state.
    Shutdown,
}

/// A completed client round: the encoded update plus its per-round
/// measurements.
#[derive(Debug)]
pub struct ClientMsg {
    /// Round this update belongs to.
    pub round: usize,
    /// Uploading client's id.
    pub client_id: usize,
    /// Number of local training samples (FedAvg weight).
    pub num_samples: usize,
    /// The client's (defense-transformed) update, encoded under
    /// [`WireConfig::uplink`].
    pub frame: Vec<u8>,
    /// Whether `frame` encodes a delta against the round's broadcast
    /// global (lossy uplinks) rather than absolute parameters.
    pub delta: bool,
    /// The client's mean training loss this round.
    pub train_loss: f32,
    /// Client-side wall-clock seconds spent this round.
    pub train_s: f64,
    /// Peak extra tensor bytes this client's thread allocated during the
    /// round (its own [`MemoryScope`] ledger — per-thread, so concurrent
    /// clients never attribute each other's allocations).
    pub peak_mem_bytes: u64,
}

/// Everything a client can tell the server during collection.
#[derive(Debug)]
pub enum ClientReply {
    /// A finished round (possibly stale — the server tag-checks `round`).
    Update(ClientMsg),
    /// The client trained but its upload was lost ([`FaultKind::DropUpdate`]).
    Dropped {
        /// Reporting client.
        client: usize,
        /// Round the loss applies to.
        round: usize,
    },
    /// The client is a straggler this round: its update will arrive during
    /// a later round and be discarded as stale ([`FaultKind::Delay`]).
    Delayed {
        /// Reporting client.
        client: usize,
        /// Round being delayed.
        round: usize,
    },
    /// A retryable failure: the server may re-dispatch the round.
    Transient {
        /// Failing client.
        client: usize,
        /// Round that failed.
        round: usize,
        /// Failure description.
        cause: String,
    },
    /// A non-recoverable client error; the client thread exits after
    /// sending this.
    Fatal {
        /// Failing client.
        client: usize,
        /// Round that failed.
        round: usize,
        /// Failure description.
        cause: String,
    },
}

struct ClientHandle {
    id: usize,
    tx: Sender<ServerMsg>,
    join: JoinHandle<FlClient>,
    /// Set once the client is known gone (crashed, fatal error, or its
    /// channel closed); the server stops dispatching rounds to it.
    departed: bool,
}

/// A completed fault-tolerant run: the reassembled system, the per-round
/// reports, and the per-round fault accounting.
#[derive(Debug)]
pub struct ResilientRun {
    /// The system after the run, clients reassembled in id order.
    pub system: FlSystem,
    /// Per-round training reports (one per *completed* round).
    pub reports: Vec<RoundReport>,
    /// Per-round fault accounting, parallel to `reports`.
    pub fault_stats: Vec<RoundFaultStats>,
    /// Per-round wire traffic and simulated network time, parallel to
    /// `reports`.
    pub wire_stats: Vec<RoundWireStats>,
}

/// Runs `rounds` FL rounds with one thread per client, consuming the
/// system and returning it reassembled — the one threaded entry point.
/// `clock` times the cost samples and budgets the round deadline
/// ([`WallClock`](crate::clock::WallClock) in production,
/// [`ManualClock`](crate::clock::ManualClock) for deterministic replays);
/// `policy` sets deadline, quorum, retries and the injected fault plan
/// ([`RoundPolicy::strict`] is the paper's full-participation protocol);
/// `wire` picks the codec per direction and the simulated network
/// ([`WireConfig::default`] is lossless `f32` over an ideal network).
///
/// Message flow per round: the server encodes the global snapshot once and
/// broadcasts the frame in a [`ServerMsg::StartRound`] to every client
/// thread; each client decodes it, installs it (running its download
/// middleware), trains locally, applies its upload middleware and sends an
/// encoded [`ClientReply`] back; the server decodes the uploads and hands
/// them to the round engine, which sorts them by client id (for a
/// deterministic aggregation order) and runs FedAvg plus the server
/// middleware.
///
/// Rounds proceed while at least [`Quorum::required`] updates arrive; a
/// round that falls below quorum fails the run with
/// [`FlError::ClientFailure`] naming the first failed client. Telemetry
/// attached to the system before the call is preserved: rounds emit
/// `round[N]` spans with `encode`/`broadcast`/`collect`/`aggregate`
/// children and the `fl.transport.*` fault and wire counters beside the
/// engine's own `fl.rounds`/`fl.updates`.
///
/// Raw-`f32` frames carry exact bit patterns, so under the default wire
/// config the decoded models match the in-process engine bit for bit.
/// Lossy uplinks switch clients to encoding the *delta* against the
/// received global, with error-feedback residuals carried client-side
/// across rounds; the server reconstructs by adding back its own decode of
/// the round's broadcast frame, so both sides agree on the base even when
/// the downlink is itself lossy.
///
/// [`Quorum::required`]: crate::fault::Quorum::required
///
/// # Errors
///
/// Returns [`FlError::InvalidConfig`] for a system with a pending partial
/// round (its parked updates would be lost), an unmeetable quorum, or a
/// [`FaultKind::Stall`] plan without a deadline (a silent stall can only
/// be resolved by a deadline); [`FlError::ClientFailure`] for below-quorum
/// rounds; [`FlError::Nn`](crate::FlError) wrapping a wire error if the
/// global snapshot cannot be encoded (architecture exceeding the wire's
/// `u32` fields); and propagates aggregation errors. Per-frame decode
/// failures do **not** abort the run: a corrupt broadcast fails that
/// client, a corrupt upload drops that update, and both land in the
/// round's fault accounting.
pub fn run_threaded_wire(
    system: FlSystem,
    rounds: usize,
    clock: Arc<dyn Clock>,
    policy: RoundPolicy,
    wire: WireConfig,
) -> Result<ResilientRun> {
    if system.has_pending_round() {
        return Err(FlError::InvalidConfig {
            reason: "a partial round is pending; call finish_round before a threaded run".into(),
        });
    }
    let telemetry = system.telemetry().clone();
    let (mut server, clients, _) = system.into_parts();
    let num_clients = clients.len();
    let required = policy.quorum.required(num_clients);
    if required > num_clients {
        return Err(FlError::InvalidConfig {
            reason: format!("quorum of {required} exceeds the {num_clients} clients"),
        });
    }
    if policy.deadline.is_none() && policy.faults.contains_kind(FaultKind::Stall) {
        return Err(FlError::InvalidConfig {
            reason: "a Stall fault plan requires a round deadline to resolve".into(),
        });
    }

    // Self-describing runs: the policy's fault seed and deadline become
    // deterministic gauges, so exported metrics (and the dropout bench rows
    // built from them) name the exact failure schedule they ran under.
    if telemetry.is_enabled() {
        if let Some(seed) = policy.faults.seed() {
            telemetry.gauge_set("fl.transport.fault_seed", seed as f64);
        }
        if let Some(deadline) = policy.deadline {
            telemetry.gauge_set("fl.transport.deadline_ms", deadline.as_millis() as f64);
        }
    }

    let (reply_tx, reply_rx): (Sender<ClientReply>, Receiver<ClientReply>) = channel();
    let plan = Arc::new(policy.faults.clone());

    // Spawn one thread per client; each owns its client state for the whole
    // training run and speaks only through channels.
    let mut handles: Vec<ClientHandle> = Vec::with_capacity(num_clients);
    for client in clients {
        handles.push(spawn_client(
            client,
            reply_tx.clone(),
            clock.clone(),
            plan.clone(),
            wire.uplink,
        ));
    }
    drop(reply_tx);
    // Client id → handle index, for retry dispatch and liveness checks.
    let index: BTreeMap<usize, usize> =
        handles.iter().enumerate().map(|(i, h)| (h.id, i)).collect();

    let mut reports = Vec::with_capacity(rounds);
    let mut fault_stats = Vec::with_capacity(rounds);
    let mut wire_stats = Vec::with_capacity(rounds);
    // One round of the server loop. The first error ends the run, but not
    // before the teardown below has joined every client thread.
    let mut serve_round = |r: usize| -> Result<()> {
        let mut open_round = Round::open(&mut server, &telemetry, clock.as_ref());
        // Encode the broadcast once, straight out of the snapshot's shared
        // buffers; every client gets the same Arc'd frame.
        let frame = {
            let _espan = telemetry.span("encode");
            Arc::new(encode_params(open_round.global(), wire.downlink)?)
        };
        let mut meter = RoundMeter::new(&wire.network);

        // Broadcast to every client still alive; a failed send means the
        // thread is gone — it sits the round out instead of failing the run.
        // Every client ends the round either accepted or not, so the dropped
        // count needs no ledger of its own: it is clients − accepted.
        let mut pending: BTreeSet<usize> = BTreeSet::new();
        {
            let _bspan = telemetry.span("broadcast");
            for handle in handles.iter_mut().filter(|h| !h.departed) {
                let sent = handle.tx.send(ServerMsg::StartRound {
                    round: r,
                    frame: frame.clone(),
                });
                if sent.is_err() {
                    handle.departed = true;
                    open_round.reject(
                        handle.id,
                        "client thread exited before the round started".into(),
                    );
                } else {
                    pending.insert(handle.id);
                    meter.sent_down(handle.id, frame.len() as u64);
                }
            }
        }

        // Base for reconstructing delta uploads: the server's own decode of
        // the frame it broadcast, so lossy downlinks leave both sides
        // agreeing on the base bit for bit. Lossless uplinks send absolute
        // parameters and need no base. Decoded here, while the clients
        // train, rather than ahead of the broadcast they all wait for.
        let delta_base = if wire.uplink.is_lossy() {
            Some(decode_params(&frame)?)
        } else {
            None
        };

        // Collect until every dispatched client is accounted for or the
        // deadline (extended by retry backoff) expires.
        let round_start = clock.elapsed();
        let mut extension = Duration::ZERO;
        let mut retries: BTreeMap<usize, u32> = BTreeMap::new();
        let mut retried = 0usize;
        let mut stale = 0usize;
        let mut deadline_expired = false;
        {
            let _cspan = telemetry.span("collect");
            let drx = DeadlineReceiver::new(&reply_rx, clock.as_ref());
            while !pending.is_empty() {
                // The simulated network's slowest path extends the deadline:
                // link transit time never counts against the compute budget.
                let deadline = policy
                    .deadline
                    .map(|d| round_start + d + extension + meter.deadline_allowance());
                match drx.step(deadline) {
                    Step::Msg(ClientReply::Update(msg)) => {
                        // The link carried the frame whether or not the round
                        // accepts it — meter before the tag check.
                        meter.received_up(msg.client_id, msg.frame.len() as u64);
                        // Tag check: a straggler's stale round-r update can
                        // arrive during round r+1 once deadlines exist.
                        if msg.round != r || !pending.remove(&msg.client_id) {
                            stale += 1;
                            continue;
                        }
                        // Decode at the trust boundary: a frame that fails
                        // validation is a dropped update, never an abort.
                        match decode_update(&msg, delta_base.as_ref()) {
                            Ok(contribution) => open_round.accept(contribution),
                            Err(e) => {
                                telemetry.flight_record(
                                    "wire",
                                    "update_decode_failed",
                                    msg.client_id as u64,
                                );
                                open_round.reject(
                                    msg.client_id,
                                    format!("update frame failed to decode: {e}"),
                                );
                            }
                        }
                    }
                    Step::Msg(ClientReply::Dropped { client, round })
                    | Step::Msg(ClientReply::Delayed { client, round }) => {
                        if round == r {
                            pending.remove(&client);
                        }
                    }
                    Step::Msg(ClientReply::Transient {
                        client,
                        round,
                        cause,
                    }) => {
                        if round != r || !pending.contains(&client) {
                            continue;
                        }
                        let used = retries.entry(client).or_insert(0);
                        let handle = index.get(&client).map(|&i| &mut handles[i]);
                        if *used < policy.retry.max_retries {
                            *used += 1;
                            retried += 1;
                            extension += policy.retry.backoff;
                            let resent = handle.map(|h| {
                                h.tx.send(ServerMsg::StartRound {
                                    round: r,
                                    frame: frame.clone(),
                                })
                            });
                            if matches!(resent, Some(Ok(()))) {
                                meter.sent_down(client, frame.len() as u64);
                            } else {
                                pending.remove(&client);
                                open_round.reject(client, cause);
                            }
                        } else {
                            pending.remove(&client);
                            open_round.reject(client, format!("retries exhausted: {cause}"));
                        }
                    }
                    Step::Msg(ClientReply::Fatal {
                        client,
                        round,
                        cause,
                    }) => {
                        if let Some(&i) = index.get(&client) {
                            handles[i].departed = true;
                        }
                        if round == r && pending.remove(&client) {
                            open_round.reject(client, cause);
                        }
                    }
                    Step::Tick => {
                        // Liveness: a pending client whose thread has exited
                        // will never report — the silent-death path that
                        // used to hang the server forever.
                        pending.retain(|id| {
                            let Some(handle) = index.get(id).map(|&i| &mut handles[i]) else {
                                return true;
                            };
                            if !handle.join.is_finished() {
                                return true;
                            }
                            handle.departed = true;
                            open_round.reject(*id, "client thread died mid-round".into());
                            false
                        });
                    }
                    Step::Expired => {
                        deadline_expired = true;
                        if let Some(&id) = pending.first() {
                            open_round.reject(id, "missed the round deadline".into());
                        }
                        telemetry.flight_record("fault", "deadline_expired", pending.len() as u64);
                        if let Err(e) = telemetry.flight_dump_if_requested("deadline") {
                            eprintln!("flight dump failed: {e}");
                        }
                        pending.clear();
                    }
                    Step::Disconnected => {
                        if let Some(&id) = pending.first() {
                            open_round.reject(id, "all client threads disconnected".into());
                        }
                        pending.clear();
                    }
                }
            }
        }

        let (number, participants) = (open_round.number(), open_round.accepted());
        let dropped = num_clients - participants;
        let round_wire = meter.finish(number);
        // Per-round transport metrics: deterministic counters (message
        // accounting, not scheduling; see DESIGN.md §10).
        if telemetry.is_enabled() {
            telemetry.counter_add("fl.transport.rounds", 1);
            telemetry.counter_add("fl.transport.updates", participants as u64);
            telemetry.counter_add("fl.transport.clients_dropped", dropped as u64);
            telemetry.counter_add("fl.transport.clients_retried", retried as u64);
            telemetry.counter_add("fl.transport.stale_updates", stale as u64);
            bridge::record_wire_round(
                &telemetry,
                round_wire.bytes_down,
                round_wire.bytes_up,
                round_wire.frames,
            );
            // Simulated makespan of the slowest client path this round —
            // deterministic (a pure function of byte counts and the link
            // parameters), unlike the wall-clock cost samples.
            telemetry.gauge_set(
                "fl.transport.sim_round_ms",
                round_wire.sim_elapsed.as_secs_f64() * 1e3,
            );
        }
        reports.push(open_round.close(required)?);
        fault_stats.push(RoundFaultStats {
            round: number,
            participants,
            clients_dropped: dropped,
            clients_retried: retried,
            stale_discarded: stale,
            deadline_expired,
        });
        wire_stats.push(round_wire);
        Ok(())
    };
    let mut error = (1..=rounds).try_for_each(&mut serve_round).err();

    // Tear down the client threads and reassemble the system.
    for handle in &handles {
        if !handle.departed {
            let _ = handle.tx.send(ServerMsg::Shutdown);
        }
    }
    let attempted_rounds = server.rounds_completed() + usize::from(error.is_some());
    let mut clients = Vec::with_capacity(num_clients);
    for handle in handles {
        let id = handle.id;
        match handle.join.join() {
            Ok(client) => clients.push(client),
            Err(_) => {
                telemetry.flight_record("fault", "client_panic", id as u64);
                if let Err(e) = telemetry.flight_dump_if_requested("panic") {
                    eprintln!("flight dump failed: {e}");
                }
                error = error.or(Some(FlError::ClientFailure {
                    client: id,
                    round: attempted_rounds,
                    cause: "client thread panicked".into(),
                }));
            }
        }
    }
    if let Some(e) = error {
        return Err(e);
    }
    clients.sort_by_key(FlClient::id);
    let mut system = FlSystem::from_parts(server, clients);
    if telemetry.is_enabled() {
        system.set_telemetry(telemetry);
    }
    Ok(ResilientRun {
        system,
        reports,
        fault_stats,
        wire_stats,
    })
}

/// Decodes and validates one client upload at the server's trust boundary,
/// reconstructing absolute parameters from a delta frame by decoding it
/// straight onto `delta_base` (the server's decode of the round's
/// broadcast).
fn decode_update(msg: &ClientMsg, delta_base: Option<&ModelParams>) -> Result<Contribution> {
    let params = if msg.delta {
        let base = delta_base.ok_or_else(|| FlError::InvalidConfig {
            reason: format!(
                "client {} sent a delta update but the uplink codec is lossless",
                msg.client_id
            ),
        })?;
        decode_params_onto(&msg.frame, base)?
    } else {
        decode_params(&msg.frame)?
    };
    Ok(Contribution {
        loss: msg.train_loss,
        train_s: msg.train_s,
        peak_mem: msg.peak_mem_bytes,
        update: ClientUpdate {
            client_id: msg.client_id,
            params,
            num_samples: msg.num_samples,
        },
    })
}

/// Spawns one client thread — a [`par`] pool worker, so the client's
/// kernels run inline on it: a command loop that serves rounds, consults
/// the fault plan at each [`ServerMsg::StartRound`], and reports through
/// [`ClientReply`]s. A [`FaultKind::Crash`] exits the thread silently —
/// the server detects the death through its liveness check, exactly as it
/// would a real panic.
///
/// The thread owns the client's wire state: it decodes each broadcast
/// frame, and encodes its upload under `uplink` — absolute parameters for
/// a lossless codec, the delta against the received global (with an
/// [`ErrorFeedback`] residual carried across rounds) for a lossy one.
fn spawn_client(
    mut client: FlClient,
    replies: Sender<ClientReply>,
    clock: Arc<dyn Clock>,
    plan: Arc<FaultPlan>,
    uplink: Codec,
) -> ClientHandle {
    let id = client.id();
    let (tx, rx): (Sender<ServerMsg>, Receiver<ServerMsg>) = channel();
    let join = par::spawn_worker(move || -> FlClient {
        let delta_mode = uplink.is_lossy();
        let mut feedback = ErrorFeedback::new();
        // A Delay fault holds the finished round here until the next
        // StartRound flushes it — by then it is stale and the server's tag
        // check discards it, like a real straggler's late upload.
        let mut held: Option<ClientMsg> = None;
        // Transient-fault bookkeeping: attempts already failed this round.
        let mut failed_round = 0usize;
        let mut failed_attempts = 0u32;
        while let Some(msg) = recv_blocking(&rx) {
            match msg {
                ServerMsg::Shutdown => break,
                ServerMsg::StartRound { round, frame } => {
                    if let Some(stale) = held.take() {
                        client
                            .telemetry()
                            .flight_record("send", "stale_update", round as u64);
                        let _ = replies.send(ClientReply::Update(stale));
                    }
                    let fault = plan.action(id, round);
                    if let Some(kind) = fault {
                        // The fault plan triggering is exactly the moment a
                        // postmortem wants on record: which kind, what round,
                        // on which client's thread.
                        client
                            .telemetry()
                            .flight_record("fault", fault_label(kind), round as u64);
                    }
                    match fault {
                        Some(FaultKind::Crash) => return client,
                        Some(FaultKind::Stall) => continue,
                        Some(FaultKind::Transient { failures }) => {
                            if failed_round != round {
                                failed_round = round;
                                failed_attempts = 0;
                            }
                            if failed_attempts < failures {
                                failed_attempts += 1;
                                client
                                    .telemetry()
                                    .flight_record("send", "transient", round as u64);
                                let _ = replies.send(ClientReply::Transient {
                                    client: id,
                                    round,
                                    cause: format!(
                                        "injected transient fault (attempt {failed_attempts})"
                                    ),
                                });
                                continue;
                            }
                            // Recovered: fall through and train normally.
                        }
                        _ => {}
                    }
                    // Anything below that this client cannot do — decode the
                    // broadcast, train, encode its upload — is fatal for this
                    // client alone: the reply carries the diagnosis and the
                    // thread exits like a crashed process, returning its
                    // state for post-mortem reassembly. Never a panic.
                    let fatal = |client: &FlClient, kind, label, cause: String| {
                        client.telemetry().flight_record(kind, label, round as u64);
                        let _ = replies.send(ClientReply::Fatal {
                            client: id,
                            round,
                            cause,
                        });
                    };
                    let global = match decode_params(&frame) {
                        Ok(g) => g,
                        Err(e) => {
                            let cause = format!("broadcast frame failed to decode: {e}");
                            fatal(&client, "wire", "broadcast_decode_failed", cause);
                            return client;
                        }
                    };
                    let _round_span = client.round_span(&format!("round[{round}]"));
                    let done = match Contribution::measure(&mut client, &global, clock.as_ref()) {
                        Ok(done) => done,
                        Err(e) => {
                            fatal(&client, "send", "fatal", e.to_string());
                            return client;
                        }
                    };
                    // Encode the upload: absolute parameters over a lossless
                    // uplink; otherwise the delta against the received
                    // global, error-feedback compensated.
                    let encoded = if delta_mode {
                        feedback.compress_delta(&done.update.params, &global, uplink)
                    } else {
                        encode_params(&done.update.params, uplink)
                    };
                    let upload = match encoded {
                        Ok(bytes) => bytes,
                        Err(e) => {
                            let cause = format!("update frame failed to encode: {e}");
                            fatal(&client, "wire", "encode_failed", cause);
                            return client;
                        }
                    };
                    let msg = ClientMsg {
                        round,
                        client_id: id,
                        num_samples: done.update.num_samples,
                        frame: upload,
                        delta: delta_mode,
                        train_loss: done.loss,
                        train_s: done.train_s,
                        peak_mem_bytes: done.peak_mem,
                    };
                    // The server may already have given up on this round (or
                    // shut down); a closed channel just ends us.
                    let (label, reply) = match fault {
                        Some(FaultKind::DropUpdate) => {
                            ("dropped", ClientReply::Dropped { client: id, round })
                        }
                        Some(FaultKind::Delay) => {
                            held = Some(msg);
                            ("delayed", ClientReply::Delayed { client: id, round })
                        }
                        _ => ("update", ClientReply::Update(msg)),
                    };
                    client
                        .telemetry()
                        .flight_record("send", label, round as u64);
                    let _ = replies.send(reply);
                }
            }
        }
        client
    });
    ClientHandle {
        id,
        tx,
        join,
        departed: false,
    }
}

/// Stable flight-recorder label for an injected fault kind.
fn fault_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Crash => "crash",
        FaultKind::DropUpdate => "drop_update",
        FaultKind::Delay => "delay",
        FaultKind::Stall => "stall",
        FaultKind::Transient { .. } => "transient",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ManualClock, WallClock};
    use crate::system::tests::{global_bits, small_system};

    /// The surviving entry point under the defaults that exist as data.
    fn run_with(system: FlSystem, rounds: usize, policy: RoundPolicy) -> Result<ResilientRun> {
        let clock = Arc::new(WallClock::new());
        run_threaded_wire(system, rounds, clock, policy, WireConfig::default())
    }

    fn healthy(rounds: usize) -> ResilientRun {
        run_with(small_system(3), rounds, RoundPolicy::strict()).unwrap()
    }

    #[test]
    fn threaded_matches_sequential_exactly() {
        let mut sequential = small_system(3);
        let expected = sequential.run(4).unwrap();

        let run = healthy(4);
        assert_eq!(run.reports.len(), 4);
        assert_eq!(global_bits(&sequential), global_bits(&run.system));
        for (want, got) in expected.iter().zip(&run.reports) {
            assert_eq!(want.round, got.round);
            assert_eq!(
                want.mean_train_loss.to_bits(),
                got.mean_train_loss.to_bits()
            );
        }
    }

    #[test]
    fn threaded_reports_progress_and_preserves_clients() {
        let ResilientRun {
            system, reports, ..
        } = healthy(3);
        assert_eq!(system.clients().len(), 3);
        assert_eq!(system.server().rounds_completed(), 3);
        assert_eq!(reports.last().unwrap().round, 3);
        // Client ids intact and ordered after the round trip.
        let ids: Vec<usize> = system.clients().iter().map(FlClient::id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // Learning actually happened.
        assert!(reports[2].mean_train_loss < reports[0].mean_train_loss);
    }

    #[test]
    fn manual_clock_yields_deterministic_cost_timings() {
        let run = run_threaded_wire(
            small_system(3),
            2,
            Arc::new(ManualClock::new()),
            RoundPolicy::strict(),
            WireConfig::default(),
        )
        .unwrap();
        // The clock never advances, so every timing is exactly zero — the
        // replay-determinism property L002 exists to protect.
        for r in &run.reports {
            assert_eq!(r.cost.client_train_s, 0.0);
            assert_eq!(r.cost.server_agg_s, 0.0);
        }
    }

    #[test]
    fn threaded_then_sequential_continues_seamlessly() {
        let mut system = healthy(2).system;
        let report = system.run_round().unwrap();
        assert_eq!(report.round, 3);
    }

    #[test]
    fn threaded_reports_real_per_client_peak_memory() {
        let reports = healthy(1).reports;
        // Training allocates activation and gradient tensors; the per-thread
        // ledger must observe them (the old transport hard-coded 0 here).
        assert!(
            reports[0].cost.client_peak_mem_bytes > 0,
            "per-client peak memory not measured"
        );
    }

    #[test]
    fn healthy_resilient_run_reports_no_faults() {
        let run = healthy(2);
        assert_eq!(run.fault_stats.len(), 2);
        for s in &run.fault_stats {
            assert_eq!(s.participants, 3);
            assert_eq!(s.clients_dropped, 0);
            assert_eq!(s.clients_retried, 0);
            assert_eq!(s.stale_discarded, 0);
            assert!(!s.deadline_expired);
        }
    }

    #[test]
    fn unmeetable_quorum_is_rejected_upfront() {
        let policy = RoundPolicy::with_quorum(crate::fault::Quorum::AtLeast(7), None);
        let err = run_with(small_system(3), 1, policy).unwrap_err();
        assert!(matches!(err, FlError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn stall_plan_without_deadline_is_rejected_upfront() {
        let policy = RoundPolicy::strict().with_faults(FaultPlan::new().stall(0, 1));
        let err = run_with(small_system(3), 1, policy).unwrap_err();
        assert!(matches!(err, FlError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn pending_partial_round_is_rejected_before_any_thread_spawns() {
        let mut system = small_system(3);
        system.begin_round_partial(2).unwrap();
        let err = run_with(system, 1, RoundPolicy::strict()).unwrap_err();
        assert!(
            matches!(&err, FlError::InvalidConfig { reason } if reason.contains("pending")),
            "{err}"
        );
    }
}
