//! The round engine: one open → accept → close [`Round`] that every way of
//! running a round calls.
//!
//! A round of the paper's protocol (§2.1) is select → dispatch →
//! collect(quorum, deadline) → close. The callers differ only in the first
//! three steps — *which* clients train and *how* their updates travel
//! (DESIGN.md §10 tabulates who supplies what). Everything after collection
//! is written once, here: the `round[N]` span, the kernel-counter window,
//! the client-id sort and the loss / time / memory folds in that order (so
//! arrival order never reaches a floating-point sum), the quorum check, the
//! `aggregate` span, the `fl.rounds` / `fl.updates` / kernel-delta / alloc
//! metrics, and the [`RoundReport`]. The round number is the server's own
//! [`FlServer::rounds_completed`] counter — there is no second one to keep
//! in step.

use crate::clock::Clock;
use crate::{ClientUpdate, FlClient, FlError, FlServer, Result, RoundReport};
use dinar_metrics::cost::{measure_with, CostSample};
use dinar_nn::ModelParams;
use dinar_telemetry::{bridge, SpanGuard, Telemetry};
use dinar_tensor::profile;

/// One client's finished share of a round: its update plus the per-round
/// measurements the report folds.
#[derive(Debug)]
pub(crate) struct Contribution {
    /// The client's mean training loss this round.
    pub loss: f32,
    /// Client-side seconds spent on the round protocol (zero for a pair
    /// parked by an interrupted process — that wall-clock is not ours).
    pub train_s: f64,
    /// Peak extra tensor bytes on the client's thread during the protocol.
    pub peak_mem: u64,
    /// The (defense-transformed) update to aggregate.
    pub update: ClientUpdate,
}

impl Contribution {
    /// Runs `client`'s round protocol against `global`, timed on `clock`
    /// and metered by a [`MemoryScope`](dinar_tensor::alloc::MemoryScope)
    /// on the calling thread — so a pool worker or a client thread
    /// attributes only its own client's allocations.
    ///
    /// # Errors
    ///
    /// Propagates middleware, training and shape errors.
    pub fn measure(
        client: &mut FlClient,
        global: &ModelParams,
        clock: &dyn Clock,
    ) -> Result<Contribution> {
        let (result, elapsed, peak_mem) = measure_with(clock, || client.run_protocol(global));
        let (loss, update) = result?;
        Ok(Contribution {
            loss,
            train_s: elapsed.as_secs_f64(),
            peak_mem,
            update,
        })
    }
}

/// An open round: holds the `round[N]` span and the global snapshot the
/// round trains against, collects [`Contribution`]s, and aggregates on
/// [`close`](Round::close). Dropping it unclosed ends the span and leaves
/// the server untouched.
#[derive(Debug)]
pub(crate) struct Round<'a> {
    server: &'a mut FlServer,
    telemetry: &'a Telemetry,
    clock: &'a dyn Clock,
    span: SpanGuard,
    kernels_before: profile::KernelSnapshot,
    global: ModelParams,
    accepted: Vec<Contribution>,
    /// First failure observed, named by a below-quorum error.
    first_failure: Option<(usize, String)>,
}

impl<'a> Round<'a> {
    /// Opens round `server.rounds_completed() + 1`.
    pub fn open(server: &'a mut FlServer, telemetry: &'a Telemetry, clock: &'a dyn Clock) -> Self {
        let kernels_before = profile::snapshot();
        let span = telemetry.span(&format!("round[{}]", server.rounds_completed() + 1));
        let global = server.global_params().share();
        Round {
            server,
            telemetry,
            clock,
            span,
            kernels_before,
            global,
            accepted: Vec::new(),
            first_failure: None,
        }
    }

    /// This round's 1-based number.
    pub fn number(&self) -> usize {
        self.server.rounds_completed() + 1
    }

    /// The global snapshot every client of this round trains against.
    pub fn global(&self) -> &ModelParams {
        &self.global
    }

    /// The clock the round's cost timings are read on.
    pub fn clock(&self) -> &'a dyn Clock {
        self.clock
    }

    /// Path of the `round[N]` span — the lineage seed for clients trained
    /// on pool threads, whose span stack starts empty.
    pub fn span_path(&self) -> &str {
        self.span.path()
    }

    /// Adds one client's contribution, in any order.
    pub fn accept(&mut self, contribution: Contribution) {
        self.accepted.push(contribution);
    }

    /// Contributions accepted so far.
    pub fn accepted(&self) -> usize {
        self.accepted.len()
    }

    /// Records that `client` will not contribute; the first such cause is
    /// what a below-quorum [`close`](Round::close) reports.
    pub fn reject(&mut self, client: usize, cause: String) {
        self.first_failure.get_or_insert((client, cause));
    }

    /// Closes the round: checks the quorum, FedAvg-aggregates the accepted
    /// updates in client-id order and reports.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::ClientFailure`] naming the first rejected client
    /// if fewer than `required` contributions were accepted; propagates
    /// aggregation errors. Either way the server's model is unchanged.
    pub fn close(self, required: usize) -> Result<RoundReport> {
        let Round {
            server,
            telemetry,
            clock,
            span,
            kernels_before,
            mut accepted,
            first_failure,
            ..
        } = self;
        if accepted.len() < required {
            let (client, cause) = first_failure.unwrap_or((0, "no client failure observed".into()));
            telemetry.flight_record("fault", "quorum_failed", accepted.len() as u64);
            if let Err(e) = telemetry.flight_dump_if_requested("quorum") {
                eprintln!("flight dump failed: {e}");
            }
            return Err(FlError::ClientFailure {
                client,
                round: server.rounds_completed() + 1,
                cause: format!(
                    "round collected {} updates, below quorum {required}: {cause}",
                    accepted.len()
                ),
            });
        }
        accepted.sort_by_key(|c| c.update.client_id);
        let participants = accepted.len().max(1) as f64;
        let mut loss_sum = 0.0f64;
        let mut train_s_sum = 0.0f64;
        let mut peak_mem = 0u64;
        let mut updates = Vec::with_capacity(accepted.len());
        for c in accepted {
            loss_sum += c.loss as f64;
            train_s_sum += c.train_s;
            peak_mem = peak_mem.max(c.peak_mem);
            updates.push(c.update);
        }
        let (aggregated, agg_elapsed, _) = {
            let _agg_span = telemetry.span("aggregate");
            measure_with(clock, || server.aggregate(&updates).map(|_| ()))
        };
        aggregated?;
        drop(span);
        if telemetry.is_enabled() {
            telemetry.counter_add("fl.rounds", 1);
            telemetry.counter_add("fl.updates", updates.len() as u64);
            bridge::record_kernel_delta(
                telemetry,
                &profile::snapshot().delta_since(&kernels_before),
            );
            bridge::record_alloc_gauges(telemetry);
            telemetry.gauge_max_volatile("fl.client_peak_mem_bytes", peak_mem as f64);
        }
        Ok(RoundReport {
            round: server.rounds_completed(),
            mean_train_loss: (loss_sum / participants) as f32,
            cost: CostSample {
                client_train_s: train_s_sum / participants,
                server_agg_s: agg_elapsed.as_secs_f64(),
                client_peak_mem_bytes: peak_mem,
            },
        })
    }
}
