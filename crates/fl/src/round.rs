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
//!
//! A round accepts an update in the form its engine received it: decoded
//! parameters from the in-process engine, or an upload frame the threaded
//! wire engine checked on arrival and did not decode. The close folds them
//! all into FedAvg in one pass over the server's recycled scratch (the one
//! FedAvg core in `server.rs`): block by block, every update in client-id
//! order, an encoded one dequantised onto its delta base inside the sum.

use crate::clock::Clock;
use crate::server::Upload;
use crate::{ClientUpdate, FlClient, FlError, FlServer, Result, RoundReport};
use dinar_metrics::cost::{measure_with, CostSample};
use dinar_nn::ModelParams;
use dinar_telemetry::{bridge, SpanGuard, Telemetry};
use dinar_tensor::profile;

/// One client's finished share of a round: its update — decoded
/// parameters, or (`U` = [`Upload`]) whatever form the engine received —
/// plus the per-round measurements the report folds.
#[derive(Debug)]
pub(crate) struct Contribution<U = ClientUpdate> {
    /// The client's mean training loss this round.
    pub loss: f32,
    /// Client-side seconds spent on the round protocol (zero for a pair
    /// parked by an interrupted process — that wall-clock is not ours).
    pub train_s: f64,
    /// Peak extra tensor bytes on the client's thread during the protocol.
    pub peak_mem: u64,
    /// The (defense-transformed) update to aggregate.
    pub update: U,
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
    accepted: Vec<Contribution<Upload>>,
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

    /// Adds one client's contribution, decoded or checked-encoded, in any
    /// order.
    pub fn accept(&mut self, contribution: Contribution<impl Into<Upload>>) {
        let Contribution {
            loss,
            train_s,
            peak_mem,
            update,
        } = contribution;
        self.accepted.push(Contribution {
            loss,
            train_s,
            peak_mem,
            update: update.into(),
        });
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

    /// Closes the round: checks the quorum, folds the accepted updates into
    /// FedAvg in client-id order in one pass, and reports.
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
        accepted.sort_by_key(|c| c.update.client_id());
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
            measure_with(clock, || server.aggregate_uploads(&updates).map(|_| ()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::server::EncodedUpdate;
    use dinar_nn::snapshot::{decode_params, decode_params_onto, encode_params, CheckedParams};
    use dinar_nn::LayerParams;
    use dinar_tensor::wire::Codec;
    use dinar_tensor::{par, Rng};

    /// Shapes with a tensor large enough to split at width 2, one that
    /// ends mid-block and mid-byte (sign1 padding), and a tiny layer.
    const SHAPES: [&[usize]; 5] = [&[300, 700], &[700], &[1031], &[5, 3], &[3]];

    /// Parameters whose values stress the fold: ±0, subnormals, large
    /// magnitudes either side of overflow in a weighted sum, and normals.
    fn awkward(rng: &mut Rng) -> ModelParams {
        let special = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            3e38,
            -1e30,
        ];
        let tensor = |shape: &[usize], rng: &mut Rng| {
            let mut t = rng.randn(shape);
            for x in t.as_mut_slice() {
                if rng.below(4) == 0 {
                    *x = special[rng.below(special.len())];
                }
            }
            t
        };
        let mut t = SHAPES.iter().map(|s| tensor(s, rng));
        let mut layer = |n: usize| LayerParams::new(t.by_ref().take(n).collect());
        ModelParams::new(vec![layer(2), layer(1), layer(2)])
    }

    fn bits(p: &ModelParams) -> Vec<u32> {
        p.to_flat().iter().map(|x| x.to_bits()).collect()
    }

    /// The stepwise FedAvg the fold replaced: every upload decoded (onto
    /// its base), then `zero_fill` and one `scaled_add_assign` per update
    /// in client-id order.
    fn reference(global: &ModelParams, decoded: &[(usize, usize, ModelParams)]) -> Vec<u32> {
        let total: usize = decoded.iter().map(|(_, n, _)| n).sum();
        let mut acc = global.share();
        acc.zero_fill();
        for (_, n, params) in decoded {
            acc.scaled_add_assign(*n as f32 / total as f32, params)
                .unwrap();
        }
        bits(&acc)
    }

    /// Closes a round over `uploads` accepted in `order`, on a server at
    /// `global`, and returns the new global's bits.
    fn close<U: Into<Upload>>(global: &ModelParams, uploads: Vec<U>, order: &[usize]) -> Vec<u32> {
        let mut server = FlServer::new(global.share());
        let (telemetry, clock) = (Telemetry::disabled(), ManualClock::new());
        let mut round = Round::open(&mut server, &telemetry, &clock);
        let mut uploads: Vec<Option<U>> = uploads.into_iter().map(Some).collect();
        for &i in order {
            let update = uploads[i].take().unwrap();
            round.accept(Contribution {
                loss: 0.0,
                train_s: 0.0,
                peak_mem: 0,
                update,
            });
        }
        round.close(order.len()).unwrap();
        bits(server.global_params())
    }

    #[test]
    fn the_fused_close_is_the_stepwise_fedavg_bit_for_bit() {
        let mut rng = Rng::seed_from(0xF01D);
        let global = awkward(&mut rng);
        let work = 4 + 7 * 5;
        par::set_threads(2);
        assert!(
            par::parts(300 * 700, work) > 1,
            "the large tensor runs inline"
        );
        for width in [1, 2, 4] {
            par::set_threads(width);
            for uplink in Codec::all() {
                // The downlink the clients decoded their base from.
                for downlink in [Codec::F32, Codec::QuantI8, Codec::Sign1] {
                    let base = match downlink.is_lossy() {
                        false => global.share(),
                        true => decode_params(&encode_params(&global, downlink).unwrap()).unwrap(),
                    };
                    for n in 1..=7 {
                        let case = format!("width {width}, {uplink:?} up, {downlink:?} down, {n}");
                        let clients: Vec<(usize, usize, Vec<u8>)> = (0..n)
                            .map(|id| {
                                let bytes = encode_params(&awkward(&mut rng), uplink).unwrap();
                                (id, 1 + rng.below(500), bytes)
                            })
                            .collect();
                        let decoded: Vec<(usize, usize, ModelParams)> = clients
                            .iter()
                            .map(|(id, samples, bytes)| {
                                let p = match uplink.is_lossy() {
                                    true => decode_params_onto(bytes, &base).unwrap(),
                                    false => decode_params(bytes).unwrap(),
                                };
                                (*id, *samples, p)
                            })
                            .collect();
                        let want = reference(&global, &decoded);
                        let order = rng.permutation(n);
                        let encoded: Vec<EncodedUpdate> = clients
                            .into_iter()
                            .map(|(client_id, num_samples, bytes)| EncodedUpdate {
                                client_id,
                                num_samples,
                                frame: CheckedParams::check(bytes, &global).unwrap(),
                                base: uplink.is_lossy().then(|| base.share()),
                            })
                            .collect();
                        assert_eq!(close(&global, encoded, &order), want, "encoded: {case}");
                        let in_memory: Vec<ClientUpdate> = decoded
                            .into_iter()
                            .map(|(client_id, num_samples, params)| ClientUpdate {
                                client_id,
                                params,
                                num_samples,
                            })
                            .collect();
                        assert_eq!(close(&global, in_memory, &order), want, "decoded: {case}");
                    }
                }
            }
        }
        par::reset_threads();
    }
}
