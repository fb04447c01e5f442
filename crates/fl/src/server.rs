//! The FL server: FedAvg aggregation and server-side middleware.
//!
//! FedAvg is one fold, whichever way the updates arrived: decoded
//! parameters ([`FlServer::aggregate`], the in-process engine) or wire
//! frames checked on arrival and never decoded
//! ([`FlServer::aggregate_encoded`], the threaded wire engine). The fold
//! writes the recycled scratch once: each block of elements takes every
//! update in client order, `acc = acc + w·value` from `acc = 0`, where an
//! encoded update's value is dequantised (and added onto its delta base)
//! inside the block. Every element is the chain the stepwise
//! `zero_fill` + one `scaled_add_assign` per update computes, so the part
//! count of the pool never changes a bit.

use crate::{ClientUpdate, FlError, Result, ServerMiddleware};
use dinar_nn::snapshot::CheckedParams;
use dinar_nn::{ModelParams, NnError};
use dinar_telemetry::Telemetry;
use dinar_tensor::par;
use dinar_tensor::wire::PayloadView;

/// A client update that reached the server as a wire frame: checked at the
/// trust boundary ([`CheckedParams::check`]) and folded into FedAvg without
/// being decoded.
#[derive(Debug)]
pub struct EncodedUpdate {
    /// Uploading client's id.
    pub client_id: usize,
    /// Number of local training samples (FedAvg weight).
    pub num_samples: usize,
    /// The frame, checked against the round's architecture.
    pub frame: CheckedParams,
    /// The base a delta frame's values are added onto — the global as the
    /// client received it; `None` when the frame holds absolute parameters.
    pub base: Option<ModelParams>,
}

/// One update of a round, as the engine collected it.
#[derive(Debug)]
pub(crate) enum Upload {
    /// Parameters handed over in memory.
    Decoded(ClientUpdate),
    /// A checked wire frame.
    Encoded(EncodedUpdate),
}

impl Upload {
    /// Uploading client's id.
    pub fn client_id(&self) -> usize {
        match self {
            Upload::Decoded(u) => u.client_id,
            Upload::Encoded(u) => u.client_id,
        }
    }

    fn term(&self) -> Term<'_> {
        match self {
            Upload::Decoded(u) => Term::decoded(u),
            Upload::Encoded(u) => Term::encoded(u),
        }
    }
}

impl From<ClientUpdate> for Upload {
    fn from(update: ClientUpdate) -> Upload {
        Upload::Decoded(update)
    }
}

impl From<EncodedUpdate> for Upload {
    fn from(update: EncodedUpdate) -> Upload {
        Upload::Encoded(update)
    }
}

/// One update's FedAvg weight numerator and where its values are read.
struct Term<'a> {
    samples: usize,
    values: Values<'a>,
}

enum Values<'a> {
    Decoded(&'a ModelParams),
    Encoded(&'a CheckedParams, Option<&'a ModelParams>),
}

impl<'a> Term<'a> {
    fn decoded(u: &'a ClientUpdate) -> Term<'a> {
        Term {
            samples: u.num_samples,
            values: Values::Decoded(&u.params),
        }
    }

    fn encoded(u: &'a EncodedUpdate) -> Term<'a> {
        Term {
            samples: u.num_samples,
            values: Values::Encoded(&u.frame, u.base.as_ref()),
        }
    }

    /// Whether the update has `like`'s architecture (and its delta base
    /// too).
    fn same_shape(&self, like: &ModelParams) -> bool {
        match self.values {
            Values::Decoded(p) => p.same_shape(like),
            Values::Encoded(f, base) => {
                f.same_shape(like) && base.is_none_or(|b| b.same_shape(like))
            }
        }
    }

    /// The update's tensors, layer by layer.
    fn sources(&self) -> Vec<Source<'a>> {
        let tensors = |p: &'a ModelParams| p.layers.iter().flat_map(|l| &l.tensors);
        match self.values {
            Values::Decoded(p) => tensors(p).map(|t| Source::Values(t.as_slice())).collect(),
            Values::Encoded(f, None) => f.payloads().map(|v| Source::Payload(v, None)).collect(),
            Values::Encoded(f, Some(base)) => f
                .payloads()
                .zip(tensors(base))
                .map(|(v, b)| Source::Payload(v, Some(b.as_slice())))
                .collect(),
        }
    }
}

/// One tensor of one update: decoded values, or a checked payload and the
/// delta base its values are added onto.
#[derive(Clone, Copy)]
enum Source<'a> {
    Values(&'a [f32]),
    Payload(PayloadView<'a>, Option<&'a [f32]>),
}

impl Source<'_> {
    /// Bytes a pass reads per element.
    fn bytes_per_element(&self) -> usize {
        match self {
            Source::Values(_) => 4,
            Source::Payload(v, base) => v.bytes_per_element() + 4 * usize::from(base.is_some()),
        }
    }
}

/// Elements a fold block holds: the accumulator block stays in L1 while
/// every update passes over it.
const FOLD_BLOCK: usize = 1024;

/// Folds one tensor of every update into `acc`, in update order, from
/// zero: element `i` is `0 + w₀·v₀[i]`, then `+ wₖ·vₖ[i]` for each further
/// update — an encoded value dequantised (onto its base) in the same loop —
/// split over the pool by element range.
fn fold_tensor(acc: &mut [f32], terms: &[(f32, Source<'_>)]) {
    let work = 4 + terms
        .iter()
        .map(|(_, s)| s.bytes_per_element())
        .sum::<usize>();
    par::for_each_part_mut(acc, 1, work, |offset, part| {
        for (b, block) in part.chunks_mut(FOLD_BLOCK).enumerate() {
            let start = offset + b * FOLD_BLOCK;
            let range = start..start + block.len();
            for (k, &(w, source)) in terms.iter().enumerate() {
                let first = |a: &mut f32, v: f32| *a = 0.0 + w * v;
                let next = |a: &mut f32, v: f32| *a += w * v;
                match (source, k) {
                    (Source::Values(u), 0) => block
                        .iter_mut()
                        .zip(&u[range.clone()])
                        .for_each(|(a, &v)| first(a, v)),
                    (Source::Values(u), _) => block
                        .iter_mut()
                        .zip(&u[range.clone()])
                        .for_each(|(a, &v)| next(a, v)),
                    (Source::Payload(view, base), 0) => {
                        view.decode_with(start, block, base.map(|b| &b[range.clone()]), first)
                    }
                    (Source::Payload(view, base), _) => {
                        view.decode_with(start, block, base.map(|b| &b[range.clone()]), next)
                    }
                }
            }
        }
    });
}

/// The federated learning server.
///
/// Holds the current global model and aggregates client updates with
/// **FedAvg**: a weighted average where each client's weight is proportional
/// to its local sample count (§2.1). Server middleware (e.g. central DP)
/// transforms the aggregate before it becomes the new global model.
#[derive(Debug)]
pub struct FlServer {
    global: ModelParams,
    /// Last round's superseded global model, recycled as the accumulation
    /// buffer of the next aggregation so steady-state aggregation allocates
    /// nothing: peak memory stays O(model), never O(clients × model).
    scratch: Option<ModelParams>,
    middleware: Vec<Box<dyn ServerMiddleware>>,
    rounds_completed: usize,
    telemetry: Telemetry,
}

impl FlServer {
    /// Creates a server with the given initial global model.
    pub fn new(initial: ModelParams) -> Self {
        FlServer {
            global: initial,
            scratch: None,
            middleware: Vec::new(),
            rounds_completed: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink to the server's middleware stack, so
    /// server-side defenses (central DP) charge the sink's privacy ledger.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for mw in &mut self.middleware {
            mw.attach_telemetry(&telemetry);
        }
        self.telemetry = telemetry;
    }

    /// The current global model parameters.
    pub fn global_params(&self) -> &ModelParams {
        &self.global
    }

    /// Number of aggregation rounds completed.
    pub fn rounds_completed(&self) -> usize {
        self.rounds_completed
    }

    /// Appends a server middleware, handing it the server's current
    /// telemetry sink.
    pub fn push_middleware(&mut self, mw: Box<dyn ServerMiddleware>) {
        self.middleware.push(mw);
        if let Some(mw) = self.middleware.last_mut() {
            mw.attach_telemetry(&self.telemetry);
        }
    }

    /// Restores the server to a checkpointed position: installs `global`
    /// as the current model and sets the completed-round counter. The
    /// recycled aggregation scratch is dropped — its content never affects
    /// results (the fold writes every element before reading it), so a resumed run stays
    /// bit-identical to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`], leaving the server untouched,
    /// if it runs middleware: a resume image carries no server middleware
    /// state (central DP's noise stream and previous global), so the
    /// resumed run would diverge.
    pub fn restore_state(&mut self, global: ModelParams, rounds_completed: usize) -> Result<()> {
        self.check_restore()?;
        self.global = global;
        self.scratch = None;
        self.rounds_completed = rounds_completed;
        Ok(())
    }

    /// Checks, writing nothing, that [`FlServer::restore_state`] would
    /// accept a resume image: the server runs no middleware.
    pub(crate) fn check_restore(&self) -> Result<()> {
        match self.middleware.first() {
            Some(mw) => Err(FlError::InvalidConfig {
                reason: format!(
                    "server middleware `{}` cannot resume: the resume image carries no \
                     server middleware state",
                    mw.name()
                ),
            }),
            None => Ok(()),
        }
    }

    /// FedAvg-aggregates the client updates into a new global model and runs
    /// the server middleware chain over it.
    ///
    /// The weights normalize over the updates *presented*, not over the full
    /// client population — so a quorum round that lost some clients (see
    /// [`transport::run_threaded_wire`](crate::transport::run_threaded_wire))
    /// renormalizes gracefully over the arrived subset, exactly as FedAvg
    /// with partial participation prescribes. The sum is one pass over the
    /// recycled scratch, taking the updates in the order given.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::NoUpdates`] for an empty update set, or shape
    /// errors if a client uploaded an incompatible architecture; propagates
    /// server middleware errors. On any error the global model and the
    /// round counter are unchanged.
    pub fn aggregate(&mut self, updates: &[ClientUpdate]) -> Result<&ModelParams> {
        self.fold(updates.iter().map(Term::decoded).collect())
    }

    /// [`FlServer::aggregate`] over updates that arrived as checked wire
    /// frames: each frame is dequantised (and added onto its delta base)
    /// block by block inside the one FedAvg pass, so no update is ever
    /// decoded into a model of its own. The global model is bit for bit
    /// what decoding every frame and aggregating the results gives.
    ///
    /// # Errors
    ///
    /// As [`FlServer::aggregate`]; a frame or base whose architecture is not
    /// the first update's is a shape error.
    pub fn aggregate_encoded(&mut self, updates: &[EncodedUpdate]) -> Result<&ModelParams> {
        self.fold(updates.iter().map(Term::encoded).collect())
    }

    /// Aggregates a round's updates, decoded or encoded, in the order given.
    pub(crate) fn aggregate_uploads(&mut self, uploads: &[Upload]) -> Result<&ModelParams> {
        self.fold(uploads.iter().map(Upload::term).collect())
    }

    /// The one FedAvg core.
    fn fold(&mut self, terms: Vec<Term<'_>>) -> Result<&ModelParams> {
        let Some(first) = terms.first() else {
            return Err(FlError::NoUpdates);
        };
        let total: usize = terms.iter().map(|t| t.samples).sum();
        if total == 0 {
            return Err(FlError::InvalidConfig {
                reason: "all client updates report zero samples".into(),
            });
        }
        // The first update names the architecture; an encoded one was
        // checked against its delta base, or against the global.
        let like = match first.values {
            Values::Decoded(p) | Values::Encoded(_, Some(p)) => p,
            Values::Encoded(_, None) => &self.global,
        };
        if !terms.iter().all(|t| t.same_shape(like)) {
            return Err(NnError::ParamShapeMismatch {
                reason: "client updates do not share one architecture".into(),
            }
            .into());
        }
        // Accumulate into last round's recycled global when its architecture
        // still matches; the fold writes every element before reading it.
        let mut aggregate = match self.scratch.take() {
            Some(s) if s.same_shape(like) => s,
            _ => like.zeros_like(),
        };
        let sources: Vec<(f32, Vec<Source<'_>>)> = terms
            .iter()
            .map(|t| (t.samples as f32 / total as f32, t.sources()))
            .collect();
        let accumulators = aggregate.layers.iter_mut().flat_map(|l| &mut l.tensors);
        let mut column = Vec::with_capacity(sources.len());
        for (k, acc) in accumulators.enumerate() {
            column.clear();
            column.extend(sources.iter().map(|(w, s)| (*w, s[k])));
            fold_tensor(acc.as_overwrite_slice(), &column);
        }
        for mw in &mut self.middleware {
            if let Err(e) = mw.transform_aggregate(&mut aggregate) {
                // The scratch survives: its content never reaches a result.
                self.scratch = Some(aggregate);
                return Err(e);
            }
        }
        self.scratch = Some(std::mem::replace(&mut self.global, aggregate));
        self.rounds_completed += 1;
        Ok(&self.global)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::LayerParams;
    use dinar_tensor::Tensor;

    fn params(value: f32) -> ModelParams {
        ModelParams::new(vec![LayerParams::new(vec![Tensor::full(&[4], value)])])
    }

    fn update(id: usize, value: f32, n: usize) -> ClientUpdate {
        ClientUpdate {
            client_id: id,
            params: params(value),
            num_samples: n,
        }
    }

    #[test]
    fn fedavg_weights_by_sample_count() {
        let mut server = FlServer::new(params(0.0));
        // 1*100 + 5*300 over 400 samples = 4.0
        server
            .aggregate(&[update(0, 1.0, 100), update(1, 5.0, 300)])
            .unwrap();
        let g = server.global_params();
        assert!(g.layers[0].tensors[0]
            .as_slice()
            .iter()
            .all(|&x| (x - 4.0).abs() < 1e-6));
        assert_eq!(server.rounds_completed(), 1);
    }

    #[test]
    fn equal_weights_give_plain_mean() {
        let mut server = FlServer::new(params(0.0));
        server
            .aggregate(&[update(0, 2.0, 50), update(1, 4.0, 50)])
            .unwrap();
        assert!((server.global_params().layers[0].tensors[0].as_slice()[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn partial_participation_renormalizes_over_arrived_subset() {
        // Three clients exist, but only two report (a quorum round). The
        // weights must renormalize over the arrived 100 + 300 samples — the
        // absent client's 600 samples play no part.
        let mut server = FlServer::new(params(0.0));
        server
            .aggregate(&[update(0, 1.0, 100), update(2, 5.0, 300)])
            .unwrap();
        let g = server.global_params().layers[0].tensors[0].as_slice()[0];
        assert!((g - 4.0).abs() < 1e-6, "partial FedAvg got {g}");
    }

    #[test]
    fn empty_updates_rejected() {
        let mut server = FlServer::new(params(0.0));
        assert!(matches!(server.aggregate(&[]), Err(FlError::NoUpdates)));
    }

    #[test]
    fn zero_total_samples_rejected() {
        let mut server = FlServer::new(params(0.0));
        assert!(server.aggregate(&[update(0, 1.0, 0)]).is_err());
    }

    #[test]
    fn server_middleware_transforms_aggregate() {
        #[derive(Debug)]
        struct AddOne;
        impl ServerMiddleware for AddOne {
            fn transform_aggregate(&mut self, p: &mut ModelParams) -> Result<()> {
                p.map_inplace(|x| x + 1.0);
                Ok(())
            }
            fn name(&self) -> &'static str {
                "add_one"
            }
        }
        let mut server = FlServer::new(params(0.0));
        server.push_middleware(Box::new(AddOne));
        server.aggregate(&[update(0, 2.0, 10)]).unwrap();
        assert!((server.global_params().layers[0].tensors[0].as_slice()[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn a_failed_middleware_leaves_the_server_and_its_scratch_as_they_were() {
        /// Adds one, except on call `fail_at`, which errors.
        #[derive(Debug)]
        struct FailOn {
            calls: usize,
            fail_at: usize,
        }
        impl ServerMiddleware for FailOn {
            fn transform_aggregate(&mut self, p: &mut ModelParams) -> Result<()> {
                self.calls += 1;
                if self.calls == self.fail_at {
                    p.map_inplace(|_| f32::NAN);
                    return Err(FlError::Middleware {
                        name: "fail_on",
                        reason: "injected".into(),
                    });
                }
                p.map_inplace(|x| x + 1.0);
                Ok(())
            }
            fn name(&self) -> &'static str {
                "fail_on"
            }
        }
        let server = |fail_at| {
            let mut s = FlServer::new(params(0.0));
            s.push_middleware(Box::new(FailOn { calls: 0, fail_at }));
            s
        };
        let (mut failing, mut twin) = (server(2), server(0));
        let round = [update(0, 2.0, 10), update(1, -3.0, 30)];
        for s in [&mut failing, &mut twin] {
            s.aggregate(&round).unwrap();
        }
        let bits = |s: &FlServer| -> Vec<u32> {
            let g = s.global_params().to_flat();
            g.iter().map(|x| x.to_bits()).collect()
        };
        let before = bits(&failing);
        let scratch = failing
            .scratch
            .as_ref()
            .map(|p| p.layers[0].tensors[0].as_slice().as_ptr());
        assert!(failing.aggregate(&round).is_err());
        assert_eq!(bits(&failing), before, "global written");
        assert_eq!(failing.rounds_completed(), 1);
        let kept = failing
            .scratch
            .as_ref()
            .map(|p| p.layers[0].tensors[0].as_slice().as_ptr());
        assert!(scratch.is_some() && kept == scratch, "scratch dropped");
        // The next round reads nothing the failed one left in the scratch.
        failing.aggregate(&round).unwrap();
        twin.aggregate(&round).unwrap();
        assert_eq!(bits(&failing), bits(&twin));
        assert_eq!(failing.rounds_completed(), twin.rounds_completed());
    }

    #[test]
    fn mismatched_architectures_rejected() {
        let mut server = FlServer::new(params(0.0));
        let bad = ClientUpdate {
            client_id: 1,
            params: ModelParams::new(vec![LayerParams::new(vec![Tensor::full(&[5], 1.0)])]),
            num_samples: 10,
        };
        assert!(server.aggregate(&[update(0, 1.0, 10), bad]).is_err());
    }
}
