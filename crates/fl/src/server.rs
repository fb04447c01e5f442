//! The FL server: FedAvg aggregation and server-side middleware.

use crate::{ClientUpdate, FlError, Result, ServerMiddleware};
use dinar_nn::ModelParams;
use dinar_telemetry::Telemetry;

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
    /// buffer of the next [`FlServer::aggregate`] call so steady-state
    /// aggregation allocates nothing: peak memory stays O(model), never
    /// O(clients × model).
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
    /// results (it is zero-filled before reuse), so a resumed run stays
    /// bit-identical to an uninterrupted one.
    pub fn restore_state(&mut self, global: ModelParams, rounds_completed: usize) {
        self.global = global;
        self.scratch = None;
        self.rounds_completed = rounds_completed;
    }

    /// FedAvg-aggregates the client updates into a new global model and runs
    /// the server middleware chain over it.
    ///
    /// The weights normalize over the updates *presented*, not over the full
    /// client population — so a quorum round that lost some clients (see
    /// [`transport::run_threaded_wire`](crate::transport::run_threaded_wire))
    /// renormalizes gracefully over the arrived subset, exactly as FedAvg
    /// with partial participation prescribes.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::NoUpdates`] for an empty update set, or shape
    /// errors if a client uploaded an incompatible architecture.
    pub fn aggregate(&mut self, updates: &[ClientUpdate]) -> Result<&ModelParams> {
        if updates.is_empty() {
            return Err(FlError::NoUpdates);
        }
        let total: usize = updates.iter().map(|u| u.num_samples).sum();
        if total == 0 {
            return Err(FlError::InvalidConfig {
                reason: "all client updates report zero samples".into(),
            });
        }
        // Accumulate into last round's recycled global when its architecture
        // still matches; zero-filling never copies the superseded data.
        let mut aggregate = match self.scratch.take() {
            Some(mut s) if s.same_shape(&updates[0].params) => {
                s.zero_fill();
                s
            }
            _ => updates[0].params.zeros_like(),
        };
        for update in updates {
            let weight = update.num_samples as f32 / total as f32;
            aggregate.scaled_add_assign(weight, &update.params)?;
        }
        for mw in &mut self.middleware {
            mw.transform_aggregate(&mut aggregate)?;
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
