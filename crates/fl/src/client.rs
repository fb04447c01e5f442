//! The FL client: local model, local data, local training.

use crate::ckpt::ClientCkpt;
use crate::{ClientMiddleware, FlError, Result};
use dinar_data::Dataset;
use dinar_nn::loss::CrossEntropyLoss;
use dinar_nn::optim::Optimizer;
use dinar_nn::{Model, ModelParams};
use dinar_telemetry::{SpanGuard, Telemetry};
use dinar_tensor::Rng;

/// The parameter set a client uploads after local training, with the sample
/// count the server uses as its FedAvg weight.
#[derive(Debug, Clone)]
pub struct ClientUpdate {
    /// Uploading client's id.
    pub client_id: usize,
    /// The (possibly defense-transformed) model parameters.
    pub params: ModelParams,
    /// Number of local training samples (FedAvg weight).
    pub num_samples: usize,
}

/// One federated learning participant.
///
/// A client owns its model, optimizer, private data shard, RNG stream and
/// middleware stack. The round protocol is
/// [`receive_global`](FlClient::receive_global) →
/// [`train_local`](FlClient::train_local) →
/// [`produce_update`](FlClient::produce_update).
#[derive(Debug)]
pub struct FlClient {
    id: usize,
    model: Model,
    optimizer: Box<dyn Optimizer>,
    data: Dataset,
    middleware: Vec<Box<dyn ClientMiddleware>>,
    rng: Rng,
    local_epochs: usize,
    batch_size: usize,
    telemetry: Telemetry,
}

impl FlClient {
    /// Creates a client.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for an empty shard or zero
    /// epochs/batch size.
    pub fn new(
        id: usize,
        model: Model,
        optimizer: Box<dyn Optimizer>,
        data: Dataset,
        rng: Rng,
        local_epochs: usize,
        batch_size: usize,
    ) -> Result<Self> {
        if data.is_empty() {
            return Err(FlError::InvalidConfig {
                reason: format!("client {id} has no local data"),
            });
        }
        if local_epochs == 0 || batch_size == 0 {
            return Err(FlError::InvalidConfig {
                reason: "local_epochs and batch_size must be positive".into(),
            });
        }
        Ok(FlClient {
            id,
            model,
            optimizer,
            data,
            middleware: Vec::new(),
            rng,
            local_epochs,
            batch_size,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attaches a telemetry sink to this client, its model, its optimizer
    /// **and its middleware stack**: the round protocol then emits
    /// `download` / `train` / `upload` spans, one `mw[name]` span per
    /// middleware transform, the model's per-layer spans nested beneath
    /// them — and every defense in the stack charges the sink's privacy
    /// ledger.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.model.set_telemetry(telemetry.clone()); // lint: allow(L009, telemetry handle, not params)
        self.optimizer.attach_telemetry(&telemetry, self.id);
        for mw in &mut self.middleware {
            mw.attach_telemetry(&telemetry, self.id);
        }
        self.telemetry = telemetry;
    }

    /// The client's telemetry handle (disabled unless
    /// [`set_telemetry`](FlClient::set_telemetry) was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Opens this client's per-round span under the explicit `parent` path
    /// — the fan-out in [`FlSystem`](crate::FlSystem) runs clients on pool
    /// threads whose span stack starts empty, so the round lineage must be
    /// seeded explicitly.
    pub fn round_span(&self, parent: &str) -> SpanGuard {
        self.telemetry
            .span_at(parent, &format!("client[{}]", self.id))
    }

    /// Client id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of local training samples.
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// The client's local dataset (its members, for attack evaluation).
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The client's current (personalized) model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Mutable access to the client's model (used by evaluation helpers).
    pub fn model_mut(&mut self) -> &mut Model {
        &mut self.model
    }

    /// Appends a middleware to the client's stack, handing it the
    /// client's current telemetry sink.
    pub fn push_middleware(&mut self, mw: Box<dyn ClientMiddleware>) {
        self.middleware.push(mw);
        if let Some(mw) = self.middleware.last_mut() {
            mw.attach_telemetry(&self.telemetry, self.id);
        }
    }

    /// Names of the installed middleware, in order.
    pub fn middleware_names(&self) -> Vec<&'static str> {
        self.middleware.iter().map(|m| m.name()).collect()
    }

    /// Receives the global model: runs the download middleware chain and
    /// installs the result into the local model.
    ///
    /// # Errors
    ///
    /// Propagates middleware and shape errors.
    pub fn receive_global(&mut self, global: &ModelParams) -> Result<()> {
        let _span = self.telemetry.span("download");
        let mut install = global.share();
        for mw in &mut self.middleware {
            let _mw_span = if self.telemetry.is_enabled() {
                Some(self.telemetry.span(&format!("mw[{}]", mw.name())))
            } else {
                None
            };
            mw.transform_download(self.id, &mut install)?;
        }
        self.model.set_params(&install)?;
        Ok(())
    }

    /// Runs `local_epochs` of mini-batch training on the local shard and
    /// returns the mean training loss over all batches.
    ///
    /// # Errors
    ///
    /// Propagates forward/backward and optimizer errors.
    pub fn train_local(&mut self) -> Result<f32> {
        let _span = self.telemetry.span("train");
        let loss_fn = CrossEntropyLoss;
        let mut total = 0.0f64;
        let mut batches = 0u32;
        for _ in 0..self.local_epochs {
            for indices in self.data.batch_indices(self.batch_size, &mut self.rng) {
                let batch = self.data.batch(&indices)?;
                let logits = self.model.forward(&batch.features, true)?;
                let (loss, grad) = loss_fn.loss_and_grad(&logits, &batch.labels)?;
                self.model.zero_grad();
                self.model.backward(&grad)?;
                self.optimizer.step(&mut self.model)?;
                total += loss as f64;
                batches += 1;
            }
        }
        Ok((total / batches.max(1) as f64) as f32)
    }

    /// Produces the upload for this round: snapshots the model parameters and
    /// runs the upload middleware chain (defense transforms) over them.
    ///
    /// # Errors
    ///
    /// Propagates middleware errors.
    pub fn produce_update(&mut self) -> Result<ClientUpdate> {
        let _span = self.telemetry.span("upload");
        let mut params = self.model.params();
        for mw in &mut self.middleware {
            let _mw_span = if self.telemetry.is_enabled() {
                Some(self.telemetry.span(&format!("mw[{}]", mw.name())))
            } else {
                None
            };
            mw.transform_upload(self.id, &mut params)?;
        }
        Ok(ClientUpdate {
            client_id: self.id,
            params,
            num_samples: self.data.len(),
        })
    }

    /// Runs the client's complete round protocol against `global`:
    /// [`receive_global`](FlClient::receive_global) →
    /// [`train_local`](FlClient::train_local) →
    /// [`produce_update`](FlClient::produce_update). Returns the mean
    /// training loss and the produced update. Both the sequential fan-out
    /// and the threaded transport drive rounds through this single entry
    /// point, so the two engines cannot drift apart.
    ///
    /// # Errors
    ///
    /// Propagates middleware, training and shape errors.
    pub fn run_protocol(&mut self, global: &ModelParams) -> Result<(f32, ClientUpdate)> {
        self.receive_global(global)?;
        let loss = self.train_local()?;
        let update = self.produce_update()?;
        Ok((loss, update))
    }

    /// Exports the client's full mutable state — model parameters, RNG
    /// stream position, optimizer state and per-middleware state — for a
    /// resume image. The private data shard and static configuration are
    /// *not* part of the export; a resumed run rebuilds them from the same
    /// builder inputs.
    pub fn export_state(&self) -> ClientCkpt {
        ClientCkpt {
            id: self.id,
            params: self.model.params(),
            rng: self.rng.state(),
            optim: self.optimizer.export_state(),
            middleware: self.middleware.iter().map(|m| m.export_state()).collect(),
        }
    }

    /// Restores state captured by [`export_state`](FlClient::export_state)
    /// into this client. The client must have been rebuilt with the same
    /// id, architecture, optimizer and middleware stack.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] on an id or stack-shape mismatch
    /// and propagates parameter/optimizer/middleware restore errors.
    pub fn import_state(&mut self, state: ClientCkpt) -> Result<()> {
        if state.id != self.id {
            return Err(FlError::InvalidConfig {
                reason: format!("resume image is for client {}, not {}", state.id, self.id),
            });
        }
        if state.middleware.len() != self.middleware.len() {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "resume image has {} middleware state slot(s), client has {}",
                    state.middleware.len(),
                    self.middleware.len()
                ),
            });
        }
        self.model.set_params(&state.params)?;
        self.rng = Rng::from_state(state.rng);
        self.optimizer.import_state(state.optim)?;
        for (mw, st) in self.middleware.iter_mut().zip(state.middleware) {
            if let Some(st) = st {
                mw.import_state(st)?;
            }
        }
        Ok(())
    }

    /// Accuracy of the client's current model on a labelled dataset.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn evaluate(&mut self, dataset: &Dataset) -> Result<f32> {
        let batch = dataset.full_batch()?;
        Ok(self.model.accuracy(&batch.features, &batch.labels)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::blob_dataset;
    use dinar_data::Dataset;
    use dinar_nn::models::{self, Activation};
    use dinar_nn::optim::Sgd;
    use dinar_tensor::Tensor;

    fn make_client(id: usize) -> FlClient {
        let mut rng = Rng::seed_from(42);
        let model = models::mlp(&[2, 8, 2], Activation::ReLU, &mut rng).unwrap();
        FlClient::new(
            id,
            model,
            Box::new(Sgd::new(0.1)),
            blob_dataset(64, id as u64),
            rng.split(id as u64),
            2,
            16,
        )
        .unwrap()
    }

    #[test]
    fn local_training_learns() {
        let mut client = make_client(0);
        let first = client.train_local().unwrap();
        for _ in 0..5 {
            client.train_local().unwrap();
        }
        let last = client.train_local().unwrap();
        assert!(last < first * 0.5, "{first} -> {last}");
        let acc = client.evaluate(&blob_dataset(32, 99)).unwrap();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn receive_global_installs_parameters() {
        let mut a = make_client(0);
        let mut b = make_client(1);
        a.train_local().unwrap();
        let params = a.model().params();
        b.receive_global(&params).unwrap();
        assert!(b.model().params().max_abs_diff(&params).unwrap() < 1e-7);
    }

    #[test]
    fn produce_update_carries_weight() {
        let mut client = make_client(3);
        let update = client.produce_update().unwrap();
        assert_eq!(update.client_id, 3);
        assert_eq!(update.num_samples, 64);
    }

    #[test]
    fn empty_shard_rejected() {
        let mut rng = Rng::seed_from(0);
        let model = models::mlp(&[2, 2], Activation::ReLU, &mut rng).unwrap();
        let empty = Dataset::new(Tensor::zeros(&[0, 2]), vec![], &[2], 2).unwrap();
        assert!(matches!(
            FlClient::new(0, model, Box::new(Sgd::new(0.1)), empty, rng, 1, 8),
            Err(FlError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn middleware_chain_runs_in_order() {
        #[derive(Debug)]
        struct Tag(f32);
        impl ClientMiddleware for Tag {
            fn transform_upload(&mut self, _c: usize, p: &mut ModelParams) -> Result<()> {
                let v = self.0;
                p.map_inplace(move |x| x + v);
                Ok(())
            }
            fn name(&self) -> &'static str {
                "tag"
            }
        }
        let mut client = make_client(0);
        let base = client.model().params();
        client.push_middleware(Box::new(Tag(1.0)));
        client.push_middleware(Box::new(Tag(10.0)));
        let update = client.produce_update().unwrap();
        let diff = update.params.sub(&base).unwrap();
        assert!(diff.to_flat().iter().all(|&d| (d - 11.0).abs() < 1e-6));
    }
}
