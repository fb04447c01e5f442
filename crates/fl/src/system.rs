//! Round orchestration, system builder and cost accounting.

use crate::ckpt::{FlCheckpoint, PendingRound};
use crate::clock::WallClock;
use crate::round::{Contribution, Round};
use crate::{ClientMiddleware, FlClient, FlError, FlServer, Result, ServerMiddleware};
use dinar_data::Dataset;
use dinar_metrics::cost::CostSample;
use dinar_nn::optim::Optimizer;
use dinar_nn::{Model, ModelParams};
use dinar_telemetry::Telemetry;
use dinar_tensor::{par, Rng};

/// Static configuration of an FL system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlConfig {
    /// Local epochs per client per round (the paper uses 5, or 10 for
    /// Purchase100).
    pub local_epochs: usize,
    /// Mini-batch size (the paper uses 64).
    pub batch_size: usize,
    /// Master seed; every client derives an independent stream from it.
    pub seed: u64,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            local_epochs: 5,
            batch_size: 64,
            seed: 0,
        }
    }
}

/// Per-round measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundReport {
    /// Round number (1-based).
    pub round: usize,
    /// Mean training loss across clients.
    pub mean_train_loss: f32,
    /// Cost sample for this round: mean client training time, server
    /// aggregation time, max client peak memory.
    pub cost: CostSample,
}

/// A complete federated learning system: one server plus its clients.
#[derive(Debug)]
pub struct FlSystem {
    server: FlServer,
    clients: Vec<FlClient>,
    /// The finished portion of an interrupted round (see
    /// [`FlSystem::begin_round_partial`]); `None` between rounds.
    pending: Option<PendingRound>,
    telemetry: Telemetry,
}

impl FlSystem {
    /// Starts building a system with the given configuration.
    pub fn builder(config: FlConfig) -> FlSystemBuilder {
        FlSystemBuilder {
            config,
            clients: Vec::new(),
            server_middleware: Vec::new(),
            initial: None,
        }
    }

    /// The server.
    pub fn server(&self) -> &FlServer {
        &self.server
    }

    /// Mutable access to the server (to attach middleware after build).
    pub fn server_mut(&mut self) -> &mut FlServer {
        &mut self.server
    }

    /// The clients.
    pub fn clients(&self) -> &[FlClient] {
        &self.clients
    }

    /// Mutable access to the clients (to attach middleware after build).
    pub fn clients_mut(&mut self) -> &mut [FlClient] {
        &mut self.clients
    }

    /// Current global model parameters.
    pub fn global_params(&self) -> &ModelParams {
        self.server.global_params()
    }

    /// Decomposes the system into its server, clients and completed-round
    /// count (used by the threaded transport, which needs to move clients
    /// into their own threads). The system-level telemetry handle is not
    /// part of the tuple — callers that need it should clone it via
    /// [`FlSystem::telemetry`] first (the threaded transport does, and
    /// re-attaches it on reassembly); each client keeps carrying its own
    /// handle across the move. A pending partial round is not part of the
    /// tuple either: finish it first (the threaded transport refuses a
    /// system with one pending rather than lose the parked updates).
    pub fn into_parts(self) -> (FlServer, Vec<FlClient>, usize) {
        let rounds = self.server.rounds_completed();
        (self.server, self.clients, rounds)
    }

    /// Reassembles a system from the server and clients produced by
    /// [`FlSystem::into_parts`]; the completed-round count travels inside
    /// the server. The reassembled system starts with telemetry disabled;
    /// call [`FlSystem::set_telemetry`] to re-attach a sink.
    pub fn from_parts(server: FlServer, clients: Vec<FlClient>) -> Self {
        FlSystem {
            server,
            clients,
            pending: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink to the system, **every client** (and
    /// through them, every client model, optimizer and middleware stack)
    /// and the server's middleware. Each subsequent round emits a
    /// `round[N]` span with nested `client[i]` (download / train / upload /
    /// middleware / per-layer) and `aggregate` children, plus the bridged
    /// tensor kernel counters; defenses on either side charge the sink's
    /// privacy ledger. See `dinar-telemetry` for the export side.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for client in &mut self.clients {
            client.set_telemetry(telemetry.clone()); // lint: allow(L009, telemetry handle, not params)
        }
        self.server.set_telemetry(telemetry.clone()); // lint: allow(L009, telemetry handle, not params)
        self.telemetry = telemetry;
    }

    /// The system's telemetry handle (disabled unless
    /// [`set_telemetry`](FlSystem::set_telemetry) was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Guards the start of a round that will `verb` `count` clients: no
    /// partial round may be pending — the caller must
    /// [`finish_round`](FlSystem::finish_round) first — and `count` must be
    /// in `1..=clients`.
    fn check_can_start(&self, count: usize, verb: &str) -> Result<()> {
        let reason = if self.pending.is_some() {
            "a partial round is pending; call finish_round first".into()
        } else if count == 0 || count > self.clients.len() {
            format!("cannot {verb} {count} of {} clients", self.clients.len())
        } else {
            return Ok(());
        };
        Err(FlError::InvalidConfig { reason })
    }

    /// Trains the clients at the ascending positions `ids` for `round` on
    /// the [`par`] pool (clients are data-independent within a round) and
    /// returns their contributions **in `ids` order**. Each client is
    /// measured entirely on its worker thread, so the per-thread memory
    /// scope attributes only that client's allocations. Tensor kernels
    /// invoked inside a worker run serially (nested parallel regions
    /// execute inline), preventing clients × threads oversubscription.
    fn train(
        clients: &mut [FlClient],
        ids: impl Iterator<Item = usize>,
        round: &Round<'_>,
    ) -> Result<Vec<Contribution>> {
        let mut wanted = ids.peekable();
        let mut refs: Vec<&mut FlClient> = clients
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| wanted.next_if_eq(i).is_some())
            .map(|(_, client)| client)
            .collect();
        // Worker threads start with an empty span stack: seed each client's
        // lineage with the round span's path.
        let (global, span_parent, clock) = (round.global(), round.span_path(), round.clock());
        par::map_items_mut(&mut refs, |_, client| {
            let _client_span = client.round_span(span_parent);
            Contribution::measure(client, global, clock)
        })
        .into_iter()
        .collect()
    }

    /// Opens the next round, trains the clients at `ids`, and closes it
    /// over `parked` plus what they produced.
    fn round_over(
        &mut self,
        parked: Vec<Contribution>,
        ids: impl Iterator<Item = usize>,
    ) -> Result<RoundReport> {
        let clock = WallClock::new();
        let mut round = Round::open(&mut self.server, &self.telemetry, &clock);
        let trained = Self::train(&mut self.clients, ids, &round)?;
        for contribution in parked.into_iter().chain(trained) {
            round.accept(contribution);
        }
        let required = round.accepted();
        round.close(required)
    }

    /// Runs one FL round: every client downloads the global model, trains
    /// locally and uploads; the round closes with FedAvg on the server.
    ///
    /// # Errors
    ///
    /// Propagates client training, middleware and aggregation errors;
    /// returns [`FlError::InvalidConfig`] if a partial round is pending.
    pub fn run_round(&mut self) -> Result<RoundReport> {
        self.check_can_start(self.clients.len(), "run")?;
        self.round_over(Vec::new(), 0..self.clients.len())
    }

    /// Runs `rounds` FL rounds and returns the per-round reports.
    ///
    /// # Errors
    ///
    /// Propagates [`FlSystem::run_round`] errors.
    pub fn run(&mut self, rounds: usize) -> Result<Vec<RoundReport>> {
        (0..rounds).map(|_| self.run_round()).collect()
    }

    /// Runs one round with **partial participation**: the server selects a
    /// uniformly random subset of `participants` clients (§2.1: "the FL
    /// server selects N participating clients"); only they download, train
    /// and upload this round. Cross-silo deployments typically select
    /// everyone (use [`FlSystem::run_round`]); this entry point models
    /// cross-device-style sampling.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] if `participants` is zero or
    /// exceeds the client count; propagates training/aggregation errors.
    pub fn run_round_with_selection(
        &mut self,
        participants: usize,
        rng: &mut Rng,
    ) -> Result<RoundReport> {
        self.check_can_start(participants, "select")?;
        let mut selected = rng.permutation(self.clients.len());
        selected.truncate(participants);
        selected.sort_unstable();
        self.round_over(Vec::new(), selected.into_iter())
    }

    /// Whether an interrupted round is pending (some clients trained, no
    /// aggregation yet).
    pub fn has_pending_round(&self) -> bool {
        self.pending.is_some()
    }

    /// Trains clients `0..stop_after` of the next round and parks their
    /// `(loss, update)` pairs instead of aggregating — modelling a run
    /// killed after `stop_after` clients. Take a
    /// [`checkpoint`](FlSystem::checkpoint) afterwards to persist the
    /// partial round, and call [`finish_round`](FlSystem::finish_round)
    /// (possibly after a [`restore`](FlSystem::restore) in a fresh
    /// process) to complete it.
    ///
    /// Clients are data-independent within a round and the engine
    /// aggregates in client order, so splitting a round this way is
    /// bit-identical to [`run_round`](FlSystem::run_round) at any
    /// thread-pool width.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] if a partial round is already
    /// pending or `stop_after` is not in `1..=clients`; propagates client
    /// training errors.
    pub fn begin_round_partial(&mut self, stop_after: usize) -> Result<()> {
        self.check_can_start(stop_after, "stop after")?;
        // The round is opened for its snapshot and span lineage and then
        // dropped unclosed, as the killed process would leave it.
        let clock = WallClock::new();
        let round = Round::open(&mut self.server, &self.telemetry, &clock);
        let completed = Self::train(&mut self.clients, 0..stop_after, &round)?
            .into_iter()
            .map(|c| (c.loss, c.update))
            .collect();
        self.pending = Some(PendingRound { completed });
        Ok(())
    }

    /// Completes a pending partial round: trains the remaining clients
    /// against the same global snapshot, then aggregates all updates in
    /// client order. The resulting global model is bit-identical to an
    /// uninterrupted [`run_round`](FlSystem::run_round).
    ///
    /// The report's cost sample covers only the clients trained in this
    /// call (the earlier portion's wall-clock and memory belong to the
    /// interrupted process).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] if no partial round is pending;
    /// propagates training and aggregation errors.
    pub fn finish_round(&mut self) -> Result<RoundReport> {
        let Some(pending) = self.pending.take() else {
            return Err(FlError::InvalidConfig {
                reason: "no partial round is pending; call begin_round_partial first".into(),
            });
        };
        let done = pending.completed.len();
        let parked = pending
            .completed
            .into_iter()
            .map(|(loss, update)| Contribution {
                loss,
                train_s: 0.0,
                peak_mem: 0,
                update,
            })
            .collect();
        self.round_over(parked, done..self.clients.len())
    }

    /// Captures a complete resume image of the system: global model,
    /// completed-round counter, every client's mutable state and any
    /// pending partial round. Persist it with [`crate::ckpt::save_resume`].
    pub fn checkpoint(&self) -> FlCheckpoint {
        FlCheckpoint {
            rounds_run: self.server.rounds_completed(),
            global: self.server.global_params().share(),
            clients: self.clients.iter().map(FlClient::export_state).collect(),
            // lint: allow(L009, PendingRound's derived Clone bumps COW refcounts, O(1) like share())
            pending: self.pending.clone(),
        }
    }

    /// Installs a resume image into this system. The system must have been
    /// rebuilt with the same builder inputs (shards, architecture,
    /// optimizer, middleware stack, seed); the image then overwrites all
    /// mutable state, making the resumed run bit-identical to one that was
    /// never interrupted.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] on a client-count mismatch and
    /// propagates per-client restore errors.
    pub fn restore(&mut self, ckpt: FlCheckpoint) -> Result<()> {
        if ckpt.clients.len() != self.clients.len() {
            return Err(FlError::InvalidConfig {
                reason: format!(
                    "resume image has {} client(s), system has {}",
                    ckpt.clients.len(),
                    self.clients.len()
                ),
            });
        }
        for (client, state) in self.clients.iter_mut().zip(ckpt.clients) {
            client.import_state(state)?;
        }
        self.server.restore_state(ckpt.global, ckpt.rounds_run);
        self.pending = ckpt.pending;
        Ok(())
    }

    /// Pushes the final global model to every client (running their download
    /// middleware), so client models reflect the end-of-training state.
    ///
    /// # Errors
    ///
    /// Propagates middleware errors.
    pub fn sync_clients(&mut self) -> Result<()> {
        let global = self.server.global_params().share();
        let mut refs: Vec<&mut FlClient> = self.clients.iter_mut().collect();
        let results = par::map_items_mut(&mut refs, |_, client| client.receive_global(&global));
        results.into_iter().collect()
    }

    /// Mean accuracy of the clients' (personalized) models on a dataset —
    /// the paper's overall model utility metric (Appendix A).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn mean_client_accuracy(&mut self, dataset: &Dataset) -> Result<f32> {
        let n = self.clients.len().max(1);
        let mut refs: Vec<&mut FlClient> = self.clients.iter_mut().collect();
        let accuracies = par::map_items_mut(&mut refs, |_, client| client.evaluate(dataset));
        let mut sum = 0.0f64;
        for accuracy in accuracies {
            sum += accuracy? as f64;
        }
        Ok((sum / n as f64) as f32)
    }
}

/// Builder for [`FlSystem`].
#[derive(Debug)]
pub struct FlSystemBuilder {
    config: FlConfig,
    clients: Vec<FlClient>,
    server_middleware: Vec<Box<dyn ServerMiddleware>>,
    initial: Option<ModelParams>,
}

impl FlSystemBuilder {
    /// Creates one client per data shard.
    ///
    /// All clients start from the **same** initial parameters (drawn once
    /// from `model_fn`), matching the FL protocol where round 0 distributes
    /// a common global model. Each client gets an independent RNG stream and
    /// a fresh optimizer from `opt_fn`.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] for empty shards or model factory
    /// failures.
    pub fn clients_from_shards(
        mut self,
        shards: Vec<Dataset>,
        model_fn: impl Fn(&mut Rng) -> dinar_nn::Result<Model>,
        opt_fn: impl Fn(usize) -> Box<dyn Optimizer>,
    ) -> Result<Self> {
        let root = Rng::seed_from(self.config.seed);
        let mut init_rng = root.split(u64::MAX);
        let init_model = model_fn(&mut init_rng).map_err(FlError::from)?;
        let initial = init_model.params();
        let base_id = self.clients.len();
        for (offset, shard) in shards.into_iter().enumerate() {
            let id = base_id + offset;
            let mut client_rng = root.split(id as u64);
            let mut model = model_fn(&mut client_rng).map_err(FlError::from)?;
            model.set_params(&initial).map_err(FlError::from)?;
            let client = FlClient::new(
                id,
                model,
                opt_fn(id),
                shard,
                client_rng.split(0xC11E),
                self.config.local_epochs,
                self.config.batch_size,
            )?;
            self.clients.push(client);
        }
        self.initial = Some(initial);
        Ok(self)
    }

    /// Attaches middleware to every client, built per client id.
    pub fn with_client_middleware(
        mut self,
        factory: impl Fn(usize) -> Vec<Box<dyn ClientMiddleware>>,
    ) -> Self {
        for client in &mut self.clients {
            for mw in factory(client.id()) {
                client.push_middleware(mw);
            }
        }
        self
    }

    /// Attaches a server middleware.
    pub fn with_server_middleware(mut self, mw: Box<dyn ServerMiddleware>) -> Self {
        self.server_middleware.push(mw);
        self
    }

    /// Finalizes the system.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] if no clients were added.
    pub fn build(self) -> Result<FlSystem> {
        let initial = self.initial.ok_or_else(|| FlError::InvalidConfig {
            reason: "no clients configured; call clients_from_shards first".into(),
        })?;
        if self.clients.is_empty() {
            return Err(FlError::InvalidConfig {
                reason: "system needs at least one client".into(),
            });
        }
        let mut server = FlServer::new(initial);
        for mw in self.server_middleware {
            server.push_middleware(mw);
        }
        Ok(FlSystem {
            server,
            clients: self.clients,
            pending: None,
            telemetry: Telemetry::disabled(),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dinar_data::partition::{partition_dataset, Distribution};
    use dinar_data::Dataset;
    use dinar_nn::models::{self, Activation};
    use dinar_nn::optim::Sgd;
    use dinar_tensor::Tensor;

    /// Two separable Gaussian blobs (σ = 0.6 around ±2), deterministic in `seed`.
    pub(crate) fn blob_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from(seed);
        let mut features = Tensor::zeros(&[n, 2]);
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let c = if class == 0 { -2.0 } else { 2.0 };
            features.set(&[i, 0], rng.normal_with(c, 0.6)).unwrap();
            features.set(&[i, 1], rng.normal_with(c, 0.6)).unwrap();
            labels.push(class);
        }
        Dataset::new(features, labels, &[2], 2).unwrap()
    }

    /// Bit patterns of the global model, for exact comparisons.
    pub(crate) fn global_bits(system: &FlSystem) -> Vec<u32> {
        let flat = system.global_params().to_flat();
        flat.iter().map(|x| x.to_bits()).collect()
    }

    /// The crate's shared unit-test system: `clients` IID shards of two
    /// separable blobs, a `[2, 8, 2]` ReLU MLP under SGD.
    pub(crate) fn small_system(clients: usize) -> FlSystem {
        let data = blob_dataset(120, 5);
        let mut rng = Rng::seed_from(9);
        let shards = partition_dataset(&data, clients, Distribution::Iid, &mut rng).unwrap();
        FlSystem::builder(FlConfig {
            local_epochs: 2,
            batch_size: 16,
            seed: 3,
        })
        .clients_from_shards(
            shards,
            |rng| models::mlp(&[2, 8, 2], Activation::ReLU, rng),
            |_| Box::new(Sgd::new(0.1)),
        )
        .unwrap()
        .build()
        .unwrap()
    }

    #[test]
    fn clients_start_from_identical_models() {
        let system = small_system(3);
        let p0 = system.clients()[0].model().params();
        for c in &system.clients()[1..] {
            assert!(c.model().params().max_abs_diff(&p0).unwrap() < 1e-9);
        }
        assert!(system.global_params().max_abs_diff(&p0).unwrap() < 1e-9);
    }

    #[test]
    fn federated_training_converges_on_easy_task() {
        let mut system = small_system(3);
        let reports = system.run(12).unwrap();
        assert!(reports[11].mean_train_loss < reports[0].mean_train_loss * 0.5);
        system.sync_clients().unwrap();
        let test = blob_dataset(60, 77);
        assert!(system.mean_client_accuracy(&test).unwrap() > 0.9);
    }

    #[test]
    fn round_reports_count_and_cost() {
        let mut system = small_system(2);
        let reports = system.run(3).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[2].round, 3);
        assert!(reports.iter().all(|r| r.cost.client_train_s > 0.0));
        assert_eq!(system.server().rounds_completed(), 3);
    }

    #[test]
    fn build_without_clients_fails() {
        assert!(matches!(
            FlSystem::builder(FlConfig::default()).build(),
            Err(FlError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn global_model_differs_from_any_single_client_after_round() {
        let mut system = small_system(3);
        system.run(1).unwrap();
        // The aggregate should be a mixture, not equal to one client's model
        // (clients trained on different shards).
        let global = system.global_params().clone();
        for c in system.clients() {
            assert!(c.model().params().max_abs_diff(&global).unwrap() > 1e-6);
        }
    }
}

#[cfg(test)]
mod selection_tests {
    use super::tests::{global_bits, small_system as system};
    use super::*;

    #[test]
    fn partial_participation_round_runs() {
        let mut sys = system(6);
        let mut rng = Rng::seed_from(3);
        let report = sys.run_round_with_selection(2, &mut rng).unwrap();
        assert_eq!(report.round, 1);
        assert!(report.mean_train_loss.is_finite());
    }

    #[test]
    fn full_selection_equals_plain_round() {
        let mut a = system(4);
        let mut b = system(4);
        let mut rng = Rng::seed_from(4);
        let plain = a.run_round().unwrap();
        let selected = b.run_round_with_selection(4, &mut rng).unwrap();
        assert_eq!(global_bits(&a), global_bits(&b));
        assert_eq!(
            plain.mean_train_loss.to_bits(),
            selected.mean_train_loss.to_bits()
        );
    }

    #[test]
    fn invalid_selection_rejected() {
        let mut sys = system(3);
        let mut rng = Rng::seed_from(5);
        assert!(sys.run_round_with_selection(0, &mut rng).is_err());
        assert!(sys.run_round_with_selection(4, &mut rng).is_err());
    }
}
