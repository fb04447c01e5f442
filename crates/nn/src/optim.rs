//! Optimizers.
//!
//! [`Adagrad`] implements exactly the adaptive update of the paper's
//! Algorithm 1 (lines 8–14): accumulate squared gradients `G` and update
//! `θ ← θ − η·∇ / sqrt(G + 1e-5)`. The paper motivates Adagrad over
//! momentum-based methods in federated settings (§4.4); the ablation of
//! Fig. 11 swaps in [`Adam`], [`AdaMax`] and [`Adgd`], all provided here,
//! plus [`Sgd`] as the common baseline.

use crate::{Model, Result};
use dinar_tensor::Tensor;

/// A parameter-update rule.
///
/// Optimizers keep per-parameter state (e.g. accumulated squared gradients)
/// lazily initialized on the first step; [`Optimizer::reset`] clears it, which
/// FL clients do when a new global model arrives between rounds only if the
/// algorithm requires it (DINAR keeps Adagrad state across rounds, matching
/// the accumulated-`G` semantics of Algorithm 1).
pub trait Optimizer: std::fmt::Debug + Send {
    /// Applies one update step using the gradients accumulated in `model`.
    ///
    /// # Errors
    ///
    /// Returns an error if parameter/state shapes diverge (which indicates
    /// the optimizer is being reused across different architectures without
    /// [`Optimizer::reset`]).
    fn step(&mut self, model: &mut Model) -> Result<()>;

    /// Clears all optimizer state.
    fn reset(&mut self);

    /// Short human-readable name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Hands the optimizer the telemetry sink of the client it trains
    /// for, plus that client's id. Plain optimizers ignore it; DP-aware
    /// wrappers (`dinar-defenses`' DP-SGD) use it to charge per-step
    /// (ε, δ) spend to the privacy ledger (lint rule L016).
    fn attach_telemetry(&mut self, telemetry: &dinar_telemetry::Telemetry, client_id: usize) {
        let _ = (telemetry, client_id);
    }

    /// Snapshots the optimizer's mutable state for checkpointing. The
    /// default (for stateless or wrapper optimizers) is the empty state.
    /// Hyper-parameters fixed at construction (learning rate, betas) are
    /// configuration, not state, and are not exported.
    fn export_state(&self) -> OptimState {
        OptimState::default()
    }

    /// Checks, writing nothing, that `state` is a snapshot
    /// [`Optimizer::import_state`] can install: one exported by
    /// [`Optimizer::export_state`] from the same optimizer type. A resume
    /// checks every section of its image this way before it writes any, so
    /// a refused image leaves everything as it was.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::InvalidConfig`] if the snapshot's shape
    /// (scalar/group counts) does not match this optimizer, or if the
    /// optimizer cannot resume at all.
    fn check_state(&self, state: &OptimState) -> Result<()> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(crate::NnError::InvalidConfig {
                reason: format!(
                    "`{}` carries no restorable state, got a non-empty snapshot",
                    self.name()
                ),
            })
        }
    }

    /// Installs a snapshot that [`Optimizer::check_state`] accepted, so a
    /// resumed run steps bit-identically to an uninterrupted one. It cannot
    /// fail: every refusal is `check_state`'s. The default (for stateless
    /// optimizers) has nothing to install.
    fn import_state(&mut self, state: OptimState) {
        let _ = state;
    }
}

/// A serializable snapshot of an optimizer's mutable state: what the
/// checkpoint plane persists so a killed run resumes its parameter updates
/// bit-identically.
///
/// The container is deliberately generic — scalar registers plus groups of
/// per-parameter tensors — so one `DNCK` section layout covers every
/// optimizer in the zoo (SGD velocity, Adagrad accumulators, Adam moments
/// and step count, ADGD's λ/θ and previous iterates).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OptimState {
    /// Scalar state registers (e.g. Adam's step count, ADGD's λ and θ).
    pub scalars: Vec<f32>,
    /// Per-parameter tensor state, one group per state slot (e.g. Adam's
    /// first and second moment estimates are two groups).
    pub groups: Vec<Vec<Tensor>>,
}

impl OptimState {
    /// `true` if the snapshot carries no state at all.
    pub fn is_empty(&self) -> bool {
        self.scalars.is_empty() && self.groups.iter().all(Vec::is_empty)
    }
}

/// Validates an imported snapshot's arity against what an optimizer wrote.
fn check_state_arity(
    name: &'static str,
    state: &OptimState,
    scalars: usize,
    groups: usize,
) -> Result<()> {
    if state.scalars.len() != scalars || state.groups.len() != groups {
        return Err(crate::NnError::InvalidConfig {
            reason: format!(
                "`{name}` state snapshot has {} scalar(s) and {} group(s), \
                 expected {scalars} and {groups}",
                state.scalars.len(),
                state.groups.len()
            ),
        });
    }
    Ok(())
}

/// Scalar register `i` of a checked snapshot (`0.0` past its end, which a
/// snapshot [`check_state_arity`] accepted never reaches).
fn scalar(state: &OptimState, i: usize) -> f32 {
    state.scalars.get(i).copied().unwrap_or_default()
}

/// The first `N` tensor groups of a checked snapshot, in order (empty past
/// its end, which a snapshot [`check_state_arity`] accepted never reaches).
fn groups<const N: usize>(state: OptimState) -> [Vec<Tensor>; N] {
    let mut groups = state.groups.into_iter();
    std::array::from_fn(|_| groups.next().unwrap_or_default())
}

fn ensure_state(state: &mut Vec<Tensor>, params: &[(&mut Tensor, &Tensor)]) {
    if state.len() != params.len()
        || state
            .iter()
            .zip(params)
            .any(|(s, (p, _))| s.shape() != p.shape())
    {
        *state = params
            .iter()
            .map(|(p, _)| Tensor::zeros(p.shape()))
            .collect();
    }
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with heavy-ball momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut Model) -> Result<()> {
        let mut pg = model.params_and_grads();
        if self.momentum == 0.0 {
            for (p, g) in &mut pg {
                p.scaled_add_assign(-self.lr, g)?;
            }
        } else {
            ensure_state(&mut self.velocity, &pg);
            for (i, (p, g)) in pg.iter_mut().enumerate() {
                self.velocity[i].scale_inplace(self.momentum);
                self.velocity[i].add_assign(g)?;
                p.scaled_add_assign(-self.lr, &self.velocity[i])?;
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.velocity.clear();
    }

    fn name(&self) -> &'static str {
        "sgd"
    }

    fn export_state(&self) -> OptimState {
        OptimState {
            scalars: Vec::new(),
            groups: vec![self.velocity.clone()],
        }
    }

    fn check_state(&self, state: &OptimState) -> Result<()> {
        check_state_arity("sgd", state, 0, 1)
    }

    fn import_state(&mut self, state: OptimState) {
        [self.velocity] = groups(state);
    }
}

/// The paper's adaptive gradient descent (Algorithm 1, lines 8–14).
///
/// `G ← G + ∇²` then `θ ← θ − η · ∇ / sqrt(G + 1e-5)`, with the epsilon
/// *inside* the square root exactly as written in the paper.
#[derive(Debug)]
pub struct Adagrad {
    lr: f32,
    accum: Vec<Tensor>,
}

impl Adagrad {
    /// The epsilon of Algorithm 1 (line 14).
    pub const EPS: f32 = 1e-5;

    /// Creates the optimizer with learning rate `lr` (the paper uses 1e-3).
    pub fn new(lr: f32) -> Self {
        Adagrad {
            lr,
            accum: Vec::new(),
        }
    }
}

impl Optimizer for Adagrad {
    fn step(&mut self, model: &mut Model) -> Result<()> {
        let mut pg = model.params_and_grads();
        ensure_state(&mut self.accum, &pg);
        for ((p, g), acc) in pg.iter_mut().zip(&mut self.accum) {
            // One sweep per tensor: G += grad², then θ −= lr·grad / √(G + ε)
            // with the G just written.
            let acc = acc.as_mut_slice();
            for ((pv, &gv), a) in p.as_mut_slice().iter_mut().zip(g.as_slice()).zip(acc) {
                *a += gv * gv;
                *pv -= self.lr * gv / (*a + Self::EPS).sqrt();
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.accum.clear();
    }

    fn name(&self) -> &'static str {
        "adagrad"
    }

    fn export_state(&self) -> OptimState {
        OptimState {
            scalars: Vec::new(),
            groups: vec![self.accum.clone()],
        }
    }

    fn check_state(&self, state: &OptimState) -> Result<()> {
        check_state_arity("adagrad", state, 0, 1)
    }

    fn import_state(&mut self, state: OptimState) {
        [self.accum] = groups(state);
    }
}

/// Adam optimizer (Kingma & Ba, 2015).
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with standard defaults (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut Model) -> Result<()> {
        let mut pg = model.params_and_grads();
        ensure_state(&mut self.m, &pg);
        ensure_state(&mut self.v, &pg);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, (p, g)) in pg.iter_mut().enumerate() {
            let (m, v) = (self.m[i].as_mut_slice(), self.v[i].as_mut_slice());
            let ps = p.as_mut_slice();
            for (((pv, &gv), mv), vv) in ps
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *pv -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.m.clear();
        self.v.clear();
        self.t = 0;
    }

    fn name(&self) -> &'static str {
        "adam"
    }

    fn export_state(&self) -> OptimState {
        OptimState {
            // Exact in f32 up to 2^24 steps — far beyond any training run.
            scalars: vec![self.t as f32],
            groups: vec![self.m.clone(), self.v.clone()],
        }
    }

    fn check_state(&self, state: &OptimState) -> Result<()> {
        check_state_arity("adam", state, 1, 2)
    }

    fn import_state(&mut self, state: OptimState) {
        self.t = scalar(&state, 0) as u32;
        [self.m, self.v] = groups(state);
    }
}

/// AdaMax optimizer — the infinity-norm variant of Adam (Kingma & Ba, 2015).
#[derive(Debug)]
pub struct AdaMax {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Tensor>,
    u: Vec<Tensor>,
}

impl AdaMax {
    /// AdaMax with standard defaults.
    pub fn new(lr: f32) -> Self {
        AdaMax {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            u: Vec::new(),
        }
    }
}

impl Optimizer for AdaMax {
    fn step(&mut self, model: &mut Model) -> Result<()> {
        let mut pg = model.params_and_grads();
        ensure_state(&mut self.m, &pg);
        ensure_state(&mut self.u, &pg);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        for (i, (p, g)) in pg.iter_mut().enumerate() {
            let (m, u) = (self.m[i].as_mut_slice(), self.u[i].as_mut_slice());
            let ps = p.as_mut_slice();
            for (((pv, &gv), mv), uv) in ps
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.iter_mut())
                .zip(u.iter_mut())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *uv = (self.beta2 * *uv).max(gv.abs());
                *pv -= self.lr * (*mv / bc1) / (*uv + self.eps);
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.m.clear();
        self.u.clear();
        self.t = 0;
    }

    fn name(&self) -> &'static str {
        "adamax"
    }

    fn export_state(&self) -> OptimState {
        OptimState {
            scalars: vec![self.t as f32],
            groups: vec![self.m.clone(), self.u.clone()],
        }
    }

    fn check_state(&self, state: &OptimState) -> Result<()> {
        check_state_arity("adamax", state, 1, 2)
    }

    fn import_state(&mut self, state: OptimState) {
        self.t = scalar(&state, 0) as u32;
        [self.m, self.u] = groups(state);
    }
}

/// ADGD — adaptive gradient descent without descent
/// (Malitsky & Mishchenko, 2020), cited as the paper's Fig. 11 ablation.
///
/// The step size adapts from observed local curvature:
/// `λ_k = min( sqrt(1 + θ_{k-1}) · λ_{k-1},  ‖x_k − x_{k−1}‖ / (2‖∇f(x_k) − ∇f(x_{k−1})‖) )`
/// with `θ_k = λ_k / λ_{k−1}`, requiring no manual learning-rate tuning.
#[derive(Debug)]
pub struct Adgd {
    lambda: f32,
    lambda_min: f32,
    lambda_max: f32,
    theta: f32,
    prev_params: Vec<Tensor>,
    prev_grads: Vec<Tensor>,
}

impl Adgd {
    /// Creates ADGD with an initial step size `lambda0` (e.g. 1e-3).
    ///
    /// The step size is additionally clamped to `[lambda0, 100 × lambda0]`:
    /// ADGD's curvature estimate `‖Δx‖ / 2‖Δg‖` assumes *deterministic*
    /// gradients; across mini-batches the gradient difference is dominated
    /// by batch noise, which collapses the estimate toward zero (and can
    /// also blow it up when batches happen to agree). The clamp keeps the
    /// adaptive rule inside a sane stochastic regime.
    pub fn new(lambda0: f32) -> Self {
        Adgd {
            lambda: lambda0,
            lambda_min: lambda0,
            lambda_max: lambda0 * 100.0,
            theta: 1.0e9, // effectively unbounded on the first adaptive step
            prev_params: Vec::new(),
            prev_grads: Vec::new(),
        }
    }
}

impl Optimizer for Adgd {
    fn step(&mut self, model: &mut Model) -> Result<()> {
        let mut pg = model.params_and_grads();
        if self.prev_params.len() == pg.len() {
            // Adapt the step size from parameter / gradient displacement.
            let mut dx2 = 0.0f64;
            let mut dg2 = 0.0f64;
            for (i, (p, g)) in pg.iter().enumerate() {
                for (&a, &b) in p.as_slice().iter().zip(self.prev_params[i].as_slice()) {
                    dx2 += ((a - b) as f64).powi(2);
                }
                for (&a, &b) in g.as_slice().iter().zip(self.prev_grads[i].as_slice()) {
                    dg2 += ((a - b) as f64).powi(2);
                }
            }
            let bound1 = (1.0 + self.theta).sqrt() * self.lambda;
            let bound2 = if dg2 > 0.0 {
                (dx2.sqrt() / (2.0 * dg2.sqrt())) as f32
            } else {
                f32::MAX
            };
            let new_lambda = bound1.min(bound2).clamp(self.lambda_min, self.lambda_max);
            self.theta = new_lambda / self.lambda;
            self.lambda = new_lambda;
        }
        // Snapshot x_k and g_k, then update.
        self.prev_params = pg.iter().map(|(p, _)| (**p).clone()).collect();
        self.prev_grads = pg.iter().map(|(_, g)| (*g).clone()).collect();
        for (p, g) in &mut pg {
            p.scaled_add_assign(-self.lambda, g)?;
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.prev_params.clear();
        self.prev_grads.clear();
        self.theta = 1.0e9;
    }

    fn name(&self) -> &'static str {
        "adgd"
    }

    fn export_state(&self) -> OptimState {
        OptimState {
            // λ and θ evolve per step; the clamp bounds are configuration.
            scalars: vec![self.lambda, self.theta],
            groups: vec![self.prev_params.clone(), self.prev_grads.clone()],
        }
    }

    fn check_state(&self, state: &OptimState) -> Result<()> {
        check_state_arity("adgd", state, 2, 2)
    }

    fn import_state(&mut self, state: OptimState) {
        self.lambda = scalar(&state, 0);
        self.theta = scalar(&state, 1);
        [self.prev_params, self.prev_grads] = groups(state);
    }
}

/// Resolves an optimizer name to its constructor (taking the learning
/// rate) — convenience for the ablation harness, which resolves a name once
/// and then builds one optimizer per client.
///
/// Recognized names: `"sgd"`, `"adagrad"`, `"adam"`, `"adamax"`, `"adgd"`.
/// Returns `None` for anything else.
pub fn by_name(name: &str) -> Option<fn(f32) -> Box<dyn Optimizer>> {
    let make: fn(f32) -> Box<dyn Optimizer> = match name {
        "sgd" => |lr| Box::new(Sgd::new(lr)),
        "adagrad" => |lr| Box::new(Adagrad::new(lr)),
        "adam" => |lr| Box::new(Adam::new(lr)),
        "adamax" => |lr| Box::new(AdaMax::new(lr)),
        "adgd" => |lr| Box::new(Adgd::new(lr)),
        _ => return None,
    };
    Some(make)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::CrossEntropyLoss;
    use crate::models::{self, Activation};
    use dinar_tensor::{Rng, Tensor};

    /// Train a small classifier on a fixed blob problem and return the final
    /// loss.
    fn train_with(opt: &mut dyn Optimizer, epochs: usize) -> f32 {
        let mut rng = Rng::seed_from(7);
        let n = 60;
        let mut x = Tensor::zeros(&[n, 2]);
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 3;
            let (cx, cy) = [(0.0, 3.0), (-3.0, -2.0), (3.0, -2.0)][class];
            x.set(&[i, 0], rng.normal_with(cx, 0.6)).unwrap();
            x.set(&[i, 1], rng.normal_with(cy, 0.6)).unwrap();
            labels.push(class);
        }
        let mut model = models::mlp(&[2, 16, 3], Activation::ReLU, &mut rng).unwrap();
        let mut last = f32::MAX;
        for _ in 0..epochs {
            let logits = model.forward(&x, true).unwrap();
            let (loss, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels).unwrap();
            model.zero_grad();
            model.backward(&grad).unwrap();
            opt.step(&mut model).unwrap();
            last = loss;
        }
        last
    }

    #[test]
    fn all_optimizers_reduce_loss() {
        let baseline = 3.0f32.ln(); // uniform-prediction loss
        for (name, mut opt) in [
            ("sgd", Box::new(Sgd::new(0.1)) as Box<dyn Optimizer>),
            ("sgd+momentum", Box::new(Sgd::with_momentum(0.05, 0.9))),
            ("adagrad", Box::new(Adagrad::new(0.1))),
            ("adam", Box::new(Adam::new(0.01))),
            ("adamax", Box::new(AdaMax::new(0.01))),
            ("adgd", Box::new(Adgd::new(0.01))),
        ] {
            let final_loss = train_with(opt.as_mut(), 120);
            assert!(
                final_loss < baseline * 0.5,
                "{name} failed to learn: final loss {final_loss}"
            );
        }
    }

    #[test]
    fn adagrad_matches_algorithm_one_by_hand() {
        // Single parameter layer; verify one update against the formula.
        let mut rng = Rng::seed_from(0);
        let mut model = models::mlp(&[1, 1], Activation::ReLU, &mut rng).unwrap();
        let x = Tensor::from_vec(vec![1.0], &[1, 1]).unwrap();
        model.forward(&x, true).unwrap();
        model
            .backward(&Tensor::from_vec(vec![1.0], &[1, 1]).unwrap())
            .unwrap();
        let grads = model.layer_gradients();
        let g = grads[0].tensors[0].as_slice()[0];
        let w0 = model.params().layers[0].tensors[0].as_slice()[0];
        let mut opt = Adagrad::new(0.5);
        opt.step(&mut model).unwrap();
        let w1 = model.params().layers[0].tensors[0].as_slice()[0];
        let expected = w0 - 0.5 * g / (g * g + Adagrad::EPS).sqrt();
        assert!((w1 - expected).abs() < 1e-6, "w1={w1} expected={expected}");
    }

    #[test]
    fn adagrad_one_sweep_is_the_two_loop_update_bit_for_bit() {
        // The update as it was written before: all of G first, then all of θ.
        fn two_loops(lr: f32, theta: &mut [Vec<f32>], accum: &mut [Vec<f32>], grads: &[Vec<f32>]) {
            for ((p, acc), g) in theta.iter_mut().zip(accum.iter_mut()).zip(grads) {
                for (a, &gv) in acc.iter_mut().zip(g) {
                    *a += gv * gv;
                }
                for ((pv, &gv), &a) in p.iter_mut().zip(g).zip(acc.iter()) {
                    *pv -= lr * gv / (a + Adagrad::EPS).sqrt();
                }
            }
        }
        let mut rng = Rng::seed_from(3);
        let mut model = models::mlp(&[13, 9, 4], Activation::Tanh, &mut rng).unwrap();
        let mut theta: Vec<Vec<f32>> = model
            .params_and_grads()
            .iter()
            .map(|(p, _)| p.as_slice().to_vec())
            .collect();
        let mut accum: Vec<Vec<f32>> = theta.iter().map(|p| vec![0.0; p.len()]).collect();
        let mut opt = Adagrad::new(0.05);
        for step in 0..5 {
            let x = rng.randn(&[6, 13]);
            let logits = model.forward(&x, true).unwrap();
            let labels: Vec<usize> = (0..6).map(|i| (i + step) % 4).collect();
            let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels).unwrap();
            model.zero_grad();
            model.backward(&grad).unwrap();
            let grads: Vec<Vec<f32>> = model
                .params_and_grads()
                .iter()
                .map(|(_, g)| g.as_slice().to_vec())
                .collect();
            two_loops(0.05, &mut theta, &mut accum, &grads);
            opt.step(&mut model).unwrap();
            for ((p, _), want) in model.params_and_grads().iter().zip(&theta) {
                let got: Vec<u32> = p.as_slice().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "step {step}");
            }
            for (a, want) in opt.accum.iter().zip(&accum) {
                assert!(a
                    .as_slice()
                    .iter()
                    .zip(want)
                    .all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    #[test]
    fn by_name_resolves_all_and_rejects_unknown() {
        for name in ["sgd", "adagrad", "adam", "adamax", "adgd"] {
            let opt = by_name(name).unwrap()(0.01);
            assert_eq!(opt.name(), name);
        }
        assert!(by_name("sophia").is_none());
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Adam::new(0.01);
        train_with(&mut opt, 3);
        opt.reset();
        assert_eq!(opt.t, 0);
        assert!(opt.m.is_empty());
    }

    #[test]
    fn adgd_step_size_adapts() {
        let mut opt = Adgd::new(1e-3);
        train_with(&mut opt, 30);
        // After many steps the step size should have moved off its initial
        // value and stayed finite.
        assert!(opt.lambda.is_finite());
        assert_ne!(opt.lambda, 1e-3);
    }

    #[test]
    fn state_roundtrip_preserves_trajectory() {
        // Train N steps, export params + optimizer state, continue M more
        // steps → reference losses. Then: fresh model + fresh optimizer,
        // install the exported snapshot, continue M more. Both continuations
        // must produce bit-identical losses for every optimizer.
        for name in ["sgd", "adagrad", "adam", "adamax", "adgd"] {
            let mut rng = Rng::seed_from(9);
            let n = 24;
            let mut x = Tensor::zeros(&[n, 2]);
            let mut labels = Vec::new();
            for i in 0..n {
                x.set(&[i, 0], rng.normal()).unwrap();
                x.set(&[i, 1], rng.normal()).unwrap();
                labels.push(i % 3);
            }
            let mut model = models::mlp(&[2, 16, 3], Activation::ReLU, &mut rng).unwrap();

            let step = |model: &mut crate::model::Model, opt: &mut dyn Optimizer| {
                let logits = model.forward(&x, true).unwrap();
                let (loss, grad) = CrossEntropyLoss.loss_and_grad(&logits, &labels).unwrap();
                model.zero_grad();
                model.backward(&grad).unwrap();
                opt.step(model).unwrap();
                loss
            };

            let mut opt = by_name(name).unwrap()(0.01);
            for _ in 0..5 {
                step(&mut model, opt.as_mut());
            }
            let state = opt.export_state();
            let params = model.params();

            let mut ref_losses = Vec::new();
            for _ in 0..3 {
                ref_losses.push(step(&mut model, opt.as_mut()));
            }

            let mut rng2 = Rng::seed_from(1234);
            let mut resumed = models::mlp(&[2, 16, 3], Activation::ReLU, &mut rng2).unwrap();
            resumed.set_params(&params).unwrap();
            let mut fresh = by_name(name).unwrap()(0.01);
            fresh.check_state(&state).unwrap();
            fresh.import_state(state);
            let mut got = Vec::new();
            for _ in 0..3 {
                got.push(step(&mut resumed, fresh.as_mut()));
            }
            assert_eq!(ref_losses, got, "{name} diverged after state import");
        }
    }

    #[test]
    fn import_rejects_mismatched_arity() {
        let opt = Adam::new(0.01);
        let bad = OptimState {
            scalars: Vec::new(),
            groups: vec![Vec::new()],
        };
        assert!(opt.check_state(&bad).is_err());
        // A fresh optimizer's own export always round-trips.
        let fresh = Adam::new(0.01).export_state();
        assert!(opt.check_state(&fresh).is_ok());
    }
}
