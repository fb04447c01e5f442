//! Middleware hook points for privacy defenses.
//!
//! The paper frames DINAR as an FL *middleware* running at the client side
//! (Fig. 2): it intercepts the global model on its way in (personalization)
//! and the client model on its way out (obfuscation). The baseline defenses
//! fit the same two hook points — WDP/GC/SA transform uploads, CDP
//! transforms the server aggregate (LDP is DP-SGD, which wraps the
//! optimizer instead) — so this module defines both traits and the engine
//! threads every exchanged parameter set through them.
//!
//! Middleware and fault tolerance compose cleanly: the threaded transport
//! drives each round through [`FlClient::run_protocol`](crate::FlClient::run_protocol),
//! so download/upload transforms run on the client's own thread and a
//! middleware error there surfaces as a fatal client failure (see
//! [`crate::fault`]) rather than poisoning the server loop.

use crate::Result;
use dinar_nn::{LayerParams, ModelParams};
use dinar_telemetry::Telemetry;
use dinar_tensor::RngState;

/// Snapshot of a stateful client middleware, captured for a mid-round
/// resume image (see [`crate::ckpt`]).
///
/// The two fields cover what the paper's defenses actually carry between
/// rounds: an RNG stream (obfuscation/noise randomness) and per-layer
/// stored parameters (DINAR's private layer(s) `θᵢᵖ*`). A middleware with
/// richer state can fold it into `stored` as extra layer entries.
#[derive(Debug, PartialEq, Default)]
pub struct MiddlewareState {
    /// The middleware's RNG stream position, if it holds one.
    pub rng: Option<RngState>,
    /// Per-slot stored layer parameters (`None` for slots not yet filled).
    pub stored: Vec<Option<LayerParams>>,
}

/// Client-side hooks: transforms applied to downloaded and uploaded
/// parameter sets.
///
/// Middleware is stateful and per-client (e.g. DINAR stores the private
/// layer between rounds). Hooks run in registration order on upload and in
/// the same order on download.
pub trait ClientMiddleware: std::fmt::Debug + Send {
    /// Transforms the global parameters received from the server *before*
    /// they are installed into the client model.
    ///
    /// The default is the identity (install the global model as-is).
    ///
    /// # Errors
    ///
    /// Implementations return an error if the parameter structure is
    /// incompatible with their state.
    fn transform_download(&mut self, client_id: usize, params: &mut ModelParams) -> Result<()> {
        let _ = (client_id, params);
        Ok(())
    }

    /// Transforms the client parameters *after* local training, before they
    /// are uploaded to the server.
    ///
    /// The default is the identity (upload the trained model as-is).
    ///
    /// # Errors
    ///
    /// Implementations return an error if the parameter structure is
    /// incompatible with their state.
    fn transform_upload(&mut self, client_id: usize, params: &mut ModelParams) -> Result<()> {
        let _ = (client_id, params);
        Ok(())
    }

    /// Short middleware name for reports.
    fn name(&self) -> &'static str;

    /// Hands the middleware the telemetry sink of the system it serves,
    /// plus the id of the client it is attached to. Called by
    /// [`FlClient::set_telemetry`](crate::FlClient::set_telemetry) and on
    /// registration; stateless middleware can ignore it, defenses use it
    /// to charge the privacy ledger (lint rule L016).
    fn attach_telemetry(&mut self, telemetry: &Telemetry, client_id: usize) {
        let _ = (telemetry, client_id);
    }

    /// Exports the middleware's mutable state for a mid-round resume image,
    /// or `None` for stateless middleware (the default).
    fn export_state(&self) -> Option<MiddlewareState> {
        None
    }

    /// Checks, writing nothing, that `state` is one
    /// [`import_state`](ClientMiddleware::import_state) can install: a
    /// capture by [`export_state`](ClientMiddleware::export_state) of the
    /// same middleware. Only called with a `Some` export, so the stateless
    /// default refuses: reaching it means a resume image was taken with a
    /// different middleware stack. A resume checks every section of its
    /// image this way before it writes any.
    ///
    /// # Errors
    ///
    /// Returns [`crate::FlError::Middleware`] if the state is incompatible.
    fn check_state(&self, state: &MiddlewareState) -> Result<()> {
        let _ = state;
        Err(crate::FlError::Middleware {
            name: self.name(),
            reason: "middleware is stateless; resume image does not match this stack".into(),
        })
    }

    /// Installs a state that [`check_state`](ClientMiddleware::check_state)
    /// accepted. It cannot fail: every refusal is `check_state`'s. The
    /// stateless default has nothing to install.
    fn import_state(&mut self, state: MiddlewareState) {
        let _ = state;
    }
}

/// Server-side hook: transforms the aggregated global model before it is
/// shared back with the clients (e.g. central differential privacy).
pub trait ServerMiddleware: std::fmt::Debug + Send {
    /// Transforms the freshly aggregated global parameters.
    ///
    /// # Errors
    ///
    /// Implementations return an error if the parameter structure is
    /// incompatible with their state.
    fn transform_aggregate(&mut self, params: &mut ModelParams) -> Result<()>;

    /// Short middleware name for reports.
    fn name(&self) -> &'static str;

    /// Hands the middleware the telemetry sink of the system it serves.
    /// Called by [`FlServer::set_telemetry`](crate::FlServer::set_telemetry)
    /// and on registration; server defenses use it to charge the privacy
    /// ledger (lint rule L016).
    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        let _ = telemetry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dinar_nn::LayerParams;
    use dinar_tensor::Tensor;

    /// A middleware that overrides nothing but its name runs the trait's
    /// default transforms, which leave the parameters untouched.
    #[test]
    fn passthrough_is_identity() {
        #[derive(Debug)]
        struct Passthrough;
        impl ClientMiddleware for Passthrough {
            fn name(&self) -> &'static str {
                "passthrough"
            }
        }
        let mut mw = Passthrough;
        let mut params = ModelParams::new(vec![LayerParams::new(vec![Tensor::ones(&[3])])]);
        let before = params.share();
        mw.transform_download(0, &mut params).unwrap();
        mw.transform_upload(0, &mut params).unwrap();
        assert_eq!(params, before);
    }
}
