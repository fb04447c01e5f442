//! Deterministic simulated network for the threaded transport.
//!
//! The threaded engine moves every model as wire bytes (see
//! [`crate::transport`]); this module prices those bytes. Each direction
//! of each client's link has a [`LinkModel`] — fixed latency plus a
//! byte-rate — and a [`NetworkModel`] maps clients to links with
//! per-client overrides over a default pair. Transfer times are computed
//! in integer nanoseconds from the byte counts alone, so a round's
//! simulated timings are a pure function of (model architecture, codec,
//! link parameters): bit-identical across pool widths, arrival orders and
//! wall time.
//!
//! The simulation never sleeps. Simulated durations compose with the
//! transport's round deadline, which is budgeted on the injectable
//! [`Clock`](crate::clock::Clock): the round's deadline is extended by the
//! slowest simulated path so far (see [`RoundMeter::deadline_allowance`]),
//! and the per-round makespan is reported in [`RoundWireStats`] and as
//! `fl.transport.*` telemetry. Under a
//! [`ManualClock`](crate::clock::ManualClock) the whole simulation
//! replays exactly.

pub use dinar_tensor::wire::Codec;
use std::collections::BTreeMap;
use std::time::Duration;

/// One direction of one network link: fixed latency plus a byte-rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkModel {
    /// Propagation latency added to every transfer.
    pub latency: Duration,
    /// Throughput in bytes per second; `0` means infinite (transfer time
    /// is the latency alone).
    pub bytes_per_s: u64,
}

impl LinkModel {
    /// The ideal link: zero latency, infinite bandwidth.
    pub const fn ideal() -> LinkModel {
        LinkModel {
            latency: Duration::ZERO,
            bytes_per_s: 0,
        }
    }

    /// A link with `latency` and `bytes_per_s` throughput.
    pub const fn new(latency: Duration, bytes_per_s: u64) -> LinkModel {
        LinkModel {
            latency,
            bytes_per_s,
        }
    }

    /// Simulated time to move `bytes` over this link: latency plus the
    /// serialization delay, in exact integer nanoseconds (saturating at
    /// `u64::MAX` ns, ~584 years).
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        if self.bytes_per_s == 0 {
            return self.latency;
        }
        let nanos = (u128::from(bytes) * 1_000_000_000u128) / u128::from(self.bytes_per_s);
        self.latency.saturating_add(Duration::from_nanos(
            u64::try_from(nanos).unwrap_or(u64::MAX),
        ))
    }
}

/// A client's downlink/uplink pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientLink {
    /// Server → client direction.
    pub down: LinkModel,
    /// Client → server direction.
    pub up: LinkModel,
}

/// Per-link latency/bandwidth model over the whole client population:
/// a default link pair plus per-client overrides.
#[derive(Debug, Clone, Default)]
pub struct NetworkModel {
    default: Option<ClientLink>,
    overrides: BTreeMap<usize, ClientLink>,
}

impl NetworkModel {
    /// The ideal network: every transfer is instantaneous.
    pub fn ideal() -> NetworkModel {
        NetworkModel::default()
    }

    /// A network where every client has symmetric links of `latency` and
    /// `bytes_per_s` in both directions.
    pub fn uniform(latency: Duration, bytes_per_s: u64) -> NetworkModel {
        let link = LinkModel::new(latency, bytes_per_s);
        NetworkModel {
            default: Some(ClientLink {
                down: link,
                up: link,
            }),
            overrides: BTreeMap::new(),
        }
    }

    /// Overrides one client's link pair (a straggler's slow uplink, say).
    #[must_use]
    pub fn with_client(mut self, client: usize, link: ClientLink) -> NetworkModel {
        self.overrides.insert(client, link);
        self
    }

    /// The link pair serving `client`.
    pub fn link(&self, client: usize) -> ClientLink {
        self.overrides
            .get(&client)
            .copied()
            .or(self.default)
            .unwrap_or(ClientLink {
                down: LinkModel::ideal(),
                up: LinkModel::ideal(),
            })
    }
}

/// Wire-plane configuration for a threaded run: which codec each
/// direction uses, and the simulated network the bytes cross.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Codec for the server → client global-model broadcast. Lossy
    /// downlinks change what clients train on; the default is lossless.
    pub downlink: Codec,
    /// Codec for client → server updates. Lossy codecs send the delta
    /// against the received global, with error-feedback residuals carried
    /// client-side.
    pub uplink: Codec,
    /// The simulated network.
    pub network: NetworkModel,
}

impl Default for WireConfig {
    /// Lossless in both directions over an ideal network — byte metering
    /// with zero behavioral change versus the in-process engines.
    fn default() -> WireConfig {
        WireConfig {
            downlink: Codec::F32,
            uplink: Codec::F32,
            network: NetworkModel::ideal(),
        }
    }
}

impl WireConfig {
    /// The default lossless configuration.
    pub fn lossless() -> WireConfig {
        WireConfig::default()
    }

    /// Sets the uplink codec (the direction compression targets first:
    /// updates outnumber broadcasts `num_clients`-fold per round).
    #[must_use]
    pub fn with_uplink(mut self, codec: Codec) -> WireConfig {
        self.uplink = codec;
        self
    }

    /// Sets the simulated network.
    #[must_use]
    pub fn with_network(mut self, network: NetworkModel) -> WireConfig {
        self.network = network;
        self
    }
}

/// One completed round's wire traffic and simulated network time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundWireStats {
    /// Round number (1-based, absolute).
    pub round: usize,
    /// Bytes broadcast server → clients (per-client, not per-encode:
    /// one encoded frame sent to `n` clients meters `n × len`).
    pub bytes_down: u64,
    /// Bytes received client → server (accepted and stale updates both —
    /// the link carried them either way).
    pub bytes_up: u64,
    /// Wire frames moved in either direction.
    pub frames: u64,
    /// Simulated network makespan: the slowest client's download +
    /// upload transfer time.
    pub sim_elapsed: Duration,
}

/// Accumulates one round's transfers into a [`RoundWireStats`].
///
/// Arrival order does not matter: the makespan is a max over per-client
/// path times, so the stats replay bit-identically for any pool width.
#[derive(Debug)]
pub struct RoundMeter<'a> {
    net: &'a NetworkModel,
    down_time: BTreeMap<usize, Duration>,
    bytes_down: u64,
    bytes_up: u64,
    frames: u64,
    max_path: Duration,
}

impl<'a> RoundMeter<'a> {
    /// A fresh meter over `net`.
    pub fn new(net: &'a NetworkModel) -> RoundMeter<'a> {
        RoundMeter {
            net,
            down_time: BTreeMap::new(),
            bytes_down: 0,
            bytes_up: 0,
            frames: 0,
            max_path: Duration::ZERO,
        }
    }

    /// Meters a broadcast frame sent to `client`. Retries accumulate onto
    /// the client's download path.
    pub fn sent_down(&mut self, client: usize, bytes: u64) {
        self.bytes_down += bytes;
        self.frames += 1;
        let t = self.net.link(client).down.transfer_time(bytes);
        let path = self.down_time.entry(client).or_insert(Duration::ZERO);
        *path = path.saturating_add(t);
        self.max_path = self.max_path.max(*path);
    }

    /// Meters an update frame received from `client`.
    pub fn received_up(&mut self, client: usize, bytes: u64) {
        self.bytes_up += bytes;
        self.frames += 1;
        let up = self.net.link(client).up.transfer_time(bytes);
        let down = self
            .down_time
            .get(&client)
            .copied()
            .unwrap_or(Duration::ZERO);
        self.max_path = self.max_path.max(down.saturating_add(up));
    }

    /// Extra round-deadline budget the simulated network has earned so
    /// far: the slowest simulated path. Added to the Clock-budgeted
    /// deadline so a slow simulated link does not count against the
    /// compute deadline.
    pub fn deadline_allowance(&self) -> Duration {
        self.max_path
    }

    /// Closes the round.
    pub fn finish(self, round: usize) -> RoundWireStats {
        RoundWireStats {
            round,
            bytes_down: self.bytes_down,
            bytes_up: self.bytes_up,
            frames: self.frames,
            sim_elapsed: self.max_path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_is_instant() {
        let l = LinkModel::ideal();
        assert_eq!(l.transfer_time(0), Duration::ZERO);
        assert_eq!(l.transfer_time(u64::MAX), Duration::ZERO);
    }

    #[test]
    fn transfer_time_is_exact_integer_nanos() {
        let l = LinkModel::new(Duration::from_millis(5), 1_000_000);
        // 250_000 bytes at 1 MB/s = 250 ms + 5 ms latency.
        assert_eq!(l.transfer_time(250_000), Duration::from_millis(255));
        // 1 byte at 3 B/s = 333_333_333 ns exactly (integer division).
        let l = LinkModel::new(Duration::ZERO, 3);
        assert_eq!(l.transfer_time(1), Duration::from_nanos(333_333_333));
    }

    #[test]
    fn network_overrides_fall_back_to_default() {
        let slow = ClientLink {
            down: LinkModel::new(Duration::from_millis(100), 0),
            up: LinkModel::new(Duration::from_millis(200), 0),
        };
        let net = NetworkModel::uniform(Duration::from_millis(1), 0).with_client(7, slow);
        assert_eq!(net.link(7).up.latency, Duration::from_millis(200));
        assert_eq!(net.link(0).up.latency, Duration::from_millis(1));
        assert_eq!(NetworkModel::ideal().link(3).down, LinkModel::ideal());
    }

    #[test]
    fn meter_makespan_is_max_over_client_paths_not_sum() {
        let net = NetworkModel::uniform(Duration::from_millis(10), 1_000_000);
        let mut m = RoundMeter::new(&net);
        for c in 0..3 {
            m.sent_down(c, 1_000_000); // 10 ms + 1 s each
        }
        m.received_up(0, 500_000); // path 0: 1.01 s + 0.51 s
        m.received_up(2, 1_000_000); // path 2: 1.01 s + 1.01 s
        let stats = m.finish(4);
        assert_eq!(stats.round, 4);
        assert_eq!(stats.bytes_down, 3_000_000);
        assert_eq!(stats.bytes_up, 1_500_000);
        assert_eq!(stats.frames, 5);
        assert_eq!(stats.sim_elapsed, Duration::from_millis(2020));
    }

    #[test]
    fn meter_is_arrival_order_invariant() {
        let net = NetworkModel::uniform(Duration::from_millis(3), 10_000);
        let runs: Vec<RoundWireStats> = [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]]
            .iter()
            .map(|order| {
                let mut m = RoundMeter::new(&net);
                for &c in order {
                    m.sent_down(c, 4_000 + 100 * u64::try_from(c).unwrap());
                }
                for &c in order.iter().rev() {
                    m.received_up(c, 2_000 + 50 * u64::try_from(c).unwrap());
                }
                m.finish(1)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn default_wire_config_is_lossless_and_ideal() {
        let w = WireConfig::default();
        assert_eq!(w.downlink, Codec::F32);
        assert_eq!(w.uplink, Codec::F32);
        assert_eq!(w.network.link(0).down, LinkModel::ideal());
        let w = WireConfig::lossless().with_uplink(Codec::Sign1);
        assert_eq!(w.uplink, Codec::Sign1);
        assert_eq!(w.downlink, Codec::F32);
    }
}
