//! Synaptic crossbar (C-XBAR).
//!
//! The C-XBAR routes event and weight streams between the streamers, the
//! slices and the collector (paper §III-D.1). Two modes exist: point-to-point
//! (one master to one slave, also used to load configuration) and broadcast
//! (one master to all slaves, with flow control waiting for every slave).
//! The simulator models the routing decision and the transfer cost; the
//! payload itself is handed over by the engine.

use serde::{Deserialize, Serialize};

/// Ports attached to the crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum XbarPort {
    /// The input streamer (memory → engine).
    StreamerIn,
    /// The output streamer (engine → memory).
    StreamerOut,
    /// A slice, identified by its index.
    Slice(usize),
    /// The collector that merges slice outputs.
    Collector,
}

/// The crossbar: counts routed transfers and prices each in cycles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrossBar {
    num_slices: usize,
    broadcast_enabled: bool,
    transfers: u64,
}

impl CrossBar {
    /// Creates a crossbar connected to `num_slices` slices.
    #[must_use]
    pub fn new(num_slices: usize, broadcast_enabled: bool) -> Self {
        Self {
            num_slices,
            broadcast_enabled,
            transfers: 0,
        }
    }

    /// Routes one point-to-point transfer and returns its cycle cost (one
    /// cycle per hop with the ready/valid handshake).
    pub fn route(&mut self, _from: XbarPort, _to: XbarPort) -> u64 {
        self.transfers += 1;
        1
    }

    /// Broadcasts one word from a master to every slice and returns the cycle
    /// cost: a single flow-controlled cycle when broadcast is enabled, or one
    /// point-to-point transfer per slice when it is not (the ablation case).
    pub fn broadcast(&mut self, _from: XbarPort) -> u64 {
        let cost = if self.broadcast_enabled {
            1
        } else {
            self.num_slices as u64
        };
        self.transfers += cost;
        cost
    }

    /// Total transfers routed (broadcasts count once when enabled).
    #[must_use]
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Clears the counters (start of a new measured run).
    pub fn reset_counters(&mut self) {
        self.transfers = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_costs_one_cycle() {
        let mut xbar = CrossBar::new(8, true);
        let cost = xbar.route(XbarPort::StreamerIn, XbarPort::Slice(3));
        assert_eq!(cost, 1);
        assert_eq!(xbar.transfers(), 1);
    }

    #[test]
    fn broadcast_is_one_cycle_when_enabled() {
        let mut xbar = CrossBar::new(8, true);
        assert_eq!(xbar.broadcast(XbarPort::StreamerIn), 1);
        assert_eq!(xbar.transfers(), 1);
    }

    #[test]
    fn broadcast_degenerates_to_unicast_when_disabled() {
        let mut xbar = CrossBar::new(8, false);
        assert_eq!(xbar.broadcast(XbarPort::StreamerIn), 8);
        assert_eq!(xbar.transfers(), 8);
    }

    #[test]
    fn counters_reset() {
        let mut xbar = CrossBar::new(4, true);
        let _ = xbar.route(XbarPort::Collector, XbarPort::StreamerOut);
        let _ = xbar.broadcast(XbarPort::StreamerIn);
        xbar.reset_counters();
        assert_eq!(xbar.transfers(), 0);
    }
}
