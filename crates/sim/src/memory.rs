//! External memory model seen by the streamers.
//!
//! The SNE is a memory-mapped peripheral; its DMAs fetch events and weights
//! from a system memory whose latency the 16-word FIFO must absorb (paper
//! §III-D.2). The model here is deliberately simple: a fixed access latency
//! plus a contention penalty when several streamers access the memory in the
//! same window — enough to exercise the FIFO sizing and produce realistic
//! stall accounting.

use serde::{Deserialize, Serialize};
use sne_event::PackedEvent;

/// A single-port memory with fixed latency and round-robin contention.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryModel {
    latency: u32,
    contention_penalty: u32,
    events: Vec<PackedEvent>,
}

impl MemoryModel {
    /// Creates a memory with the given access latency (cycles) and per-extra-
    /// requestor contention penalty (cycles).
    #[must_use]
    pub fn new(latency: u32, contention_penalty: u32) -> Self {
        Self {
            latency,
            contention_penalty,
            events: Vec::new(),
        }
    }

    /// Loads a packed event buffer into memory (replacing the current one).
    pub fn load_events(&mut self, events: Vec<PackedEvent>) {
        self.events = events;
    }

    /// Number of event words currently stored.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Reads the word at `index`, returning the word and the cycles the read
    /// took given `concurrent_requestors` competing for the port.
    #[must_use]
    pub fn read(&self, index: usize, concurrent_requestors: u32) -> (Option<PackedEvent>, u32) {
        let extra = concurrent_requestors.saturating_sub(1) * self.contention_penalty;
        (self.events.get(index).copied(), self.latency + extra)
    }

    /// Appends a word (an output event written back by the collector path),
    /// returning the cycles the write took.
    #[must_use]
    pub fn write(&mut self, word: PackedEvent, concurrent_requestors: u32) -> u32 {
        self.events.push(word);
        let extra = concurrent_requestors.saturating_sub(1) * self.contention_penalty;
        self.latency + extra
    }
}

impl Default for MemoryModel {
    fn default() -> Self {
        Self::new(4, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_stored_words_in_order() {
        let mut mem = MemoryModel::new(3, 1);
        mem.load_events(vec![PackedEvent(1), PackedEvent(2)]);
        assert_eq!(mem.event_count(), 2);
        let (word, cycles) = mem.read(0, 1);
        assert_eq!(word, Some(PackedEvent(1)));
        assert_eq!(cycles, 3);
        let (word, _) = mem.read(1, 1);
        assert_eq!(word, Some(PackedEvent(2)));
        let (missing, _) = mem.read(2, 1);
        assert_eq!(missing, None);
    }

    #[test]
    fn contention_adds_latency() {
        let mem = MemoryModel::new(4, 2);
        let (_, single) = mem.read(0, 1);
        let (_, double) = mem.read(0, 2);
        assert_eq!(single, 4);
        assert_eq!(double, 6);
    }

    #[test]
    fn writes_append_and_count() {
        let mut mem = MemoryModel::new(2, 0);
        let cycles = mem.write(PackedEvent(7), 1);
        assert_eq!(cycles, 2);
        assert_eq!(mem.event_count(), 1);
    }

    #[test]
    fn default_latency_matches_config_default() {
        let (_, cycles) = MemoryModel::default().read(0, 1);
        assert_eq!(cycles, crate::SneConfig::default().memory_latency);
    }
}
