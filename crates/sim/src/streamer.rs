//! Streamer (DMA) engines.
//!
//! Streamers autonomously move events and weights between the external
//! memory and the SNE internal stream fabric (paper §III-D.2). Each streamer
//! performs simple 1-D transfers, converts between the packed memory format
//! and the internal event representation, and buffers words in a 16-entry
//! FIFO that absorbs memory latency. The FIFO is modelled by its depth
//! alone: it sets how much latency the streamer can hide.

use sne_event::{Event, EventError, EventFormat, PackedEvent};

use crate::memory::MemoryModel;

/// Outcome of streaming a full buffer from memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamInResult {
    /// Decoded events in memory order.
    pub events: Vec<Event>,
    /// Memory words read.
    pub words_read: u64,
    /// Cycles the streamer spent waiting on memory beyond the FIFO's ability
    /// to hide the latency.
    pub stall_cycles: u64,
}

/// Outcome of streaming a buffer of events back to memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamOutResult {
    /// Memory words written.
    pub words_written: u64,
    /// Cycles spent waiting on memory.
    pub stall_cycles: u64,
}

/// A DMA engine with an internal event FIFO.
#[derive(Debug, Clone)]
pub struct Streamer {
    format: EventFormat,
    fifo_depth: usize,
    consume_interval: u32,
}

impl Streamer {
    /// Creates a streamer.
    ///
    /// `consume_interval` is the number of cycles between event consumptions
    /// downstream (48 for the SNE datapath); the FIFO only causes stalls when
    /// the memory cannot sustain one word per interval.
    #[must_use]
    pub fn new(format: EventFormat, fifo_depth: usize, consume_interval: u32) -> Self {
        Self {
            format,
            fifo_depth,
            consume_interval,
        }
    }

    /// Streams the whole event buffer out of memory, decoding each word.
    ///
    /// # Errors
    ///
    /// Returns an [`EventError`] if a memory word cannot be decoded (unknown
    /// operation code).
    pub fn stream_in(
        &self,
        memory: &MemoryModel,
        concurrent_requestors: u32,
    ) -> Result<StreamInResult, EventError> {
        let mut events = Vec::with_capacity(memory.event_count());
        let mut stall_cycles = 0u64;
        let mut words_read = 0u64;
        // The FIFO can prefetch up to `fifo_depth` words; a stall occurs when
        // the per-word memory latency exceeds the downstream consumption
        // interval and the FIFO has drained.
        let mut credit: i64 = (self.fifo_depth as i64) * i64::from(self.consume_interval);
        for index in 0..memory.event_count() {
            let (word, latency) = memory.read(index, concurrent_requestors);
            let Some(word) = word else { break };
            words_read += 1;
            credit += i64::from(self.consume_interval) - i64::from(latency);
            if credit < 0 {
                stall_cycles += (-credit) as u64;
                credit = 0;
            }
            credit = credit.min(self.fifo_depth as i64 * i64::from(self.consume_interval));
            events.push(self.format.unpack(word)?);
        }
        Ok(StreamInResult {
            events,
            words_read,
            stall_cycles,
        })
    }

    /// Streams a buffer of events back to memory, encoding each one.
    ///
    /// # Errors
    ///
    /// Returns an [`EventError`] if an event does not fit the memory format.
    pub fn stream_out(
        &self,
        events: &[Event],
        memory: &mut MemoryModel,
        concurrent_requestors: u32,
    ) -> Result<StreamOutResult, EventError> {
        let mut stall_cycles = 0u64;
        let mut words_written = 0u64;
        let mut credit: i64 = self.fifo_depth as i64 * i64::from(self.consume_interval);
        for event in events {
            let word: PackedEvent = self.format.pack(event)?;
            let latency = memory.write(word, concurrent_requestors);
            words_written += 1;
            credit += i64::from(self.consume_interval) - i64::from(latency);
            if credit < 0 {
                stall_cycles += (-credit) as u64;
                credit = 0;
            }
            credit = credit.min(self.fifo_depth as i64 * i64::from(self.consume_interval));
        }
        Ok(StreamOutResult {
            words_written,
            stall_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sne_event::EventOp;

    fn packed(events: &[Event]) -> Vec<PackedEvent> {
        EventFormat::default().pack_all(events).unwrap()
    }

    #[test]
    fn stream_in_decodes_every_word_in_order() {
        let events = vec![Event::reset(0), Event::update(0, 1, 2, 3), Event::fire(0)];
        let mut memory = MemoryModel::new(2, 0);
        memory.load_events(packed(&events));
        let streamer = Streamer::new(EventFormat::default(), 16, 48);
        let result = streamer.stream_in(&memory, 1).unwrap();
        assert_eq!(result.events, events);
        assert_eq!(result.words_read, 3);
        assert_eq!(result.stall_cycles, 0);
    }

    #[test]
    fn slow_memory_with_deep_fifo_does_not_stall() {
        // Latency (40) is below the consumption interval (48): never stalls.
        let events: Vec<Event> = (0..100).map(|t| Event::update(t, 0, 1, 1)).collect();
        let mut memory = MemoryModel::new(40, 0);
        memory.load_events(packed(&events));
        let streamer = Streamer::new(EventFormat::default(), 16, 48);
        let result = streamer.stream_in(&memory, 1).unwrap();
        assert_eq!(result.stall_cycles, 0);
    }

    #[test]
    fn memory_slower_than_consumption_eventually_stalls() {
        // Latency (60) exceeds the interval (48): after the FIFO's credit is
        // exhausted every extra word costs 12 stall cycles.
        let events: Vec<Event> = (0..200).map(|t| Event::update(t, 0, 1, 1)).collect();
        let mut memory = MemoryModel::new(60, 0);
        memory.load_events(packed(&events));
        let streamer = Streamer::new(EventFormat::default(), 16, 48);
        let result = streamer.stream_in(&memory, 1).unwrap();
        assert!(result.stall_cycles > 0);
    }

    #[test]
    fn deeper_fifo_hides_more_latency() {
        let events: Vec<Event> = (0..100).map(|t| Event::update(t, 0, 1, 1)).collect();
        let run = |depth: usize| {
            let mut memory = MemoryModel::new(60, 0);
            memory.load_events(packed(&events));
            let streamer = Streamer::new(EventFormat::default(), depth, 48);
            streamer.stream_in(&memory, 1).unwrap().stall_cycles
        };
        assert!(run(4) >= run(16));
    }

    #[test]
    fn stream_out_writes_all_events() {
        let events = vec![Event::update(3, 0, 5, 6), Event::fire(3)];
        let mut memory = MemoryModel::new(2, 0);
        let streamer = Streamer::new(EventFormat::default(), 16, 48);
        let result = streamer.stream_out(&events, &mut memory, 1).unwrap();
        assert_eq!(result.words_written, 2);
        assert_eq!(memory.event_count(), 2);
        // Round-trip back.
        let reader = Streamer::new(EventFormat::default(), 16, 48);
        let back = reader.stream_in(&memory, 1).unwrap();
        assert_eq!(back.events, events);
    }

    #[test]
    fn stream_out_rejects_unpackable_events() {
        // Timestamp 300 does not fit in the default 8-bit time field.
        let events = vec![Event::new(EventOp::Update, 300, 0, 0, 0)];
        let mut memory = MemoryModel::new(1, 0);
        let streamer = Streamer::new(EventFormat::default(), 16, 48);
        assert!(streamer.stream_out(&events, &mut memory, 1).is_err());
    }
}
