//! Output event collector.
//!
//! The collector packs the sparse output streams of the slices (or of the
//! clusters inside one slice) into a single time-synchronized stream toward
//! the crossbar and memory (paper §III-D.3). Because slice activity is
//! sparse, a single output streamer provides more than enough bandwidth; the
//! collector's job is round-robin arbitration.

use serde::{Deserialize, Serialize};
use sne_event::Event;

/// Round-robin arbiter merging several sparse event queues.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Collector {
    num_ports: usize,
    next_port: usize,
}

impl Collector {
    /// Creates a collector with `num_ports` input ports.
    #[must_use]
    pub fn new(num_ports: usize) -> Self {
        Self {
            num_ports,
            next_port: 0,
        }
    }

    /// Merges per-port event queues into one stream, draining them (the
    /// owning form of [`Collector::merge_slices`] the unit tests use).
    #[cfg(test)]
    fn merge(&mut self, queues: &mut [Vec<Event>]) -> Vec<Event> {
        let views: Vec<&[Event]> = queues.iter().map(Vec::as_slice).collect();
        let total: usize = views.iter().map(|q| q.len()).sum();
        let mut merged = Vec::with_capacity(total);
        self.merge_slices(&views, &mut merged);
        drop(views);
        for queue in queues.iter_mut() {
            queue.clear();
        }
        merged
    }

    /// Merges borrowed per-port event queues, appending the arbitrated stream
    /// to `out` and returning how many events were granted.
    ///
    /// The queues are per-slice windows into reusable buffers, and `out` is
    /// the run's output accumulator. Arbitration is round-robin starting
    /// from the port after the last one served, so the order of events
    /// within a timestep depends on the merges before it.
    ///
    /// # Panics
    ///
    /// Panics if `queues` does not hold exactly one slice per port.
    pub fn merge_slices(&mut self, queues: &[&[Event]], out: &mut Vec<Event>) -> usize {
        assert_eq!(
            queues.len(),
            self.num_ports,
            "collector port count mismatch"
        );
        let total: usize = queues.iter().map(|q| q.len()).sum();
        out.reserve(total);
        let mut cursors = [0usize; 64];
        let mut cursors_vec;
        let cursors: &mut [usize] = if queues.len() <= cursors.len() {
            &mut cursors[..queues.len()]
        } else {
            cursors_vec = vec![0usize; queues.len()];
            &mut cursors_vec
        };
        let mut granted_total = 0usize;
        while granted_total < total {
            // Visit ports round-robin starting at `next_port`.
            let mut granted = false;
            for offset in 0..self.num_ports {
                let port = (self.next_port + offset) % self.num_ports;
                if cursors[port] < queues[port].len() {
                    out.push(queues[port][cursors[port]]);
                    cursors[port] += 1;
                    granted_total += 1;
                    self.next_port = (port + 1) % self.num_ports;
                    granted = true;
                    break;
                }
            }
            if !granted {
                break;
            }
        }
        granted_total
    }

    /// Restarts the round-robin arbitration at port 0 (the start of a run).
    pub fn reset(&mut self) {
        self.next_port = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_drains_all_queues() {
        let mut collector = Collector::new(3);
        let mut queues = vec![
            vec![Event::update(0, 0, 0, 0), Event::update(1, 0, 0, 0)],
            vec![Event::update(0, 1, 1, 1)],
            Vec::new(),
        ];
        let merged = collector.merge(&mut queues);
        assert_eq!(merged.len(), 3);
        assert!(queues.iter().all(Vec::is_empty));
    }

    #[test]
    fn round_robin_interleaves_ports() {
        let mut collector = Collector::new(2);
        let mut queues = vec![
            vec![Event::update(0, 0, 10, 0), Event::update(0, 0, 11, 0)],
            vec![Event::update(0, 1, 20, 0), Event::update(0, 1, 21, 0)],
        ];
        let merged = collector.merge(&mut queues);
        // Starting at port 0, grants alternate 0, 1, 0, 1.
        assert_eq!(merged[0].x, 10);
        assert_eq!(merged[1].x, 20);
        assert_eq!(merged[2].x, 11);
        assert_eq!(merged[3].x, 21);
    }

    #[test]
    fn empty_queues_produce_empty_stream() {
        let mut collector = Collector::new(4);
        let mut queues = vec![Vec::new(); 4];
        assert!(collector.merge(&mut queues).is_empty());
    }

    #[test]
    #[should_panic(expected = "port count mismatch")]
    fn wrong_port_count_panics() {
        let mut collector = Collector::new(2);
        let mut queues = vec![Vec::new()];
        let _ = collector.merge(&mut queues);
    }

    #[test]
    fn merge_slices_matches_merge_and_appends() {
        let queues = [
            vec![Event::update(0, 0, 10, 0), Event::update(0, 0, 11, 0)],
            vec![Event::update(0, 1, 20, 0)],
            Vec::new(),
        ];
        let mut draining = Collector::new(3);
        let mut borrowed = Collector::new(3);
        let expected = draining.merge(&mut queues.clone());
        let views: Vec<&[Event]> = queues.iter().map(Vec::as_slice).collect();
        let mut out = vec![Event::fire(9)]; // pre-existing content is kept
        let granted = borrowed.merge_slices(&views, &mut out);
        assert_eq!(granted, 3);
        assert_eq!(&out[1..], expected.as_slice());
        // The round-robin pointer advanced identically: a second merge of the
        // same queues interleaves the same way on both collectors.
        let mut out2 = Vec::new();
        borrowed.merge_slices(&views, &mut out2);
        assert_eq!(out2, draining.merge(&mut queues.clone()));
    }

    #[test]
    fn counters_reset() {
        // After a grant on port 0 the next merge starts at port 1; a reset
        // starts it at port 0 again.
        let first_x = |collector: &mut Collector| {
            let mut queues = [
                vec![Event::update(0, 0, 10, 0)],
                vec![Event::update(0, 1, 20, 0)],
            ];
            collector.merge(&mut queues)[0].x
        };
        let mut collector = Collector::new(2);
        let _ = collector.merge(&mut [vec![Event::fire(0)], Vec::new()]);
        assert_eq!(first_x(&mut collector), 20);
        let _ = collector.merge(&mut [vec![Event::fire(0)], Vec::new()]);
        collector.reset();
        assert_eq!(first_x(&mut collector), 10);
    }
}
