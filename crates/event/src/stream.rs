//! Time-ordered event streams with feature-map geometry.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::stats::ActivityStats;
use crate::{Event, EventError};

/// Geometry of the feature map an event stream refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Geometry {
    /// Feature-map width in pixels/neurons.
    pub width: u16,
    /// Feature-map height in pixels/neurons.
    pub height: u16,
    /// Number of channels (e.g. 2 polarities for a DVS sensor).
    pub channels: u16,
    /// Number of timesteps of the inference window.
    pub timesteps: u32,
}

impl Geometry {
    /// Creates a geometry, validating that no dimension is zero.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::EmptyGeometry`] if any dimension is zero.
    pub fn new(width: u16, height: u16, channels: u16, timesteps: u32) -> Result<Self, EventError> {
        if width == 0 || height == 0 || channels == 0 || timesteps == 0 {
            return Err(EventError::EmptyGeometry);
        }
        Ok(Self {
            width,
            height,
            channels,
            timesteps,
        })
    }

    /// Number of spatial positions (`width * height`).
    #[must_use]
    pub fn spatial_size(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// Number of neurons/pixels per timestep (`width * height * channels`).
    #[must_use]
    pub fn frame_size(&self) -> usize {
        self.spatial_size() * usize::from(self.channels)
    }

    /// Total number of spatio-temporal positions.
    #[must_use]
    pub fn volume(&self) -> usize {
        self.frame_size() * self.timesteps as usize
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{} over {} timesteps",
            self.channels, self.height, self.width, self.timesteps
        )
    }
}

/// A time-ordered sequence of events produced by (or destined to) one
/// feature map.
///
/// Events are stored in insertion order; helpers are provided to check and
/// restore time ordering (the SNE consumes its input stream strictly in time
/// order, see Listing 1 of the paper).
///
/// # Example
///
/// ```
/// use sne_event::{Event, EventStream};
///
/// let mut stream = EventStream::new(16, 16, 2, 50);
/// for t in 0..5 {
///     stream.push(Event::update(t, 0, 3, 4))?;
/// }
/// assert_eq!(stream.len(), 5);
/// assert!((stream.activity() - 5.0 / (16.0 * 16.0 * 2.0 * 50.0)).abs() < 1e-9);
/// # Ok::<(), sne_event::EventError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventStream {
    geometry: Geometry,
    events: Vec<Event>,
}

impl EventStream {
    /// Creates an empty stream for a `width x height x channels` feature map
    /// observed over `timesteps` timesteps.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero; use [`EventStream::with_geometry`]
    /// with a validated [`Geometry`] to avoid the panic.
    #[must_use]
    pub fn new(width: u16, height: u16, channels: u16, timesteps: u32) -> Self {
        let geometry = Geometry::new(width, height, channels, timesteps)
            .expect("stream geometry must be non-zero");
        Self::with_geometry(geometry)
    }

    /// Creates an empty stream from a validated geometry.
    #[must_use]
    pub fn with_geometry(geometry: Geometry) -> Self {
        Self {
            geometry,
            events: Vec::new(),
        }
    }

    /// Geometry of the feature map this stream refers to.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Number of events in the stream (all operations included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the stream contains no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event, validating it against the stream geometry.
    ///
    /// Only `UPDATE_OP` events are checked spatially; `RST_OP` and `FIRE_OP`
    /// carry no meaningful address.
    ///
    /// # Errors
    ///
    /// Returns an error if the event's coordinates, channel or timestamp fall
    /// outside the stream geometry.
    pub fn push(&mut self, event: Event) -> Result<(), EventError> {
        self.validate(&event)?;
        self.events.push(event);
        Ok(())
    }

    /// Appends an event without validation.
    ///
    /// Intended for generators that construct events known to be in range;
    /// invalid events will surface later as validation or simulation errors.
    pub fn push_unchecked(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Validates a single event against the stream geometry.
    ///
    /// # Errors
    ///
    /// Returns an error if the event's coordinates, channel or timestamp fall
    /// outside the stream geometry.
    pub fn validate(&self, event: &Event) -> Result<(), EventError> {
        let g = self.geometry;
        if event.t >= g.timesteps {
            return Err(EventError::TimestampOutOfRange {
                t: event.t,
                timesteps: g.timesteps,
            });
        }
        if event.op.carries_address() {
            if event.ch >= g.channels {
                return Err(EventError::ChannelOutOfRange {
                    ch: event.ch,
                    channels: g.channels,
                });
            }
            if event.x >= g.width || event.y >= g.height {
                return Err(EventError::CoordinateOutOfRange {
                    x: event.x,
                    y: event.y,
                    width: g.width,
                    height: g.height,
                });
            }
        }
        Ok(())
    }

    /// Validates every event in the stream.
    ///
    /// # Errors
    ///
    /// Returns the first validation error encountered.
    pub fn validate_all(&self) -> Result<(), EventError> {
        self.events.iter().try_for_each(|e| self.validate(e))
    }

    /// Iterates over the events in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Events as a slice, in insertion order.
    #[must_use]
    pub fn as_slice(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the stream and returns the underlying event vector.
    #[must_use]
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Returns `true` if event timestamps are non-decreasing.
    #[must_use]
    pub fn is_time_ordered(&self) -> bool {
        self.events.windows(2).all(|w| w[0].t <= w[1].t)
    }

    /// Stably sorts the events by timestamp (preserving intra-timestep order).
    pub fn sort_by_time(&mut self) {
        self.events.sort_by_key(|e| e.t);
    }

    /// Number of input spikes (`UPDATE_OP` events only).
    #[must_use]
    pub fn spike_count(&self) -> usize {
        self.events.iter().filter(|e| e.is_spike()).count()
    }

    /// Fraction of active spatio-temporal positions: spikes divided by the
    /// stream volume (`width*height*channels*timesteps`).
    ///
    /// This is the quantity the paper calls *input activity* (1.2 %–4.9 % for
    /// IBM DVS-Gesture).
    #[must_use]
    pub fn activity(&self) -> f64 {
        self.spike_count() as f64 / self.geometry.volume() as f64
    }

    /// Computes per-timestep activity statistics.
    #[must_use]
    pub fn stats(&self) -> ActivityStats {
        ActivityStats::from_stream(self)
    }

    /// Builds the full operation sequence the SNE consumes for this stream:
    /// one `RST_OP`, then for each timestep its spikes followed by one
    /// `FIRE_OP` (paper §III-C / Fig. 3).
    #[must_use]
    pub fn to_op_sequence(&self) -> Vec<Event> {
        let mut ops = Vec::new();
        self.op_sequence_into(true, &mut ops);
        ops
    }

    /// [`EventStream::to_op_sequence`] into a caller-provided buffer
    /// (cleared first, capacity kept): the allocation-free form for hot
    /// paths that build an op sequence per chunk.
    pub fn to_op_sequence_into(&self, out: &mut Vec<Event>) {
        self.op_sequence_into(true, out);
    }

    /// The operation sequence of a *continuation* chunk, into a
    /// caller-provided buffer (cleared first, capacity kept): the same as
    /// [`EventStream::to_op_sequence_into`] but without the leading `RST_OP`,
    /// so neuron state carried over from the previous chunk of a continuous
    /// feed survives (the streaming mode of the `sne` crate's
    /// `InferenceSession`).
    pub fn to_op_sequence_continuing_into(&self, out: &mut Vec<Event>) {
        self.op_sequence_into(false, out);
    }

    /// One counting-sort pass instead of per-timestep bucket vectors: count
    /// the spikes of each timestep, lay out `[spikes of t..., FIRE_OP(t)]`
    /// runs, then place each spike at its cursor. Stable (insertion order
    /// within a timestep), identical output to the bucketed formulation.
    fn op_sequence_into(&self, reset: bool, out: &mut Vec<Event>) {
        let timesteps = self.geometry.timesteps as usize;
        let mut cursors = vec![0usize; timesteps];
        let mut spikes = 0usize;
        for e in self.events.iter().filter(|e| e.is_spike()) {
            cursors[e.t as usize] += 1;
            spikes += 1;
        }
        let lead = usize::from(reset);
        out.clear();
        out.resize(lead + spikes + timesteps, Event::fire(0));
        if reset {
            out[0] = Event::reset(0);
        }
        let mut at = lead;
        for (t, cursor) in cursors.iter_mut().enumerate() {
            let here = *cursor;
            *cursor = at;
            at += here + 1;
            out[at - 1] = Event::fire(t as u32);
        }
        for e in self.events.iter().filter(|e| e.is_spike()) {
            out[cursors[e.t as usize]] = *e;
            cursors[e.t as usize] += 1;
        }
    }

    /// Merges another stream into this one (the other stream must share the
    /// same geometry); the result is re-sorted by time.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::EmptyGeometry`] if the geometries differ, since a
    /// merged stream with mismatched geometry would be meaningless.
    pub fn merge(&mut self, other: &EventStream) -> Result<(), EventError> {
        if self.geometry != other.geometry {
            return Err(EventError::EmptyGeometry);
        }
        self.events.extend_from_slice(&other.events);
        self.sort_by_time();
        Ok(())
    }

    /// Restricts the stream to the half-open timestep window `[start, end)`,
    /// rebasing timestamps so the window starts at 0.
    #[must_use]
    pub fn window(&self, start: u32, end: u32) -> EventStream {
        let end = end.min(self.geometry.timesteps);
        let timesteps = end.saturating_sub(start).max(1);
        let geometry = Geometry {
            timesteps,
            ..self.geometry
        };
        let mut out = EventStream::with_geometry(geometry);
        for e in &self.events {
            if e.t >= start && e.t < end {
                out.events.push(Event {
                    t: e.t - start,
                    ..*e
                });
            }
        }
        out
    }

    /// Splits the stream into consecutive time windows of `chunk_timesteps`
    /// timesteps each (the last chunk may be shorter), with timestamps
    /// rebased so every chunk starts at 0 — the shape a chunked DVS feed
    /// arrives in when it is `push`ed through a persistent inference session.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_timesteps` is zero.
    ///
    /// # Example
    ///
    /// ```
    /// use sne_event::{Event, EventStream};
    ///
    /// let mut stream = EventStream::new(8, 8, 2, 10);
    /// stream.push(Event::update(7, 0, 1, 1))?;
    /// let chunks: Vec<_> = stream.chunks(4).collect();
    /// assert_eq!(chunks.len(), 3); // 4 + 4 + 2 timesteps
    /// assert_eq!(chunks[2].geometry().timesteps, 2);
    /// assert_eq!(chunks[1].as_slice()[0].t, 3); // rebased from t=7
    /// # Ok::<(), sne_event::EventError>(())
    /// ```
    #[must_use]
    pub fn chunks(&self, chunk_timesteps: u32) -> Chunks<'_> {
        assert!(chunk_timesteps > 0, "chunk length must be non-zero");
        Chunks {
            stream: self,
            chunk_timesteps,
            next_start: 0,
        }
    }

    /// Downscales the spatial resolution by an integer factor, merging events
    /// that land on the same coarse pixel within the same timestep: of each
    /// such group, the first spike in insertion order survives, at its
    /// insertion position. Non-spike operations pass through unchanged.
    ///
    /// The merge visits the spikes timestep by timestep (a stable sort of
    /// their indices by `t`, linear for time-ordered streams) and marks each
    /// coarse `(ch, y, x)` cell with the number of the timestep group that
    /// last claimed it, so no per-timestep clearing and no hashing is needed.
    #[must_use]
    pub fn downscale(&self, factor: u16) -> EventStream {
        let factor = factor.max(1);
        let geometry = self.downscaled_geometry(factor);
        let width = usize::from(geometry.width);
        let height = usize::from(geometry.height);
        // Per-axis coarse coordinates, tabulated once: no division per
        // event (coordinates past the stream's own extent still divide).
        let axis = |extent: u16, coarse_extent: u16| -> Vec<u16> {
            (0..extent)
                .map(|v| (v / factor).min(coarse_extent - 1))
                .collect()
        };
        let xs = axis(self.geometry.width, geometry.width);
        let ys = axis(self.geometry.height, geometry.height);
        let coarse = |e: &Event| {
            let x = xs.get(usize::from(e.x)).copied();
            let y = ys.get(usize::from(e.y)).copied();
            (
                x.unwrap_or_else(|| (e.x / factor).min(geometry.width - 1)),
                y.unwrap_or_else(|| (e.y / factor).min(geometry.height - 1)),
            )
        };
        let mut order: Vec<usize> = Vec::with_capacity(self.events.len());
        let mut channels = usize::from(geometry.channels);
        for (i, e) in self.events.iter().enumerate() {
            if e.is_spike() {
                order.push(i);
                channels = channels.max(usize::from(e.ch) + 1);
            }
        }
        order.sort_by_key(|&i| self.events[i].t);
        let mut keep = vec![false; self.events.len()];
        let mut stamps = vec![0u32; channels * height * width];
        let mut group = 0u32;
        let mut group_t = None;
        let mut kept = 0usize;
        for &i in &order {
            let e = &self.events[i];
            if group_t != Some(e.t) {
                group_t = Some(e.t);
                group += 1;
            }
            let (x, y) = coarse(e);
            let cell = (usize::from(e.ch) * height + usize::from(y)) * width + usize::from(x);
            if stamps[cell] != group {
                stamps[cell] = group;
                keep[i] = true;
                kept += 1;
            }
        }
        let mut out = EventStream::with_geometry(geometry);
        out.events.reserve(self.events.len() - order.len() + kept);
        for (e, &survives) in self.events.iter().zip(&keep) {
            if !e.is_spike() {
                out.events.push(*e);
            } else if survives {
                let (x, y) = coarse(e);
                out.events.push(Event { x, y, ..*e });
            }
        }
        out
    }

    /// The geometry [`EventStream::downscale`] produces for `factor` (at
    /// least 1 per axis).
    fn downscaled_geometry(&self, factor: u16) -> Geometry {
        Geometry {
            width: (self.geometry.width / factor).max(1),
            height: (self.geometry.height / factor).max(1),
            ..self.geometry
        }
    }

    /// The original `HashSet` formulation of [`EventStream::downscale`], kept
    /// as the reference the stamp-array version is tested against.
    #[cfg(test)]
    fn downscale_reference(&self, factor: u16) -> EventStream {
        let factor = factor.max(1);
        let geometry = self.downscaled_geometry(factor);
        let mut out = EventStream::with_geometry(geometry);
        let mut seen = std::collections::HashSet::new();
        for e in &self.events {
            if !e.is_spike() {
                out.events.push(*e);
                continue;
            }
            let x = (e.x / factor).min(geometry.width - 1);
            let y = (e.y / factor).min(geometry.height - 1);
            if seen.insert((e.t, e.ch, x, y)) {
                out.events.push(Event { x, y, ..*e });
            }
        }
        out
    }
}

/// Iterator over consecutive time windows of a stream, created by
/// [`EventStream::chunks`].
#[derive(Debug, Clone)]
pub struct Chunks<'a> {
    stream: &'a EventStream,
    chunk_timesteps: u32,
    next_start: u32,
}

impl Iterator for Chunks<'_> {
    type Item = EventStream;

    fn next(&mut self) -> Option<EventStream> {
        let total = self.stream.geometry.timesteps;
        if self.next_start >= total {
            return None;
        }
        let start = self.next_start;
        let end = total.min(start.saturating_add(self.chunk_timesteps));
        self.next_start = end;
        Some(self.stream.window(start, end))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self
            .stream
            .geometry
            .timesteps
            .saturating_sub(self.next_start)
            .div_ceil(self.chunk_timesteps) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Chunks<'_> {}

impl<'a> IntoIterator for &'a EventStream {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for EventStream {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl Extend<Event> for EventStream {
    fn extend<T: IntoIterator<Item = Event>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventOp;

    fn stream() -> EventStream {
        EventStream::new(8, 8, 2, 10)
    }

    #[test]
    fn geometry_rejects_zero_dimensions() {
        assert!(Geometry::new(0, 8, 2, 10).is_err());
        assert!(Geometry::new(8, 0, 2, 10).is_err());
        assert!(Geometry::new(8, 8, 0, 10).is_err());
        assert!(Geometry::new(8, 8, 2, 0).is_err());
    }

    #[test]
    fn geometry_volume_is_product_of_dimensions() {
        let g = Geometry::new(8, 4, 2, 10).unwrap();
        assert_eq!(g.spatial_size(), 32);
        assert_eq!(g.frame_size(), 64);
        assert_eq!(g.volume(), 640);
    }

    #[test]
    fn push_validates_coordinates() {
        let mut s = stream();
        assert!(s.push(Event::update(0, 0, 7, 7)).is_ok());
        assert!(s.push(Event::update(0, 0, 8, 0)).is_err());
        assert!(s.push(Event::update(0, 2, 0, 0)).is_err());
        assert!(s.push(Event::update(10, 0, 0, 0)).is_err());
    }

    #[test]
    fn reset_and_fire_skip_spatial_validation() {
        let mut s = stream();
        assert!(s.push(Event::reset(0)).is_ok());
        assert!(s.push(Event::fire(9)).is_ok());
        assert!(s.push(Event::fire(10)).is_err());
    }

    #[test]
    fn activity_counts_only_spikes() {
        let mut s = stream();
        s.push(Event::reset(0)).unwrap();
        s.push(Event::update(0, 0, 1, 1)).unwrap();
        s.push(Event::update(1, 1, 2, 2)).unwrap();
        s.push(Event::fire(1)).unwrap();
        assert_eq!(s.spike_count(), 2);
        let expected = 2.0 / (8.0 * 8.0 * 2.0 * 10.0);
        assert!((s.activity() - expected).abs() < 1e-12);
    }

    #[test]
    fn time_ordering_detection_and_sort() {
        let mut s = stream();
        s.push(Event::update(5, 0, 0, 0)).unwrap();
        s.push(Event::update(2, 0, 0, 0)).unwrap();
        assert!(!s.is_time_ordered());
        s.sort_by_time();
        assert!(s.is_time_ordered());
    }

    #[test]
    fn op_sequence_starts_with_reset_and_has_fire_per_timestep() {
        let mut s = stream();
        s.push(Event::update(0, 0, 1, 1)).unwrap();
        s.push(Event::update(3, 0, 2, 2)).unwrap();
        let ops = s.to_op_sequence();
        assert_eq!(ops[0].op, EventOp::Reset);
        let fires = ops.iter().filter(|e| e.op == EventOp::Fire).count();
        assert_eq!(fires, 10);
        let spikes = ops.iter().filter(|e| e.is_spike()).count();
        assert_eq!(spikes, 2);
        // Spikes must precede the FIRE_OP of their own timestep.
        let fire_t0 = ops
            .iter()
            .position(|e| e.op == EventOp::Fire && e.t == 0)
            .unwrap();
        let spike_t0 = ops.iter().position(|e| e.is_spike() && e.t == 0).unwrap();
        assert!(spike_t0 < fire_t0);
    }

    #[test]
    fn continuing_op_sequence_has_no_reset() {
        let mut s = stream();
        s.push(Event::update(2, 0, 1, 1)).unwrap();
        let mut ops = Vec::new();
        s.to_op_sequence_continuing_into(&mut ops);
        assert!(ops.iter().all(|e| e.op != EventOp::Reset));
        assert_eq!(ops.len(), s.to_op_sequence().len() - 1);
        assert_eq!(
            ops.iter().filter(|e| e.op == EventOp::Fire).count(),
            s.geometry().timesteps as usize
        );
    }

    #[test]
    fn chunks_cover_the_stream_exactly() {
        let mut s = stream();
        for t in 0..10 {
            s.push(Event::update(t, 0, 1, 1)).unwrap();
        }
        let chunks: Vec<_> = s.chunks(3).collect();
        assert_eq!(chunks.len(), 4);
        assert_eq!(
            chunks.iter().map(|c| c.geometry().timesteps).sum::<u32>(),
            10
        );
        assert_eq!(chunks[3].geometry().timesteps, 1);
        assert_eq!(chunks.iter().map(EventStream::len).sum::<usize>(), 10);
        // Every chunk is rebased to start at t=0.
        assert!(chunks.iter().all(|c| c.as_slice()[0].t == 0));
        // A chunk longer than the stream yields the stream itself.
        let whole: Vec<_> = s.chunks(64).collect();
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0], s);
        assert_eq!(s.chunks(3).len(), 4);
    }

    #[test]
    #[should_panic(expected = "chunk length must be non-zero")]
    fn zero_chunk_length_panics() {
        let _ = stream().chunks(0);
    }

    #[test]
    fn window_rebases_time() {
        let mut s = stream();
        s.push(Event::update(4, 0, 1, 1)).unwrap();
        s.push(Event::update(7, 0, 1, 1)).unwrap();
        let w = s.window(4, 8);
        assert_eq!(w.geometry().timesteps, 4);
        assert_eq!(w.len(), 2);
        assert_eq!(w.as_slice()[0].t, 0);
        assert_eq!(w.as_slice()[1].t, 3);
    }

    #[test]
    fn merge_requires_identical_geometry() {
        let mut a = stream();
        let b = EventStream::new(16, 16, 2, 10);
        assert!(a.merge(&b).is_err());
        let mut c = stream();
        c.push(Event::update(1, 0, 0, 0)).unwrap();
        a.push(Event::update(3, 0, 0, 0)).unwrap();
        a.merge(&c).unwrap();
        assert_eq!(a.len(), 2);
        assert!(a.is_time_ordered());
    }

    #[test]
    fn downscale_merges_coincident_events() {
        let mut s = EventStream::new(8, 8, 1, 4);
        s.push(Event::update(0, 0, 0, 0)).unwrap();
        s.push(Event::update(0, 0, 1, 1)).unwrap(); // same coarse pixel as (0,0) at factor 2
        s.push(Event::update(0, 0, 4, 4)).unwrap();
        let d = s.downscale(2);
        assert_eq!(d.geometry().width, 4);
        assert_eq!(d.spike_count(), 2);
    }

    proptest::proptest! {
        /// The stamp-array `downscale` is byte-identical to the `HashSet`
        /// reference: unsorted streams, duplicate (t, ch, x, y) spikes,
        /// interleaved non-spike ops, and factors 1-4 over sizes they do not
        /// divide.
        #[test]
        fn downscale_matches_the_hashset_reference(
            size in (1u16..11, 1u16..11, 1u16..4, 1u32..7),
            factor in 1u16..5,
            ops in proptest::collection::vec((0u8..8, 0u32..7, 0u16..4, 0u16..11, 0u16..11), 0..160),
            repeat in 0u8..2,
        ) {
            let (width, height, channels, timesteps) = size;
            let mut s = EventStream::new(width, height, channels, timesteps);
            for (kind, t, ch, x, y) in ops {
                let t = t % timesteps;
                s.push(match kind {
                    0 => Event::fire(t),
                    1 => Event::reset(t),
                    _ => Event::update(t, ch % channels, x % width, y % height),
                })
                .unwrap();
            }
            if repeat == 1 {
                // Every spike again, in reverse: exact duplicates out of order.
                let again: Vec<Event> = s.iter().rev().copied().collect();
                s.extend(again);
            }
            proptest::prop_assert_eq!(s.downscale(factor), s.downscale_reference(factor));
        }
    }

    #[test]
    fn extend_and_iterators_work() {
        let mut s = stream();
        s.extend([Event::update(0, 0, 1, 1), Event::update(1, 0, 2, 2)]);
        assert_eq!(s.iter().count(), 2);
        assert_eq!((&s).into_iter().count(), 2);
        assert_eq!(s.clone().into_iter().count(), 2);
        assert_eq!(s.into_events().len(), 2);
    }
}
