//! The one host execution policy of the simulator.
//!
//! SNE's slices run in lock step behind the C-XBAR inside one engine, and
//! the cycle model charges them that way, so host threads per slice could
//! only ever move wall-clock time. They no longer paid for it (DESIGN.md
//! §8), and the structure is now the only policy: an engine runs every
//! mapping pass on the thread that owns it, and a fleet
//! (`sne::batch::Scheduler`) runs exactly one worker thread per engine.
//!
//! [`ExecStrategy`] is what is left of the old choice: a one-variant enum
//! whose value nothing reads. It survives only as the argument of the three
//! calls the repository benchmark makes (`RuntimeArtifact::new_engine`,
//! `InferenceSession::from_artifact` and `ServerBuilder::register`);
//! ROADMAP item 6's benchmark PR drops it from those calls, then the type.

/// The host execution strategy: always [`ExecStrategy::Sequential`]. The
/// value is unused and no caller can ask for threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecStrategy {
    /// Every mapping pass runs on the engine's own thread.
    #[default]
    Sequential,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_the_default_single_thread() {
        assert_eq!(ExecStrategy::default(), ExecStrategy::Sequential);
    }
}
