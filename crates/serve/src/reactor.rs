//! The event core of the serving front-end: a thin, std-only readiness
//! poller over the platform's `epoll(7)` (Linux) or `poll(2)` (other Unix),
//! a coarse timer wheel for per-connection deadlines, and a cross-thread
//! wake pipe.
//!
//! Each of the server's reactor shards multiplexes its connections through
//! its own [`Poller`] (one shard per core by default — DESIGN.md §15): tens
//! of thousands of parked keep-alive sessions cost nothing while idle
//! because the kernel only reports *ready* descriptors (epoll is O(ready),
//! not O(registered)). No `libc` crate is used — the shim declares
//! the handful of symbols it needs via `extern "C"`; std already links the
//! platform C library, so the declarations resolve against it. Raw-syscall
//! plumbing is deliberately out of scope.
//!
//! Deadlines (slow-loris eviction, keep-alive idle timeouts) live in a
//! [`TimerWheel`]: scheduling and expiry are O(1) per timer at a fixed tick
//! granularity, and stale entries are invalidated by generation counters
//! instead of being searched for and removed — re-arming a connection's
//! deadline is just "bump the generation, push a new entry".

use std::ffi::c_int;
use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Readiness interest: which direction(s) of a descriptor the reactor wants
/// to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Self = Self {
        readable: true,
        writable: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the descriptor was registered with.
    pub token: usize,
    /// Bytes (or EOF) can be read without blocking.
    pub readable: bool,
    /// The socket's send buffer has room.
    pub writable: bool,
    /// Error/hang-up condition — the connection should be torn down after a
    /// final read drains whatever the peer left behind.
    pub hangup: bool,
}

// ---------------------------------------------------------------------------
// Linux backend: epoll, O(ready) readiness.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
    use super::{c_int, io, Interest, PollEvent, RawFd};

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event` — the kernel packs it on x86-64 only (the
    /// `EPOLL_PACKED` attribute in the UAPI headers); every other Linux
    /// architecture uses the naturally aligned/padded C layout. The
    /// conditional mirrors the libc crate: packing unconditionally would
    /// shift the `data` offset and shrink the array stride on e.g. aarch64,
    /// corrupting tokens and overrunning the `epoll_wait` buffer.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // Layout guard: the kernel reads/writes exactly these sizes.
    #[cfg(target_arch = "x86_64")]
    const _: () = assert!(std::mem::size_of::<EpollEvent>() == 12);
    #[cfg(not(target_arch = "x86_64"))]
    const _: () = assert!(
        // events (4 bytes) + padding up to u64's alignment (>= 4 on every
        // Linux target) + data (8 bytes): 16 where u64 is 8-aligned, 12
        // where it is 4-aligned — exactly the kernel's unpacked layout.
        std::mem::size_of::<EpollEvent>()
            == std::mem::align_of::<u64>() + std::mem::size_of::<u64>()
    );

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    fn mask(interest: Interest) -> u32 {
        let mut events = EPOLLRDHUP;
        if interest.readable {
            events |= EPOLLIN;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        events
    }

    /// Level-triggered epoll instance. Level-triggering keeps the contract
    /// simple for the connection state machines: interest is explicit, and a
    /// handler that could not finish draining a buffer is re-notified on the
    /// next wait instead of having to guarantee exhaustive reads.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 has no memory-safety preconditions.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, event: Option<&mut EpollEvent>) -> io::Result<()> {
            let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ptr` is null (DEL) or points at a live EpollEvent.
            if unsafe { epoll_ctl(self.epfd, op, fd, ptr) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: mask(interest),
                data: token as u64,
            };
            self.ctl(EPOLL_CTL_ADD, fd, Some(&mut event))
        }

        pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: mask(interest),
                data: token as u64,
            };
            self.ctl(EPOLL_CTL_MOD, fd, Some(&mut event))
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<std::time::Duration>,
        ) -> io::Result<()> {
            events.clear();
            const MAX_EVENTS: usize = 256;
            let mut raw: [EpollEvent; MAX_EVENTS] =
                std::array::from_fn(|_| EpollEvent { events: 0, data: 0 });
            // Round a fractional-millisecond timeout up so a pending timer
            // cannot turn the wait into a sub-ms spin loop.
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(t) if t.is_zero() => 0,
                Some(t) => {
                    let ms = t.as_millis() + u128::from(t.subsec_nanos() % 1_000_000 != 0);
                    c_int::try_from(ms).unwrap_or(c_int::MAX)
                }
            };
            // SAFETY: `raw` is a live buffer of MAX_EVENTS epoll_event slots.
            let n =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for slot in raw.iter().take(n as usize) {
                let bits = slot.events;
                events.push(PollEvent {
                    token: slot.data as usize,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd came from epoll_create1 and is closed exactly once.
            unsafe { close(self.epfd) };
        }
    }
}

// ---------------------------------------------------------------------------
// Portable Unix fallback: poll(2), O(registered) per wait.
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{c_int, io, Interest, PollEvent, RawFd};
    use std::collections::HashMap;

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    const POLLERR: i16 = 0x8;
    const POLLHUP: i16 = 0x10;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    }

    /// `poll(2)`-backed poller: a registry of descriptors rebuilt into a
    /// pollfd array per wait. O(n) per call, but portable — the Linux epoll
    /// backend is the production path.
    #[derive(Debug)]
    pub struct Poller {
        registry: HashMap<RawFd, (usize, Interest)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                registry: HashMap::new(),
            })
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.registry.insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.registry.insert(fd, (token, interest));
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.registry.remove(&fd);
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<PollEvent>,
            timeout: Option<std::time::Duration>,
        ) -> io::Result<()> {
            events.clear();
            let mut fds: Vec<PollFd> = self
                .registry
                .iter()
                .map(|(&fd, &(_, interest))| PollFd {
                    fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            // Mirrors the epoll backend: zero means "return immediately"
            // (a timer tick is already due), and fractional milliseconds
            // round up so a pending timer cannot become a sub-ms spin loop.
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(t) if t.is_zero() => 0,
                Some(t) => {
                    let ms = t.as_millis() + u128::from(t.subsec_nanos() % 1_000_000 != 0);
                    c_int::try_from(ms).unwrap_or(c_int::MAX)
                }
            };
            // SAFETY: `fds` is a live array of initialized pollfd entries.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for slot in &fds {
                if slot.revents == 0 {
                    continue;
                }
                let (token, _) = self.registry[&slot.fd];
                events.push(PollEvent {
                    token,
                    readable: slot.revents & (POLLIN | POLLHUP) != 0,
                    writable: slot.revents & POLLOUT != 0,
                    hangup: slot.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

/// The platform readiness poller (epoll on Linux, `poll(2)` elsewhere on
/// Unix). One instance per reactor thread; descriptors are identified by the
/// caller-chosen `token` echoed back in [`PollEvent`].
#[derive(Debug)]
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// A fresh poller instance.
    ///
    /// # Errors
    ///
    /// Propagates the kernel's instance-creation failure.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            inner: sys::Poller::new()?,
        })
    }

    /// Starts watching `fd` for `interest`, tagging reports with `token`.
    ///
    /// # Errors
    ///
    /// Propagates the registration failure (e.g. fd limit).
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.inner.register(fd, token, interest)
    }

    /// Changes the interest (and token) of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// Propagates the modification failure.
    pub fn modify(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd, token, interest)
    }

    /// Stops watching `fd`. Must be called before the descriptor is closed.
    ///
    /// # Errors
    ///
    /// Propagates the deregistration failure.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Blocks until at least one descriptor is ready or `timeout` elapses
    /// (`None` = wait forever), filling `events` with the ready set.
    ///
    /// # Errors
    ///
    /// Propagates kernel failures; `EINTR` is swallowed (empty event set).
    pub fn wait(
        &mut self,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        self.inner.wait(events, timeout)
    }
}

// ---------------------------------------------------------------------------
// Wake pipe
// ---------------------------------------------------------------------------

/// A cross-thread wakeup for the reactor: scheduler worker threads finish a
/// job, enqueue the response bytes, and [`Waker::wake`] the reactor out of
/// its poll. Built on a nonblocking `UnixStream` pair — the read half is
/// registered with the [`Poller`] like any connection.
#[derive(Debug)]
pub struct WakePipe {
    read: std::os::unix::net::UnixStream,
    write: std::sync::Arc<std::os::unix::net::UnixStream>,
}

/// The sending half of a [`WakePipe`]; clonable and shareable across
/// threads.
#[derive(Debug, Clone)]
pub struct Waker {
    write: std::sync::Arc<std::os::unix::net::UnixStream>,
}

impl Waker {
    /// Wakes the reactor. A full pipe already guarantees a pending wakeup,
    /// so `WouldBlock` (and any other failure) is ignored.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&*self.write).write(&[1]);
    }
}

impl WakePipe {
    /// A fresh pipe, both halves nonblocking.
    ///
    /// # Errors
    ///
    /// Propagates socket-pair creation failures.
    pub fn new() -> io::Result<Self> {
        let (read, write) = std::os::unix::net::UnixStream::pair()?;
        read.set_nonblocking(true)?;
        write.set_nonblocking(true)?;
        Ok(Self {
            read,
            write: std::sync::Arc::new(write),
        })
    }

    /// The raw fd to register with the poller (read interest).
    #[must_use]
    pub fn fd(&self) -> RawFd {
        std::os::fd::AsRawFd::as_raw_fd(&self.read)
    }

    /// A sending handle for other threads.
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker {
            write: std::sync::Arc::clone(&self.write),
        }
    }

    /// Consumes every pending wake byte (level-triggered registration would
    /// otherwise re-report it forever).
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        while matches!((&self.read).read(&mut sink), Ok(n) if n > 0) {}
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

/// One armed deadline. `gen` is the owning connection's generation at arm
/// time: when the wheel reports the entry expired, the owner compares
/// generations and ignores stale entries — deadlines are never searched for
/// and removed, they just rot in place until their slot comes round.
#[derive(Debug, Clone, Copy)]
pub struct TimerEntry {
    /// Connection token the deadline belongs to.
    pub token: usize,
    /// The connection's deadline generation at scheduling time.
    pub gen: u64,
    /// The actual deadline (slot placement is coarse; expiry is exact).
    pub deadline: Instant,
}

/// A single-level coarse-grained timer wheel: `slots` buckets of
/// `granularity` each, a cursor sweeping them as time advances. Scheduling
/// is O(1); each tick drains one bucket. Deadlines beyond the horizon are
/// parked in the furthest bucket and re-scheduled when the cursor reaches
/// them, so any deadline is representable.
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    granularity: Duration,
    /// Left edge of `slots[cursor]`'s time window.
    cursor_time: Instant,
    cursor: usize,
    armed: usize,
}

impl TimerWheel {
    /// A wheel covering `horizon` at `granularity` per slot (both floored to
    /// sane minimums).
    #[must_use]
    pub fn new(granularity: Duration, horizon: Duration) -> Self {
        let granularity = granularity.max(Duration::from_millis(1));
        let slots = (horizon.as_nanos() / granularity.as_nanos()).clamp(4, 1 << 16) as usize + 1;
        Self {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity,
            cursor_time: Instant::now(),
            cursor: 0,
            armed: 0,
        }
    }

    /// Arms a deadline for `token` at generation `gen`.
    pub fn schedule(&mut self, token: usize, gen: u64, deadline: Instant) {
        let entry = TimerEntry {
            token,
            gen,
            deadline,
        };
        let offset = deadline.saturating_duration_since(self.cursor_time);
        let ticks =
            (offset.as_nanos() / self.granularity.as_nanos()).min(self.slots.len() as u128 - 1);
        let index = (self.cursor + ticks as usize) % self.slots.len();
        self.slots[index].push(entry);
        self.armed += 1;
    }

    /// How long the reactor may sleep before the next armed deadline could
    /// fire (`None` when nothing is armed). Coarse: at most one granularity
    /// early, never late by more than one tick.
    #[must_use]
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.armed == 0 {
            return None;
        }
        let edge = self.cursor_time + self.granularity;
        Some(edge.saturating_duration_since(now))
    }

    /// Advances the cursor to `now`, appending every expired entry to
    /// `expired` (stale-generation filtering is the caller's job). Entries
    /// whose true deadline lies beyond the drained bucket (horizon overflow)
    /// are re-scheduled, not expired.
    pub fn advance(&mut self, now: Instant, expired: &mut Vec<TimerEntry>) {
        while self.cursor_time + self.granularity <= now {
            if self.armed == 0 {
                // Nothing armed anywhere: fast-forward instead of sweeping
                // empty buckets one tick at a time after a long quiet sleep.
                let behind = now.saturating_duration_since(self.cursor_time);
                let ticks = (behind.as_nanos() / self.granularity.as_nanos()) as usize;
                self.cursor = (self.cursor + ticks % self.slots.len()) % self.slots.len();
                self.cursor_time += self.granularity * ticks as u32;
                return;
            }
            let bucket = std::mem::take(&mut self.slots[self.cursor]);
            self.cursor = (self.cursor + 1) % self.slots.len();
            self.cursor_time += self.granularity;
            for entry in bucket {
                self.armed -= 1;
                if entry.deadline <= now {
                    expired.push(entry);
                } else {
                    self.schedule(entry.token, entry.gen, entry.deadline);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_reports_readable_after_write() {
        let (mut a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "nothing written yet");
        a.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut sink = [0u8; 4];
        let mut b_read = &b;
        assert_eq!(b_read.read(&mut sink).unwrap(), 1);
        poller.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn poller_write_interest_and_modify() {
        let (a, _b) = std::os::unix::net::UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        let write_only = Interest {
            readable: false,
            writable: true,
        };
        poller.register(a.as_raw_fd(), 1, write_only).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        // Drop write interest: no more reports.
        poller.modify(a.as_raw_fd(), 1, Interest::READ).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn wake_pipe_round_trip() {
        let pipe = WakePipe::new().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(pipe.fd(), 0, Interest::READ).unwrap();
        let waker = pipe.waker();
        let handle = std::thread::spawn(move || waker.wake());
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable));
        pipe.drain();
        handle.join().unwrap();
        // Drained: the level-triggered read interest goes quiet again.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn timer_wheel_expires_in_order_and_respects_generations() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(10), Duration::from_secs(1));
        wheel.schedule(1, 0, start + Duration::from_millis(25));
        wheel.schedule(2, 3, start + Duration::from_millis(5));
        assert_eq!(wheel.armed, 2);
        let mut expired = Vec::new();
        wheel.advance(start + Duration::from_millis(12), &mut expired);
        assert_eq!(expired.len(), 1);
        assert_eq!((expired[0].token, expired[0].gen), (2, 3));
        expired.clear();
        wheel.advance(start + Duration::from_millis(40), &mut expired);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].token, 1);
        assert_eq!(wheel.armed, 0);
        assert!(wheel.next_timeout(start).is_none());
    }

    #[test]
    fn timer_wheel_reschedules_beyond_horizon() {
        let start = Instant::now();
        // 4-ish slots of 10 ms: a 200 ms deadline overflows the horizon.
        let mut wheel = TimerWheel::new(Duration::from_millis(10), Duration::from_millis(40));
        wheel.schedule(9, 1, start + Duration::from_millis(200));
        let mut expired = Vec::new();
        wheel.advance(start + Duration::from_millis(100), &mut expired);
        assert!(expired.is_empty(), "deadline not reached yet");
        assert_eq!(wheel.armed, 1, "overflowed entry re-parked");
        wheel.advance(start + Duration::from_millis(230), &mut expired);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].token, 9);
    }

    #[test]
    fn timer_wheel_fast_forwards_when_empty() {
        let start = Instant::now();
        let mut wheel = TimerWheel::new(Duration::from_millis(5), Duration::from_millis(100));
        let mut expired = Vec::new();
        // A long quiet gap with nothing armed must not sweep per-tick.
        wheel.advance(start + Duration::from_secs(30), &mut expired);
        assert!(expired.is_empty());
        wheel.schedule(
            3,
            0,
            start + Duration::from_secs(30) + Duration::from_millis(7),
        );
        wheel.advance(start + Duration::from_secs(31), &mut expired);
        assert_eq!(expired.len(), 1);
    }
}
