//! Raw OS readiness primitives, declared directly against the platform
//! C library.
//!
//! The workspace is deliberately dependency-free (every third-party
//! crate resolves to an offline shim), so there is no `libc` crate to
//! lean on. `std` already links the system C library into every binary;
//! these `extern "C"` declarations only *name* symbols that linkage
//! already provides: `epoll_*` on Linux, plus the portable `poll`,
//! `pipe`, and `fcntl` used by the fallback backend and the reactor's
//! self-pipe waker.
//!
//! Everything here is `cfg(unix)`, and so is the event-loop server
//! built on it: serving needs a unix target.

#![cfg(unix)]

use std::fs::File;
use std::io;
use std::os::fd::{FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_ulong};

/// Linux `epoll(7)` ABI. Constants mirror `<sys/epoll.h>`.
#[cfg(target_os = "linux")]
pub mod epoll {
    use super::{c_int, RawFd};

    /// One readiness record, kernel layout. x86-64 packs the struct
    /// (kernel ABI quirk); other architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        /// Readiness bit set (`EPOLLIN` | ...).
        pub events: u32,
        /// User data echoed back verbatim — we store the connection token.
        pub data: u64,
    }

    /// Readable.
    pub const EPOLLIN: u32 = 0x001;
    /// Writable.
    pub const EPOLLOUT: u32 = 0x004;
    /// Error condition.
    pub const EPOLLERR: u32 = 0x008;
    /// Hangup.
    pub const EPOLLHUP: u32 = 0x010;
    /// Peer shut down the write half.
    pub const EPOLLRDHUP: u32 = 0x2000;
    /// `epoll_ctl` op: register.
    pub const EPOLL_CTL_ADD: c_int = 1;
    /// `epoll_ctl` op: deregister.
    pub const EPOLL_CTL_DEL: c_int = 2;
    /// `epoll_ctl` op: change interest.
    pub const EPOLL_CTL_MOD: c_int = 3;
    /// Close the epoll fd on exec.
    pub const EPOLL_CLOEXEC: c_int = 0x80000;

    extern "C" {
        /// Creates an epoll instance; returns its fd or -1.
        pub fn epoll_create1(flags: c_int) -> c_int;
        /// Adds/modifies/removes `fd` on the instance `epfd`.
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: RawFd, event: *mut EpollEvent) -> c_int;
        /// Blocks up to `timeout` ms for readiness; returns event count.
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

/// One `poll(2)` registration, C layout (`struct pollfd`).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` | `POLLOUT`).
    pub events: i16,
    /// Returned events.
    pub revents: i16,
}

/// Readable (poll flavor).
pub const POLLIN: i16 = 0x001;
/// Writable (poll flavor).
pub const POLLOUT: i16 = 0x004;
/// Error (returned only).
pub const POLLERR: i16 = 0x008;
/// Hangup (returned only).
pub const POLLHUP: i16 = 0x010;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0x800;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x4;

extern "C" {
    /// Portable readiness multiplexer; `nfds_t` is `unsigned long` on
    /// every platform this workspace targets.
    pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    fn fcntl(fd: RawFd, cmd: c_int, arg: c_int) -> c_int;
}

/// Puts `fd` into nonblocking mode via `fcntl(F_SETFL, O_NONBLOCK)`.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: F_GETFL reads the descriptor's status flags; `fd` is a
    // live descriptor owned by the caller and no memory is passed.
    let flags = unsafe { fcntl(fd, F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: F_SETFL only updates status flags on a descriptor the
    // caller owns; the argument is a plain integer.
    if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Creates a nonblocking self-pipe `(read_end, write_end)`.
///
/// The reactor parks in `epoll_wait`/`poll` on the read end; any thread
/// can wake it by writing one byte to the write end. Both ends are
/// wrapped in [`File`] so they close on drop and expose `Read`/`Write`
/// without further unsafe code.
pub fn pipe_pair() -> io::Result<(File, File)> {
    let mut fds: [c_int; 2] = [-1, -1];
    // SAFETY: `pipe` writes exactly two descriptors into the array we
    // hand it; the array outlives the call.
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the kernel just handed us exclusive ownership of both
    // descriptors; wrapping them in OwnedFd transfers that ownership
    // (each fd is wrapped exactly once, so no double close).
    let read_fd = unsafe { OwnedFd::from_raw_fd(fds[0]) };
    // SAFETY: as above, for the write end.
    let write_fd = unsafe { OwnedFd::from_raw_fd(fds[1]) };
    set_nonblocking(fds[0])?;
    set_nonblocking(fds[1])?;
    Ok((File::from(read_fd), File::from(write_fd)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn pipe_pair_wakes_and_drains() {
        let (mut rx, mut tx) = pipe_pair().unwrap();
        // Nonblocking empty read reports WouldBlock, not EOF.
        let mut byte = [0u8; 8];
        let err = rx.read(&mut byte).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        tx.write_all(&[1]).unwrap();
        assert_eq!(rx.read(&mut byte).unwrap(), 1);
    }

    #[test]
    fn poll_sees_pipe_readable() {
        use std::os::fd::AsRawFd;
        let (rx, mut tx) = pipe_pair().unwrap();
        tx.write_all(&[7]).unwrap();
        let mut fds = [PollFd {
            fd: rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        // SAFETY: `fds` is a live array of one initialized PollFd and
        // nfds matches its length.
        let n = unsafe { poll(fds.as_mut_ptr(), 1, 1000) };
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
    }
}
