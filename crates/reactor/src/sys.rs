//! Raw readiness syscalls — the only platform-specific code in the crate.
//!
//! On Linux (x86_64 / aarch64) the epoll family is invoked directly via
//! inline-assembly syscalls, the same idiom `saad_core::affinity` uses
//! for `sched_setaffinity`: no libc crate, no bindings to maintain, and
//! the kernel ABI for these calls has been frozen for two decades. Every
//! other Unix falls back to `poll(2)` through the C library the Rust
//! standard library already links.
//!
//! Error discipline: a negative return from a raw syscall *is* the
//! negated errno; it is converted to [`std::io::Error`] immediately so
//! callers never see raw return values.

#![allow(dead_code)]

use std::io;

/// One epoll readiness record, laid out exactly as the kernel ABI
/// requires: packed on x86_64 (a quirk the kernel inherited from the
/// 32-bit ABI), naturally aligned everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLPRI: u32 = 0x002;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
pub(crate) const EPOLLET: u32 = 1 << 31;

pub(crate) const EPOLL_CTL_ADD: i32 = 1;
pub(crate) const EPOLL_CTL_DEL: i32 = 2;
pub(crate) const EPOLL_CTL_MOD: i32 = 3;

/// `EPOLL_CLOEXEC` — same bit as `O_CLOEXEC`.
const EPOLL_CLOEXEC: i32 = 0x80000;

const EINTR: i32 = 4;

/// Whether the raw-epoll backend exists on this build target.
pub(crate) const HAVE_EPOLL: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod raw {
    #[cfg(target_arch = "x86_64")]
    pub(super) mod nr {
        pub const EPOLL_CREATE1: usize = 291;
        pub const EPOLL_CTL: usize = 233;
        pub const EPOLL_PWAIT: usize = 281;
        pub const CLOSE: usize = 3;
    }

    #[cfg(target_arch = "aarch64")]
    pub(super) mod nr {
        pub const EPOLL_CREATE1: usize = 20;
        pub const EPOLL_CTL: usize = 21;
        pub const EPOLL_PWAIT: usize = 22;
        pub const CLOSE: usize = 57;
    }

    /// Six-argument raw syscall; unused argument slots pass zero, which
    /// every call here tolerates.
    ///
    /// # Safety
    ///
    /// The caller must pass pointers valid for the kernel's access
    /// pattern of syscall `n`.
    #[cfg(target_arch = "x86_64")]
    pub(super) unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: the x86_64 Linux syscall ABI — number in rax, arguments
        // in rdi, rsi, rdx, r10, r8, r9, result in rax, rcx and r11
        // clobbered by the instruction — is exactly what the operands
        // declare, and `syscall` does not touch the stack (`nostack`).
        // What the kernel does with the arguments is the caller's
        // obligation under `# Safety`.
        std::arch::asm!(
            "syscall",
            inlateout("rax") n as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// # Safety
    ///
    /// See the x86_64 variant.
    #[cfg(target_arch = "aarch64")]
    pub(super) unsafe fn syscall6(
        n: usize,
        a: usize,
        b: usize,
        c: usize,
        d: usize,
        e: usize,
        f: usize,
    ) -> isize {
        let ret: isize;
        // SAFETY: the aarch64 Linux syscall ABI — number in x8, arguments
        // in x0..x5, result in x0, no other register clobbered — is
        // exactly what the operands declare, and `svc 0` does not touch
        // the stack (`nostack`). What the kernel does with the arguments
        // is the caller's obligation under `# Safety`.
        std::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod epoll_impl {
    use super::raw::{nr, syscall6};
    use super::{EpollEvent, EINTR, EPOLL_CLOEXEC};
    use std::io;

    fn check(ret: isize) -> io::Result<isize> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    pub(crate) fn epoll_create1() -> io::Result<i32> {
        // SAFETY: `epoll_create1` takes one integer flag and no pointer.
        let ret = unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC as usize, 0, 0, 0, 0, 0) };
        check(ret).map(|fd| fd as i32)
    }

    pub(crate) fn epoll_ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let ev = EpollEvent { events, data };
        let evp = if op == super::EPOLL_CTL_DEL {
            std::ptr::null::<EpollEvent>() as usize
        } else {
            &ev as *const EpollEvent as usize
        };
        // SAFETY: the one pointer argument is null for `EPOLL_CTL_DEL`
        // (allowed since Linux 2.6.9) and otherwise points at `ev`, a
        // live local laid out as the kernel's `struct epoll_event`, which
        // the kernel only reads, before the call returns.
        let ret = unsafe {
            syscall6(
                nr::EPOLL_CTL,
                epfd as usize,
                op as usize,
                fd as usize,
                evp,
                0,
                0,
            )
        };
        check(ret).map(|_| ())
    }

    /// Wait for readiness; `timeout_ms < 0` blocks indefinitely. Retries
    /// `EINTR` internally (a signal is not an event).
    pub(crate) fn epoll_wait(
        epfd: i32,
        events: &mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<usize> {
        loop {
            // epoll_pwait with a null sigmask == epoll_wait; aarch64 has
            // no epoll_wait syscall at all, so pwait is the portable one.
            // SAFETY: the kernel writes at most `events.len()` records
            // through `events.as_mut_ptr()`, a live exclusive borrow of
            // exactly that many `EpollEvent`s in the kernel's layout; the
            // sigmask pointer is null, which `epoll_pwait` accepts.
            let ret = unsafe {
                syscall6(
                    nr::EPOLL_PWAIT,
                    epfd as usize,
                    events.as_mut_ptr() as usize,
                    events.len(),
                    timeout_ms as isize as usize,
                    0, // sigmask: null
                    8, // sigsetsize (ignored with a null mask)
                )
            };
            match check(ret) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.raw_os_error() == Some(EINTR) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    pub(crate) fn close_fd(fd: i32) {
        // SAFETY: `close` takes one integer and no pointer. The one caller,
        // `Poller::drop`, passes the epoll fd it created and owns, once,
        // so no fd another owner still uses is closed.
        let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub(crate) use epoll_impl::{close_fd, epoll_create1, epoll_ctl, epoll_wait};

// On targets without the raw-epoll backend, provide stubs so the
// facade compiles; `Poller::new` never selects epoll there.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod epoll_stub {
    use super::EpollEvent;
    use std::io;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll backend not available on this target",
        ))
    }

    pub(crate) fn epoll_create1() -> io::Result<i32> {
        unsupported()
    }

    pub(crate) fn epoll_ctl(
        _epfd: i32,
        _op: i32,
        _fd: i32,
        _events: u32,
        _data: u64,
    ) -> io::Result<()> {
        unsupported()
    }

    pub(crate) fn epoll_wait(
        _epfd: i32,
        _events: &mut [EpollEvent],
        _timeout_ms: i32,
    ) -> io::Result<usize> {
        unsupported()
    }

    pub(crate) fn close_fd(_fd: i32) {}
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub(crate) use epoll_stub::{close_fd, epoll_create1, epoll_ctl, epoll_wait};

// ---------------------------------------------------------------------------
// poll(2) fallback — POSIX, via the C library std already links.
// ---------------------------------------------------------------------------

/// `struct pollfd` as POSIX specifies it.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct PollFd {
    pub fd: i32,
    pub events: i16,
    pub revents: i16,
}

pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLPRI: i16 = 0x002;
pub(crate) const POLLOUT: i16 = 0x004;
pub(crate) const POLLERR: i16 = 0x008;
pub(crate) const POLLHUP: i16 = 0x010;
pub(crate) const POLLNVAL: i16 = 0x020;

#[cfg(unix)]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// `poll(2)` over `fds`; `timeout_ms < 0` blocks indefinitely. Retries
/// `EINTR` like the epoll path.
#[cfg(unix)]
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a live exclusive borrow of `fds.len()` entries
        // laid out as POSIX `struct pollfd` (`repr(C)`, three fields);
        // `poll` reads and writes only those entries, before it returns.
        let ret = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
        if ret >= 0 {
            return Ok(ret as usize);
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() == Some(EINTR) {
            continue;
        }
        return Err(err);
    }
}

#[cfg(not(unix))]
pub(crate) fn poll_fds(_fds: &mut [PollFd], _timeout_ms: i32) -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "poll backend requires a Unix platform",
    ))
}

// ---------------------------------------------------------------------------
// Socket-buffer clamp — POSIX setsockopt, via the C library std links.
// ---------------------------------------------------------------------------

/// `SOL_SOCKET` / `SO_RCVBUF` as the platform ABI defines them.
#[cfg(any(target_os = "linux", target_os = "android"))]
const SOL_SOCKET: std::ffi::c_int = 1;
#[cfg(any(target_os = "linux", target_os = "android"))]
const SO_RCVBUF: std::ffi::c_int = 8;
#[cfg(any(target_os = "linux", target_os = "android"))]
const SO_SNDBUF: std::ffi::c_int = 7;
#[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
const SOL_SOCKET: std::ffi::c_int = 0xffff;
#[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
const SO_RCVBUF: std::ffi::c_int = 0x1002;
#[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
const SO_SNDBUF: std::ffi::c_int = 0x1001;

#[cfg(unix)]
extern "C" {
    fn setsockopt(
        fd: std::ffi::c_int,
        level: std::ffi::c_int,
        optname: std::ffi::c_int,
        optval: *const std::ffi::c_void,
        optlen: u32,
    ) -> std::ffi::c_int;
}

/// Clamp one of a socket's kernel buffers to `bytes` (the kernel may
/// round; Linux doubles the value for bookkeeping). Setting an explicit
/// size also disables that buffer's autotuning on Linux, which is the
/// point: it bounds per-connection kernel memory at high fan-in and
/// keeps backpressure timing reproducible.
#[cfg(unix)]
fn set_buffer_fd(fd: i32, opt: std::ffi::c_int, bytes: usize) -> io::Result<()> {
    let val = bytes.min(i32::MAX as usize) as std::ffi::c_int;
    // SAFETY: `optval` points at `val`, a live local `c_int`, and `optlen`
    // is its size; `setsockopt` only reads that many bytes, before it
    // returns. A bad `fd` is an `EBADF` error, not undefined behaviour.
    let ret = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            opt,
            &val as *const std::ffi::c_int as *const std::ffi::c_void,
            std::mem::size_of::<std::ffi::c_int>() as u32,
        )
    };
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

#[cfg(unix)]
pub(crate) fn set_recv_buffer_fd(fd: i32, bytes: usize) -> io::Result<()> {
    set_buffer_fd(fd, SO_RCVBUF, bytes)
}

#[cfg(unix)]
pub(crate) fn set_send_buffer_fd(fd: i32, bytes: usize) -> io::Result<()> {
    set_buffer_fd(fd, SO_SNDBUF, bytes)
}
