//! The few operating-system calls the standard library does not offer:
//! socket receive-buffer size, thread placement, and a precise wait for
//! readability. Linux only; other platforms get harmless fallbacks.

use std::io;
use std::net::UdpSocket;
use std::time::Duration;

/// Ask the kernel for a `bytes`-byte receive buffer on `sock`.
#[cfg(target_os = "linux")]
pub(crate) fn set_recv_buffer(sock: &UdpSocket, bytes: i32) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};
    extern "C" {
        fn setsockopt(fd: c_int, level: c_int, name: c_int, val: *const c_void, len: u32) -> c_int;
    }
    const SOL_SOCKET: c_int = 1;
    const SO_RCVBUF: c_int = 8;
    // SAFETY: the descriptor is open for the lifetime of `sock`, and the
    // option value points at a live `c_int` whose size is passed alongside.
    let rc = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&bytes as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Other platforms keep their default buffer.
#[cfg(not(target_os = "linux"))]
pub(crate) fn set_recv_buffer(_sock: &UdpSocket, _bytes: i32) -> io::Result<()> {
    Ok(())
}

/// Pin the calling thread to CPU `cpu` (best effort: an error, or a
/// machine without that CPU, leaves the thread where the scheduler put
/// it). The node and the generator each get a core of their own, so
/// neither waits for a time slice behind the other.
#[cfg(target_os = "linux")]
pub(crate) fn pin_to_cpu(cpu: usize) {
    use std::os::raw::{c_int, c_void};
    extern "C" {
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_void) -> c_int;
    }
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and the mask pointer refers
    // to a live buffer of exactly the size passed.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr().cast()) };
}

/// Other platforms leave thread placement to the scheduler.
#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_to_cpu(_cpu: usize) {}

/// Sleep until `sock` is readable or `timeout` has passed, with
/// microsecond precision (`ppoll` on a high-resolution timer with 1 µs
/// slack), so the generator neither spins a core nor wakes late.
#[cfg(target_os = "linux")]
pub(crate) fn wait_readable(sock: &UdpSocket, timeout: Duration) {
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[repr(C)]
    struct TimeSpec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, n: c_ulong, ts: *const TimeSpec, mask: *const c_void) -> c_int;
        fn prctl(
            option: c_int,
            arg2: c_ulong,
            arg3: c_ulong,
            arg4: c_ulong,
            arg5: c_ulong,
        ) -> c_int;
    }
    const POLLIN: c_short = 1;
    const PR_SET_TIMERSLACK: c_int = 29;
    thread_local!(static SLACK_SET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });
    if !SLACK_SET.get() {
        // SAFETY: PR_SET_TIMERSLACK takes a plain integer and affects only
        // the calling thread.
        unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
        SLACK_SET.set(true);
    }
    let mut fd = PollFd {
        fd: sock.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = TimeSpec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: one valid pollfd for a descriptor `sock` keeps open, a live
    // timespec, and no signal mask.
    unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
}

/// Other platforms wait by yielding.
#[cfg(not(target_os = "linux"))]
pub(crate) fn wait_readable(_sock: &UdpSocket, _timeout: Duration) {
    std::thread::yield_now();
}
