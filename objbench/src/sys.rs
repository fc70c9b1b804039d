//! The few OS calls the benchmark needs beyond `std`: a nanosecond-timeout
//! `ppoll(2)` for the open-loop sender and `sched_{get,set}affinity(2)` for
//! placement, bound with `extern "C"` in the style of `vendor/polling`.

use std::io;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

pub const POLLIN: c_short = 0x001;
pub const POLLOUT: c_short = 0x004;

#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// Room for 1024 CPUs, the size glibc's `cpu_set_t` uses.
const MASK_WORDS: usize = 1024 / 64;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
}

const PR_SET_TIMERSLACK: c_int = 29;

/// Lets the calling thread's timed waits end within `ns` of their deadline
/// (the default slack is 50 µs).
pub fn set_timer_slack(ns: u64) -> io::Result<()> {
    // SAFETY: plain integer arguments; no memory is passed.
    if unsafe { prctl(PR_SET_TIMERSLACK, ns as c_ulong, 0, 0, 0) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

pub fn poll_fd(fd: RawFd, events: c_short) -> PollFd {
    PollFd {
        fd,
        events,
        revents: 0,
    }
}

/// Waits until an fd in `fds` is ready or `timeout` passes; returns the
/// number of ready fds (0 on timeout or on a signal).
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fds` is a valid, exclusively borrowed slice of `#[repr(C)]`
    // pollfd records and its length is passed alongside; `ts` outlives the
    // call; a null sigmask leaves the signal mask unchanged.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(e);
    }
    Ok(n as usize)
}

/// Restricts the calling thread, and every thread it starts later, to `cpus`.
pub fn set_affinity(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu >= MASK_WORDS * 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cpu index too large",
            ));
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live array of exactly the byte size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The CPUs the calling thread may run on.
pub fn affinity() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable array of exactly the byte size
    // passed; the kernel writes at most that many bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// Renders a CPU list in the kernel's range form, e.g. `0-1,3`.
pub fn cpu_list(cpus: &[usize]) -> String {
    let mut parts = Vec::new();
    let mut i = 0;
    while i < cpus.len() {
        let start = cpus[i];
        while i + 1 < cpus.len() && cpus[i + 1] == cpus[i] + 1 {
            i += 1;
        }
        parts.push(if cpus[i] == start {
            start.to_string()
        } else {
            format!("{start}-{}", cpus[i])
        });
        i += 1;
    }
    parts.join(",")
}

/// Parses a CPU list such as `0-1,3`.
pub fn parse_cpu_list(s: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in s.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => cpus.extend(a.parse::<usize>().ok()?..=b.parse::<usize>().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}
