//! Scheduling of the benchmark's own threads.
//!
//! On a small virtual machine a thread the scheduler moves between CPUs
//! can run at two very different speeds for a whole run, which swamps
//! any change worth measuring. The benchmark therefore pins its threads:
//! the load generator and the oracle on one CPU, the server on another.
//! A thread inherits the pin of the thread that spawned it.

use std::io;

/// 64-bit words of a `cpu_set_t`: room for 1024 CPUs.
const SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Where the benchmark's threads run.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// The main thread, the load generator and the oracle.
    pub client: usize,
    /// The server and every thread it spawns.
    pub server: usize,
}

/// Picks the first two CPUs this process may use; with one CPU, both
/// sides share it.
pub fn placement() -> io::Result<Placement> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // alive for the whole call; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let mut cpus = (0..SET_WORDS * 64).filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0);
    let client = cpus
        .next()
        .ok_or_else(|| io::Error::other("no CPU in the affinity mask"))?;
    let server = cpus.next().unwrap_or(client);
    Ok(Placement { client, server })
}

/// Pins the calling thread to `cpu`.
pub fn pin(cpu: usize) -> io::Result<()> {
    if cpu >= SET_WORDS * 64 {
        return Err(io::Error::other(format!("CPU {cpu} is out of range")));
    }
    let mut mask = [0u64; SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed,
    // alive for the whole call; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}
