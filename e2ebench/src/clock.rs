//! The benchmark's CPU and its clock.
//!
//! Every thread of a run (client threads and the platform's backend
//! threads alike) is confined to one CPU, so a ring round trip wakes a
//! thread on the same CPU instead of a sleeping CPU whose wake-up time
//! depends on the host's other tenants. Throughput and set-up time are
//! read on the *own-time* clock: the process's CPU time plus the time
//! that CPU sat idle. It runs at wall speed while the benchmark has its
//! CPU, and stops while the host or another process holds it, so a busy
//! host does not count against the program. Idle time is counted, so
//! waiting the program does on that CPU still counts against it.

use std::sync::OnceLock;

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// The CPU a run is confined to, once [`pin_to_one_cpu`] has run.
static PINNED: OnceLock<usize> = OnceLock::new();

/// Confine this thread, and every thread it spawns from now on, to the
/// highest-numbered CPU it may run on.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut set: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is a valid, writable cpu_set_t of `size` bytes.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| set[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid cpu_set_t of `size` bytes.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    if idle_s(cpu).is_none() {
        return Err(format!("no idle time for cpu{cpu} in /proc/stat"));
    }
    PINNED.get_or_init(|| cpu);
    Ok(cpu)
}

/// CPU time of the whole process, in seconds.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Idle plus I/O-wait time of `cpu` since boot, in seconds.
fn idle_s(cpu: usize) -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat
        .lines()
        .find(|l| l.strip_prefix(&format!("cpu{cpu} ")).is_some())?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // SAFETY: sysconf has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Some((ticks.get(3)? + ticks.get(4)?) as f64 / hz)
}

/// Own time, in seconds from an arbitrary origin: process CPU time plus
/// the pinned CPU's idle time. Unpinned (as in the unit tests) it is
/// process CPU time alone.
pub fn own_s() -> f64 {
    let idle = PINNED.get().and_then(|&cpu| idle_s(cpu)).unwrap_or(0.0);
    process_cpu_s() + idle
}
