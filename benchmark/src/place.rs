//! Thread placement. On this host the two CPUs differ by ~10% in
//! single-thread speed, so where the scheduler happened to put the engine's
//! worker decided a run's result. The benchmark therefore fixes it: detector
//! work (the engine's worker and the staged replays) runs on the highest
//! allowed CPU, the load generator on the lowest. A thread inherits the
//! mask of the thread that spawns it, which is how the worker — spawned
//! inside `ServeEngine` — is reached from outside.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Which of the two sides the calling thread, and every thread it spawns
/// from now on, belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Generator,
    Detector,
}

#[cfg(target_os = "linux")]
mod sys {
    /// Enough mask words for 1024 CPUs, the kernel's default `CONFIG_NR_CPUS` ceiling.
    pub const WORDS: usize = 16;

    /// The scheduling class whose tasks run only when nothing else wants the CPU.
    pub const SCHED_IDLE: i32 = 5;

    #[repr(C)]
    pub struct SchedParam {
        pub sched_priority: i32,
    }

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
}

/// Pins the calling thread to its side's CPU. Does nothing — the run is
/// then merely noisier — where fewer than two CPUs are allowed or the
/// platform has no affinity call.
pub fn pin(side: Side) {
    #[cfg(target_os = "linux")]
    {
        use std::sync::OnceLock;
        // The CPUs allowed at start-up, before any pin narrowed the mask.
        static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
        let allowed = ALLOWED.get_or_init(|| {
            let mut mask = [0u64; sys::WORDS];
            // SAFETY: `mask` is a live, writable buffer of exactly the
            // length passed; pid 0 names the calling thread.
            let rc = unsafe { sys::sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
            if rc != 0 {
                return Vec::new();
            }
            (0..64 * sys::WORDS)
                .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect()
        });
        let (Some(&lowest), Some(&highest)) = (allowed.first(), allowed.last()) else {
            return;
        };
        if lowest == highest {
            return;
        }
        let cpu = match side {
            Side::Generator => lowest,
            Side::Detector => highest,
        };
        let mut mask = [0u64; sys::WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the length passed; pid
        // 0 names the calling thread. A refusal leaves the old mask in
        // place, which is the documented fallback.
        unsafe { sys::sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = side;
}

/// Keeps the detector's CPU from halting for as long as it lives: a thread
/// of the `SCHED_IDLE` class, which any other runnable thread preempts at
/// once, spins there.
///
/// A worker that waits — for the next batch of an open-loop schedule, for an
/// `fsync` — lets its vCPU halt, and on this host a vCPU that halts comes
/// back slow for the next few milliseconds (the host clocks down or lends
/// out a core its guest leaves idle). On `fd_paced` the same 64-row batch
/// then took 3.3 or 4.6 ms, in phases of seconds, and a run's median latency
/// moved by 17% from seed to seed; with the CPU kept awake it moves by 3%.
/// This is what `idle=poll` does on a dedicated benchmark host. Only the
/// detector's CPU is kept awake: with every CPU spinning, the kernel threads
/// that complete an `fsync` waited a scheduler tick for theirs.
pub struct IdleGuard {
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

impl IdleGuard {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = stop.clone();
        let spinner = std::thread::spawn(move || {
            pin(Side::Detector);
            #[cfg(target_os = "linux")]
            {
                let param = sys::SchedParam { sched_priority: 0 };
                // SAFETY: `param` is a live `sched_param`; pid 0 names the
                // calling thread.
                let rc = unsafe { sys::sched_setscheduler(0, sys::SCHED_IDLE, &param) };
                // Only a thread that yields to every other may spin here.
                while rc == 0 && !seen.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }
            #[cfg(not(target_os = "linux"))]
            let _ = seen;
        });
        Self {
            stop,
            spinner: Some(spinner),
        }
    }
}

impl Drop for IdleGuard {
    fn drop(&mut self) {
        // Relaxed: the flag publishes nothing but itself.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            let _ = spinner.join();
        }
    }
}
