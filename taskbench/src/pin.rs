//! Pin the whole process to one CPU before any thread starts.
//!
//! The sandbox this benchmark is sized for shows two CPUs that share
//! one hardware thread: two busy threads each run at half speed, and a
//! wake-up that crosses from one virtual CPU to the other costs a trip
//! through the hypervisor. Unpinned, the same `quick` task then runs in
//! one of two modes — its threads packed on one CPU, or spread over
//! both — at rates a factor of two to four apart, and the scheduler
//! picks anew every second or so. No median steadies that. On one CPU
//! the threads still interleave as they would (two clients, two
//! instances, the commit thread), they just never wait on a second
//! virtual CPU being scheduled; every figure in this benchmark is
//! therefore a one-CPU figure, on any machine.

#[cfg(target_os = "linux")]
mod imp {
    /// Words of the kernel's CPU mask this code passes: 1024 CPUs.
    const WORDS: usize = 16;

    // `std` already links the C library on Linux; these are its
    // declarations, written out because no `libc` crate resolves
    // offline.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the
        // `size_of_val(&mask)` bytes passed as its size; pid 0 names
        // the calling thread.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if got != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    pub fn pin_current_thread(cpu: usize) -> bool {
        let mut one = [0u64; WORDS];
        let Some(word) = one.get_mut(cpu / 64) else {
            return false;
        };
        *word = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of the size passed; the kernel
        // only reads it. Pid 0 names the calling thread; threads it
        // spawns afterwards inherit the mask.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

/// The CPUs this process may run on, read before it pinned itself.
static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();

/// Pin the calling (main) thread — and so every thread it spawns — to
/// the first CPU it is allowed on. Returns that CPU, or `None` if the
/// platform or the kernel refused; the run goes on unpinned then.
pub fn pin_process() -> Option<usize> {
    let cpu = *ALLOWED.get_or_init(imp::allowed_cpus).first()?;
    imp::pin_current_thread(cpu).then_some(cpu)
}

/// The CPU the system under test is pinned to, if it was.
pub fn system_cpu() -> Option<usize> {
    ALLOWED.get().and_then(|c| c.first().copied())
}

/// How many CPUs the process was allowed before it pinned itself.
pub fn allowed_cpus() -> usize {
    ALLOWED.get().map_or(0, Vec::len)
}

/// Move the calling thread to the second allowed CPU for the life of
/// the guard — for the open loop's generator, which must wake on
/// schedule whatever the system under test is doing with its CPU.
/// Without a second CPU the thread stays where it is.
pub fn on_spare_cpu() -> SpareCpu {
    let cpus = ALLOWED.get().map(Vec::as_slice).unwrap_or(&[]);
    let moved = cpus
        .get(1)
        .is_some_and(|&spare| imp::pin_current_thread(spare));
    SpareCpu {
        back_to: moved.then(|| cpus[0]),
    }
}

pub struct SpareCpu {
    back_to: Option<usize>,
}

impl Drop for SpareCpu {
    fn drop(&mut self) {
        if let Some(cpu) = self.back_to {
            imp::pin_current_thread(cpu);
        }
    }
}
