//! CPU pinning for the latency-bound workloads.
//!
//! Unpinned, the two rank threads of an 8-byte PingPong land on one CPU or
//! on two depending on the process, and a cross-CPU futex wake under KVM
//! costs ~10× a same-CPU one — so the IMB workloads run under a one-CPU
//! mask set on the main thread, which the rank threads inherit.

/// A CPU set as the kernel's bit mask (1024 CPUs).
pub type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuMask;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<CpuMask> {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &CpuMask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the byte length
        // passed, only read by the call; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuMask;

    pub fn get() -> Option<CpuMask> {
        None
    }

    pub fn set(_: &CpuMask) -> bool {
        false
    }
}

/// The calling thread's affinity mask, if the platform has one.
pub fn current_mask() -> Option<CpuMask> {
    sys::get()
}

/// Restrict the calling thread (and threads it spawns afterwards) to
/// `mask`. False if the platform or the container refuses.
pub fn set_mask(mask: &CpuMask) -> bool {
    sys::set(mask)
}

/// Pin the calling thread to the highest CPU its mask allows (CPU 0 is
/// where interrupts usually land). Returns the chosen CPU, or `None` if
/// pinning is not possible here.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mask = current_mask()?;
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_mask(&one).then_some(cpu)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_the_mask_and_restores() {
        // On its own thread, so the test harness's mask is left alone.
        std::thread::spawn(|| {
            let before = current_mask().expect("linux has affinity masks");
            let cpu = pin_to_one_cpu().expect("pinning inside the current mask works");
            let pinned = current_mask().unwrap();
            assert_eq!(pinned.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(pinned[cpu / 64] >> (cpu % 64) & 1, 1);
            assert!(set_mask(&before));
            assert_eq!(current_mask().unwrap(), before);
        })
        .join()
        .unwrap();
    }
}
