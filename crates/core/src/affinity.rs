//! Opt-in CPU affinity for shard worker threads.
//!
//! Pinning each shard thread to its own core keeps the per-shard window
//! maps and compiled-model tables hot in one core's cache and stops the
//! scheduler from migrating shards mid-batch. It is strictly an
//! optimization: routing, watermarks, and detection semantics are
//! identical pinned or not, so the pool only pins when
//! [`crate::pipeline::SupervisorConfig::pin_shards`] asks for it.
//!
//! On Linux we issue the raw `sched_setaffinity` syscall directly (no
//! libc dependency, no `/proc` parsing). Everywhere else — and on any
//! kernel that rejects the call, e.g. under a restrictive seccomp
//! sandbox — [`pin_current_thread`] is a no-op returning `false`, which
//! callers treat as "run unpinned", never as an error.

/// Pin the calling thread to `cpu` (a zero-based logical CPU index).
///
/// Returns `true` if the affinity mask was applied, `false` when the
/// platform doesn't support pinning or the kernel refused (CPU index out
/// of range, seccomp filter, etc.). Callers must treat `false` as a
/// benign fallback, not a failure.
pub fn pin_current_thread(cpu: usize) -> bool {
    imp::pin_current_thread(cpu)
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    /// CPU mask of 1024 bits — the kernel's conventional `cpu_set_t` size.
    const MASK_WORDS: usize = 16;

    pub fn pin_current_thread(cpu: usize) -> bool {
        if cpu >= MASK_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1u64 << (cpu % 64);
        // sched_setaffinity(pid = 0 → calling thread, sizeof(mask), &mask)
        let ret: isize;
        // SAFETY: sched_setaffinity only reads `size_of_val(&mask)` bytes
        // from `mask`, a live local array, and writes nothing we own; the
        // kernel returns in rax and clobbers rcx and r11, as declared.
        // Failure is a negative errno, never undefined behaviour.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
                in("rdi") 0usize,
                in("rsi") core::mem::size_of_val(&mask),
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        // SAFETY: as above; on aarch64 the kernel returns in x0 and
        // preserves every other register the `svc` reads.
        #[cfg(target_arch = "aarch64")]
        unsafe {
            let res: isize;
            std::arch::asm!(
                "svc 0",
                in("x8") 122usize, // __NR_sched_setaffinity
                inlateout("x0") 0usize => res,
                in("x1") core::mem::size_of_val(&mask),
                in("x2") mask.as_ptr(),
                options(nostack),
            );
            ret = res;
        }
        ret == 0
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_benign() {
        // Whatever the platform answers, the thread must keep working.
        let pinned = pin_current_thread(0);
        let sum: u64 = (0..1000u64).sum();
        assert_eq!(sum, 499_500);
        // An absurd CPU index is always refused, never a crash.
        assert!(!pin_current_thread(1 << 20));
        let _ = pinned;
    }
}
