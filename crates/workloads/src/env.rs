//! Workload environment: the trait every benchmark implements plus the
//! setup context the harness hands it.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tmi_alloc::SimAllocator;
use tmi_machine::{VAddr, Width};
use tmi_os::{AsId, Kernel};
use tmi_program::{CodeRegistry, Op, OpResult, ThreadProgram};

/// Static facts about a workload that the harness consults.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Canonical name (the paper's label, e.g. `"lreg"`).
    pub name: &'static str,
    /// Whether the buggy variant exhibits repairable false sharing.
    pub false_sharing: bool,
    /// Uses C/C++ atomic operations.
    pub uses_atomics: bool,
    /// Contains inline-assembly regions.
    pub uses_asm: bool,
    /// Whether Sheriff can run it at all (it works on 11 of the 35
    /// workloads, §4.2; the rest fail on native inputs).
    pub sheriff_compatible: bool,
    /// Large-footprint workload (relevant to the huge-page experiment,
    /// §4.4).
    pub big_memory: bool,
    /// False sharing disappears when the allocator separates per-thread
    /// allocations (the lu-ncb case, §4.3).
    pub allocator_sensitive: bool,
}

/// Run-shaping parameters.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadParams {
    /// Number of worker threads.
    pub threads: usize,
    /// Work multiplier: 1.0 is the benchmark-sized run; tests use less.
    pub scale: f64,
    /// Apply the manual source fix (padding/alignment) — the `manual` bars
    /// of Fig. 9.
    pub fixed: bool,
    /// Force the misaligned allocation that exposes allocator-sensitive
    /// false sharing (§4.3 repair experiments).
    pub misaligned: bool,
}

impl WorkloadParams {
    /// Benchmark-sized parameters.
    pub fn new(threads: usize) -> Self {
        WorkloadParams {
            threads,
            scale: 1.0,
            fixed: false,
            misaligned: false,
        }
    }

    /// Test-sized parameters.
    pub fn test(threads: usize) -> Self {
        WorkloadParams {
            threads,
            scale: 0.05,
            fixed: false,
            misaligned: false,
        }
    }

    /// Returns this configuration with the manual fix applied.
    pub fn fixed(mut self) -> Self {
        self.fixed = true;
        self
    }

    /// Returns this configuration with misaligned allocation forced.
    pub fn misaligned(mut self) -> Self {
        self.misaligned = true;
        self
    }

    /// Scales a base iteration count, clamped to at least 64.
    pub fn iters(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(64)
    }
}

/// Everything a workload needs to lay out its memory and mint its code.
pub struct SetupCtx<'a> {
    /// The kernel (for initializing simulated memory).
    pub kernel: &'a mut Kernel,
    /// The simulated binary.
    pub code: &'a mut CodeRegistry,
    /// The allocator over the application region.
    pub alloc: &'a mut SimAllocator,
    /// The root address space.
    pub aspace: AsId,
    /// Deterministic RNG for input generation.
    pub rng: StdRng,
}

impl<'a> SetupCtx<'a> {
    /// Creates a setup context with a fixed seed.
    pub fn new(
        kernel: &'a mut Kernel,
        code: &'a mut CodeRegistry,
        alloc: &'a mut SimAllocator,
        aspace: AsId,
    ) -> Self {
        SetupCtx {
            kernel,
            code,
            alloc,
            aspace,
            rng: StdRng::seed_from_u64(0x7317_5EED),
        }
    }

    /// Initializes one word of simulated memory.
    pub fn write(&mut self, addr: VAddr, width: Width, value: u64) {
        self.kernel
            .force_write(self.aspace, addr, width, value)
            .expect("setup write");
    }
}

/// Reads the *shared* view of one word of `aspace` — what every process
/// sees after commits (verification reads this, since worker processes
/// may hold stale private pages at exit in broken runtimes). Falls back
/// to a plain read for anonymous (single-process baseline) memory.
///
/// # Panics
///
/// Panics if `addr` is not mapped in `aspace`.
pub fn read_shared(kernel: &mut Kernel, aspace: AsId, addr: VAddr, width: Width) -> u64 {
    match kernel.object_paddr(aspace, addr) {
        Ok(pa) => kernel.physmem().read(pa, width),
        Err(_) => kernel.force_read(aspace, addr, width).expect("verify read"),
    }
}

/// A tiny deterministic linear congruential generator for use *inside*
/// thread-program closures, where pulling in a full RNG per op would
/// dominate host time. Not for statistics — just for spreading accesses.
#[derive(Clone, Copy, Debug)]
pub struct Lcg(pub u64);

impl Lcg {
    /// Creates a generator from a seed (thread index works fine).
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Uniform value in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// A [`ThreadProgram`] built from a closure — the idiomatic way workloads
/// express their per-thread state machines.
pub struct FnProgram<F: FnMut(OpResult) -> Op>(F);

impl<F: FnMut(OpResult) -> Op> ThreadProgram for FnProgram<F> {
    fn next(&mut self, last: OpResult) -> Op {
        (self.0)(last)
    }
}

/// Boxes a closure as a thread program.
pub fn fn_program(f: impl FnMut(OpResult) -> Op + 'static) -> Box<dyn ThreadProgram> {
    Box::new(FnProgram(f))
}

/// One benchmark from the suite.
pub trait Workload {
    /// Static facts.
    fn spec(&self) -> WorkloadSpec;

    /// Lays out memory, registers code, and returns one program per
    /// thread. May stash addresses internally for [`Workload::verify`].
    fn build(
        &mut self,
        ctx: &mut SetupCtx<'_>,
        params: &WorkloadParams,
    ) -> Vec<Box<dyn ThreadProgram>>;

    /// Checks output correctness after the run, reading the root address
    /// space `aspace` through [`read_shared`]. The default accepts
    /// anything; workloads with checkable invariants (canneal, the counter
    /// benchmarks) override it.
    fn verify(&self, kernel: &mut Kernel, aspace: AsId) -> Result<(), String> {
        let _ = (kernel, aspace);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_scaling() {
        let p = WorkloadParams::new(4);
        assert_eq!(p.iters(1000), 1000);
        let t = WorkloadParams::test(4);
        assert_eq!(t.iters(1000), 64.max((1000.0 * 0.05) as usize));
        assert!(p.fixed().fixed);
        assert!(p.misaligned().misaligned);
    }

    #[test]
    fn fn_program_drives_closure() {
        let mut n = 0;
        let mut p = FnProgram(move |_last| {
            n += 1;
            if n <= 2 {
                Op::Compute { cycles: n }
            } else {
                Op::Exit
            }
        });
        assert_eq!(p.next(OpResult::none()), Op::Compute { cycles: 1 });
        assert_eq!(p.next(OpResult::none()), Op::Compute { cycles: 2 });
        assert_eq!(p.next(OpResult::none()), Op::Exit);
    }
}
