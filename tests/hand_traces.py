"""Hand-written kernels for tests, packed by ``CompiledKernel.from_warps``."""

from repro.trace.kernel import CompiledKernel, KernelTrace


def hand_kernel(name, threads_per_cta, ctas) -> KernelTrace:
    """A kernel of ``ctas``, each a list of ``(compute, lines, tail, offset)``."""
    compiled = CompiledKernel.from_warps(ctas)
    return KernelTrace(name, threads_per_cta, lambda: compiled)


def warps_of(kernel, cta_id):
    """``(compute, lines)`` array slices of each warp of CTA ``cta_id``."""
    compiled = kernel.compiled()
    first, last = compiled.cta_bounds[cta_id : cta_id + 2]
    bounds = compiled.warp_bounds[first : last + 1]
    return [
        (compiled.compute[lo:hi], compiled.lines[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]
