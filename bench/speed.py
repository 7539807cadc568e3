"""Host speed reference: one fixed kernel, timed between ops.

On a shared host the same code can run 20-40% slower for tens of seconds at
a time, so raw wall times of runs made minutes apart differ by more than
any change worth measuring. The benchmark therefore times this kernel
between every two ops and divides each op's wall time by the host's
slowness around it: the median of the kernel times on either side of the
op, over ``REFERENCE_S``. The kernel does nothing with the package. It mixes
the kinds of work the ops do: interpreter loops, many tiny arrays, validated
dataclasses, seeded generators, small LAPACK calls, a d=16 Choi-sized outer
product and an eigensolve. So a busy host slows it about as much as it slows
an op. In 65 s probes that repeated one pass, the spread of pass times
(quartile distance over median) fell from 0.10-0.19 raw to 0.04-0.07 scaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Kernel time on a quiet host: Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4.6
# with one OpenBLAS thread. Scaled times are wall times at this speed.
REFERENCE_S = 7.5e-3

_rng = np.random.default_rng(20251010)
_A = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))
_H = _A + _A.conj().T
_V = _rng.standard_normal((4, 256)) + 1j * _rng.standard_normal((4, 256))
_B = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_HB = _B + _B.conj().T
_SMALL = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) for _ in range(8)]


@dataclass(frozen=True)
class _Checked:
    """A small validated record, like the package's operation dataclasses."""

    dim: int
    mats: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=complex) for m in self.mats)
        for m in mats:
            if m.shape != (self.dim, self.dim) or not np.all(np.isfinite(m)):
                raise ValueError("bad matrix")
        object.__setattr__(self, "mats", mats)


def reference_time() -> float:
    """Wall time of one run of the fixed kernel."""
    start = perf_counter()
    np.linalg.eigh(_H)
    np.linalg.svd(_A)
    total = 0.0
    for k in range(2000):
        total += k * 0.5
    {str(k): k for k in range(300)}
    outer = np.einsum("ki,kj->ij", _V, _V.conj())
    np.linalg.norm(outer - outer.conj().T)
    np.linalg.eigvalsh(_HB)
    for i in range(50):
        a, b = _SMALL[i % 8], _SMALL[(i + 3) % 8]
        c = a @ b.conj().T
        total += float(np.linalg.norm(c - c.conj().T))
        total += float(np.real(np.trace(np.kron(a[:2, :2], b[:2, :2]))))
        {f"y{k}": k for k in range(6)}
    for i in range(18):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(12345, spawn_key=(i,))))
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rec = _Checked(4, (g, g.conj().T))
        vecs = np.stack([m.reshape(-1) for m in rec.mats])
        choi = np.einsum("ki,kj->ij", vecs, vecs.conj())
        total += float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[-1])
        total += float(rng.integers(0, 3)) + len(rng.permutation(5))
    return perf_counter() - start
