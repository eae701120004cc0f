"""Ground-truth device compute-cost model.

On real hardware, the per-edge cost of a Gather kernel depends on the
frontier's structure: degree skew concentrates atomic updates on hot
vertices (contention), wide degree ranges defeat coalescing and the L2
cache, and so on. The paper *learns* this relationship (the function
``g(W)`` of Section III-B) from running logs.

In this reproduction the role of "real hardware" is played by
:class:`DeviceModel`: a deliberately-richer-than-polynomial analytic
function of the Table-I features, plus a small deterministic
pseudo-noise term standing in for run-to-run measurement variance.
The learned cost model (:mod:`repro.core.costmodel`) never sees this
function's form — it only sees (features, observed cost) pairs, so the
Table V comparison of model families is a genuine learning problem.

Everything here is Python floats and integers: the transcendentals are
libm's (:mod:`math`), never a NumPy loop whose result depends on the
SIMD level it dispatches to, and the noise key is integer arithmetic,
so every host computes the same bits.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.graph.features import FrontierFeatures
from repro.hardware.spec import GPUSpec

__all__ = ["DeviceModel", "noise_key"]

_M64 = (1 << 64) - 1
#: splitmix64's increment (the golden ratio in 64 bits).
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64's finalizer: a bijective avalanche of 64-bit ``z``."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def noise_key(features: FrontierFeatures) -> int:
    """The 64-bit jitter key of one frontier, recomputable anywhere.

    The average degrees and the Gini, rounded to millionths, and the
    size are the digits of one base-``_GAMMA`` number modulo 2**64,
    which splitmix64's finalizer then avalanches. Features that agree
    on these four share a key; entropy and the ranges do not enter it.
    """
    return _mix64((((round(features.avg_in_degree * 1e6) * _GAMMA
                     + round(features.avg_out_degree * 1e6)) * _GAMMA
                    + round(features.gini * 1e6)) * _GAMMA
                   + int(features.size)) & _M64)


class DeviceModel:
    """Analytic ground truth for per-edge compute cost ``g*(W)``.

    Parameters
    ----------
    gpu:
        Device spec supplying the baseline per-edge cost.
    noise_amplitude:
        Relative amplitude of the deterministic pseudo-noise (default
        3%): measurement jitter a learned model cannot and should not
        fit.
    """

    def __init__(self, gpu: GPUSpec | None = None,
                 noise_amplitude: float = 0.03) -> None:
        self._gpu = gpu or GPUSpec()
        self._noise = float(noise_amplitude)

    @property
    def gpu(self) -> GPUSpec:
        """The device spec this model describes."""
        return self._gpu

    def _pseudo_noise(self, features: FrontierFeatures) -> float:
        """Deterministic jitter in ``[1 - a, 1 + a]``: the top 53 bits
        of :func:`noise_key` as a uniform draw in ``[0, 1)``."""
        if self._noise <= 0:
            return 1.0
        uniform = (noise_key(features) >> 11) * (1.0 / 9007199254740992.0)
        return 1.0 + self._noise * (2.0 * uniform - 1.0)

    # ------------------------------------------------------------------
    def edge_costs(
        self, frontiers: Sequence[FrontierFeatures]
    ) -> List[float]:
        """Ground-truth compute cost per edge of every frontier, in
        **seconds** — one superstep's fragments, an audit or a corpus.

        This is what the simulated GPU "actually takes"; the engine
        charges it to the virtual clock and logs it as the regression
        target for cost-model training. Each frontier's cost depends on
        its own features only: the product of three multipliers and
        the jitter.

        * *Contention* (hot destinations serialize atomics): grows with
          degree skew (Gini) and, jointly, with how spread the
          destinations are (entropy x gini) — skew alone hurts only if
          updates collide — with a smooth regime shift around gini ~
          0.55 into serialized atomics on hub vertices.
        * *Coalescing* (cache / coalescing misses): wide out-degree
          ranges mix short and long adjacency lists in a warp; large
          average degrees amortize lookup overhead slightly (log term).
        * *Gather*: pulling from high in-degree regions.
        """
        base = self._gpu.base_edge_cost_ns
        jitter = self._pseudo_noise
        costs = []
        for f in frontiers:
            avg_in, avg_out, __, out_range, g, entropy, __, edges = f
            if edges == 0:
                costs.append(base * 1e-9)
                continue
            regime = 1.0 + 0.9 / (1.0 + math.exp(-12.0 * (g - 0.55)))
            contention = (1.0 + 2.2 * g * g + 1.1 * g * entropy) * regime
            coalescing = (1.0 + 0.30 * math.log1p(avg_out)
                          + 0.7 * (math.sqrt(out_range) / (avg_out + 10.0)))
            gather = 1.0 + 0.18 * math.log1p(avg_in)
            costs.append(base * (contention * coalescing * gather)
                         * jitter(f) * 1e-9)
        return costs

    def true_edge_cost(self, features: FrontierFeatures) -> float:
        """:meth:`edge_costs` of one frontier."""
        return self.edge_costs((features,))[0]

    def oracle(self):
        """Return ``g*`` as a plain callable (the Exp-7 oracle baseline)."""
        return self.true_edge_cost
