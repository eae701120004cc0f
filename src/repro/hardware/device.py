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
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.graph.features import FrontierFeatures
from repro.hardware.spec import GPUSpec

__all__ = ["DeviceModel", "first_uniform"]

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _state_hash_constants(count: int = 8) -> list:
    """``SeedSequence.generate_state``'s (xor, multiply) hash constants,
    one pair per 32-bit output word: they never depend on the data."""
    pairs, constant = [], 0x8B51F9DD
    for __ in range(count):
        following = (constant * 0x58F38DED) & _M32
        pairs.append((constant, following))
        constant = following
    return pairs


_STATE_HASH = _state_hash_constants()


def first_uniform(seed: int) -> float:
    """``np.random.default_rng(seed).random()``, bit for bit, in about
    two thirds of its time.

    NumPy still mixes ``seed`` into the ``SeedSequence`` entropy pool
    (its public ``pool``). The rest is fixed integer arithmetic, done
    here in Python integers instead of building a ``Generator``:
    ``generate_state`` hashes the pool into four 64-bit words, PCG64
    seeds its 128-bit LCG from them (state, then ``(inc << 1) | 1``),
    steps once and emits the XSL-RR output, whose top 53 bits scaled
    by 2**-53 are the double. NumPy keeps a seed's stream stable across
    releases; tests compare this with NumPy over thousands of seeds.
    """
    pool = np.random.SeedSequence(seed).pool.tolist()
    words = []
    for index, (xor, multiply) in enumerate(_STATE_HASH):
        value = ((pool[index & 3] ^ xor) * multiply) & _M32
        words.append(value ^ (value >> 16))
    initstate = (words[1] << 96 | words[0] << 64
                 | words[3] << 32 | words[2])
    inc = ((words[5] << 96 | words[4] << 64 | words[7] << 32 | words[6])
           << 1 | 1) & _M128
    state = ((inc + initstate) * _PCG_MULT + inc) & _M128
    state = (state * _PCG_MULT + inc) & _M128
    high, rotation = state >> 64, state >> 122
    mixed = high ^ (state & _M64)
    output = (mixed >> rotation | mixed << (64 - rotation)) & _M64
    return (output >> 11) * (1.0 / 9007199254740992.0)


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
        # ground-truth memo keyed by features value (see true_edge_cost)
        self._cost_memo: Dict[FrontierFeatures, float] = {}
        # pseudo-noise memo keyed by the generator seed (_pseudo_noise)
        self._noise_memo: Dict[int, float] = {}

    #: Ground-truth and noise memo flush threshold (bounds a long
    #: run's memory).
    _MEMO_BOUND = 4096

    @property
    def gpu(self) -> GPUSpec:
        """The device spec this model describes."""
        return self._gpu

    # ------------------------------------------------------------------
    def contention_factor(self, features: FrontierFeatures) -> float:
        """Atomic-contention multiplier (hot destinations serialize).

        Grows with degree skew (Gini) and, jointly, with how spread the
        destinations are (entropy x gini interaction): skew alone hurts
        only if updates actually collide. A smooth regime shift around
        gini ~ 0.55 models the transition into serialized atomics on
        hub vertices.
        """
        g = features.gini
        regime = 1.0 + 0.9 / (1.0 + np.exp(-12.0 * (g - 0.55)))
        return float((1.0 + 2.2 * g * g + 1.1 * g * features.entropy)
                     * regime)

    def coalescing_factor(self, features: FrontierFeatures) -> float:
        """Memory-irregularity multiplier (cache / coalescing misses).

        Wide out-degree ranges mean warps mix short and long adjacency
        lists; large average degrees amortize lookup overhead slightly
        (log term).
        """
        spread = np.sqrt(features.out_degree_range) / (
            features.avg_out_degree + 10.0
        )
        amortize = 1.0 + 0.30 * np.log1p(features.avg_out_degree)
        return float(amortize + 0.7 * spread)

    def gather_factor(self, features: FrontierFeatures) -> float:
        """In-edge-side multiplier: pulling from high in-degree regions."""
        return float(1.0 + 0.18 * np.log1p(features.avg_in_degree))

    def _pseudo_noise(self, features: FrontierFeatures) -> float:
        """Deterministic jitter in ``[1 - a, 1 + a]`` keyed on features.

        The generator is seeded from ``hash()`` of the rounded average
        degrees, the rounded Gini and the size, so distinct features
        that share that seed share one draw (memoized on the seed,
        bounded like the cost memo).
        """
        if self._noise <= 0:
            return 1.0
        seed = int(np.int64(abs(hash((
            round(float(features.avg_in_degree), 6),
            round(float(features.avg_out_degree), 6),
            round(float(features.gini), 6), features.size,
        ))))) % (2**63 - 1)
        noise = self._noise_memo.get(seed)
        if noise is None:
            if len(self._noise_memo) >= self._MEMO_BOUND:
                self._noise_memo.clear()
            noise = self._noise_memo[seed] = self._draw_noise(seed)
        return noise

    def _draw_noise(self, seed: int) -> float:
        """One generator draw from ``seed``, as jitter."""
        return float(1.0 + self._noise * (2.0 * first_uniform(seed) - 1.0))

    # ------------------------------------------------------------------
    def true_edge_cost(self, features: FrontierFeatures) -> float:
        """Ground-truth compute cost per edge, in **seconds**.

        This is what the simulated GPU "actually takes"; the engine
        charges it to the virtual clock and logs it as the regression
        target for cost-model training.
        """
        if features.total_edges == 0:
            return self._gpu.base_edge_cost_ns * 1e-9
        # the cost is a pure function of the frozen features' fields, so
        # equal features share one evaluation: the prediction audit, the
        # chunk pricing and every superstep that sees the same frontier
        # again pay the noise hash once
        hit = self._cost_memo.get(features)
        if hit is not None:
            return hit
        multiplier = (
            self.contention_factor(features)
            * self.coalescing_factor(features)
            * self.gather_factor(features)
        )
        cost = (
            self._gpu.base_edge_cost_ns
            * multiplier
            * self._pseudo_noise(features)
            * 1e-9
        )
        if len(self._cost_memo) >= self._MEMO_BOUND:
            self._cost_memo.clear()
        self._cost_memo[features] = cost
        return cost

    def oracle(self):
        """Return ``g*`` as a plain callable (the Exp-7 oracle baseline)."""
        return self.true_edge_cost
