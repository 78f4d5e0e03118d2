"""Deterministic random sampling.

All randomness in the package flows through a SplitMix64 stream so that
every sampled object is reproducible bit-for-bit from a 64-bit seed, on any
platform.  Sub-streams are derived with the golden-ratio multiplier

    derived = seed * 0x9E3779B97F4A7C15 + index   (mod 2**64)

and Gaussians are produced from the stream's 64-bit uniforms by Box-Muller.
"""

from __future__ import annotations

import numpy as np

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
# seeded restarts of a multistart estimate, restart r drawing from the stream
# derive_seed(seed, r); kept here so the CLI parser reads it without loading
# the estimators
DEFAULT_RESTARTS = 64

_U64 = np.uint64


def derive_seed(seed: int, index: int) -> int:
    """Derive the sub-stream seed ``seed * GOLDEN_GAMMA + index`` mod 2**64."""
    return (seed * GOLDEN_GAMMA + index) % (1 << 64)


class SplitMix64:
    """Vectorized SplitMix64 generator.

    State advances by ``GOLDEN_GAMMA`` per output; each output is the
    standard SplitMix64 finalizer applied to the state.  A 1-D uint64 array
    of seeds runs one independent stream per seed: every draw then gains a
    leading stream axis, and stream i matches ``SplitMix64(seeds[i])``.
    """

    def __init__(self, seed):
        self._state = (np.asarray(seed, dtype=np.uint64) if np.ndim(seed)
                       else _U64(seed % (1 << 64)))

    def next_uint64(self, n: int) -> np.ndarray:
        # uint64 array arithmetic wraps mod 2**64, as SplitMix64 requires
        steps = np.arange(1, n + 1, dtype=np.uint64) * _U64(GOLDEN_GAMMA)
        z = self._state[..., None] + steps
        self._state = z[..., -1] if n > 0 else self._state
        z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
        return z ^ (z >> _U64(31))

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), from the top 53 bits."""
        return (self.next_uint64(n) >> _U64(11)).astype(np.float64) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller: radii from the first
        half of one draw, moved onto (0, 1] by an exact 2^-53 shift so they
        are safe as a log argument, and angles from the second half."""
        half = (n + 1) // 2
        u = self.uniforms(2 * half)
        u1 = u[..., :half] + 2.0**-53
        u2 = u[..., half:]
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                              r * np.sin(2.0 * np.pi * u2)], axis=-1)
        return out[..., :n]

    def complex_normals(self, shape) -> np.ndarray:
        """Standard complex Gaussians (E|z|^2 = 1), real parts drawn first."""
        n = int(np.prod(shape))
        flat = self.normals(2 * n)
        z = (flat[..., :n] + 1j * flat[..., n:]) / np.sqrt(2.0)
        return z.reshape(np.shape(self._state) + tuple(np.atleast_1d(shape)))
