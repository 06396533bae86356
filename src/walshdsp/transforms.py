"""Walsh-Hadamard transforms in natural (Hadamard) and sequency orderings.

Conventions used throughout the package:

* Both transform directions carry the unitary 1/sqrt(N) scaling, so every
  matrix involved is orthogonal and self-inverse.
* Natural (Hadamard) ordering is the row order of the n-fold Kronecker power
  of the 2x2 Hadamard matrix; entry (k, j) has sign (-1)^(k.j) with k.j the
  bitwise dot product.
* Sequency ordering re-sorts the same rows by their number of zero crossings,
  the Walsh-domain analogue of frequency. Row s of the natural matrix lands at
  sequency position g = sequency_of(s, n).

The sequency map is computed by prefix XORs over the index bits (bit 0 is the
least significant). A brute-force zero-crossing counter on the materialized
±1 row is kept alongside as an independent oracle, guarded by a cost bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TIME = "time"
NATURAL = "natural"
SEQUENCY = "sequency"

_ORDER_TAGS = (TIME, NATURAL, SEQUENCY)

# refuse brute-force materialization above this bit width unless overridden
BRUTE_FORCE_BOUND = 20


class SizingError(ValueError):
    """Raised when a transform receives a vector whose length is not 2**n."""


@dataclass(frozen=True, eq=False)
class Coefficients:
    """A real sample/coefficient vector tagged with the ordering it lives in.

    The tag ("time", "natural" or "sequency") only changes by going through a
    transform. Length is validated at transform time, not construction time,
    so that file loading can return arbitrary vectors and still fail usefully
    later.
    """

    values: np.ndarray
    order_tag: str = TIME

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {vals.shape}")
        if self.order_tag not in _ORDER_TAGS:
            raise ValueError(f"unknown order tag {self.order_tag!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)


def time_series(values) -> Coefficients:
    """Wrap raw samples as a time-ordered coefficient vector."""
    return Coefficients(np.asarray(values, dtype=np.float64), TIME)


def _as_coefficients(v) -> Coefficients:
    return v if isinstance(v, Coefficients) else time_series(v)


def bit_width(size: int) -> int:
    """Bit width n for a power-of-two size; SizingError otherwise."""
    if size < 1 or size & (size - 1):
        raise SizingError(f"length {size} is not a power of two")
    return size.bit_length() - 1


def time_signal(v) -> tuple[Coefficients, int]:
    """Coerce v to a time-ordered vector of 2**n samples; returns (vector, n)."""
    v = _as_coefficients(v)
    if v.order_tag != TIME:
        raise ValueError(f"need a time-ordered signal, got {v.order_tag!r}")
    return v, bit_width(len(v))


def binary_unit(peak: float) -> float:
    """Largest power of two not above peak; 1.0 for a peak of 0, inf or nan.

    Dividing a vector by the binary unit of its largest magnitude is exact
    and brings that magnitude into [1, 2), so a norm taken afterwards neither
    overflows nor underflows.
    """
    return math.ldexp(0.5, math.frexp(peak)[1]) if 0.0 < peak < math.inf else 1.0


def _check_index(s: int, n: int) -> None:
    if n < 1:
        raise ValueError(f"bit width must be at least 1, got {n}")
    if not 0 <= s < (1 << n):
        raise ValueError(f"index {s} out of range for {n} bits")


def sequency_of(s: int, n: int) -> int:
    """Sequency (zero-crossing count) of natural-order Walsh row s of width n.

    Bit k of the result is the XOR of the low n-k bits of s, i.e. the prefix
    XORs of the index bits written back in reversed bit positions.
    """
    _check_index(s, n)
    g = 0
    acc = 0
    for j in range(n):
        acc ^= (s >> j) & 1
        g |= acc << (n - 1 - j)
    return g


def sequency_recursion_trace(s: int, n: int) -> list[int]:
    """Sequency of every bit-prefix of s, built by the doubling recursion.

    Entry m-1 is the sequency of the m lowest bits of s viewed as an m-bit
    index: each step doubles the previous value and adds the running XOR of
    the bits consumed so far. The final entry equals sequency_of(s, n).
    """
    _check_index(s, n)
    trace = []
    z = 0
    acc = 0
    for m in range(n):
        acc ^= (s >> m) & 1
        z = 2 * z + acc if m else acc
        trace.append(z)
    return trace


def zero_crossings_bruteforce(s: int, n: int, bound: int = BRUTE_FORCE_BOUND) -> int:
    """Count sign changes of the materialized ±1 row; oracle for sequency_of.

    Materializes F(k) = (-1)^(s.k) for all k < 2**n and counts the changes as
    half the sum of |F(k+1) - F(k)|. Cost is O(2**n), hence the bound guard.
    """
    _check_index(s, n)
    if n > bound:
        raise ValueError(f"bit width {n} exceeds brute-force bound {bound}")
    k = np.arange(1 << n)
    v = s & k
    # bitwise parity fold; n is capped well below the 32-bit width
    for shift in (16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    signs = 1 - 2 * (v & 1)
    return int(np.abs(np.diff(signs)).sum()) // 2


def natural_to_sequency_perm(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward and inverse permutation between natural and sequency positions.

    forward[s] = sequency_of(s, n); inverse[g] recovers s by the pairwise-XOR
    of adjacent result bits read from the top (the Gray-code identity).
    """
    if n < 1:
        raise ValueError(f"bit width must be at least 1, got {n}")
    size = 1 << n
    forward = np.empty(size, dtype=np.int64)
    for s in range(size):
        forward[s] = sequency_of(s, n)
    inverse = np.empty(size, dtype=np.int64)
    inverse[forward] = np.arange(size)
    return forward, inverse


def _fwht_inplace(a: np.ndarray, bits=None) -> None:
    """Unscaled radix-2 butterflies in place, one stage per index bit.

    The stage for bit q pairs the entries whose indices differ only in bit q
    (stride 2**q). bits defaults to every bit of a.size in increasing order,
    the full natural-order transform; the simulator passes the qubits of an
    H layer. Works on real and complex arrays alike.
    """
    if bits is None:
        bits = range(a.size.bit_length() - 1)
    for q in bits:
        view = a.reshape(-1, 2, 1 << q)
        top = view[:, 0, :].copy()
        bottom = view[:, 1, :]
        np.add(top, bottom, out=view[:, 0, :])
        np.subtract(top, bottom, out=bottom)


def _scaled_fwht(values: np.ndarray) -> np.ndarray:
    """Natural-order transform of a copy of values, with unitary scaling."""
    out = values.copy()
    _fwht_inplace(out)
    out *= 1.0 / np.sqrt(out.size)
    return out


def fwht_natural(v) -> Coefficients:
    """Fast Walsh-Hadamard transform in natural (Hadamard) ordering.

    O(N log N) butterflies with unitary scaling. The matrix is self-inverse,
    so the same call transforms back. The order tag flips between "time" and
    "natural".
    """
    v = _as_coefficients(v)
    if v.order_tag == SEQUENCY:
        raise ValueError("sequency-tagged input; use wht_sequency to go back")
    bit_width(len(v))
    tag = NATURAL if v.order_tag == TIME else TIME
    return Coefficients(_scaled_fwht(v.values), tag)


def wht_sequency(v, inverse: bool = False) -> Coefficients:
    """Walsh-Hadamard transform in sequency ordering.

    Forward: natural-order fast transform, then place the coefficient of
    natural row s at sequency position g = sequency_of(s, n). Inverse: apply
    the permutation the other way round, then the fast transform. The matrix
    is symmetric and self-inverse, so forward applied twice is the identity;
    the inverse flag picks the structurally reversed computation. The order
    tag flips between "time" and "sequency".
    """
    v = _as_coefficients(v)
    if v.order_tag == NATURAL:
        raise ValueError("natural-tagged input; use fwht_natural to go back")
    n = bit_width(len(v))
    forward, inv = natural_to_sequency_perm(n)
    if inverse:
        out = _scaled_fwht(v.values[forward])
    else:
        out = _scaled_fwht(v.values)[inv]
    tag = SEQUENCY if v.order_tag == TIME else TIME
    return Coefficients(out, tag)


def sequency_matrix(n: int, bound: int = BRUTE_FORCE_BOUND) -> np.ndarray:
    """Dense sequency-ordered matrix, built from the literal sign formula.

    Entry (k, j) carries sign (-1) to the power sum_r k_{n-1-r} (j_r xor
    j_{r+1}) with j_n = 0, scaled by 1/sqrt(N). Intended as a test oracle and
    for small demos; cost is O(4**n), hence the bound guard.
    """
    if n < 1:
        raise ValueError(f"bit width must be at least 1, got {n}")
    if n > bound:
        raise ValueError(f"bit width {n} exceeds brute-force bound {bound}")
    size = 1 << n
    k = np.arange(size)[:, None]
    j = np.arange(size)[None, :]
    expo = np.zeros((size, size), dtype=np.int64)
    for r in range(n):
        k_bit = (k >> (n - 1 - r)) & 1
        j_xor = ((j >> r) & 1) ^ ((j >> (r + 1)) & 1)  # j_n = 0 falls out for r = n-1
        expo += k_bit * j_xor
    return np.where(expo & 1, -1.0, 1.0) / np.sqrt(size)


def dft_spectrum(v) -> np.ndarray:
    """Unitary discrete Fourier spectrum of a time-ordered vector.

    Same 1/sqrt(N) scaling as the Walsh transforms so Parseval holds with the
    identical constant. This is the only complex-valued surface in the
    package; it exists to emit frequency-spectrum plot data next to sequency
    spectra.
    """
    v, _ = time_signal(v)
    return np.fft.fft(v.values, norm="ortho")
