"""Sequency transforms and the mask filter, written with numpy alone.

Nothing here imports walshdsp: the benchmark checks the program's outputs
against these functions, and these functions against rows it materialises
itself (`self_test`).

Conventions match the program's public contract: both transforms carry the
unitary 1/sqrt(N) scale, natural order is the Kronecker power of the 2x2
Hadamard matrix, and sequency position g holds natural row s when row s
changes sign g times.
"""

from __future__ import annotations

import numpy as np


def bit_width(size: int) -> int:
    if size < 1 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    return size.bit_length() - 1


def fwht(x) -> np.ndarray:
    """Unitary natural-order Walsh-Hadamard transform.

    The vector is viewed as an n-axis tensor of side 2 and the 2x2 Hadamard
    butterfly is applied along every axis in turn.
    """
    a = np.array(x, dtype=np.float64)
    n = bit_width(a.size)
    t = a.reshape((2,) * n)
    for axis in range(n):
        t = np.moveaxis(t, axis, 0)
        total = t[0] + t[1]
        t[1] = t[0] - t[1]
        t[0] = total
        t = np.moveaxis(t, 0, axis)
    return t.reshape(-1) / np.sqrt(a.size)


def sequency_map(n: int) -> np.ndarray:
    """g[s]: the sequency position of natural row s, for all s < 2**n.

    Prefix XOR over the bit planes from the least significant bit upward
    (doubling shifts), then a bit reversal within n bits.
    """
    s = np.arange(1 << n, dtype=np.int64)
    prefix = s.copy()
    shift = 1
    while shift < n:
        prefix ^= prefix << shift
        shift *= 2
    prefix &= (1 << n) - 1
    g = np.zeros_like(s)
    for j in range(n):
        g |= ((prefix >> j) & 1) << (n - 1 - j)
    return g


def to_sequency(x) -> np.ndarray:
    """Sequency-ordered spectrum of a time-ordered vector."""
    natural = fwht(x)
    spectrum = np.empty_like(natural)
    spectrum[sequency_map(bit_width(natural.size))] = natural
    return spectrum


def from_sequency(spectrum) -> np.ndarray:
    """Time-ordered vector of a sequency-ordered spectrum."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    return fwht(spectrum[sequency_map(bit_width(spectrum.size))])


def pass_mask(size: int, kind: str, cutoff: int | None = None, band=None) -> np.ndarray:
    """Sequency positions a filter keeps: low [0, c), high [c, N),
    band [lo, hi), dc everything but 0."""
    keep = np.zeros(size, dtype=bool)
    if kind == "low":
        keep[:cutoff] = True
    elif kind == "high":
        keep[cutoff:] = True
    elif kind == "band":
        keep[band[0] : band[1]] = True
    elif kind == "dc":
        keep[1:] = True
    else:
        raise ValueError(f"unknown filter kind {kind!r}")
    return keep


def mask_filter(x, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pass and stop branches: zero the spectrum outside / inside `keep`."""
    spectrum = to_sequency(x)
    return (
        from_sequency(np.where(keep, spectrum, 0.0)),
        from_sequency(np.where(keep, 0.0, spectrum)),
    )


def walsh_rows(n: int) -> np.ndarray:
    """Materialised natural-order rows: entry (s, k) is (-1)**popcount(s & k)."""
    k = np.arange(1 << n, dtype=np.int64)
    parity = np.bitwise_count(k[:, None] & k[None, :]) & 1
    return 1.0 - 2.0 * parity


def zero_crossings(rows: np.ndarray) -> np.ndarray:
    """Sign changes along each row."""
    return np.count_nonzero(rows[:, 1:] != rows[:, :-1], axis=1)


def self_test(n_max: int = 8) -> list[str]:
    """Check the reference against rows it materialises, for n <= n_max."""
    problems = []
    rng = np.random.default_rng(0)
    for n in range(1, n_max + 1):
        rows = walsh_rows(n)
        if not np.array_equal(zero_crossings(rows), sequency_map(n)):
            problems.append(f"reference sequency map disagrees with zero crossings at n={n}")
        x = rng.standard_normal(1 << n)
        dense = rows @ x / np.sqrt(x.size)
        if not np.allclose(fwht(x), dense, rtol=0.0, atol=1e-12 * np.linalg.norm(x)):
            problems.append(f"reference FWHT disagrees with the dense rows at n={n}")
    return problems
