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

The package's input rules live here. A signal holds 2**n samples, n >= 1:
check_bits is the one floor on n and bit_width the one length check, so a
1-sample signal and n < 1 raise the same SizingError. check_int is the one
rule for integral values read from outside (4.0 passes), check_index the
one rule for register quantities (ints and numpy integers only). Samples
are real and finite: a complex array, nan or inf is a ValueError. Norms
are taken in peak units (peak_units), exactly and without overflow.

The exit rule: a result leaves peak units, or the amplitude-encoding norm,
only through _from_units, which multiplies it back into a new array and
turns the multiply's overflow into a ValueError naming the result. So a
finite input never comes back as inf.

_hadamard_layer is the package's one H kernel, shared with the simulator,
which plans its layers first and runs each plan through _hadamard_blocks,
and checked against the dense sequency matrix and a fold of the
simulator's one-qubit H gates. The classical transforms run it on the
caller's samples with the unitary scale folded in; _scaled_fwht says when
they sum in peak units instead (a coefficient beyond float64 raises). Both
orderings are self-inverse, so each is one route: wht_sequency is the
natural transform, then a reorder into the buffer the kernel freed.

The input rule: a read-only array belongs to the caller and is never
written. The kernel owns the rule: it writes back into its input a only
where a is writable, and takes a fresh buffer otherwise. _scaled_fwht and
simulator.run_circuit each view the caller's array read-only once, and
every later step reads that view's flag.

The spare buffers the kernel is given and the ones it takes come from
_empty, which starts an array of at least _ALIGN_FLOOR bytes on a page
boundary. glibc maps such an allocation on its own and starts its data 16
bytes into the first page, so the kernel's 16-entry rows (128 B) and
1024-entry rows (8 KiB) would each straddle one more cache line and one
more page than they need to. On a 2-core x86-64 VM an aligned H layer took 10-25 % less time at n = 16..20.
The bits are the same at any offset.

The sequency map (prefix XORs of the index bits, in reversed bit order) and
its inverse are GF(2)-linear, given by the images of the unit indices
(_sequency_columns). gf2_index builds either as an N-entry array, for
natural_to_sequency_perm and the oracle, and the gather of the simulator's
pending CNOT/SWAP map, as the outer XOR of two tables of about sqrt(N)
entries. wht_sequency builds no N-entry array: _to_sequency reads the
inverse map's two tables as a row map and a column map, and moves the
coefficients in slabs of _SLAB_ROWS source rows, so each slab's gathers and
transposed write stay in cache. The oracles, a brute-force zero-crossing
count and the dense sequency matrix, refuse bit widths above
BRUTE_FORCE_BOUND.
"""

from __future__ import annotations

__all__ = ["BRUTE_FORCE_BOUND", "NATURAL", "SEQUENCY", "TIME", "Coefficients", "SizingError", "dft_spectrum",
           "fwht_natural", "natural_to_sequency_perm", "sequency_matrix", "sequency_of",
           "sequency_recursion_trace", "time_series", "wht_sequency", "zero_crossings_bruteforce"]

import math
import mmap
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

TIME = "time"
NATURAL = "natural"
SEQUENCY = "sequency"

# refuse brute-force materialization above this bit width
BRUTE_FORCE_BOUND = 20
# bits per Hadamard block: 32 rows 2**15 or more apart thrash the cache, 16 do not
_BLOCK_QUBITS = 4
# columns per BLAS product: 16 x 16 x 1024 keeps OpenBLAS on one thread; two
# threads stalled some processes by up to 130 ms per H layer on a 2-core VM
_BLOCK_COLUMNS = 1024
# glibc's default mmap threshold: a buffer this large gets a mapping of its
# own, its data 16 bytes past a page boundary; smaller ones come from the heap
_ALIGN_FLOOR = 128 * 1024
# source rows per slab of the sequency reorder: at n = 20, 64 rows of 8 KiB
# (512 KiB) took 4.3-4.5 ms on a 2-core x86-64 VM, 32 rows 5.9 and an
# N-entry index and np.take 10.7
_SLAB_ROWS = 64


class SizingError(ValueError):
    """Raised for a length that is not 2**n, or a bit width n below 1."""


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
        vals = np.asarray(self.values)
        if vals.dtype.kind == "c":
            raise ValueError(f"expected real samples, got {vals.dtype} values")
        vals = vals.astype(np.float64, copy=False)
        if vals.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {vals.shape}")
        if self.order_tag not in (TIME, NATURAL, SEQUENCY):
            raise ValueError(f"unknown order tag {self.order_tag!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)


def time_series(values) -> Coefficients:
    """Wrap raw samples as a time-ordered coefficient vector."""
    return Coefficients(values, TIME)


def _as_coefficients(v) -> Coefficients:
    return v if isinstance(v, Coefficients) else time_series(v)


def check_index(value, what: str) -> int:
    """value as an int if it is an int or a numpy integer; ValueError otherwise.

    The rule for register quantities (bit widths, qubit counts, qubits and
    basis indices), which operator.index applies: unlike check_int it
    refuses 3.0, so a float never stands in for a count.
    """
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def check_bits(n: int) -> int:
    """n as an int if it is a usable bit width (an integer, at least 1).

    ValueError for a non-integer, SizingError for an integer below 1.
    """
    n = check_index(n, "bit width")
    if n < 1:
        raise SizingError(f"bit width must be at least 1 (2 samples), got {n}")
    return n


def check_int(value, what: str) -> int:
    """value as an int if it is integral (4, 4.0, numpy.int64(4)); ValueError otherwise."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def bit_width(size: int) -> int:
    """Bit width n of a size 2**n with n >= 1; SizingError otherwise."""
    if size < 1 or size & (size - 1):
        raise SizingError(f"length {size} is not a power of two")
    return check_bits(size.bit_length() - 1)


def time_signal(v) -> tuple[Coefficients, int]:
    """Coerce v to a time-ordered vector of 2**n samples; returns (vector, n)."""
    v = _as_coefficients(v)
    if v.order_tag != TIME:
        raise ValueError(f"need a time-ordered signal, got {v.order_tag!r}")
    return v, bit_width(len(v))


def peak_units(*arrays: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """The largest power of two not above every |entry| (1.0 if all are 0), and
    each array divided by it.

    The division is exact for ordinary entries and brings the peak into
    [1, 2), so norms and sums taken afterwards neither overflow nor
    underflow. ValueError on a nan or inf in any array.
    """
    peak = 0.0
    for a in arrays:
        # max and -min, not an abs temporary; each is checked, as max() skips nan
        top, bottom = float(a.max(initial=0.0)), float(a.min(initial=0.0))
        if not (math.isfinite(top) and math.isfinite(bottom)):
            raise ValueError("non-finite samples")
        peak = max(peak, top, -bottom)
    unit = math.ldexp(0.5, math.frexp(peak)[1]) if peak else 1.0
    return unit, [a / unit for a in arrays]


def _from_units(values, unit: float, what: str = "transform result"):
    """values * unit as a new array, real or complex, or for a tuple of
    arrays a tuple of new arrays: the package's one exit from peak units and
    from the encoding norm.

    ValueError, naming what, if an entry (or a part of one) would pass
    float64: the multiply's own overflow flag says so, so the check makes no
    pass of its own. A tuple's multiplies share one np.errstate.
    """
    with np.errstate(over="raise"):
        try:
            if isinstance(values, tuple):
                return tuple(part * unit for part in values)
            return values * unit
        except FloatingPointError:
            raise ValueError(f"{what} is beyond float64") from None


def _check_row(s: int, n: int) -> None:
    check_bits(n)
    if not 0 <= check_index(s, "index") < (1 << n):
        raise ValueError(f"index {s} out of range for {n} bits")


def sequency_of(s: int, n: int) -> int:
    """Sequency (zero-crossing count) of natural-order Walsh row s of width n.

    Bit k of the result is the XOR of the low n-k bits of s, i.e. the prefix
    XORs of the index bits written back in reversed bit positions.
    """
    _check_row(s, n)
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
    _check_row(s, n)
    trace = []
    z = 0
    acc = 0
    for m in range(n):
        acc ^= (s >> m) & 1
        z = 2 * z + acc
        trace.append(z)
    return trace


def zero_crossings_bruteforce(s: int, n: int) -> int:
    """Count sign changes of the materialized ±1 row; oracle for sequency_of.

    Materializes F(k) = (-1)^(s.k) for all k < 2**n and counts the changes as
    half the sum of |F(k+1) - F(k)|. Cost is O(2**n), hence the bound guard.
    """
    _check_row(s, n)
    if n > BRUTE_FORCE_BOUND:
        raise ValueError(f"bit width {n} exceeds brute-force bound {BRUTE_FORCE_BOUND}")
    k = np.arange(1 << n)
    v = s & k
    # bitwise parity fold; n is capped well below the 32-bit width
    for shift in (16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    signs = 1 - 2 * (v & 1)
    return int(np.abs(np.diff(signs)).sum()) // 2


def _gf2_span(columns) -> np.ndarray:
    """Entry j is the XOR of the columns picked by the bits of j, j < 2**len(columns)."""
    # Python ints while the table is short, numpy doublings after
    table = [0]
    for col in columns[:6]:
        table += [entry ^ col for entry in table]
    table = np.array(table, dtype=np.intp)
    for col in columns[6:]:
        table = np.concatenate([table, table ^ col])
    return table


def gf2_index(columns) -> np.ndarray:
    """Entry j is the XOR of the columns picked by the bits of j, j < 2**len(columns).

    Built as the outer XOR of the spans of the low len(columns) // 2 columns
    and of the rest, so no table is longer than about the square root of the
    index.
    """
    low = len(columns) // 2
    return (_gf2_span(columns[low:])[:, None] ^ _gf2_span(columns[:low])[None, :]).ravel()


def natural_to_sequency_perm(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward and inverse permutation between natural and sequency positions.

    forward[s] = sequency_of(s, n) and its inverse are GF(2)-linear maps built
    from the images of the unit indices: forward sends 1 << j to
    (1 << (n-j)) - 1, the prefix XORs of a single bit, and the inverse sends
    1 << j to 3 << (n-1-j), truncated to n bits.
    """
    return _sequency_index(n), _sequency_index(n, inverse=True)


def _sequency_columns(n: int, inverse: bool = False) -> list[int]:
    """The images of the unit indices under the sequency map or its inverse."""
    if inverse:
        return [(3 << (n - 1 - j)) & ((1 << n) - 1) for j in range(n)]
    return [(1 << (n - j)) - 1 for j in range(n)]


def _sequency_index(n: int, inverse: bool = False) -> np.ndarray:
    """One of natural_to_sequency_perm's two arrays, for a caller that reads one."""
    return gf2_index(_sequency_columns(check_bits(n), inverse))


# cached: below n = 16, building the tables took about as long as the moves
@lru_cache(maxsize=64)
def _slab_tables(n: int) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """_to_sequency's tables for n bits: (a, b, (r0, r1)), read-only.

    gf2_index splits the inverse map's columns at low = n // 2, so the
    source of sequency position g = (g_hi, g_lo) is B[g_hi] ^ A[g_lo], with
    A the span of the first low columns and B the span of the rest. A lies
    on the top low bits of a source index and B on the bottom high =
    n - low, and the two share bit high, which B sets as r_p for g_hi of
    parity p (r = (0, 1) for n >= 2; (0, 0) for n = 1, whose one column
    loses that bit to the truncation). In the (2**low, 2**high) view of the
    source, g's entry sits at row a[g_lo] ^ r_p and column b[g_hi].
    """
    columns = _sequency_columns(n, inverse=True)
    low = n // 2
    high = n - low
    spans = _gf2_span(columns[:low]), _gf2_span(columns[low:])
    a, b = spans[0] >> high, spans[1] & ((1 << high) - 1)
    return _read_only(a), _read_only(b), (0, int(spans[1][1] >> high))


def _to_sequency(y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """y's entry for natural row s written at sequency position sequency_of(s, n) of out.

    A permutation in cache-sized slabs, with no N-entry index (Carter &
    Gatlin's cache-blocked bit reversal, FOCS 1998). y is viewed as
    (2**low, 2**high) rows and out as a (2**high, 2**low) grid, and
    out[g_hi, g_lo] = y[a[g_lo] ^ r_p, b[g_hi]] (see _slab_tables). For each
    parity p and _SLAB_ROWS values of g_lo at a time, one gather of whole
    rows, one gather of their columns and one transposed write that stays
    in cache. It moves values and does no arithmetic.
    """
    n = y.size.bit_length() - 1
    a, b, r = _slab_tables(n)
    rows = y.reshape(a.size, b.size)
    grid = out.reshape(b.size, a.size)
    for p in (0, 1):
        source, columns = a ^ r[p], b[p::2]
        for i in range(0, a.size, _SLAB_ROWS):
            grid[p::2, i : i + _SLAB_ROWS] = rows[source[i : i + _SLAB_ROWS]][:, columns].T
    return out


def _empty(like: np.ndarray, size: int | None = None) -> np.ndarray:
    """An uninitialised 1-D array of like's dtype, like.size entries or size.

    From _ALIGN_FLOOR bytes its data starts on a page boundary: a uint8
    buffer one page longer, sliced where the page starts.
    """
    size = like.size if size is None else size
    nbytes = size * like.itemsize
    if nbytes < _ALIGN_FLOOR:
        return np.empty(size, like.dtype)
    raw = np.empty(nbytes + mmap.PAGESIZE, np.uint8)
    start = -raw.ctypes.data % mmap.PAGESIZE
    return raw[start : start + nbytes].view(like.dtype)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# 2**g x 2**g Hadamard matrices of signs, entry (k, j) = (-1)**(k.j), g <= _BLOCK_QUBITS
_HADAMARD_BLOCKS = tuple(
    _read_only(reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * g, np.ones((1, 1))))
    for g in range(_BLOCK_QUBITS + 1)
)


@lru_cache(maxsize=128)
def _hadamard_plan(qubits: tuple, scale: float) -> tuple[tuple[int, int, np.ndarray], ...]:
    """_hadamard_layer's blocks as (lowest bit, width, sign matrix), scale folded into the last.

    Cached per qubit tuple and scale, so every caller shares the matrices:
    they are read-only.
    """
    qubits = sorted(qubits)
    blocks = []
    lo, g = qubits[0], 0
    for q in qubits:
        if q != lo + g or g == _BLOCK_QUBITS:
            blocks.append((lo, g, _HADAMARD_BLOCKS[g]))
            lo, g = q, 0
        g += 1
    matrix = _HADAMARD_BLOCKS[g]
    blocks.append((lo, g, matrix if scale == 1.0 else _read_only(matrix * scale)))
    return tuple(blocks)


def _hadamard_layer(a: np.ndarray, spare: np.ndarray, qubits, scale: float = 1.0):
    """scale times the unnormalized H on distinct index bits; returns the result and a free buffer.

    The sorted bits are cut into blocks of at most _BLOCK_QUBITS consecutive
    bits (Good's interaction algorithm), planned once per bit set and scale. A block of g bits from bit lo
    multiplies the middle axis of the (outer, 2**g, 2**lo) view by its sign
    matrix, scale folded into the last one (from the right on (rows, 2**g)
    when lo = 0), in BLAS products of at most _BLOCK_COLUMNS columns (rows);
    a block that is the whole of a is one row of a two-row product, so a
    block's bits do not depend on the size of a. The first block reads a;
    the blocks write spare and a in turn, or spare and a fresh buffer from
    _empty if a is read-only (the module's input rule). Real or complex a.
    """
    return _hadamard_blocks(a, spare, _hadamard_plan(tuple(qubits), scale))


def _hadamard_blocks(a: np.ndarray, spare: np.ndarray, plan):
    """_hadamard_layer on a plan _hadamard_plan has made, for a caller that
    plans its layers before it runs them, as run_circuit does."""
    back = a if a.flags.writeable else _empty(a)
    for lo, g, matrix in plan:
        if a.size == 1 << g:
            # numpy gives a one-row product to gemv, which rounds its sums
            # otherwise than gemm: the row of a two-row product keeps a
            # block's bits whatever the array's size
            spare[:] = np.matmul(np.stack((a, a)), matrix)[0]
        elif lo == 0:
            shape = (-1, min(a.size >> g, _BLOCK_COLUMNS), 1 << g)
            np.matmul(a.reshape(shape), matrix, out=spare.reshape(shape))
        elif 1 << lo <= _BLOCK_COLUMNS:
            shape = (-1, 1 << g, 1 << lo)
            np.matmul(matrix, a.reshape(shape), out=spare.reshape(shape))
        else:
            shape = (-1, 1 << g, (1 << lo) // _BLOCK_COLUMNS, _BLOCK_COLUMNS)
            np.matmul(matrix, a.reshape(shape).transpose(0, 2, 1, 3),
                      out=spare.reshape(shape).transpose(0, 2, 1, 3))
        a, spare, back = spare, back, spare
    return a, spare


def _scaled_fwht(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Natural-order transform of values with unitary scaling; returns it and a free buffer.

    One max/min scan finds the peak. In [2**-900, 2**900] it bounds every
    partial sum by N * peak < 2**964 (N < 2**64): the kernel reads a
    read-only view of values, so it writes two fresh buffers from _empty
    (page-aligned when large), and folds 2**(-n/2) into its last block for
    even n; odd n keeps one multiply by 1/sqrt(N). Other peaks go through
    peak_units (which rejects nan and inf), are summed in its units on the
    divided copy, which the kernel may overwrite, and leave them through
    _from_units (a coefficient beyond float64 raises). Where every sample
    is 0 or at least 2**-900 * max(1, unit) the two give the same bits, as
    power-of-two scaling commutes with normal-range rounding; the underflow of smaller
    ones (the divided copy's too) moves a coefficient by at most
    (n + 1) * sqrt(N) * max(1, unit) * 2**-1073 to first order.
    """
    n = values.size.bit_length() - 1
    unit, values = None, _read_only(values.view())
    if not 2.0 ** -900 <= max(float(values.max()), -float(values.min())) <= 2.0 ** 900:
        unit, (values,) = peak_units(values)
    fold = unit is None and n % 2 == 0
    out, free = _hadamard_layer(values, _empty(values), range(n), 0.5 ** (n // 2) if fold else 1.0)
    if not fold:
        out *= 1.0 / np.sqrt(out.size)
    if unit is not None:
        out = _from_units(out, unit)
    return out, free


def fwht_natural(v) -> Coefficients:
    """Fast Walsh-Hadamard transform in natural (Hadamard) ordering.

    O(N log N) Hadamard blocks with unitary scaling. The matrix is self-inverse,
    so the same call transforms back. The order tag flips between "time" and
    "natural".
    """
    v = _as_coefficients(v)
    if v.order_tag == SEQUENCY:
        raise ValueError("sequency-tagged input; use wht_sequency to go back")
    bit_width(len(v))
    tag = NATURAL if v.order_tag == TIME else TIME
    return Coefficients(_scaled_fwht(v.values)[0], tag)


def wht_sequency(v, inverse: bool = False) -> Coefficients:
    """Walsh-Hadamard transform in sequency ordering.

    Natural-order fast transform, then place the coefficient of natural row
    s at sequency position g = sequency_of(s, n): a reorder in cache-sized
    slabs (_to_sequency) into the buffer the kernel freed, which builds no
    N-entry index. The matrix is symmetric and orthogonal, so it is its own
    inverse and the same product goes back; inverse is kept for callers that
    name the direction and changes no bit. The order tag flips between
    "time" and "sequency".
    """
    v = _as_coefficients(v)
    if v.order_tag == NATURAL:
        raise ValueError("natural-tagged input; use fwht_natural to go back")
    bit_width(len(v))
    out = _to_sequency(*_scaled_fwht(v.values))
    tag = SEQUENCY if v.order_tag == TIME else TIME
    return Coefficients(out, tag)


def sequency_matrix(n: int) -> np.ndarray:
    """Dense sequency-ordered matrix, built from the literal sign formula.

    Entry (k, j) carries sign (-1) to the power sum_r k_{n-1-r} (j_r xor
    j_{r+1}) with j_n = 0, scaled by 1/sqrt(N). Intended as a test oracle and
    for small demos; cost is O(4**n), hence the bound guard.
    """
    if check_bits(n) > BRUTE_FORCE_BOUND:
        raise ValueError(f"bit width {n} exceeds brute-force bound {BRUTE_FORCE_BOUND}")
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
    spectra. Summed in peak units; ValueError on a nan or inf sample and on
    a coefficient whose real or imaginary part is beyond float64.
    """
    v, _ = time_signal(v)
    unit, (scaled,) = peak_units(v.values)
    return _from_units(np.fft.fft(scaled, norm="ortho"), unit)
