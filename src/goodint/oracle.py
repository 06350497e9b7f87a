"""Ground-truth deciders.

Two independent routes to the same answer: a definitional brute-force scan
of a**k + b**k mod ell, and an exact oracle built on the multiplicative
order of x = a * b**-1.  The equivalence of the two is what the rest of the
package is validated against.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from . import arith
from .core import Pair, Verdict

# tuple.__new__ skips the Python-level __new__ NamedTuple generates, so every
# Verdict built with it passes all eight fields.
_new = tuple.__new__


def order_oracle_verdict(pair: Pair, ell: int) -> Verdict:
    """Exact verdict from the order of x = a*b**-1 mod ell.

    ell | a**k + b**k iff x**k = -1 (mod ell).  For ell > 2 every witness
    is congruent mod the order of x to the smallest one,
    arith.smallest_negation_exponent, whose parity settles oddly/evenly.
    An ell that shares a prime with ab is bad at any size, and is answered
    before any order is taken; any other ell above 2**63, factorize's
    bound, raises ValueError.
    """
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    if math.gcd(pair.a * pair.b, ell) != 1:
        # A shared prime would have to divide both a and b.
        return _new(Verdict, (ell, False, False, False, None, "oracle", None, None))
    if ell <= 2:
        return _new(Verdict, (ell, True, True, True, 1, "oracle", None, None))
    k = arith.smallest_negation_exponent(pair.residue(ell), ell)
    if k is None:
        return _new(Verdict, (ell, False, False, False, None, "oracle", None, None))
    odd = k % 2 == 1
    return _new(Verdict, (ell, True, odd, not odd, k, "oracle", None, None))


def brute_force_verdict(pair: Pair, ell: int) -> Verdict:
    """Definitional verdict: scan k = 1..2*ell for ell | a**k + b**k.

    Records the smallest witness overall and the smallest odd and even
    witnesses, updating running powers incrementally.  The scan stops early
    only at the first k that is no hit with a**k = b**k = 1 (mod ell).  If
    k is even, the pair of powers repeats with an even period from there,
    so no new witness or parity can appear.  If k is odd, ell > 2 (1 + 1 is
    a hit mod 1 and 2) and the order of a * b**-1 divides k, so -1 is no
    power of it and there is no witness at all.  That k is at most
    lambda(ell) < 2*ell, so the bound only matters when gcd(ab, ell) > 1,
    or when ell <= 2, where every k is a hit.
    """
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell}")
    a = pair.a % ell
    b = pair.b % ell
    pa, pb = a, b
    w_odd = w_even = 0
    for k in range(1, 2 * ell + 1):
        if (pa + pb) % ell == 0:
            if k & 1:
                if not w_odd:
                    w_odd = k
            elif not w_even:
                w_even = k
        elif pa == pb == 1:
            break
        pa = pa * a % ell
        pb = pb * b % ell
    return _verdict(ell, w_odd, w_even)


def _verdict(ell: int, w_odd: int, w_even: int) -> Verdict:
    """Brute-force verdict from the smallest odd and even witnesses, 0 for none."""
    witness = min(w_odd, w_even) if w_odd and w_even else (w_odd or w_even or None)
    return _new(Verdict, (ell, witness is not None, w_odd > 0, w_even > 0, witness,
                          "brute_force", None, None))


# Exponents per block of a sweep, at most: a power of two, as its power
# tables are built by doubling, and even, so every block starts at an odd k.
_BLOCK = 32
# Largest ell_max a sweep accepts: 2 * 46340**2 < 2**32 <= 2 * 46341**2, so
# the sum of two products of residues below ell_max fits uint32.
_SWEEP_ELL_CAP = 46340
# Bytes of a swept pair's Python objects on CPython 3.11: its tuple of base
# indices (56) and its list slot.
_PAIR_BYTES = 64
# Bytes a group may allocate beyond its first pair's sweep: a sweep task's
# peak RSS grows by about as much.  At 1 MiB every largest accepted sweep
# peaks within 5 % of the RSS it took with one pair per task.
_GROUP_EXTRA_BYTES = 1 << 20


def sweep_groups(pairs: list, ell_max: int) -> list[list]:
    """pairs (a, b) cut into contiguous groups for brute_force_sweeps.

    A cut falls wherever the next pair would make its group allocate more
    than its first pair's sweep plus _GROUP_EXTRA_BYTES: 4 * ell_max *
    (2B + 2) per distinct base past that pair's one or two (its table,
    products and running rows), 8 * ell_max + _PAIR_BYTES per pair past one
    (its first-hit rows and Python objects), and numpy's ufunc buffers,
    np.getbufsize() elements for each of three 4-byte operands, which one
    pair's arrays may not fill.
    """
    B = min(_BLOCK, 1 << (2 * ell_max - 1).bit_length())
    per_base, per_pair = 4 * ell_max * (2 * B + 2), 8 * ell_max + _PAIR_BYTES
    limit = _GROUP_EXTRA_BYTES - 12 * np.getbufsize()
    groups, group, bases = [], [], set()
    for pair in pairs:
        grown = len(bases) + len({*pair} - bases)
        if group and (grown - len({*group[0]})) * per_base + len(group) * per_pair > limit:
            groups.append(group)
            group, bases = [], set()
        group.append(pair)
        bases.update(pair)
    return groups + [group] if group else groups


def brute_force_sweep(pair: Pair, ell_max: int) -> list[Verdict]:
    """brute_force_verdict for every ell in 1..ell_max, vectorized.

    The one-pair call of brute_force_sweeps: a and b of any size, and a
    ValueError for an ell_max below 0 or above 46340 before any array is
    built.
    """
    return next(brute_force_sweeps([(pair.a, pair.b)], ell_max))


def _divisor_tables(mods: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inv, thr, low) of each modulus ell = 2**s * d in mods, d odd, for _divides.

    inv = d**-1 mod 2**32, by four Newton steps inv *= 2 - d*inv from
    inv = d: d*d = 1 mod 8, and a step from d*inv = 1 mod 2**j reaches
    1 mod 2**2j, so 3 right bits become 48.  thr = (2**32 - 1) // d and
    low = 2**s - 1.  All three are uint32, as mods must be.
    """
    low = (mods ^ (mods - 1)) >> 1
    d = mods // (low + 1)
    inv = d.copy()
    for _ in range(4):
        inv *= 2 - d * inv
    return inv, np.uint32(0xFFFFFFFF) // d, low


def _divides(u, inv, thr, low, out, spare) -> np.ndarray:
    """out = whether ell divides u, per column ell, by multiplication only.

    For uint32 u and ell = 2**s * d (d odd) with the arrays of
    _divisor_tables, ell | u iff v = u * inv mod 2**32 has v <= thr and
    v & low == 0 (Granlund and Montgomery, PLDI 1994; Lemire, Kaser and
    Kurz, SPE 2019).  As d is odd, u -> u * inv is a bijection mod 2**32
    with inverse v -> v * d.  If u = d*q, then v = q <= (2**32 - 1) / d, so
    v <= thr.  If v <= thr, then d*v <= 2**32 - 1, and d*v = u mod 2**32
    with both in 0..2**32 - 1, so u = d*v.  So d | u iff v <= thr, and then
    v = u / d, which 2**s divides iff u does, d being odd.  u is left as
    v & low, and spare as scratch; both are overwritten, as out is.
    """
    np.multiply(u, inv, out=u)
    np.less_equal(u, thr, out=out)
    np.bitwise_and(u, low, out=u)
    np.equal(u, 0, out=spare)
    return np.logical_and(out, spare, out=out)


def brute_force_sweeps(pairs: list[tuple[int, int]], ell_max: int) -> Iterator[list[Verdict]]:
    """brute_force_sweep of each pair in turn, over one table per distinct base.

    pairs are (a, b) ints, unvalidated.  k is a hit for ell when ell | a**k
    + b**k.  The exponent advances in blocks of B steps, B the smaller of
    _BLOCK and the least power of two >= 2*ell_max.  A table of v**j mod ell
    for j = 1..B is built once by doubling for each distinct base v among
    the pairs' a and b; each block multiplies every table by the running
    v**(k0-1) of its first exponent k0, one (B x moduli) product per base,
    and then tests each pair's sum of its two bases' products for
    divisibility by one wrapping multiply and compares (_divides).  The
    moduli ascend, so a block works on the suffix still live at k0, from
    index (k0 - 1) // 2: each modulus is scanned to the end of the block
    that passes its own bound 2*ell, without early stops.  The smallest odd
    and even hit of each modulus is kept: a block writes only the parities
    it hits that no earlier block hit, each at its first hit row.  The
    verdicts are yielded once every block is done, one pair's list at a
    time, in pair order.

    Hits past 2*ell change neither: if gcd(ab, ell) > 1, a prime of ell
    divides exactly one of a, b and no k is a hit; otherwise (a**k, b**k)
    mod ell is purely periodic with some period P <= ell, so a hit k > 2*ell
    has a smaller hit k - 2*P of the same parity.

    Bases are reduced into each modulus with Python ints, so operands of
    any size are accepted.  Every array is uint32 (an int32 operand would
    promote the sums to int64): residues are below ell, so each product is
    below 46340**2 and the sum of two below 2**32 for ell_max <= 46340, so
    _divides sees each sum unwrapped; a larger ell_max is refused before any
    array is built.  Arrays are reduced only by np.remainder with an out
    array, once per doubling step and once per block, whatever the number
    of pairs.
    """
    if ell_max < 0:
        raise ValueError(f"ell_max must be non-negative, got {ell_max}")
    if ell_max > _SWEEP_ELL_CAP:
        raise ValueError(f"ell_max must be at most {_SWEEP_ELL_CAP}, got {ell_max}")
    B = min(_BLOCK, 1 << (2 * ell_max - 1).bit_length())
    half = B // 2
    mods = np.arange(1, ell_max + 1, dtype=np.uint32)
    index = {}
    sides = [(index.setdefault(a, len(index)), index.setdefault(b, len(index)))
             for a, b in pairs]
    # pows[i] row j - 1 holds v**j mod ell for the i-th distinct base v; rows
    # s..2s-1 are rows 0..s-1 times row s-1, v**(s+i) = v**i * v**s.
    pows = np.empty((len(index), B, ell_max), dtype=np.uint32)
    for tab, v in zip(pows, index):
        tab[0] = np.fromiter((v % m for m in range(1, ell_max + 1)), np.uint32, ell_max)
    s = 1
    while s < B:
        np.remainder(pows[:, :s] * pows[:, s - 1:s], mods, out=pows[:, s:2 * s])
        s *= 2
    prods = np.empty(pows.size, dtype=np.uint32)  # a block's unreduced products
    first = np.zeros((len(sides), 2, ell_max), dtype=np.uint32)  # smallest odd, even hit; 0 for none
    # v**(k0 - 1) mod ell in the live columns.  1 is reduced for ell >= 2, and
    # the ell = 1 column, where every table entry is 0, is live in block 1 only.
    run = np.ones((len(index), ell_max), dtype=np.uint32)
    divisor = _divisor_tables(mods)
    total = np.empty(B * ell_max, dtype=np.uint32)
    scratch = np.empty((2, B * ell_max), dtype=bool)  # _divides' out, spare
    for k0 in range(1, 2 * ell_max + 1, B):
        lo = (k0 - 1) // 2
        live = ell_max - lo
        block = prods[:len(pows) * B * live].reshape(len(pows), B, live)
        np.multiply(pows[:, :, lo:], run[:, None, lo:], out=block)
        # The next block starts half columns further on.
        np.remainder(block[:, -1, half:], mods[lo + half:], out=run[:, lo + half:])
        u = total[:B * live].reshape(B, live)
        flags, spare = (f[:B * live].reshape(B, live) for f in scratch)
        tables = [t[lo:] for t in divisor]
        for found, (i, j) in zip(first[:, :, lo:], sides):
            np.add(block[i], block[j], out=u)
            _divides(u, *tables, flags, spare)
            # Row pairs (k odd, k even): hit[r, p] holds k = k0 + 2r + p.
            hit = flags.reshape(half, 2, -1)
            par, col = np.nonzero(hit.any(axis=0) & (found == 0))
            found[par, col] = k0 + par + 2 * hit[:, par, col].argmax(axis=0)
    ells = range(1, ell_max + 1)
    for rows in first:
        yield list(map(_verdict, ells, *rows.tolist()))
