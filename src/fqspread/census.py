"""Exhaustive counting engines: spreads, distances, lines, occurrences,
projection collisions, isotropic-triple search, and the sphere
spread/distance equivalence check.

The spread, line and occurrence censuses share one kernel.  The spread is
scale-invariant in each arm, so at a fixed apex it depends only on the
projective classes of the two arms: the kernel scales every arm so its
first nonzero coordinate is 1 and collapses the n-1 arms onto their k <=
min(n-1, (q^d-1)/(q-1)) classes with multiplicities.  Spreads are then
evaluated on the k x k class Gram matrix, and the classes at an apex are
exactly the spanned lines through it.  Apexes are canonicalized in blocks,
so temporaries stay O(block * n * d).  Every kernel runs one code path for
all fields: coordinates become discrete logs (``Field.log``) and all
arithmetic gathers from the field's O(q) log arrays; the spread
1 - g^2 / (|u||v|) of the class Gram matrix is one gather.  Sweeps split
the apexes into ranges merged associatively, so results never depend on
the worker count.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ff, geom
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    FormatError,
    InternalError,
    TooFewPoints,
)
from .geom import PointSet, Vec

DEFAULT_TRIPLE_BUDGET = 10**9
DEFAULT_PAIR_BUDGET = 10**9
DEFAULT_ENUM_BUDGET = 10**8


@dataclass(frozen=True)
class SpreadCensus:
    defined_values: tuple[int, ...]  # sorted
    defined_count: int
    undefined_triples: int
    triples_scanned: int


@dataclass(frozen=True)
class DistanceCensus:
    values: tuple[int, ...]  # sorted, over unordered pairs
    nonzero_values: tuple[int, ...]
    pairs_scanned: int


@dataclass(frozen=True)
class LineCensus:
    lines: int
    max_degree: int
    pairs_scanned: int


@dataclass(frozen=True)
class Projection:
    field: ff.Field
    rows: tuple[Vec, ...]  # k rows of length d, rank k

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def d(self) -> int:
        return len(self.rows[0])

    def apply(self, v: Vec) -> Vec:
        return geom.mat_vec(self.field, self.rows, v)


@dataclass(frozen=True)
class EquivReport:
    quadruples_checked: int
    excluded: int
    violations: tuple[tuple[Vec, Vec, Vec, Vec], ...]


# -- spread sweeps -----------------------------------------------------------


def distinct_spreads(
    ps: PointSet, budget: int = DEFAULT_TRIPLE_BUDGET, workers: int = 1
) -> SpreadCensus:
    """Census over all ordered triples (a, b, c) of distinct points with apex
    a: the set of defined spread values plus the undefined-triple tally."""
    n = len(ps)
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    if n**3 > budget:
        raise BudgetExceeded(f"n^3 = {n ** 3} exceeds budget {budget}")
    seen, undef = _sweep(ps, workers, gamma=None)
    values = tuple(int(v) for v in np.nonzero(seen)[0])
    return SpreadCensus(
        defined_values=values,
        defined_count=len(values),
        undefined_triples=undef,
        triples_scanned=n * (n - 1) * (n - 2),
    )


def spread_occurrences(
    ps: PointSet, gamma: int, budget: int = DEFAULT_TRIPLE_BUDGET, workers: int = 1
) -> int:
    """Number of ordered triples of distinct points whose spread is gamma."""
    if not 0 <= gamma < ps.field.q:
        raise FormatError(f"gamma = {gamma} is not an element index of F_{ps.field.q}")
    n = len(ps)
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    if n**3 > budget:
        raise BudgetExceeded(f"n^3 = {n ** 3} exceeds budget {budget}")
    count, _ = _sweep(ps, workers, gamma)
    return count


def _sweep(ps: PointSet, workers: int, gamma: Optional[int]):
    apexes = range(len(ps))
    if workers <= 1:
        return _spread_chunk(ps, apexes, gamma)
    chunks = _split(apexes, workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda c: _spread_chunk(ps, c, gamma), chunks))
    acc, extra = parts[0]
    for a, e in parts[1:]:
        acc = acc | a if isinstance(acc, np.ndarray) else acc + a
        extra += e
    return acc, extra


def _split(rng: range, k: int) -> list[range]:
    n = len(rng)
    k = max(1, min(k, n))
    step = (n + k - 1) // k
    return [rng[i : i + step] for i in range(0, n, step)]


def _spread_chunk(ps: PointSet, apexes: range, gamma: Optional[int]):
    """One apex range of the triple sweep, read off the arm classes.

    Returns (seen-values bool array, undefined count) when gamma is None,
    else (occurrence count, 0).
    """
    n = len(ps)
    seen = np.zeros(ps.field.q + 1, dtype=bool)  # the last slot collects -1
    count = 0
    undef = 0
    for mult, val in _apex_classes(ps, apexes, spreads=True):
        nonisotropic = val.diagonal() >= 0
        # Two arms of one non-isotropic class: a collinear triple, spread 0.
        collinear = int((mult * (mult - 1))[nonisotropic].sum())
        np.fill_diagonal(val, -1)
        if gamma is None:
            seen[val] = True
            seen[0] |= collinear > 0
            m = int(mult[nonisotropic].sum())
            undef += (n - 1) * (n - 2) - m * (m - 1)
        else:
            hits = (val == gamma) & (val >= 0)
            count += int(mult @ hits @ mult) + (collinear if gamma == 0 else 0)
    return (count, 0) if gamma is not None else (seen[:-1], undef)


# Apexes per block are chosen so block * n * d stays near this many cells.
_BLOCK_CELLS = 1 << 16


def _apex_classes(ps: PointSet, apexes: range, spreads: bool):
    """Per apex a in `apexes`, collapse the n-1 arms b - a onto their k
    projective classes (first nonzero coordinate scaled to 1).

    Yields (mult, val) per apex in order: mult[c] is the number of arms in
    class c, and val is the k x k int matrix of spreads between class
    representatives, -1 where undefined (an isotropic class), or None when
    `spreads` is false.  The spread is scale-invariant, so val[c, c'] is the
    spread of every arm pair drawn from classes c and c'; val[c, c] is 0 for
    a non-isotropic class.
    """
    fd = ps.field
    pts = fd.log[ps.as_array()]
    neg = fd.log_neg(pts)
    n, d = pts.shape
    step = max(1, _BLOCK_CELLS // (n * d))
    for lo in range(0, len(apexes), step):
        block = np.asarray(apexes[lo : lo + step])
        arms = fd.log_add(neg[block, None, :], pts[None, :, :])  # (B, n, d)
        lead = np.take_along_axis(arms, (arms != fd.zero_log).argmax(axis=2)[..., None], axis=2)
        canon = fd.log_mul(arms, -lead % (fd.q - 1))  # the zero arm b = a stays zero
        order, code = _sorted_codes(canon, fd.zero_log)
        for r in range(len(block)):
            # The apex's own zero arm has the least code and sorts first.
            starts = np.flatnonzero(code[r, 1:] != code[r, :-1]) + 1
            mult = np.diff(starts, append=n)
            val = None
            if spreads:
                val = _class_spread_matrix(fd, canon[r, order[r, starts]])
            yield mult, val


def _sorted_codes(canon: np.ndarray, zero: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer codes of the canonical arms (logs, `zero` the log of 0),
    sorted within each apex row.

    A code reads the digits zero - log in base zero + 1, so the zero arm
    has the least code; when the next digit could overflow int64 the codes
    are first replaced by their ranks, which keeps the order and the
    equality of codes.  Returns (argsort, sorted codes).
    """
    code = np.zeros(canon.shape[:2], dtype=np.int64)
    span = 1
    for c in range(canon.shape[2]):
        if span * (zero + 1) >= 1 << 62:
            ranks = np.unique(code, return_inverse=True)[1]
            code = ranks.reshape(code.shape).astype(np.int64)
            span = code.size
        code = code * (zero + 1) + (zero - canon[:, :, c])
        span *= zero + 1
    order = np.argsort(code, axis=1)
    return order, np.take_along_axis(code, order, axis=1)


def _class_spread_matrix(fd: ff.Field, reps: np.ndarray) -> np.ndarray:
    """Spreads between the rows of reps (k, d; logs), -1 where either norm
    is 0."""
    cols = reps.T
    gram = fd.log_mul(cols[0][:, None], cols[0][None, :])
    for col in cols[1:]:
        gram = fd.log_add(gram, fd.log_mul(col[:, None], col[None, :]))
    nrm = gram.diagonal()
    val = fd.spread_from_logs(gram, nrm[:, None], nrm[None, :])
    isotropic = nrm == fd.zero_log
    val[isotropic, :] = -1
    val[:, isotropic] = -1
    return val


# -- distances ---------------------------------------------------------------


def distinct_distances(ps: PointSet) -> DistanceCensus:
    """Distances over unordered pairs of distinct points, reported both with
    and without the value 0 (conventions differ on whether 0 counts)."""
    n = len(ps)
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    fd = ps.field
    pts = fd.log[ps.as_array()]
    neg = fd.log_neg(pts)
    dmat = np.full((n, n), fd.zero_log, dtype=np.int32)
    for c in range(ps.dim):
        t = fd.log_add(pts[:, c, None], neg[None, :, c])
        dmat = fd.log_add(dmat, fd.log_mul(t, t))
    iu = np.triu_indices(n, k=1)
    values = sorted(int(v) for v in np.unique(fd.exp[dmat[iu]]))
    return DistanceCensus(
        values=tuple(values),
        nonzero_values=tuple(v for v in values if v != 0),
        pairs_scanned=n * (n - 1) // 2,
    )


# -- spanned lines -------------------------------------------------------------


def spanned_lines(ps: PointSet, budget: int = DEFAULT_PAIR_BUDGET) -> LineCensus:
    """Distinct affine lines spanned by pairs of points, plus the largest
    number of spanned lines through any single point of the set.

    The spanned lines through an apex are its arm classes, so max_degree is
    the most classes at any apex.  A line holding m points appears as m
    (apex, class) pairs, each class holding m - 1 arms; with N_c the number
    of pairs whose class holds c arms, there are sum_c N_c / (c + 1) lines.
    """
    n = len(ps)
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    if n * n > budget:
        raise BudgetExceeded(f"n^2 = {n * n} exceeds budget {budget}")
    pair_counts = np.zeros(n, dtype=np.int64)  # N_c, indexed by c
    max_degree = 0
    for mult, _ in _apex_classes(ps, range(n), spreads=False):
        pair_counts += np.bincount(mult, minlength=n)
        max_degree = max(max_degree, len(mult))
    points_per_line = np.arange(1, n + 1)
    if (pair_counts % points_per_line).any():
        raise InternalError("arm-class counts do not partition into lines")
    return LineCensus(
        lines=int((pair_counts // points_per_line).sum()),
        max_degree=max_degree,
        pairs_scanned=n * (n - 1) // 2,
    )


def total_affine_lines(q: int, d: int) -> int:
    """q^(d-1) * (q^d - 1) / (q - 1): every affine line of F_q^d."""
    return q ** (d - 1) * (q**d - 1) // (q - 1)


# -- random projections ----------------------------------------------------------


def random_projection(fd: ff.Field, d: int, k: int, seed: int) -> Projection:
    """Seeded uniform k x d matrix, rejection-sampled until it has rank k."""
    if not 1 <= k <= d:
        raise DimensionMismatch(f"need 1 <= k <= d, got k = {k}, d = {d}")
    rng = random.Random(seed)
    for _ in range(1000):
        rows = [tuple(rng.randrange(fd.q) for _ in range(d)) for _ in range(k)]
        if geom.rank(fd, rows) == k:
            return Projection(fd, tuple(rows))
    raise InternalError("rank-k sample not found in 1000 attempts")


def collision_count(ps: PointSet, proj: Projection) -> int:
    """Unordered pairs of points with equal images under the projection."""
    if proj.d != ps.dim:
        raise DimensionMismatch(
            f"projection expects dimension {proj.d}, point set has {ps.dim}"
        )
    buckets: dict[Vec, int] = {}
    for p in ps.points:
        img = proj.apply(p)
        buckets[img] = buckets.get(img, 0) + 1
    return sum(m * (m - 1) // 2 for m in buckets.values())


def image_size(ps: PointSet, proj: Projection) -> int:
    return len({proj.apply(p) for p in ps.points})


# -- isotropic triple search -------------------------------------------------------


def search_iso_triple(
    fd: ff.Field, d: int, budget: int = DEFAULT_ENUM_BUDGET
) -> Optional[list[Vec]]:
    """Exhaustive search for three mutually orthogonal, linearly independent
    isotropic vectors in F_q^d; None when no triple exists.

    Isotropy and orthogonality are scale-invariant, so the scan runs over one
    representative per projective class (first nonzero coordinate 1) and
    returns the lexicographically first triple of representatives.
    Independence is re-verified by a rank check: the sum of two orthogonal
    isotropic vectors is again orthogonal isotropic, so pairwise
    non-proportionality is not enough.
    """
    if fd.q**d > budget:
        raise BudgetExceeded(f"q^d = {fd.q ** d} exceeds budget {budget}")
    reps = _isotropic_reps(fd, d)
    m = len(reps)
    if m < 3:
        return None
    if m * m > budget:
        raise BudgetExceeded(
            f"pair scan over {m}^2 = {m * m} representatives exceeds budget {budget}"
        )
    orth_masks = _orthogonality_masks(fd, reps)
    for i in range(m):
        partners = orth_masks[i] & ~((1 << (i + 1)) - 1)
        while partners:
            low = partners & -partners
            partners ^= low
            j = low.bit_length() - 1
            cand = orth_masks[i] & orth_masks[j] & ~((1 << (j + 1)) - 1)
            while cand:
                lowk = cand & -cand
                cand ^= lowk
                k = lowk.bit_length() - 1
                if geom.rank(fd, [reps[i], reps[j], reps[k]]) == 3:
                    return [reps[i], reps[j], reps[k]]
    return None


def _isotropic_reps(fd: ff.Field, d: int) -> list[Vec]:
    """Nonzero isotropic vectors with first nonzero coordinate 1, in
    lexicographic order."""
    q = fd.q
    out = []
    chunk = 1 << 18
    for lo in range(0, q**d, chunk):
        idx = np.arange(lo, min(q**d, lo + chunk), dtype=np.int64)
        coords = np.empty((len(idx), d), dtype=np.int32)
        rest = idx
        for c in range(d - 1, -1, -1):
            coords[:, c] = rest % q
            rest = rest // q
        logs = fd.log[coords]
        nrm = np.full(len(idx), fd.zero_log, dtype=np.int32)
        for c in range(d):
            nrm = fd.log_add(nrm, fd.log_mul(logs[:, c], logs[:, c]))
        nonzero = (coords != 0).any(axis=1)
        first_nz = (coords != 0).argmax(axis=1)
        lead_one = coords[np.arange(len(idx)), first_nz] == 1
        keep = nonzero & lead_one & (nrm == fd.zero_log)
        out.extend(map(tuple, coords[keep].tolist()))
    return out


def _orthogonality_masks(fd: ff.Field, reps: list[Vec]) -> list[int]:
    """Per-representative bitmasks of orthogonal partners, computed in row
    blocks so memory stays proportional to block x m, not m x m."""
    m = len(reps)
    arr = fd.log[np.array(reps, dtype=np.int32)]
    masks: list[int] = []
    block = max(1, min(m, (1 << 18) // max(m, 1)))
    for lo in range(0, m, block):
        hi = min(m, lo + block)
        g = np.full((hi - lo, m), fd.zero_log, dtype=np.int32)
        for c in range(arr.shape[1]):
            g = fd.log_add(g, fd.log_mul(arr[lo:hi, c, None], arr[None, :, c]))
        for row in g == fd.zero_log:
            bits = np.packbits(row, bitorder="little").tobytes()
            masks.append(int.from_bytes(bits, "little"))
    return masks


# -- sphere spread/distance equivalence ----------------------------------------------


def sphere_equiv_check(
    fd: ff.Field, d: int, budget: int = DEFAULT_ENUM_BUDGET, max_violations: int = 50
) -> EquivReport:
    """Exhaustively test, over quadruples (a, b, c, e) on the unit sphere with
    both origin-apex spreads defined, that spread(0,a,b) = spread(0,c,e) holds
    exactly when |a-b| = |c-e| or |a-b| = |c+e|."""
    sph = geom.sphere_points(fd, d, 1, budget=budget)
    m = len(sph)
    if m**4 > budget:
        raise BudgetExceeded(f"|S1|^4 = {m ** 4} exceeds budget {budget}")
    pts = fd.log[sph.as_array()]
    zero = fd.zero_log
    nrm = np.full(m, zero, dtype=np.int32)
    gram = np.full((m, m), zero, dtype=np.int32)
    dmat = gram.copy()
    smat = gram.copy()
    for c in range(d):
        col = pts[:, c]
        nrm = fd.log_add(nrm, fd.log_mul(col, col))
        gram = fd.log_add(gram, fd.log_mul(col[:, None], col[None, :]))
        dcol = fd.log_add(col[:, None], fd.log_neg(col)[None, :])
        dmat = fd.log_add(dmat, fd.log_mul(dcol, dcol))
        scol = fd.log_add(col[:, None], col[None, :])
        smat = fd.log_add(smat, fd.log_mul(scol, scol))
    nonisotropic = nrm != zero
    defined = (nonisotropic[:, None] & nonisotropic[None, :]).ravel()
    sval = fd.spread_from_logs(gram, nrm[:, None], nrm[None, :]).ravel()
    dval = dmat.ravel()  # logs: equal exactly when the distances are equal
    sumval = smat.ravel()

    eq_spread = sval[:, None] == sval[None, :]
    eq_rhs = (dval[:, None] == dval[None, :]) | (dval[:, None] == sumval[None, :])
    both = defined[:, None] & defined[None, :]
    bad = (eq_spread != eq_rhs) & both
    violations = []
    for flat1, flat2 in zip(*np.nonzero(bad)):
        if len(violations) >= max_violations:
            break
        a, b = divmod(int(flat1), m)
        c, e = divmod(int(flat2), m)
        violations.append((sph.points[a], sph.points[b], sph.points[c], sph.points[e]))
    return EquivReport(
        quadruples_checked=int(both.sum()),
        excluded=int(m**4 - both.sum()),
        violations=tuple(violations),
    )
