"""Exhaustive counting engines: spreads, distances, lines, occurrences,
projection collisions, isotropic-triple search, and the sphere
spread/distance equivalence check.

The spread, line and occurrence censuses share one kernel.  The spread is
scale-invariant in each arm, so at a fixed apex it depends only on the
projective classes of the two arms: the kernel scales every arm so its
first nonzero coordinate is 1 and collapses the n-1 arms onto their k <=
min(n-1, (q^d-1)/(q-1)) classes with multiplicities.  The classes at an
apex are exactly the spanned lines through it.  Apexes are canonicalized
in blocks, so temporaries stay O(block * n * d).

The spread of two classes does not depend on the apex either, and the
arms from all n apexes fall into at most (q^d-1)/(q-1) classes.  So when
the apexes of a window share their classes, the spread and occurrence
censuses evaluate each class pair once per window, in one class spread
table that each apex reads by class id; otherwise each apex gets a table
of its own classes (``_spread_histogram`` gives the rule and the memory
bound).  Both censuses read one exact int64 histogram of the spreads of
all ordered triples, undefined ones in its last slot.  It is swept on
the calling thread: split over threads, each would build its own tables.

The class spread tables and the sphere check's origin-pair spreads come
from ``geom.arm_spreads``, the package's one batched spread: arms in logs
to elements, -1 where an arm norm is 0.  The order-k spread
``geom.arm_k_spreads`` lives beside it.  The isotropic-triple search builds
its orthogonality masks lazily, a block of rows on first use, and checks
independence by batched ``geom.eliminate`` calls over blocks of candidate
triples.  Seeded projections are ranked one ``geom.eliminate`` call per
round of rejection sampling over all their seeds, and their images are
counted from one ``Field.log_dot``; no census makes a scalar geometry call
per case.

Every kernel runs one code path for all fields, on discrete logs
(``Field.log``), and every inner product is ``Field.log_dot``.  Distances
come by polarization |x -+ y| = |x| + |y| -+ 2 x.y from one Gram matrix.
The sphere check compares the K distinct (spread, |a - b|, |a + b|) keys
of its m^2 origin pairs: O(m^2 + K^2) memory, never m^4.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

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
class EquivReport:
    quadruples_checked: int
    excluded: int
    violations: tuple[tuple[Vec, Vec, Vec, Vec], ...]


# -- spread sweeps -----------------------------------------------------------


def distinct_spreads(ps: PointSet, budget: int = DEFAULT_TRIPLE_BUDGET) -> SpreadCensus:
    """Census over all ordered triples (a, b, c) of distinct points with apex
    a: the set of defined spread values plus the undefined-triple tally."""
    hist = _sweep(ps, budget)
    q, n = ps.field.q, len(ps)
    values = tuple(int(v) for v in np.flatnonzero(hist[:q]))
    return SpreadCensus(
        defined_values=values,
        defined_count=len(values),
        undefined_triples=int(hist[q]),
        triples_scanned=n * (n - 1) * (n - 2),
    )


def spread_occurrences(ps: PointSet, gamma: int, budget: int = DEFAULT_TRIPLE_BUDGET) -> int:
    """Number of ordered triples of distinct points whose spread is gamma."""
    if not 0 <= gamma < ps.field.q:
        raise FormatError(f"gamma = {gamma} is not an element index of F_{ps.field.q}")
    return int(_sweep(ps, budget)[gamma])


def _sweep(ps: PointSet, budget: int) -> np.ndarray:
    """The spread histogram of all ordered triples: entry v < q counts the
    triples with spread v, entry q the undefined ones."""
    n = len(ps)
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    if n**3 > budget:
        raise BudgetExceeded(f"n^3 = {n ** 3} exceeds budget {budget}")
    hist = _spread_histogram(ps)
    if hist.sum() != n * (n - 1) * (n - 2):
        raise InternalError("spread histogram does not cover every ordered triple")
    return hist


def _spread_histogram(ps: PointSet) -> np.ndarray:
    """Exact int64 spread histogram of all ordered triples.

    Each apex with k classes reads a k x k block of class spreads.  Arms
    from classes c and c' form mult[c] * mult[c'] ordered pairs, less the
    pairs of one arm with itself on the diagonal; two arms of one class
    have the spread on the class diagonal (0, or -1 when isotropic).  The
    spread -1 indexes the last slot, which counts undefined triples.

    Consecutive apexes are buffered into windows of about _WINDOW_CELLS
    class representative coordinates.  When a window's class union u has
    u^2 at most both the sum of its apexes' k^2 and _TABLE_CELLS, one u x u
    table serves the window and each apex gathers its block by class id;
    otherwise each apex builds its own k x k table.  So the tables never
    hold more cells than per-apex tables would, and a set whose apexes
    share no classes gets a table per apex.  Memory beside the apex blocks
    is one window, O(_WINDOW_CELLS) rows and coordinates, and one table, at
    most _TABLE_CELLS cells of 2 or 4 bytes or one apex's k^2, built in row
    blocks of about _BLOCK_CELLS cells.
    """
    hist = np.zeros(ps.field.q + 1, dtype=np.int64)
    window: list = []
    cells = 0
    for mult, reps in _apex_classes(ps, range(len(ps))):
        window.append((mult, reps))
        cells += reps.size
        if cells >= _WINDOW_CELLS:
            _add_window(ps.field, window, hist)
            window, cells = [], 0
    if window:
        _add_window(ps.field, window, hist)
    return hist


# Apexes per block are chosen so block * n * d stays near this many cells.
_BLOCK_CELLS = 1 << 16
# About the most class representative coordinates buffered at once.
_WINDOW_CELLS = 1 << 19
# The most cells in one class spread table shared by a window of apexes.
_TABLE_CELLS = 1 << 21


def _add_window(fd: ff.Field, window: list, hist: np.ndarray) -> None:
    """Add the triples at a window of apexes, (mult, reps) per apex, to hist."""
    k = [len(mult) for mult, _ in window]
    reps = np.concatenate([r for _, r in window])
    # ids: window-wide class ids; first: the first row of each class
    _, first, ids = np.unique(
        _codes(reps[None], fd.zero_log)[0], return_index=True, return_inverse=True
    )
    u = len(first)
    if u * u <= min(sum(c * c for c in k), _TABLE_CELLS):
        table = _class_table(fd, reps[first])
        blocks = (table.take(c, 0).take(c, 1) for c in np.split(ids, np.cumsum(k)[:-1]))
    else:
        blocks = (_class_table(fd, r) for _, r in window)
    for (mult, _), block in zip(window, blocks):
        pairs = np.multiply.outer(mult, mult)
        pairs.flat[:: len(mult) + 1] -= mult  # the diagonal
        np.add.at(hist, block.ravel(), pairs.ravel())


def _class_table(fd: ff.Field, reps: np.ndarray) -> np.ndarray:
    """The u x u spreads of all pairs of class representatives reps (u, d;
    logs), -1 where undefined: int16 while q < 2^15, else int32.  Built in
    row blocks so temporaries stay near _BLOCK_CELLS cells."""
    u = len(reps)
    table = np.empty((u, u), dtype=np.int16 if fd.q < 1 << 15 else np.int32)
    step = max(1, _BLOCK_CELLS // u)
    for lo in range(0, u, step):
        table[lo : lo + step] = geom.arm_spreads(fd, reps[lo : lo + step, None], reps[None])
    return table


def _apex_classes(ps: PointSet, apexes: range):
    """Per apex a in `apexes`, collapse the n-1 arms b - a onto their k
    projective classes (first nonzero coordinate scaled to 1).

    Yields (mult, reps) per apex in order: mult[c] is the number of arms in
    class c, and reps (k, d; logs) holds one representative per class.  The
    spread is scale-invariant, so the spread of reps c and c' is that of
    every arm pair drawn from classes c and c'.
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
        code = _codes(canon, fd.zero_log)
        order = np.argsort(code, axis=1)
        code = np.take_along_axis(code, order, axis=1)
        for r in range(len(block)):
            # The apex's own zero arm has the least code and sorts first.
            starts = np.flatnonzero(code[r, 1:] != code[r, :-1]) + 1
            yield np.diff(starts, append=n), canon[r, order[r, starts]]


def _codes(canon: np.ndarray, zero: int) -> np.ndarray:
    """Integer codes (B, N) of the canonical arms canon (B, N, d; logs,
    `zero` the log of 0): equal exactly for equal arms across the whole
    array, and least for the zero arm.

    A code reads the digits zero - log in base zero + 1; when the next
    digit could overflow int64 the codes are first replaced by their ranks
    over the whole array, which keeps their order and equality.
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
    return code


# -- distances ---------------------------------------------------------------


def distinct_distances(ps: PointSet, budget: int = DEFAULT_PAIR_BUDGET) -> DistanceCensus:
    """Distances over unordered pairs of distinct points, reported both with
    and without the value 0 (conventions differ on whether 0 counts)."""
    n = len(ps)
    _check_pairs(n, budget)
    fd = ps.field
    dmat = next(_pair_distances(fd, fd.log[ps.as_array()]))
    values = np.unique(fd.exp[dmat[np.triu_indices(n, k=1)]]).tolist()
    return DistanceCensus(
        values=tuple(values),
        nonzero_values=tuple(v for v in values if v != 0),
        pairs_scanned=n * (n - 1) // 2,
    )


def _pair_distances(fd: ff.Field, pts: np.ndarray):
    """Yields the logs of |x - y|, then (only if asked for) of |x + y|, for all
    pairs of rows of pts (n, d; logs), by polarization from one Gram matrix."""
    gram = fd.log_dot(pts[:, None, :], pts[None, :, :])
    nrm = gram.diagonal()
    norms = fd.log_add(nrm[:, None], nrm[None, :])
    cross = fd.log_mul(gram, fd.log[fd.neg(2)])  # -2 x.y
    del gram, nrm
    yield fd.log_add(norms, cross)
    yield fd.log_add(norms, fd.log_neg(cross))


def _check_pairs(n: int, budget: int) -> None:
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    if n * n > budget:
        raise BudgetExceeded(f"n^2 = {n * n} exceeds budget {budget}")


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
    _check_pairs(n, budget)
    pair_counts = np.zeros(n, dtype=np.int64)  # N_c, indexed by c
    max_degree = 0
    for mult, _ in _apex_classes(ps, range(n)):
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


def random_projection(fd: ff.Field, d: int, k: int, seed: int) -> geom.Matrix:
    """Seeded uniform k x d matrix, rejection-sampled until it has rank k;
    returns its k rows."""
    return random_projections(fd, d, k, [seed])[0]


def random_projections(fd: ff.Field, d: int, k: int, seeds: Sequence[int]) -> list[geom.Matrix]:
    """``random_projection`` for each seed: each draws from its own
    ``random.Random(seed)``, k rows of d values below q per sample, until a
    sample has rank k.  Each round ranks the pending samples in one
    ``geom.eliminate`` call, and only the rank-deficient ones draw again."""
    if not 1 <= k <= d:
        raise DimensionMismatch(f"need 1 <= k <= d, got k = {k}, d = {d}")
    rngs = [random.Random(seed) for seed in seeds]
    found: list[Optional[geom.Matrix]] = [None] * len(seeds)
    pending = list(range(len(seeds)))
    for _ in range(1000):
        if not pending:
            break
        samples = [
            tuple(tuple(rngs[i].randrange(fd.q) for _ in range(d)) for _ in range(k))
            for i in pending
        ]
        ranks = geom.eliminate(fd, fd.log[np.array(samples)])[0]
        for i, rows, r in zip(pending, samples, ranks):
            if r == k:
                found[i] = rows
        pending = [i for i, r in zip(pending, ranks) if r != k]
    if pending:
        raise InternalError("rank-k sample not found in 1000 attempts")
    return found


def collision_count(ps: PointSet, rows: geom.Matrix) -> int:
    """Unordered pairs of points with equal images under the projection rows."""
    m = _image_counts(ps, rows)
    return int((m * (m - 1) // 2).sum())


def image_size(ps: PointSet, rows: geom.Matrix) -> int:
    return len(_image_counts(ps, rows))


def _image_counts(ps: PointSet, rows: geom.Matrix) -> np.ndarray:
    """The number of points on each distinct image under the projection rows."""
    if len(rows[0]) != ps.dim:
        raise DimensionMismatch(
            f"projection expects dimension {len(rows[0])}, point set has {ps.dim}"
        )
    fd = ps.field
    images = fd.log_dot(fd.log[ps.as_array()][:, None], fd.log[np.array(rows)][None])
    return np.unique(_codes(images[None], fd.zero_log)[0], return_counts=True)[1]


# -- isotropic triple search -------------------------------------------------------


def search_iso_triple(
    fd: ff.Field, d: int, budget: int = geom.DEFAULT_ENUM_BUDGET
) -> Optional[list[Vec]]:
    """Exhaustive search for three mutually orthogonal, linearly independent
    isotropic vectors in F_q^d; None when no triple exists.

    Isotropy and orthogonality are scale-invariant, so the scan runs over one
    representative per projective class (first nonzero coordinate 1) and
    returns the lexicographically first triple of representatives.
    Independence is re-verified by a rank check: the sum of two orthogonal
    isotropic vectors is again orthogonal isotropic, so pairwise
    non-proportionality is not enough.  The orthogonality masks are built
    in row blocks of about _MASK_CELLS cells as the scan first reads them,
    and the candidates are ranked in batched eliminations over blocks of
    consecutive triples, which double from 16 triples up to about
    _BLOCK_CELLS coordinates, so an early find costs one small block of
    each.
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
    arr = fd.log[np.array(reps, dtype=np.int32)]
    mask = _orthogonality_masks(fd, arr)
    triples = (  # i < j < k, pairwise orthogonal, in lexicographic order
        (i, j, k)
        for i in range(m)
        for j in _bits(mask(i) >> (i + 1) << (i + 1))
        for k in _bits(mask(i) & mask(j) >> (j + 1) << (j + 1))
    )
    most = max(1, _BLOCK_CELLS // (3 * d))
    step = min(16, most)
    while chunk := list(itertools.islice(triples, step)):
        hits = np.flatnonzero(geom.eliminate(fd, arr[np.array(chunk)])[0] == 3)
        if len(hits):
            return [reps[t] for t in chunk[hits[0]]]
        step = min(2 * step, most)
    return None


def _bits(mask: int):
    """The positions of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _isotropic_reps(fd: ff.Field, d: int) -> list[Vec]:
    """The sphere |x| = 0 with one vector per projective class (first
    nonzero coordinate 1, so not the zero vector), in lexicographic order."""
    out = []
    for coords in geom.sphere_blocks(fd, d, 0):
        lead = np.take_along_axis(coords, (coords != 0).argmax(axis=1)[:, None], axis=1)
        out.extend(map(tuple, coords[lead[:, 0] == 1].tolist()))
    return out


# Rows per block of orthogonality masks are chosen so block * m stays near
# this many cells.
_MASK_CELLS = 1 << 18


def _orthogonality_masks(fd: ff.Field, arr: np.ndarray):
    """Lazy per-representative bitmasks of orthogonal partners among the rows
    of arr (m, d; logs): mask(i) has bit j set when rows i and j are
    orthogonal.  The first call in a block of rows builds the masks of the
    whole block, so memory stays proportional to block x m and a search
    that ends early builds only the blocks it read."""
    m = len(arr)
    step = max(1, _MASK_CELLS // m)
    masks: list[Optional[int]] = [None] * m

    def mask(i: int) -> int:
        if masks[i] is None:
            lo = i - i % step
            g = fd.log_dot(arr[lo : lo + step, None, :], arr[None, :, :])
            for r, row in enumerate(g == fd.zero_log, lo):
                masks[r] = int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        return masks[i]

    return mask


# -- sphere spread/distance equivalence ----------------------------------------------


# The most violating quadruples a sphere check report lists.
_MAX_VIOLATIONS = 50


def sphere_equiv_check(
    fd: ff.Field, d: int, budget: int = geom.DEFAULT_ENUM_BUDGET
) -> EquivReport:
    """Exhaustively test, over quadruples (a, b, c, e) on the unit sphere with
    both origin-apex spreads defined, that spread(0,a,b) = spread(0,c,e) holds
    exactly when |a-b| = |c-e| or |a-b| = |c+e|.  The report lists the first
    _MAX_VIOLATIONS violations."""
    sph = geom.sphere_points(fd, d, 1, budget=budget)
    m = len(sph)
    if m**4 > budget:
        raise BudgetExceeded(f"|S1|^4 = {m ** 4} exceeds budget {budget}")
    pts = fd.log[sph.as_array()]
    # The verdict on origin pairs (a, b), (c, e) depends only on their keys
    # (spread, |a - b|, |a + b|); undefined pairs have spread -1.
    pair_keys = np.stack([geom.arm_spreads(fd, pts[:, None], pts[None]), *_pair_distances(fd, pts)], axis=-1)
    keys, inverse, counts = np.unique(
        pair_keys.reshape(-1, 3), axis=0, return_inverse=True, return_counts=True
    )
    inverse = inverse.ravel()  # 2-d for an axis on some numpy versions
    s, dm, dp = keys.T
    defined = s >= 0
    eq_rhs = (dm[:, None] == dm[None, :]) | (dm[:, None] == dp[None, :])
    bad = ((s[:, None] == s[None, :]) != eq_rhs) & defined[:, None] & defined[None, :]
    # Violations in row-major order of (a, b), then (c, e).
    quads = (
        (i, j)
        for i in np.flatnonzero(bad.any(axis=1)[inverse])
        for j in np.flatnonzero(bad[inverse[i]][inverse])
    )
    pairs = list(itertools.product(sph.points, repeat=2))  # by flat index a * m + b
    violations = [pairs[i] + pairs[j] for i, j in itertools.islice(quads, _MAX_VIOLATIONS)]
    checked = int(counts[defined].sum()) ** 2
    return EquivReport(
        quadruples_checked=checked,
        excluded=m**4 - checked,
        violations=tuple(violations),
    )
