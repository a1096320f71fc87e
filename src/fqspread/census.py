"""Exhaustive counting engines: spreads, distances, lines, occurrences,
projection collisions, isotropic-triple search, and the sphere
spread/distance equivalence check.

A map of the module:

- ``spread_censuses`` and ``line_censuses`` census a stack of equal-size
  point sets in one kernel; ``distinct_spreads``, ``spread_occurrences``
  and ``spanned_lines`` are their one-set calls.  ``_stacks`` draws the
  sets lazily behind the gate ``check_triples`` or ``check_pairs``.
  ``spread_censuses`` runs the kernel's value mode, which stops a set once
  it holds all ``spread_value_count`` values F_q^d attains.
- ``_spread_histograms`` is the spread kernel, and its docstring states
  every rule of it and its memory bounds: the arm-class producer
  ``_arm_classes`` picks (``_apex_classes`` or
  ``_direction_classes``, each yielding blocks of flat class lists
  (lo, k, mult, reps)), and the window path ``_add_window`` picks
  (``_add_gram``, or ``_add_pairs``, whose one gather counts the arm pairs
  unweighted, their spreads read from a class table or evaluated on the
  repeated representatives).  A class table is (left, right, flat):
  for planes the cyclic closed form ``_plane_table``, read through the
  call's ``_plane_cycle``, whose logs for q = 3 mod 4 come from
  ``ff._plane_class_powers``, or the u x u ``_class_table`` raveled.
- ``distinct_distances`` visits the pairs in blocks, by polarization from
  Gram blocks (``_pair_distances``), until it has seen all
  ``distance_value_count`` values.
- ``random_projections`` ranks seeded projections in batches, and
  ``projection_images`` counts the collisions and image sizes of many
  projections at once.
- ``search_iso_triple`` scans isotropic representatives with lazy
  per-row orthogonality masks, each built when the scan first reads it;
  ``sphere_equiv_check`` compares the distinct (spread, |a - b|, |a + b|)
  keys of the unit sphere's origin pairs.  Both gate on closed-form
  sphere sizes (``geom.sphere_size``) before they walk F_q^d.

Every kernel runs one code path for all fields, on discrete logs
(``Field.log``): every inner product is ``Field.log_dot``.  The spread
kernel evaluates spreads by ``Field.spread_from_terms``, in
``_class_table`` and in the per-apex gather, and a plane's closed form by
``Field.spread_from_logs`` in ``_plane_cycle``; only
``sphere_equiv_check`` calls ``geom.arm_spreads``.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

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
    return spread_censuses([ps], budget)[0]


def spread_censuses(point_sets: Iterable[PointSet], budget: int = DEFAULT_TRIPLE_BUDGET) -> list[SpreadCensus]:
    """``distinct_spreads`` of each of a stack of point sets of one field,
    dimension and size, drawn from point_sets as the census needs them.

    A census reports which values occur, not how often, so the kernel stops
    gathering a set once it holds all ``spread_value_count`` values F_q^d
    attains: no value is left to find.  undefined_triples comes in closed
    form from each apex's isotropic arms, and triples_scanned is
    n (n - 1) (n - 2), the ordered triples the census decides."""
    sets = iter(point_sets)
    head = list(itertools.islice(sets, 1))  # the first set, whose size n every set shares
    n = len(head[0]) if head else 0
    out = []
    for hist in _sweep(itertools.chain(head, sets), budget, values=True):
        values = tuple(int(v) for v in np.flatnonzero(hist[:-1]))
        out.append(SpreadCensus(values, len(values), undefined_triples=int(hist[-1]), triples_scanned=n * (n - 1) * (n - 2)))
    return out


def spread_value_count(fd: ff.Field, d: int) -> int:
    """The number of defined spread values that triples of F_q^d attain:
    1 on a line, where every spread is 0; on the plane the image of the
    cyclic closed form (``_plane_cycle``), (q + 3)/2 for q = 3 mod 4 and
    (q + 1)/2 for q = 1 mod 4; q for d >= 3.  No point set determines
    more."""
    q = fd.q
    if d == 1:
        return 1
    if d == 2:
        return (q + 3) // 2 if q % 4 == 3 else (q + 1) // 2
    return q


def spread_occurrences(ps: PointSet, gamma: int, budget: int = DEFAULT_TRIPLE_BUDGET) -> int:
    """Number of ordered triples of distinct points whose spread is gamma."""
    if not 0 <= gamma < ps.field.q:
        raise FormatError(f"gamma = {gamma} is not an element index of F_{ps.field.q}")
    return int(next(_sweep([ps], budget))[gamma])


def check_triples(n: int, budget: int) -> None:
    """The gate of a spread census of n points."""
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    if n**3 > budget:
        raise BudgetExceeded(f"n^3 = {n ** 3} exceeds budget {budget}")


def _sweep(point_sets: Iterable[PointSet], budget: int, values: bool = False):
    """Yields the spread histogram of each set in turn: entry v < q counts
    the triples with spread v, entry q the undefined ones; exact, or with
    values the kernel's value mode, stopped at ``spread_value_count``."""
    for fd, logs in _stacks(point_sets, check_triples, budget):
        yield from _spread_histograms(fd, logs, spread_value_count(fd, logs.shape[2]) if values else None)


def _stacks(point_sets: Iterable[PointSet], gate, budget: int):
    """Yields (field, logs) for consecutive stacks of the point sets, logs
    (S, n, d; S at least 1), drawing the sets only as each stack is built.
    A stack holds about _WINDOW_CELLS cells: S times the n * d coordinates
    and the q + 1 histogram slots of a set.  gate(n, budget) judges the
    first set before any other is drawn; every set must share its field,
    dimension and size."""
    sets = iter(point_sets)
    head = next(sets, None)
    if head is None:
        raise FormatError("a census needs at least one point set")
    fd, d, n = head.field, head.dim, len(head)
    gate(n, budget)
    step = max(1, _WINDOW_CELLS // (n * d + fd.q + 1))
    sets = itertools.chain([head], sets)
    while stack := list(itertools.islice(sets, step)):
        for ps in stack:
            if (ps.field, ps.dim, len(ps)) != (fd, d, n):
                raise FormatError(f"a stacked census needs one field, dimension and size: {ps!r} after {head!r}")
        yield fd, fd.log.take(np.stack([ps.as_array() for ps in stack]), mode="wrap")


def _spread_histograms(fd: ff.Field, logs: np.ndarray, values: Optional[int] = None) -> np.ndarray:
    """Exact int64 spread histograms (S, q + 1) of all ordered triples of
    each of the S sets of logs (S, n, d); with values, a count of defined
    values no set can exceed, the value sets and undefined slots only.

    Every apex holds n - 1 arms, and counts each unordered pair of them
    once, then twice over.  The arms fall into k projective classes with
    multiplicities m; two arms of one class have the spread on the class
    table's diagonal, 0, or undefined when the class is isotropic.

    A block of apex rows lo, lo + 1, ... is a flat, row-major class list
    (lo, k, mult, reps): k (rows,) counts the classes at each row, mult
    (sum k,) and reps (sum k, d; logs) hold each class's multiplicity, at
    least 1, and canonical representative, and each row's multiplicities
    sum to n - 1.  The blocks come from one of two producers, picked by
    ``_arm_classes`` from U = (q^d - 1)/(q - 1) and n alone:
    ``_direction_classes`` when U <= n - 1, else ``_apex_classes``.  They
    fill U n and n (n - 1) cells a set, and each keeps its temporaries
    near _BLOCK_CELLS cells (``_direction_classes`` adds U q^(d-1) line
    counts per set, fewer than its U n cells).  The rule sits at the low
    end of the measured break-even of the two and needs no constant.

    The blocks are buffered into windows of about _WINDOW_CELLS class
    representative coordinates.  Let a window have rows apex rows, k
    classes on each and u in all.  Its class ids are window-wide, the ranks
    of the representatives' codes (``_class_ids``), whichever producer made
    the blocks.  A class table is (left, right, flat), the spread of
    classes c and c' being flat[left_c + right_c'] (q where undefined): the
    cyclic closed form of ``_plane_table`` for d = 2, 2N cells for the
    plane's N = q - 1 (q = 1 mod 4) or q + 1 (q = 3 mod 4) non-isotropic
    directions whatever u, its window-independent part built once per call
    (``_plane_cycle``); else the u x u ``_class_table`` raveled, left = c u
    and right = c, u^2 cells.  A window builds the first of these whose
    cells are at most both sum k^2 and _TABLE_CELLS: so a plane window of
    few directions at a large q, a line of q points say, where 2N outgrows
    sum k^2, still gets its small u x u table and the Gram path.  Then
    ``_add_window`` takes one of two paths:

    - the Gram path, when also u^2 is at most both sum k^2 and
      _TABLE_CELLS and rows * u^2 <= _GRAM_RATIO * sum k (k + 1) / 2: per
      set s, M_s (its rows in the window, u) holds each row's
      multiplicities by class id, G_s = M_s^T M_s less M_s's column sums on
      its diagonal counts the ordered arm pairs of every class pair, and
      G_s is added to the histogram by the value of the u x u table, one
      take of flat at left_c + right_c';
    - otherwise one gather (``_add_pairs``): a block's class ids repeated
      by their multiplicities give its (rows, n - 1) arm ids, the arm pairs
      go in tiles of arm positions, the rectangle beyond the tile plus the
      triangle inside it, and each tile's spreads, read from the table or,
      without one, evaluated by ``Field.log_dot`` and
      ``Field.spread_from_terms`` on the repeated representatives, each
      arm's norm term taken once per block, are counted by one unweighted
      ``np.bincount`` into a histogram of the window's sets.

    So a set whose apexes share no classes gets no table.  The Gram rule
    weighs the rows * u^2 multiply-adds of the integer product against the
    gather's sum k (k + 1) / 2 pairs, and _GRAM_RATIO = 8 stays under half
    their measured break-even.  README "Census kernel" and CHANGES.md hold
    the measurements.

    Memory beside the apex blocks is one window, O(_WINDOW_CELLS) rows and
    coordinates, and one table, at most _TABLE_CELLS cells of 2 or 4 bytes,
    built in row blocks of about _BLOCK_CELLS cells.  The gather goes in
    tiles of about _BLOCK_CELLS / 2 cells, or one row of arm positions of
    a block, into buffers of at least that many cells and as many as the
    histogram of the window's sets, which it adds, no larger than hist.
    The Gram path multiplies batches of sets of about _BLOCK_CELLS cells of
    M and G, or one set: G_s and its histogram indices are u x u int64, at
    most _TABLE_CELLS cells each, and as k <= u the rule bounds M by
    rows * u <= _GRAM_RATIO * sum (k + 1) / 2 cells, a small multiple of
    the window's multiplicity cells.  The sweep runs on the calling
    thread: split over threads, each would build its own tables.

    Every count is exact int64: a Gram entry sums products of two
    multiplicities below n over at most n rows, so it stays below n^3, as
    does every histogram slot, and the triple gate has admitted n^3.

    With values, the value mode, a set is finished once its defined slots
    hold that many nonzero counts, and its slots then stay as they are: a
    value slot is nonzero exactly where the value occurs, but it counts
    only the triples gathered before the set finished.  A window whose
    sets are all finished builds no class ids or table; the gather checks
    a block's sets after each full buffer, on the window's own counts plus
    what earlier windows added to hist, so a set straddling windows is
    judged whole, and skips the rest of a block whose sets are finished.
    The Gram path runs its windows whole.  The undefined slot comes in
    closed form instead, from the representatives' norms: an apex whose
    classes with isotropic representatives hold i of its arms has
    (n - 1)(n - 2) - (n - 1 - i)(n - 2 - i) ordered arm pairs with an
    isotropic arm, the undefined ones.  The producer runs on every apex
    row for this count.

    A set's rows' multiplicities must sum to n (n - 1), and the histogram
    of a set whose every triple was gathered, each set of an exact call
    and each unfinished set of the value mode, to n (n - 1) (n - 2), or
    the call raises ``InternalError``: the triples are not all covered.
    """
    s, n = logs.shape[:2]
    arms = None if values is None else np.zeros((2, s * n), dtype=np.int64)
    tally = _Tally(np.zeros(s * (fd.q + 1), dtype=np.int64), fd.q + 1, values, arms)
    plane = functools.cache(functools.partial(_plane_cycle, fd))  # built by the first window that needs it
    window: list = []
    cells = 0
    for block in _arm_classes(fd, logs):
        window.append(block)
        cells += block[3].size
        if cells >= _WINDOW_CELLS:
            _add_window(fd, n, window, tally, plane)
            window, cells = [], 0
    if window:
        _add_window(fd, n, window, tally, plane)
    hist = tally.hist.reshape(s, fd.q + 1)
    short = hist.sum(axis=1) != n * (n - 1) * (n - 2)
    if values is not None:
        # a finished set stops short; its rows must still hold every arm
        short &= np.count_nonzero(hist[:, :-1], axis=1) < values
        total, iso = arms.reshape(2, s, n)
        short |= total.sum(axis=1) != n * (n - 1)
        defined = n - 1 - iso
        hist[:, -1] = ((n - 1) * (n - 2) - defined * (defined - 1)).sum(axis=1)
    if short.any():
        raise InternalError("spread histogram does not cover every ordered triple")
    return hist


class _Tally(NamedTuple):
    """The flat histograms of a kernel call, slots = q + 1 a set, and
    values, the defined count that finishes a set; in the value mode also
    arms (2, S n), the arms and the isotropic arms of each apex row, and
    None where every triple is counted."""

    hist: np.ndarray
    slots: int
    values: Optional[int]
    arms: Optional[np.ndarray]

    def finished(self, s0: int, s1: int, partial: Optional[np.ndarray] = None) -> bool:
        """Whether each set s0 <= s < s1 holds values defined values in
        hist, plus partial, slots of those sets not yet added to it."""
        if self.values is None:
            return False
        got = self.hist[s0 * self.slots : s1 * self.slots]
        if partial is not None:
            got = got + partial
        return bool((np.count_nonzero(got.reshape(s1 - s0, self.slots)[:, :-1], axis=1) >= self.values).all())

    def add_arms(self, window: list, k: np.ndarray, isotropic: np.ndarray) -> None:
        """Record the arms and the isotropic arms of the window's apex
        rows, with k classes a row: the multiplicities of each row's
        classes, and of those flagged isotropic (sum k,).  Every row has a
        class, so no reduceat span is empty."""
        lo, mult = window[0][0], np.concatenate([m for _, _, m, _ in window])
        self.arms[:, lo : lo + len(k)] = np.add.reduceat(np.stack([mult, mult * isotropic]), np.cumsum(k) - k, axis=1)


# Apexes per block are chosen so block * n * d stays near this many cells,
# and arm pairs are counted in tiles of about half this many.
_BLOCK_CELLS = 1 << 16
# About the most cells in one stack of point sets (coordinates and histogram
# slots), and the most class representative coordinates buffered at once.
_WINDOW_CELLS = 1 << 19
# The most cells in one class spread table shared by a window of apexes.
_TABLE_CELLS = 1 << 21
# A shared-table window takes the Gram path when its rows * u^2
# multiply-adds are at most this many times its sum k (k + 1) / 2 gathered
# class pairs (see _spread_histograms).
_GRAM_RATIO = 8


def _add_window(fd: ff.Field, n: int, window: list, tally: _Tally, plane) -> None:
    """Add the triples at a window of blocks of apex rows, flat class lists
    (lo, k, mult, reps) per block, to the tally's histograms, q + 1 slots
    per set of n apex rows, by the Gram path or a gather from a shared or
    per-apex table, whichever ``_spread_histograms``'s rule picks, unless
    the window's sets are all finished; plane() gives the call's
    ``_plane_cycle``."""
    q, d = fd.q, window[0][3].shape[1]
    reps = np.concatenate([r for _, _, _, r in window])
    k = np.concatenate([k for _, k, _, _ in window])
    lo = window[0][0]
    if tally.values is not None:
        tally.add_arms(window, k, fd.log_dot(reps, reps) == fd.zero_log)
        if tally.finished(lo // n, (lo + len(k) - 1) // n + 1):
            return
    ids, first = _class_ids(fd, reps)
    u = len(first)
    limit = min(int((k * k).sum()), _TABLE_CELLS)
    table = None
    if d == 2 and 2 * (q - 1 if q % 4 == 1 else q + 1) <= limit:
        table = _plane_table(fd, reps[first], plane())
    elif u * u <= limit:
        c = np.arange(u, dtype=np.int32)
        table = c * u, c, _class_table(fd, reps[first]).ravel()
    if table is not None and u * u <= limit and 2 * len(k) * u * u <= _GRAM_RATIO * int((k * (k + 1)).sum()):
        _add_gram(fd, n, window, ids, table, tally)
    else:
        _add_pairs(fd, n, window, ids, table, tally)


def _class_ids(fd: ff.Field, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Window-wide class ids of the canonical representatives reps (N, d;
    logs), the ranks of their codes, and a row of each class: equal codes
    mean equal representatives, so any row of a class serves."""
    classes, ids = np.unique(_codes(reps[None], fd.zero_log)[0], return_inverse=True)
    ids = ids.ravel()  # shaped like its input on some numpy versions
    first = np.empty(len(classes), dtype=np.intp)
    first[ids] = np.arange(len(ids))
    return ids, first


def _add_gram(fd: ff.Field, n: int, window: list, ids: np.ndarray, table: tuple, tally: _Tally) -> None:
    """The Gram path of ``_add_window``.  Row r of M_s (rows, u) holds the
    multiplicities of apex row r of set s by class id, so G_s = M_s^T M_s
    counts the arm pairs of every class pair; less M_s's column sums on its
    diagonal (each arm with itself), G_s is added to set s's slots of the
    tally by the value of the u x u table the class table (left, right,
    flat) spans.  G is additive over rows, so a set straddling windows adds
    the partial G of each.  Each M_s has as many rows as the most any set
    has in the window, and the sets are multiplied in batches of about
    _BLOCK_CELLS cells of M and G, or one set."""
    hist = tally.hist
    left, right, flat = table
    u = len(left)
    spreads = flat.take(left[:, None] + right[None, :], mode="clip").ravel()
    k = np.concatenate([k for _, k, _, _ in window])
    lo, hi = window[0][0], window[0][0] + len(k)
    # the row of each of the window's classes, in the order of ids and mult
    row = np.repeat(np.arange(lo, hi), k)
    mult = np.concatenate([m for _, _, m, _ in window])
    # the window's rows of set s0 + j are start[j], start[j] + 1, ...
    s0, count = lo // n, (hi - 1) // n - lo // n + 1
    start = np.maximum(np.arange(s0, s0 + count) * n, lo)
    most = int(np.diff(start, append=hi).max())
    step = max(1, _BLOCK_CELLS // (most * u + u * u))
    for s in range(0, count, step):
        sets = min(step, count - s)
        a, b = np.searchsorted(row, [start[s], (s0 + s + sets) * n])
        j = row[a:b] // n - s0
        mt = np.zeros(sets * u * most, dtype=np.int64)  # M^T of each set
        mt[((j - s) * u + ids[a:b]) * most + row[a:b] - start[j]] = mult[a:b]
        mt = mt.reshape(sets, u, most)
        # one batched integer product; einsum reads both factors along
        # their contiguous rows, ~1.7x np.matmul's M^T M at u = 651
        gram = np.einsum("sir,sjr->sij", mt, mt).reshape(sets, u * u)
        gram[:, :: u + 1] -= mt.sum(axis=2)
        slot = (np.arange(sets) * (fd.q + 1))[:, None] + spreads
        np.add.at(hist[(s0 + s) * (fd.q + 1) :], slot.ravel(), gram.ravel())


def _add_pairs(fd: ff.Field, n: int, window: list, ids: np.ndarray, table: Optional[tuple], tally: _Tally) -> None:
    """The gather path of ``_add_window``.  Every apex row holds n - 1
    arms, so a block's flat class ids, or its representatives, repeated by
    their multiplicities give (rows, n - 1) arms.  Their pairs
    i < j go in tiles of arm positions [a0, a1), each the rectangle
    i < a1 <= j plus the triangle i < j inside [a0, a1) (its indices kept
    per width for the window); two arms of one class meet on the class
    table's diagonal, 0 or undefined.  A tile's spreads are read from the
    window's table (left, right, flat) as flat[left_c + right_c'], or
    without one evaluated on the repeated representatives by
    ``Field.log_dot`` and ``Field.spread_from_terms``, each arm's norm term
    taken once per block.  A tile has about _BLOCK_CELLS / 2 cells, or one
    row of arm positions of a block; a block's tiles fill buffers kept for
    the window, at least as long as the histogram of the window's sets,
    and each time they are full, and at the block's end, one unweighted
    ``np.bincount`` counts them into that histogram, added twice over into
    the tally's at the end: the spreads of a block whose rows all belong to
    one set as they are, those of a block that straddles sets after each
    row's set offset.  So the slots a bincount sweeps are paid once per
    full buffer, or once per block, however large q is.  In the value mode
    a block whose sets are finished, at its start or after a full buffer,
    gathers no further tile."""
    slots, w, tile = fd.q + 1, n - 1, _BLOCK_CELLS // 2
    s0 = window[0][0] // n
    # the window's sets' slots, each unordered pair once
    half = np.zeros(((window[-1][0] + len(window[-1][1]) - 1) // n + 1 - s0) * slots, dtype=np.int64)
    cells = max(tile, len(half), max(len(k) for _, k, _, _ in window) * w)
    idx = np.empty(cells, dtype=np.int32)
    spreads = idx if table is None else np.empty(cells, dtype=table[2].dtype)
    triangles: dict = {}  # per tile width, the positions i < j of its pairs

    def pairs(first, second, at: slice, shape) -> None:
        """Fill region at of idx, shaped as shape, with the spreads
        (without a table) or the table indices of the current block's
        pairs of arm positions first(...) and second(...)."""
        x = idx[at].reshape(shape)
        if table is None:
            fd.log_dot(first(arms), second(arms), out=x)
            fd.spread_from_terms(x, first(terms), second(terms), out=x)
        else:
            np.add(first(lhs), second(rhs), out=x)

    def finished() -> bool:
        """Whether the current block's sets are all finished."""
        return tally.finished(s0 + sets[0], s0 + sets[-1] + 1, into)

    at = 0
    for lo, k, mult, reps in window:
        block, at = ids[at : at + len(reps)], at + len(reps)
        rows = len(k)
        sets = np.arange(lo, lo + rows) // n - s0
        into = half[sets[0] * slots : (sets[-1] + 1) * slots]
        if finished():
            continue
        offset = ((sets - sets[0]) * slots)[:, None] if sets[0] != sets[-1] else None
        if table is None:
            arms = np.repeat(reps, mult, axis=0).reshape(rows, w, -1)
            terms = fd.spread_terms(fd.log_dot(arms, arms))
        else:
            lhs, rhs = (side.take(np.repeat(block, mult)).reshape(rows, w) for side in table[:2])
        counted = spreads if offset is None else idx  # what the bincounts read
        a0 = fill = 0
        while a0 < w - 1:
            a1 = a0 + max(1, min(w - a0, tile // (rows * (w - a0))))
            if a1 - a0 not in triangles:
                triangles[a1 - a0] = np.triu_indices(a1 - a0, 1)
            i, j = triangles[a1 - a0]
            rect = fill + rows * (a1 - a0) * (w - a1)
            end = rect + rows * len(i)
            if end > cells:
                into += np.bincount(counted[:fill], minlength=len(into))
                if finished():
                    break
                rect, end, fill = rect - fill, end - fill, 0
            pairs(lambda a: a[:, a0:a1, None], lambda a: a[:, None, a1:], slice(fill, rect), (rows, a1 - a0, w - a1))
            if len(i):
                pairs(lambda a: a[:, a0:a1][:, i], lambda a: a[:, a0:a1][:, j], slice(rect, end), (rows, -1))
            s = spreads[fill:end]
            if table is None:
                s[s < 0] = fd.q
            else:
                # every index is in range but the sentinels past the end,
                # which read its last cell; in "raise" mode take would buffer
                table[2].take(idx[fill:end], out=s, mode="clip")
            if offset is not None:
                for a, b in itertools.pairwise((fill, rect, end)):
                    np.add(spreads[a:b].reshape(rows, -1), offset, out=idx[a:b].reshape(rows, -1))
            a0, fill = a1, end
        else:
            into += np.bincount(counted[:fill], minlength=len(into))
    half *= 2
    tally.hist[s0 * slots : s0 * slots + len(half)] += half


def _class_table(fd: ff.Field, reps: np.ndarray) -> np.ndarray:
    """The spreads of all pairs of the u class representatives reps (u, d;
    logs), shape (u, u), with q where undefined: int16 while q < 2^15, else
    int32.  The spread is symmetric, so each block of rows is evaluated
    from its diagonal on and mirrored.  The blocks run the formula of
    ``geom.arm_spreads`` through ``Field``'s arithmetic with each norm term
    taken once, in one int32 buffer of about _BLOCK_CELLS cells reused by
    every block; a spread is undefined exactly where a norm is 0."""
    u = len(reps)
    table = np.empty((u, u), dtype=np.int16 if fd.q < 1 << 15 else np.int32)
    norms = fd.log_dot(reps, reps)
    terms = fd.spread_terms(norms)
    step = max(1, _BLOCK_CELLS // u)
    buf = np.empty(min(step, u) * u, dtype=norms.dtype)
    for lo in range(0, u, step):
        hi = min(lo + step, u)
        s = buf[: (hi - lo) * (u - lo)].reshape(hi - lo, u - lo)
        fd.log_dot(reps[lo:hi, None], reps[None, lo:], out=s)
        fd.spread_from_terms(s, terms[lo:hi, None], terms[None, lo:], out=s)
        table[lo:hi, lo:] = s
        table[lo:, lo:hi] = s.T
    iso = np.flatnonzero(norms == fd.zero_log)
    table[iso] = fd.q
    table[:, iso] = fd.q
    return table


def _plane_cycle(fd: ff.Field) -> tuple:
    """The part of a plane's class table that no window changes: (flat,
    log_of), flat as ``_plane_table`` reads it and, where q = 3 mod 4,
    log_of the cyclic log of each direction by its ``_slope``; None where
    q = 1 mod 4, whose logs need no table.  ``_spread_histograms`` builds
    it once per call, when the first window builds a plane table.

    With i^2 = -1, the direction (x : y) is the class of x + iy in
    F_q[i]^* / F_q^*.  Where q = 1 mod 4, i is in F_q and the class is
    g^a = (x + iy) / (x - iy) in F_q^*, order N = q - 1; the directions
    with x + iy = 0 or x - iy = 0 are isotropic.  Where q = 3 mod 4,
    F_q[i] = F_(q^2), the class is that of (x - iy) / (x + iy) in its
    norm-1 subgroup, order N = q + 1, and its log a is read from a table
    of the q + 1 directions by the powers of the least generator 1 + it
    (``ff._plane_class_powers``).  Multiplying by x + iy scales every
    inner product and norm by |x + iy|, so the spread of the directions of
    logs a and b is f(a - b) = (2 - t - 1/t) / 4, t the group element of
    log a - b; f(k) is 1 - (1 + g^k)^2 / (4 g^k) where q = 1 mod 4, and
    the spread of (1 : 0) and the k-th power where q = 3 mod 4.  flat
    holds f(1 - N), ..., f(N - 1) and then q: 2N cells, int16 while
    q < 2^15, else int32."""
    q, n = fd.q, fd.q - 1
    if q % 4 == 1:
        # i = g^(n/4); f(k) = 1 - (1 + t)^2 / (4t) for t = g^k
        order, log_of = n, None
        k = np.arange(n, dtype=np.int32)
        f = fd.spread_from_logs(fd.log_add(k, 0), k, fd.log[4 % fd.p])
    else:
        order = q + 1
        x, y = (fd.log.take(e) for e in ff._plane_class_powers(fd))
        log_of = np.empty(order, dtype=np.int32)
        log_of[_slope(fd, x, y)] = np.arange(order)
        f = fd.spread_from_logs(x, fd.log_add(fd.log_mul(x, x), fd.log_mul(y, y)), 0)
    flat = np.full(2 * order, q, dtype=np.int16 if q < 1 << 15 else np.int32)
    flat[:-1] = f.take(np.arange(1 - order, order), mode="wrap")
    return flat, log_of


def _slope(fd: ff.Field, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The element y / x of the directions (x : y) (logs), or q for x = 0."""
    return np.where(x == fd.zero_log, fd.q, fd.exp.take(fd.log_mul(y, -x % (fd.q - 1)), mode="wrap"))


def _plane_table(fd: ff.Field, reps: np.ndarray, cycle: tuple) -> tuple:
    """The class table (left, right, flat) of the u directions reps (u, 2;
    logs) of F_q^2 in cyclic closed form, cycle = (flat, log_of) from
    ``_plane_cycle``: the spread of classes c and c' is flat[left_c +
    right_c'], read by ``take`` in "clip" mode.  With a the cyclic log of
    class c, left_c = a and right_c = N - 1 - a, so that left_c + right_c'
    = a - a' + N - 1; an isotropic class has left_c = right_c = 2N - 1,
    whose sums clip to flat's last cell, q."""
    flat, log_of = cycle
    order = len(flat) // 2
    x, y = reps[:, 0], reps[:, 1]
    if log_of is None:
        plus, minus = (fd.log_add(x, fd.log_mul(y, e)) for e in (order // 4, 3 * order // 4))
        left = np.where((plus == fd.zero_log) | (minus == fd.zero_log), 2 * order - 1, (plus - minus) % order)
    else:
        left = log_of.take(_slope(fd, x, y))
    right = np.where(left < order, order - 1 - left, left)
    return left, right, flat


def _apex_classes(fd: ff.Field, logs: np.ndarray):
    """Collapse the n-1 arms b - a at every apex a of a stack of point sets,
    logs (S, n, d), onto their projective classes (first nonzero coordinate
    scaled to 1).

    Apex a of set s is row s * n + a.  Yields the flat class lists
    (lo, k, mult, reps) of ``_spread_histograms`` for blocks of consecutive
    rows lo, lo + 1, ....  The spread is scale-invariant, so the spread of
    reps c and c' is that of every arm pair drawn from classes c and c'.
    """
    s, n, d = logs.shape
    neg = fd.log_neg(logs.reshape(s * n, 1, d))
    step = max(1, _BLOCK_CELLS // (n * d))
    for lo in range(0, s * n, step):
        rows = np.arange(lo, min(lo + step, s * n))
        arms = fd.log_add(neg[lo : lo + step], logs[rows // n])  # (B, n, d)
        lead = arms[..., d - 1].copy()  # the first nonzero coordinate
        for c in range(d - 2, -1, -1):
            np.copyto(lead, arms[..., c], where=arms[..., c] != fd.zero_log)
        canon = fd.log_mul(arms, (-lead % (fd.q - 1))[..., None])  # the zero arm b = a stays zero
        code = _codes(canon, fd.zero_log)
        order = np.argsort(code, axis=1)
        order += np.arange(0, len(rows) * n, n)[:, None]  # into the block's flat arms
        code = code.take(order)
        # The apex's own zero arm sorts first, so sorted arm j + 1 starts a
        # class where new[:, j] is set, and every row starts one at j = 0:
        # a class holds the arms up to the next flat start.
        new = code[:, 1:] != code[:, :-1]
        start = np.flatnonzero(new)
        arm = order[:, 1:].ravel()[start]
        yield lo, new.sum(axis=1), np.diff(start, append=new.size), canon.reshape(-1, d).take(arm, axis=0)


def _arm_classes(fd: ff.Field, logs: np.ndarray):
    """The blocks of arm classes of a stack logs (S, n, d) from the
    producer ``_spread_histograms``'s rule picks: by direction when the
    U = (q^d - 1)/(q - 1) directions of F_q^d number at most n - 1.  U is an
    exact int, known before anything is allocated, so no direction is
    enumerated unless the rule picks the directions."""
    n, d = logs.shape[1:]
    return (_direction_classes if (fd.q**d - 1) // (fd.q - 1) <= n - 1 else _apex_classes)(fd, logs)


def _direction_classes(fd: ff.Field, logs: np.ndarray):
    """The blocks of ``_apex_classes``, counted by direction instead of by
    apex.  For a canonical direction v (first nonzero coordinate 1, at
    position j) the key of a point p is p - p_j v, p with coordinate j
    zeroed: points with equal keys lie on one line in direction v, and the
    class of v at apex p holds the other points of p's line.

    The rows go in blocks of about _BLOCK_CELLS / (U d), so a block's
    (rows, U) keys and its at most rows * U representatives stay near
    _BLOCK_CELLS cells, and the sets in chunks of as many rows, or one
    set.  Per chunk, a first pass over its blocks counts the points of
    each set on each of its U q^(d-1) lines, fewer cells than the chunk's
    U n, and a second reads each row's line sizes back and lists its
    nonzero classes.  The second pass reuses the first's line keys when
    the chunk's (rows, U) keys fit in _BLOCK_CELLS cells, and builds them
    again otherwise."""
    s, n, d = logs.shape
    dirs, cols = _directions(fd, d)
    u, lines = len(dirs), fd.q ** (d - 1)
    sets = max(1, _BLOCK_CELLS // (n * u * d))
    rows = max(1, _BLOCK_CELLS // (u * d))

    def slots(pts, r0):  # (rows, U): set, direction and key of each line
        block = pts[r0 : r0 + rows]
        first = np.arange(r0, r0 + len(block)) // n * u
        return (first[:, None] + np.arange(u)) * lines + _line_keys(fd, block, cols)

    for s0 in range(0, s, sets):
        pts = logs[s0 : s0 + sets].reshape(-1, d)
        count = np.zeros(len(pts) // n * u * lines, dtype=np.int64)
        kept = []  # the first pass's keys, when the chunk's fit in _BLOCK_CELLS
        for r0 in range(0, len(pts), rows):
            slot = slots(pts, r0)
            np.add.at(count, slot, 1)
            if len(pts) * u <= _BLOCK_CELLS:
                kept.append(slot)
        for b, r0 in enumerate(range(0, len(pts), rows)):
            slot = kept[b] if kept else slots(pts, r0)
            mult = count[slot] - 1  # (rows, U): the other points on each line
            r, c = np.nonzero(mult)
            yield s0 * n + r0, np.bincount(r, minlength=len(mult)), mult[r, c], dirs[c]


def _directions(fd: ff.Field, d: int):
    """The U canonical directions of F_q^d, (U, d; logs), and for each the
    d - 1 columns of ``_line_keys``'s table that sum to its key codes.

    The table has a column q^i e(p_i) per coordinate i, then q columns per
    coordinate pair j < i, q^(i-1) e(p_i - x p_j) for each element x; e()
    the element index.  A direction with lead j and coordinates x_i reads
    coordinate i < j from its own column and i > j from pair (j, i) at
    x_i, so its key code is the base-q number of p - p_j v without digit
    j, below q^(d-1)."""
    q, pair = fd.q, d
    dirs, cols = [], []
    for j in range(d):
        tail = d - 1 - j
        grid = np.zeros((q**tail, d), dtype=np.int64)
        grid[:, j] = 1
        grid[:, j + 1 :] = np.arange(q**tail)[:, None] // q ** np.arange(tail) % q
        col = np.empty((q**tail, d - 1), dtype=np.int64)
        col[:, :j] = np.arange(j)
        col[:, j:] = pair + q * np.arange(tail) + grid[:, j + 1 :]
        pair += q * tail
        dirs.append(grid)
        cols.append(col)
    return fd.log.take(np.concatenate(dirs), mode="wrap"), np.concatenate(cols)


def _line_keys(fd: ff.Field, pts: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The key codes (B, U) of the lines through the points pts (B, d;
    logs) in every canonical direction, as ``_directions`` lays them out:
    the table of O(B q d^2) cells carries the field arithmetic, and each
    key is a sum of d - 1 of its columns."""
    q, d = fd.q, pts.shape[1]
    neg = fd.log_neg(fd.log[np.arange(q)])  # -x for every element x
    table = [fd.exp.take(pts, mode="wrap").astype(np.int64) * q ** np.arange(d)]
    for j in range(d):
        for i in range(j + 1, d):
            diff = fd.log_add(pts[:, i, None], fd.log_mul(pts[:, j, None], neg))
            table.append(fd.exp.take(diff, mode="wrap") * q ** (i - 1))
    table = np.concatenate(table, axis=1)
    keys = np.zeros((len(pts), len(cols)), dtype=np.int64)
    for t in range(d - 1):
        keys += table[:, cols[:, t]]
    return keys


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
    and without the value 0 (conventions differ on whether 0 counts).

    The pairs i < j are visited in blocks of rows i against the columns
    j >= the block's first row, about _BLOCK_CELLS pairs a block; each block
    marks the values it finds in one array of q flags, and the visit stops
    once all ``distance_value_count`` values are marked: no pair can add
    one.  pairs_scanned is n (n - 1) / 2, the pairs the census decides."""
    n = len(ps)
    check_pairs(n, budget)
    fd = ps.field
    pts = fd.log[ps.as_array()]
    seen = np.zeros(fd.q, dtype=bool)
    most = distance_value_count(fd, ps.dim)
    lo = 0
    while lo < n - 1 and np.count_nonzero(seen) < most:
        hi = min(n - 1, lo + max(1, _BLOCK_CELLS // (n - lo)))
        dmat = next(_pair_distances(fd, pts[lo:hi], pts[lo:]))
        seen[fd.exp.take(dmat[np.triu_indices(hi - lo, 1, n - lo)], mode="wrap")] = True
        lo = hi
    values = np.flatnonzero(seen).tolist()
    return DistanceCensus(
        values=tuple(values),
        nonzero_values=tuple(v for v in values if v != 0),
        pairs_scanned=n * (n - 1) // 2,
    )


def distance_value_count(fd: ff.Field, d: int) -> int:
    """The number of distances |x - y| that pairs of distinct points of
    F_q^d attain: on a line the (q - 1)/2 nonzero squares; for d >= 2 every
    nonzero element, and 0 where a nonzero isotropic vector exists."""
    if d == 1:
        return (fd.q - 1) // 2
    return fd.q - 1 + (geom.sphere_size(fd, d, 0) > 1)


def _pair_distances(fd: ff.Field, rows: np.ndarray, cols: np.ndarray):
    """Yields the logs of |x - y|, then (only if asked for) of |x + y|, for
    every row x of rows (R, d; logs) against every row y of cols (C, d), by
    polarization from one Gram block."""
    gram = fd.log_dot(rows[:, None, :], cols[None, :, :])
    norms = fd.log_add(fd.log_dot(rows, rows)[:, None], fd.log_dot(cols, cols)[None, :])
    cross = fd.log_mul(gram, fd.log[fd.neg(2)])  # -2 x.y
    del gram
    yield fd.log_add(norms, cross)
    yield fd.log_add(norms, fd.log_neg(cross))


def check_pairs(n: int, budget: int) -> None:
    """The gate of a pair census of n points."""
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    if n * n > budget:
        raise BudgetExceeded(f"n^2 = {n * n} exceeds budget {budget}")


# -- spanned lines -------------------------------------------------------------


def spanned_lines(ps: PointSet, budget: int = DEFAULT_PAIR_BUDGET) -> LineCensus:
    """Distinct affine lines spanned by pairs of points, plus the largest
    number of spanned lines through any single point of the set."""
    return line_censuses([ps], budget)[0]


def line_censuses(point_sets: Iterable[PointSet], budget: int = DEFAULT_PAIR_BUDGET) -> list[LineCensus]:
    """``spanned_lines`` of each of a stack of point sets of one field,
    dimension and size, drawn from point_sets as the census needs them.

    The spanned lines through an apex are its arm classes, so max_degree is
    the most classes at any apex.  A line holding m points appears as m
    (apex, class) pairs, each class holding m - 1 arms; with N_c the number
    of pairs whose class holds c arms, there are sum_c N_c / (c + 1) lines.
    """
    out = []
    for fd, logs in _stacks(point_sets, check_pairs, budget):
        s, n, _ = logs.shape
        pair_counts = np.zeros(s * n, dtype=np.int64)  # N_c of set i at i * n + c
        degree = np.zeros(s * n, dtype=np.int64)  # classes per apex row
        for lo, k, mult, _ in _arm_classes(fd, logs):
            degree[lo : lo + len(k)] = k
            slot = np.repeat(np.arange(lo, lo + len(k)) // n * n, k) + mult
            pair_counts += np.bincount(slot, minlength=s * n)
        pair_counts = pair_counts.reshape(s, n)
        points_per_line = np.arange(1, n + 1)
        if (pair_counts % points_per_line).any():
            raise InternalError("arm-class counts do not partition into lines")
        lines = (pair_counts // points_per_line).sum(axis=1)
        out += [
            LineCensus(lines=int(count), max_degree=int(most), pairs_scanned=n * (n - 1) // 2)
            for count, most in zip(lines, degree.reshape(s, n).max(axis=1))
        ]
    return out


# -- random projections ----------------------------------------------------------


def random_projections(fd: ff.Field, d: int, k: int, seeds: Sequence[int]) -> list[geom.Matrix]:
    """Per seed, the k rows of a uniform k x d matrix of rank k: each seed
    draws from its own ``random.Random(seed)``, k rows of d values below q
    per sample, until a sample has rank k.  Each round ranks the pending
    samples in one ``geom.eliminate`` call, and only the rank-deficient
    ones draw again."""
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


def projection_images(ps: PointSet, projections: Sequence[geom.Matrix]) -> tuple[list[int], list[int]]:
    """Per projection (k rows of length d, one k for all), the collision
    count and the image size of ps under it.  The projections go in
    batches of about _BLOCK_CELLS image coordinates: each batch sorts the
    codes of its images per projection, and a run of m equal images holds
    m (m - 1) / 2 colliding pairs."""
    for rows in projections:
        if len(rows[0]) != ps.dim:
            raise DimensionMismatch(
                f"projection expects dimension {len(rows[0])}, point set has {ps.dim}"
            )
    fd = ps.field
    pts = fd.log[ps.as_array()][None, :, None]
    n = len(ps)
    at = np.arange(n)
    collisions, sizes = [], []
    step = max(1, _BLOCK_CELLS // (n * len(projections[0]))) if projections else 1
    for lo in range(0, len(projections), step):
        images = fd.log_dot(pts, fd.log[np.array(projections[lo : lo + step])][:, None])  # (B, n, k)
        code = np.sort(_codes(images, fd.zero_log), axis=1)
        new = np.ones(code.shape, dtype=bool)  # where a run of equal images starts
        new[:, 1:] = code[:, 1:] != code[:, :-1]
        start = np.maximum.accumulate(np.where(new, at, 0), axis=1)
        collisions += (at - start).sum(axis=1).tolist()
        sizes += new.sum(axis=1).tolist()
    return collisions, sizes


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
    non-proportionality is not enough.  The representatives number
    m = (|S_0| - 1) / (q - 1), which ``geom.sphere_size`` gives in closed
    form, so the m < 3 answer and the m^2 budget gate come before any walk
    of F_q^d.  Each representative's orthogonality mask is one row of inner
    products, built when the scan first reads it, and the candidates are
    ranked in batched eliminations over blocks of consecutive triples,
    which grow twofold from 16 triples up to about _BLOCK_CELLS
    coordinates, so an early find costs a few rows and one small block.
    """
    geom.check_space(fd, d, budget)
    m = (geom.sphere_size(fd, d, 0) - 1) // (fd.q - 1)
    if m < 3:
        return None
    if m * m > budget:
        raise BudgetExceeded(
            f"pair scan over {m}^2 = {m * m} representatives exceeds budget {budget}"
        )
    reps = _isotropic_reps(fd, d)
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


def _orthogonality_masks(fd: ff.Field, arr: np.ndarray):
    """Lazy per-representative bitmasks of orthogonal partners among the rows
    of arr (m, d; logs): mask(i) has bit j set when rows i and j are
    orthogonal.  Each mask is one row of inner products, built on its first
    read and cached, so a search that ends early builds only the rows it
    read."""

    @functools.cache
    def mask(i: int) -> int:
        row = fd.log_dot(arr[i], arr) == fd.zero_log
        return int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")

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
    _MAX_VIOLATIONS violations.  |S_1| comes in closed form, so the |S_1|^4
    gate comes before the sphere is walked."""
    geom.check_space(fd, d, budget)
    m = geom.sphere_size(fd, d, 1)
    if m**4 > budget:
        raise BudgetExceeded(f"|S1|^4 = {m ** 4} exceeds budget {budget}")
    sph = geom.sphere_points(fd, d, 1, budget=budget)
    pts = fd.log[sph.as_array()]
    # The verdict on origin pairs (a, b), (c, e) depends only on their keys
    # (spread, |a - b|, |a + b|); undefined pairs have spread -1.
    pair_keys = np.stack([geom.arm_spreads(fd, pts[:, None], pts[None]), *_pair_distances(fd, pts, pts)], axis=-1)
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

    def pair(i):  # origin pair (a, b) by its flat index a * m + b
        a, b = divmod(int(i), m)
        return sph.points[a], sph.points[b]

    violations = [(*pair(i), *pair(j)) for i, j in itertools.islice(quads, _MAX_VIOLATIONS)]
    checked = int(counts[defined].sum()) ** 2
    return EquivReport(
        quadruples_checked=checked,
        excluded=m**4 - checked,
        violations=tuple(violations),
    )
