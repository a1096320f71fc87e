"""Seeded point-file generator, standard library only.

Inputs are drawn here rather than through the package's own enumeration or
sampling, so a change to the package cannot change what it is measured on
(and enumerating F_1021^2 alone would cost seconds).
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import NamedTuple


class PointSpec(NamedTuple):
    name: str
    p: int
    r: int
    d: int
    n: int

    @property
    def q(self) -> int:
        return self.p**self.r


def draw_points(spec: PointSpec, seed: int) -> list[tuple[int, ...]]:
    """n distinct points of F_q^d, uniform without replacement, in draw order."""
    rng = random.Random(f"{seed}/{spec.name}")
    seen: set[tuple[int, ...]] = set()
    points = []
    while len(points) < spec.n:
        pt = tuple(rng.randrange(spec.q) for _ in range(spec.d))
        if pt not in seen:
            seen.add(pt)
            points.append(pt)
    return points


def write_point_file(path: Path, spec: PointSpec, points) -> str:
    """Write the documented point-file format; returns the file's sha256."""
    text = f"q={spec.q} d={spec.d}\n" + "".join(",".join(map(str, p)) + "\n" for p in points)
    data = text.encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
