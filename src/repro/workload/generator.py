"""The paper's clustered-rectangle data generator (Section 4).

"When generating a data set of ``x * y`` objects, we first generated
``x`` cluster rectangles, whose centers were randomly distributed in the
map area. We then randomly distributed the centers of ``y`` data
rectangles within each clustering rectangle. By controlling the total
area of the clustering rectangles, we could control the degree of
clustering... The length and the width of each clustering rectangle was
chosen randomly and independently to lie between 0 and a predefined upper
bound... When clustering rectangles or data rectangles extended over the
boundary of the map area, they were clipped to fit into the map area.
When a data rectangle extended over the boundary of its clustering
rectangle, it was not clipped."

The *cover quotient* is the total area of the clustering rectangles as a
fraction of the map area (the paper: quotient 0.2 "meaning that the
centers of all the data objects were restricted to 20% of the map
area"). The paper adjusted the side-length bound until the quotient hit
its target; we do the equivalent deterministically — draw sides from
``U(0, bound)`` with the analytically matching bound, then rescale the
drawn sides by a common factor so the total area (before map clipping)
equals the target exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from ..errors import WorkloadError
from ..geometry import Rect
from ..kernels import clipped_area_total
from ..storage.datafile import DataEntry
from .seeding import derive_seed

#: The paper's map area: 0..1 along both axes.
DEFAULT_MAP_AREA = Rect(0.0, 0.0, 1.0, 1.0)

#: The paper fixes 200 data objects per cluster.
DEFAULT_OBJECTS_PER_CLUSTER = 200


def cluster_side_bound(cover_quotient: float, num_clusters: int,
                       map_area: Rect = DEFAULT_MAP_AREA) -> float:
    """Upper bound on cluster side length matching a cover quotient.

    With sides drawn independently from ``U(0, b)``, a cluster's expected
    area is ``(b/2)^2``; ``x`` clusters total ``x * b^2 / 4``. Solving for
    the target quotient ``q`` of the map area gives
    ``b = 2 * sqrt(q * A / x)``.
    """
    if not 0.0 < cover_quotient:
        raise WorkloadError("cover_quotient must be positive")
    if num_clusters < 1:
        raise WorkloadError("need at least one cluster")
    return 2.0 * math.sqrt(cover_quotient * map_area.area() / num_clusters)


def measure_cover_quotient(cluster_rects: list[Rect],
                           map_area: Rect = DEFAULT_MAP_AREA) -> float:
    """Total clustering-rectangle area as a fraction of the map area."""
    return sum(r.area() for r in cluster_rects) / map_area.area()


@dataclass(frozen=True)
class ClusteredConfig:
    """Parameters of one synthetic data set.

    Defaults follow the paper: 200 objects per cluster, cover quotient
    0.2, the unit-square map. ``data_side_bound`` (the "smaller upper
    bound" for data-rectangle sides) is the one free knob the paper does
    not pin down numerically; 0.004 gives realistic join selectivities
    at the paper's scales.
    """

    num_objects: int
    cover_quotient: float = 0.2
    objects_per_cluster: int = DEFAULT_OBJECTS_PER_CLUSTER
    data_side_bound: float = 0.004
    map_area: Rect = field(default=DEFAULT_MAP_AREA)
    seed: int = 0
    oid_start: int = 0
    #: Randomise the order objects appear in the data file. The paper
    #: notes that input-order spatial locality reduces construction
    #: buffer misses but "is hard to guarantee in general"; its results
    #: correspond to order-free input, so shuffling is the default.
    #: Setting False keeps cluster order (the locality ablation).
    shuffle: bool = True

    @property
    def num_clusters(self) -> int:
        return max(1, math.ceil(self.num_objects / self.objects_per_cluster))

    def for_shard(self, *labels: int | str) -> "ClusteredConfig":
        """A config for regenerating one shard of this workload.

        Worker processes that rebuild data locally (rather than
        receiving entries over the pipe) must derive their seeds through
        :func:`~repro.workload.seeding.derive_seed`: the builtin
        ``hash()`` is salted per process, so seeds based on it would
        differ between a worker and its parent — and between two runs.
        ``labels`` identify the shard (e.g. ``("partition", 3)``); the
        derived seed is stable across processes and platforms.
        """
        return replace(self, seed=derive_seed(self.seed, *labels))


def generate_clusters(config: ClusteredConfig,
                      rng: random.Random) -> list[Rect]:
    """Clustering rectangles whose total area hits the target quotient.

    Centers are uniform in the map; sides ~ U(0, bound) with the
    analytically matching bound. The paper then "adjusted the upper bound
    on side length of the clustering rectangles so that the cover
    quotient ... equaled" its target; we reproduce that adjustment
    deterministically — all drawn sides are rescaled by a common factor,
    iterated a few times because clipping to the map shrinks boundary
    clusters — until the post-clipping total area matches the target
    (to 0.5%, or as close as clipping allows).
    """
    area = config.map_area
    x = config.num_clusters
    bound = cluster_side_bound(config.cover_quotient, x, area)
    cxs: list[float] = []
    cys: list[float] = []
    ws: list[float] = []
    hs: list[float] = []
    for _ in range(x):
        cxs.append(area.xlo + rng.random() * area.width)
        cys.append(area.ylo + rng.random() * area.height)
        ws.append(rng.random() * bound)
        hs.append(rng.random() * bound)

    if sum(w * h for w, h in zip(ws, hs)) <= 0.0:
        raise WorkloadError("degenerate cluster sample (zero total area)")
    target = config.cover_quotient * area.area()

    # The convergence loop only needs the *total* clipped area at each
    # candidate scale; the batch kernel computes it without materialising
    # Rect objects (bit-identical to the per-Rect chain — it mirrors
    # from_center/clipped_to/area expression by expression and sums
    # left-to-right). Where it declines, the scalar chain decides. Rects
    # are built once, at the accepted scale.
    scale = 1.0
    for _ in range(16):
        total = clipped_area_total(cxs, cys, ws, hs, scale, area)
        if total is None:
            total = 0.0
            for rect in _clipped(cxs, cys, ws, hs, scale, area):
                total += rect.area()
        if total <= 0.0:
            raise WorkloadError("degenerate cluster sample (zero total area)")
        if abs(total - target) <= 0.005 * target:
            break
        scale *= math.sqrt(target / total)
    return _clipped(cxs, cys, ws, hs, scale, area)


def _clipped(cxs: list[float], cys: list[float], ws: list[float],
             hs: list[float], scale: float, area: Rect) -> list[Rect]:
    """The clustering rectangles at ``scale``, clipped to the map."""
    clusters: list[Rect] = []
    for cx, cy, w, h in zip(cxs, cys, ws, hs):
        rect = Rect.from_center(cx, cy, w * scale, h * scale)
        clipped = rect.clipped_to(area)
        if clipped is None:
            raise WorkloadError("cluster rectangle fell outside the map")
        clusters.append(clipped)
    return clusters


def generate_clustered(config: ClusteredConfig) -> list[DataEntry]:
    """One synthetic data set per the paper's scheme.

    Deterministic for a given ``config.seed``. Object ids are consecutive
    from ``config.oid_start``.
    """
    if config.num_objects < 0:
        raise WorkloadError("num_objects must be non-negative")
    if config.num_objects == 0:
        return []
    rng = random.Random(config.seed)
    clusters = generate_clusters(config, rng)
    area = config.map_area

    entries: list[DataEntry] = []
    oid = config.oid_start
    remaining = config.num_objects
    for cluster in clusters:
        take = min(config.objects_per_cluster, remaining)
        for _ in range(take):
            cx = cluster.xlo + rng.random() * cluster.width
            cy = cluster.ylo + rng.random() * cluster.height
            w = rng.random() * config.data_side_bound
            h = rng.random() * config.data_side_bound
            rect = Rect.from_center(cx, cy, w, h)
            clipped = rect.clipped_to(area)
            if clipped is None:
                # Data centers lie inside the (clipped) cluster, which
                # lies inside the map; a clip can shrink but not erase.
                raise WorkloadError("data rectangle fell outside the map")
            entries.append((clipped, oid))
            oid += 1
        remaining -= take
        if remaining == 0:
            break
    if config.shuffle:
        rng.shuffle(entries)
    return entries


def generate_uniform(
    num_objects: int,
    side_bound: float = 0.004,
    map_area: Rect = DEFAULT_MAP_AREA,
    seed: int = 0,
    oid_start: int = 0,
) -> list[DataEntry]:
    """Uniformly scattered rectangles (no clustering); test workloads."""
    if num_objects < 0:
        raise WorkloadError("num_objects must be non-negative")
    rng = random.Random(seed)
    entries: list[DataEntry] = []
    for i in range(num_objects):
        cx = map_area.xlo + rng.random() * map_area.width
        cy = map_area.ylo + rng.random() * map_area.height
        w = rng.random() * side_bound
        h = rng.random() * side_bound
        rect = Rect.from_center(cx, cy, w, h)
        clipped = rect.clipped_to(map_area)
        if clipped is None:
            raise WorkloadError("data rectangle fell outside the map")
        entries.append((clipped, oid_start + i))
    return entries
