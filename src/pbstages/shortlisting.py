"""Shortlisting rules: nomination, equal representation, and clustering.

All rules map a proposal profile (one project set per agent) to a subset of
the union of proposals.  The budget is a soft constraint at this stage: the
optimisation-based rules may spend up to ``k`` times the budget.

The equal-representation score is an exact rational; its search compares
the same score scaled to integers, so ties are still decided exactly.
The clustering rule searches median sets exactly, in ascending order of
their radius, and fails loudly beyond its cap rather than approximating.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from pbstages.core import (
    Caps,
    Instance,
    ValidationError,
    check_cap,
    tiebreak_family,
    tiebreak_project,
)

# Slack used only when validating the triangle inequality of float metrics;
# rule decisions always compare stored distances directly.
_METRIC_TOLERANCE = 1e-9


def proposal_union(proposals: Sequence[Iterable[int]]) -> frozenset[int]:
    union: set[int] = set()
    for block in proposals:
        union.update(block)
    return frozenset(union)


def check_proposals(
    instance: Instance, proposals: Sequence[Iterable[int]]
) -> tuple[frozenset[int], ...]:
    """Each proposal as a set of the instance's ids; a refusal names the first bad block."""
    blocks = tuple(map(frozenset, proposals))
    if not all(map(instance._costs.keys().__ge__, blocks)):
        for i, block in enumerate(blocks):
            instance.check_subset(block, f"proposal of agent {i + 1}")
    return blocks


def nomination(instance: Instance, proposals: Sequence[Iterable[int]]) -> frozenset[int]:
    """Shortlist every proposed project: the union of all proposals."""
    return proposal_union(check_proposals(instance, proposals))


def representation_score(
    subset: Iterable[int], proposals: Sequence[Iterable[int]]
) -> Fraction:
    """Exact representation score of a candidate shortlist.

    Each agent contributes a geometric series in 1/n, one term per project
    the shortlist shares with her proposal (plus the constant leading term),
    so agents with fewer selected proposals always have the next-heaviest
    marginal weight.  Evaluated with exact rational arithmetic; equality of
    scores is decided exactly, never by epsilon.
    """
    subset = frozenset(subset)
    proposals = tuple(frozenset(block) for block in proposals)
    union = proposal_union(proposals)
    if not subset <= union:
        raise ValidationError("scored set must be drawn from the union of proposals")
    n = len(proposals)
    step = Fraction(1, n) if n else Fraction(0)
    hits = [len(subset & block) for block in proposals]
    # series[h] is the term of an agent with h selected proposals.
    series = list(itertools.accumulate(step**level for level in range(max(hits, default=0) + 1)))
    return sum(map(series.__getitem__, hits), Fraction(0))


def _level_weights(proposals: Sequence[frozenset[int]]) -> tuple[int, list[int]]:
    """The representation score scaled by n^H to integers, as a base and weights.

    With n agents and H the largest proposal size, the empty shortlist
    scores ``n * n**H`` and an agent's (c+1)-th selected proposal adds
    ``weights[c] = n**(H - c - 1)``.
    """
    n = len(proposals)
    top = max(map(len, proposals), default=0)
    return n * n**top, [n ** (top - level) for level in range(1, top + 1)]


def equal_representation(
    instance: Instance,
    proposals: Sequence[Iterable[int]],
    k: int,
    caps: Caps = Caps(),
) -> frozenset[int]:
    """Representation-score maximiser among affordable shortlists.

    Searches subsets of the proposal union costing at most ``k * budget``,
    maximising :func:`representation_score`; exact score ties are broken by
    canonical family tie-breaking.

    A union that costs at most ``k * budget`` is returned as it is: every
    project adds weight, so it is the unique maximiser.  Otherwise the
    search is a branch and bound over projects in ascending index order,
    on the score scaled by n^H to integers (:func:`_level_weights`).
    Agents with equal proposals always hold equal counts, so they are
    merged into one class whose level weights are multiplied by its size;
    n stays the number of agents.  A node is pruned once the per-class
    level bound on its gain cannot beat the best leaf strictly: each class
    gains at most its next T level weights, where T is the largest number
    of its remaining projects that fit the residual budget together, taken
    cheapest first.  No completion selects more than T of them, and level
    weights only shrink, so the bound never falls below the true gain and
    no maximiser is pruned.

    The include branch is taken first, so leaves arrive in the order of
    :func:`~pbstages.core.tiebreak_family`: the first leaf at the best score
    is the canonical winner.  A node whose remaining projects all fit is a
    leaf: taking them all is its subtree's best leaf, and its first.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    proposals = check_proposals(instance, proposals)
    union = sorted(proposal_union(proposals))
    check_cap(len(union), caps.subset_search, "equal-representation search", "proposed projects")
    limit = k * instance.budget
    costs = [instance.cost(pid) for pid in union]
    if sum(costs) <= limit:
        return frozenset(union)
    base, weights = _level_weights(proposals)
    sizes = Counter(proposals)
    classes = list(sizes)
    # class_weights[c][level]: the gain of class c's (level+1)-th selected project
    class_weights = [[size * w for w in weights] for size in sizes.values()]
    m = len(union)
    proposers = [[c for c, block in enumerate(classes) if pid in block] for pid in union]
    # (cost, position) of each class's projects, cheapest first
    by_cost = [sorted((costs[j], j) for j in range(m) if union[j] in block) for block in classes]

    best_score = -1
    best: list[int] = []
    counts = [0] * len(classes)
    chosen: list[int] = []

    def walk(pos: int, spent: int, score: int) -> None:
        nonlocal best_score, best
        room = limit - spent
        fits = [j for j in range(pos, m) if costs[j] <= room]
        if sum(costs[j] for j in fits) <= room:
            taken = [c for j in fits for c in proposers[j]]
            for c in taken:
                score += class_weights[c][counts[c]]
                counts[c] += 1
            for c in taken:
                counts[c] -= 1
            if score > best_score:
                best_score = score
                best = chosen + [union[j] for j in fits]
            return
        bound = 0
        for c, projects in enumerate(by_cost):
            level = counts[c]
            left = room
            for cost, j in projects:
                if j >= pos:
                    if cost > left:
                        break
                    left -= cost
                    bound += class_weights[c][level]
                    level += 1
        if score + bound <= best_score:
            return
        first = fits[0]
        gain = 0
        for c in proposers[first]:
            gain += class_weights[c][counts[c]]
            counts[c] += 1
        chosen.append(union[first])
        walk(first + 1, spent + costs[first], score + gain)
        chosen.pop()
        for c in proposers[first]:
            counts[c] -= 1
        walk(first + 1, spent, score)

    walk(0, 0, base)
    return frozenset(best)


# ---------------------------------------------------------------------------
# Metrics and clustering rules


class Metric:
    """A validated distance function over a finite set of project ids.

    Distances are stored per unordered pair, so symmetry holds by
    construction and equal distances compare equal exactly.  Validation
    checks that every pair names projects of ``ids``, that distances are
    finite and non-negative, and the triangle inequality (with a small
    float tolerance); distinct projects at distance zero are allowed, which
    covers co-located projects.
    """

    def __init__(self, ids: Iterable[int], pair_distances: dict[tuple[int, int], float]):
        self.ids = tuple(sorted(set(ids)))
        unknown = sorted({p for pair in pair_distances for p in pair}.difference(self.ids))
        if unknown:
            raise ValidationError(f"metric names unknown project ids {unknown}")
        self._dist: dict[tuple[int, int], float] = {}
        for a, b in itertools.combinations(self.ids, 2):
            key = (a, b)
            if key not in pair_distances:
                raise ValidationError(f"metric is missing the distance for pair {key}")
            value = float(pair_distances[key])
            if not math.isfinite(value):
                raise ValidationError(f"non-finite distance {value} for pair {key}")
            if value < 0:
                raise ValidationError(f"negative distance {value} for pair {key}")
            self._dist[key] = value
        self._validate_triangle()

    def _validate_triangle(self) -> None:
        for a, b, c in itertools.combinations(self.ids, 3):
            ab, bc, ac = self.distance(a, b), self.distance(b, c), self.distance(a, c)
            for direct, via in ((ac, ab + bc), (ab, ac + bc), (bc, ab + ac)):
                if direct > via + _METRIC_TOLERANCE:
                    raise ValidationError(
                        f"triangle inequality violated on projects {(a, b, c)}: "
                        f"{direct} > {via}"
                    )

    def distance(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        key = (a, b) if a < b else (b, a)
        try:
            return self._dist[key]
        except KeyError:
            raise ValidationError(f"metric does not cover the pair {key}") from None


def euclidean_metric(instance: Instance) -> Metric:
    """Euclidean distance over the projects' coordinates."""
    coords = {}
    for project in instance.projects:
        if project.coords is None:
            raise ValidationError(
                f"project p{project.index} has no coordinates; "
                "a euclidean metric needs coordinates on every project"
            )
        coords[project.index] = project.coords
    dims = {len(c) for c in coords.values()}
    if len(dims) > 1:
        raise ValidationError("projects have coordinates of mixed dimension")
    pairs = {
        (a, b): math.dist(coords[a], coords[b])
        for a, b in itertools.combinations(sorted(coords), 2)
    }
    return Metric(coords, pairs)


def table_metric(ids: Iterable[int], entries: Iterable[tuple[int, int, float]]) -> Metric:
    """Metric from an explicit distance table.

    Entries may list each pair once in either orientation; listing both
    orientations with different values is a symmetry violation.  Every
    entry, a zero self-distance included, must name projects of ``ids``.
    """
    pairs: dict[tuple[int, int], float] = {}
    for a, b, value in entries:
        if a == b and float(value) != 0.0:
            raise ValidationError(f"distance of project {a} to itself must be 0")
        key = (a, b) if a < b else (b, a)
        if key in pairs and pairs[key] != float(value):
            raise ValidationError(
                f"asymmetric distance table: pair {key} listed as both "
                f"{pairs[key]} and {float(value)}"
            )
        pairs[key] = float(value)
    return Metric(ids, pairs)


def geometric_median(pids: Iterable[int], metric: Metric) -> int:
    """The project minimising the summed distance to the set, ties to lowest index.

    Each candidate's distances are summed in ascending order, so two
    candidates whose distances are the same multiset get the same float
    sum.  Other exact ties, such as sqrt(2) + sqrt(8) = sqrt(18), are still
    decided on float sums.
    """
    pids = sorted(set(pids))
    if not pids:
        raise ValidationError("geometric median of an empty set is undefined")
    sums = {p: sum(sorted(metric.distance(p, q) for q in pids)) for p in pids}
    best = min(sums.values())
    return tiebreak_project([p for p in pids if sums[p] == best])


@dataclass(frozen=True)
class VoronoiPartition:
    """A clustering together with its geometric medians.

    Valid (for a given ``k`` and radius ``ell``) when the medians cost at
    most ``k * budget`` in total, every project sits with its closest
    median, and every project is within ``ell`` of its own median.
    """

    clusters: tuple[frozenset[int], ...]
    medians: tuple[int, ...]

    @property
    def median_set(self) -> frozenset[int]:
        return frozenset(self.medians)

    def radius(self, metric: Metric) -> float:
        return max(
            (metric.distance(p, m) for cluster, m in zip(self.clusters, self.medians) for p in cluster),
            default=0.0,
        )

    def is_valid(self, instance: Instance, k: int, ell: float, metric: Metric) -> bool:
        if instance.total_cost(self.medians) > k * instance.budget:
            return False
        for cluster, median in zip(self.clusters, self.medians):
            for p in cluster:
                own = metric.distance(p, median)
                if own > ell:
                    return False
                if any(own > metric.distance(p, other) for other in self.medians):
                    return False
        return True


def _radius_groups(
    instance: Instance,
    pids: Iterable[int],
    k: int,
    metric: Metric,
    caps: Caps,
) -> Iterator[tuple[float, list[Iterator[VoronoiPartition]]]]:
    """The affordable median sets grouped by radius, least radius first.

    A median set M's radius is the least stored distance d at which M
    dominates the graph "i is within d of j": every project is within d of
    some member of M (the threshold view of Hochbaum and Shmoys's k-center
    heuristic).  The distinct stored distances are taken in ascending
    order.  At each d, every project's ball, the projects within d of it,
    is a bitmask, and the cover of every mask, the union of its members'
    balls, is built by doubling over the projects; the mask costs are
    built the same way, once.  The group at d holds the affordable masks
    that cover every project at d and at no smaller distance; empty groups
    are skipped.  Distances are compared as stored, with ``<=`` and
    ``==``, never with a tolerance.

    The j-th smallest id holds bit m - 1 - j, so descending masks run in
    the order of :func:`~pbstages.core.tiebreak_family`, and so does each
    group.  It holds, for each of its median sets, a lazy iterator over the
    set's valid clusterings: each project outside M joins one of its
    nearest members of M, each median sits in its own cluster
    (:func:`geometric_median` returns a member), and a clustering is valid
    when every cluster's geometric median is its own median.
    """
    pids = sorted(pids)
    check_cap(len(pids), caps.partitions, "median-set search", "projects")
    m = len(pids)
    dist = [[metric.distance(p, q) for q in pids] for p in pids]
    limit = k * instance.budget
    bits = [1 << (m - 1 - j) for j in range(m)]
    full = (1 << m) - 1
    cost = [0]
    for j in reversed(range(m)):
        c = instance.cost(pids[j])
        cost += [spent + c for spent in cost]
    pending = [mask for mask in reversed(range(1, 1 << m)) if cost[mask] <= limit]
    medians_of: dict[tuple[int, ...], int] = {}

    def clusterings(mask: int) -> Iterator[VoronoiPartition]:
        medians = [j for j in range(m) if mask & bits[j]]
        choices = []
        for i, row in enumerate(dist):
            if mask & bits[i]:
                choices.append([i])
            else:
                own = min(row[j] for j in medians)
                choices.append([j for j in medians if row[j] == own])
        for assignment in itertools.product(*choices):
            clusters: dict[int, list[int]] = {j: [] for j in medians}
            for i, j in enumerate(assignment):
                clusters[j].append(pids[i])
            for j, members in clusters.items():
                key = tuple(members)
                if key not in medians_of:
                    medians_of[key] = geometric_median(key, metric)
                if medians_of[key] != pids[j]:
                    break
            else:
                ordered = sorted(clusters.items(), key=lambda item: item[1][0])
                yield VoronoiPartition(
                    tuple(frozenset(members) for _, members in ordered),
                    tuple(pids[j] for j, _ in ordered),
                )

    for d in sorted({x for row in dist for x in row}):
        cover = [0]
        for j in reversed(range(m)):
            ball = sum(bit for bit, x in zip(bits, dist[j]) if x <= d)
            cover += [covered | ball for covered in cover]
        group = [mask for mask in pending if cover[mask] == full]
        if group:
            pending = [mask for mask in pending if cover[mask] != full]
            yield d, [clusterings(mask) for mask in group]


@dataclass(frozen=True)
class ClusteringOutcome:
    """Full result of a clustering rule: radius, partitions, and shortlist."""

    ell: float
    partitions: tuple[VoronoiPartition, ...]
    shortlist: frozenset[int]


def _checked_union(
    instance: Instance, proposals: Sequence[Iterable[int]], k: int
) -> frozenset[int]:
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return proposal_union(check_proposals(instance, proposals))


def k_median_outcome(
    instance: Instance,
    proposals: Sequence[Iterable[int]],
    k: int,
    metric: Metric,
    caps: Caps = Caps(),
) -> ClusteringOutcome:
    """The clustering shortlist with its minimal radius and valid partitions.

    Reads :func:`_radius_groups` up to the first radius at which some median
    set has a valid clustering, and lists every valid clustering of every
    median set of that radius: all their tie assignments, which can number
    Bell(m).  Each contributes its median set; the shortlist is the
    canonical tie-break over that family of median sets.  The partitions
    are sorted by their lists of sorted clusters, with clusters ordered by
    their least member.
    """
    union = _checked_union(instance, proposals, k)
    if not union:
        return ClusteringOutcome(0.0, (), frozenset())
    for ell, group in _radius_groups(instance, union, k, metric, caps):
        found = [partition for clusterings in group for partition in clusterings]
        if found:
            found.sort(key=lambda partition: [sorted(c) for c in partition.clusters])
            shortlist = tiebreak_family([p.median_set for p in found])
            return ClusteringOutcome(ell, tuple(found), shortlist)
    raise AssertionError("unreachable: the union's geometric median alone is a valid median set")


def k_median(
    instance: Instance,
    proposals: Sequence[Iterable[int]],
    k: int,
    metric: Metric,
    caps: Caps = Caps(),
) -> frozenset[int]:
    """Cluster the proposed projects and shortlist one median per cluster.

    The shortlist of :func:`k_median_outcome`, found without listing the
    partitions: :func:`_radius_groups` is read up to the least radius at
    which a median set has a valid clustering, that radius's median sets
    are tried in canonical tie-break order, and the first one with one
    valid clustering is the shortlist.
    """
    union = _checked_union(instance, proposals, k)
    if not union:
        return frozenset()
    for _, group in _radius_groups(instance, union, k, metric, caps):
        for clusterings in group:
            partition = next(clusterings, None)
            if partition is not None:
                return partition.median_set
    raise AssertionError("unreachable: the union's geometric median alone is a valid median set")
