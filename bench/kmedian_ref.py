"""Exact k-median reference for integer grid coordinates.

``k_median_oracle`` in the package reuses the ``geometric_median`` it is
meant to check, and that function sums float distances, so two exactly
equal sums such as sqrt(2) + sqrt(8) = sqrt(18) can compare unequal.  This
reference shares no code with the package:

- it enumerates every set partition of the proposal union flat
  (restricted-growth strings);
- it compares single distances through their squared values, which are
  integers;
- it compares summed distances as 60-digit ``Decimal`` values.  Two sums of
  at most nine square roots of integers below 100 that are not equal differ
  by far more than 1e-50, so sums within 1e-50 of each other are equal.

The rule it reproduces: a partition is valid when its medians cost at most
``k * budget``, no project is strictly closer to another median than to its
own, and the radius (largest project-to-median distance) is minimal among
valid partitions.  The shortlist is the canonical tie-break over the median
sets of the valid partitions at that radius: the set whose membership
vector over the union, read in ascending id order, is lexicographically
largest.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

TIE = Decimal("1e-50")


def _all_partitions(n: int):
    """Every restricted-growth string of length n (label j <= 1 + max before j)."""
    if n == 0:
        yield ()
        return
    labels = [0] * n

    def grow(pos: int, top: int):
        if pos == n:
            yield tuple(labels)
            return
        for label in range(top + 2):
            labels[pos] = label
            yield from grow(pos + 1, max(top, label))

    labels[0] = 0
    yield from grow(1, 0)


def k_median_reference(
    coords: dict[int, tuple[int, int]],
    costs: dict[int, int],
    budget: int,
    union: list[int],
    k: int,
) -> list[int]:
    """The exact k-median shortlist of ``union`` (sorted project ids)."""
    ids = sorted(union)
    n = len(ids)
    if n == 0:
        return []
    sq = {
        (a, b): int((coords[a][0] - coords[b][0]) ** 2 + (coords[a][1] - coords[b][1]) ** 2)
        for a in ids
        for b in ids
    }
    with localcontext() as ctx:
        ctx.prec = 60
        root = {key: Decimal(value).sqrt() for key, value in sq.items()}

        def median(cluster: list[int]) -> int:
            best, best_sum = None, None
            for p in cluster:
                total = sum((root[(p, q)] for q in cluster), Decimal(0))
                if best_sum is None or total < best_sum - TIE:
                    best, best_sum = p, total
            return best

        limit = k * budget
        best_radius = None
        best_sets: set[tuple[int, ...]] = set()
        for labels in _all_partitions(n):
            clusters: dict[int, list[int]] = {}
            for pid, label in zip(ids, labels):
                clusters.setdefault(label, []).append(pid)
            medians = {label: median(members) for label, members in clusters.items()}
            if sum(costs[m] for m in medians.values()) > limit:
                continue
            radius = 0
            valid = True
            for label, members in clusters.items():
                own = medians[label]
                for p in members:
                    d = sq[(p, own)]
                    if any(d > sq[(p, other)] for other in medians.values()):
                        valid = False
                        break
                    radius = max(radius, d)
                if not valid:
                    break
            if not valid:
                continue
            median_set = tuple(sorted(set(medians.values())))
            if best_radius is None or radius < best_radius:
                best_radius, best_sets = radius, {median_set}
            elif radius == best_radius:
                best_sets.add(median_set)
    return list(max(best_sets, key=lambda s: tuple(pid in s for pid in ids)))
