"""Family-batched candidate scoring: how an indexed engine scores candidates.

Most candidates of a recommendation request are members of a fused family
that one scan serves, so this module scores a whole *family* at once, under
every utility configuration the engine accepts.  :meth:`~repro.index.facade.NeighborhoodContext.family_route` picks
the route from the operation's shape — no configuration involved:

* **FILTER cube** — FILTERs on one categorical/numeric attribute share
  the parent's :class:`~repro.index.cubes.CandidateCube`;
* **sibling cube** — CHANGEs of one categorical/numeric pair ⟨a, v⟩
  share a cube on axis a over the sibling group (the parent without
  ⟨a, v⟩); the GENERALIZE dropping ⟨a, v⟩ is a one-candidate stack of
  that sibling group's own histograms;
* **containment family** — FILTERs on one multi-valued attribute share a
  :class:`~repro.index.cubes.ContainmentFamily`;
* **residue** — multi-valued CHANGE/GENERALIZE, compounds and
  over-budget families run as one-candidate stacks over posting rows
  (delta/direct counts).

1. **plan** — :func:`plan_lookup` maps every candidate to its family
   membership (or to none: a loose candidate runs as a one-candidate stack
   through the same kernel);
2. **stack** — each family stacks its members' slices into one
   ``(candidate, subgroup, bucket)`` count tensor per spec and runs the
   bitwise-exact fused kernel (:mod:`repro.batch.kernel`) to get every
   candidate's raw criteria and DW-utility matrix in a few array passes;
3. **prune** — a candidate's Eq.-(2) utility (Σ DW over the k *selected*
   maps) is bounded above by the Σ of its top-k pool DW utilities, so
   candidates are finalised in descending-bound order and the loop stops
   once the bound falls below the o-th best exact utility;
4. **exact-score cheaply, materialise lazily** — under PROFILE map
   distance a surviving candidate's *exact* utility needs only the GMM
   selection over its pool maps' profiles, not the materialised preview:
   profiles (subgroup means and sizes) come straight from the count
   tensors, and the same ``gmm_select``/PROFILE EMD the oracle uses picks
   the same maps bit for bit.  The full preview — through the ordinary
   ``generate_from_counts`` pipeline, byte-identical to the naive oracle —
   is materialised only for candidates that actually reach a returned
   top-o.  Under POOLED/NESTED distance an evaluated candidate's utility
   is its materialised preview's.

**Blocks.**  The recommendation scan hands the scorer its candidates in
blocks (:meth:`FamilyBatchScorer.score_block`).  A block first prepares
each member — its family's kernel pass, run once when the family's first
member is seen in any block, or its one-candidate row stack — and then
evaluates the block's candidates best-bound-first against the
request-wide threshold.  An unbudgeted request is one block: everything is
prepared, then one global queue prunes the tail in a single cut.  A
budgeted scan uses worker-sized blocks in scan order, so its snapshot,
budget-cut and ``force_cut_after`` boundaries are those of the naive
oracle's scan; a bound-pruned candidate provably cannot reach the top-o,
so pruning never changes a snapshot.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..core.distance import MapDistanceMethod, cdf_emd, points_cdf
from ..core.gmm import gmm_select
from ..core.rating_maps import RatingMapSpec
from ..core.utility import SeenMaps, candidate_weight, dimension_weights
from ..model.operations import Operation
from ..obs import span as obs_span
from ..resilience.deadline import check_deadline
from ..resilience.gate import under_pressure
from .kernel import (
    FamilyScores,
    SeenPooled,
    batch_family_dw,
    batch_family_scores,
)

if TYPE_CHECKING:  # pragma: no cover - import cycles with core and index
    from ..core.generator import RMSetGenerator
    from ..core.recommend import ScoredOperation
    from ..index.cubes import CandidateCube, ContainmentFamily
    from ..index.facade import NeighborhoodContext

__all__ = [
    "FamilyPlan",
    "PreparedFamily",
    "PreparedRows",
    "BatchScored",
    "plan_lookup",
    "pools_and_bounds",
    "FamilyBatchScorer",
]

#: Safety margin of the upper-bound prune.  The bound and the exact
#: utility are few-term sums of the same DW scores, so they can disagree
#: by a couple of ULPs (~1e-16 at these magnitudes); pruning only below
#: ``threshold - margin`` keeps every exact tie-break candidate alive
#: without giving up any real pruning.
_PRUNE_MARGIN = 1e-9


@dataclass
class FamilyPlan:
    """One family: all candidates served by one fused source.

    The source is a FILTER cube, a sibling (CHANGE) cube or a containment
    family; ``codes`` are the members' value codes in it.
    """

    source: "CandidateCube | ContainmentFamily"
    operations: list[Operation] = field(default_factory=list)
    codes: list[int | None] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.operations)


@dataclass
class PreparedFamily:
    """A family after the kernel pass: bounds ready, previews pending.

    ``valid`` indexes into ``family.operations``; all arrays run over the
    valid candidates only.  ``pools[c]`` is candidate ``c``'s utility-ranked
    informative pool (spec indices, at most k'), and ``dw`` the full
    DW-utility matrix.  The count tensors themselves are *not* kept — an
    evaluated candidate re-reads its rows from the family source (the same
    histogram the kernel stacked, so the values are identical).
    """

    family: FamilyPlan
    valid: list[int]
    codes: np.ndarray
    group_sizes: np.ndarray
    specs: "tuple[RatingMapSpec, ...]"
    scale: int
    scores: FamilyScores
    dw: np.ndarray
    pools: list[list[int]]
    bounds: np.ndarray
    n_scored: int
    _members: "dict[int, int] | None" = None

    def candidate_of(self, member: int) -> int | None:
        """The candidate row of family member ``member`` (None if gated)."""
        if self._members is None:
            self._members = {m: c for c, m in enumerate(self.valid)}
        return self._members.get(member)

    def operation(self, c: int) -> Operation:
        return self.family.operations[self.valid[c]]

    def size_of(self, c: int) -> int:
        return int(self.group_sizes[c])

    def counts_of(self, c: int, spec: RatingMapSpec) -> np.ndarray:
        return self.family.source.candidate_counts(int(self.codes[c]), spec)

    def labels_of(self, spec: RatingMapSpec) -> tuple:
        return self.family.source.labels_of(spec)


@dataclass
class PreparedRows:
    """A loose (familyless) candidate after the kernel pass.

    GENERALIZE candidates, multi-valued CHANGEs and compounds have no
    family, but their per-spec count matrices — from the sibling cube's
    joint histograms or the ordinary delta/direct path, so identical to the
    naive oracle's — still stack into a one-candidate tensor for
    the fused kernel.  That buys them the same vectorised criteria,
    exact-utility bound, global best-bound-first pruning and lazy preview
    as families.  Exposes the same candidate-indexed surface as
    :class:`PreparedFamily` (with ``c`` always 0), so the
    evaluation/materialisation code is shared.
    """

    view: Any
    op: Operation
    specs: "tuple[RatingMapSpec, ...]"
    scale: int
    counts: "dict[RatingMapSpec, np.ndarray]"
    scores: FamilyScores
    dw: np.ndarray
    pools: list[list[int]]
    bounds: np.ndarray

    def operation(self, c: int) -> Operation:
        return self.op

    def size_of(self, c: int) -> int:
        return int(self.view.size)

    def counts_of(self, c: int, spec: RatingMapSpec) -> np.ndarray:
        return self.counts[spec]

    def labels_of(self, spec: RatingMapSpec) -> tuple:
        return self.view.labels_of(spec)


class BatchScored:
    """A batch-scored candidate: exact utility now, preview on demand.

    Ranking only needs ``operation`` and ``utility``; :meth:`materialize`
    builds the full :class:`~repro.core.recommend.ScoredOperation` — with
    the preview the naive oracle would produce — for the candidates that
    actually make the returned top-o (or hands back the one ``scored``
    already built).
    """

    __slots__ = ("operation", "utility", "_scorer", "_prepared", "_c", "_scored")

    def __init__(
        self,
        operation: Operation,
        utility: float,
        scorer: "FamilyBatchScorer",
        prepared: "PreparedFamily | PreparedRows",
        c: int,
        scored: "ScoredOperation | None" = None,
    ) -> None:
        self.operation = operation
        self.utility = utility
        self._scorer = scorer
        self._prepared = prepared
        self._c = c
        self._scored = scored

    def materialize(self) -> "ScoredOperation":
        if self._scored is None:
            self._scored = self._scorer.materialize_candidate(
                self._prepared, self._c, self.utility
            )
        return self._scored


def plan_lookup(
    ctx: "NeighborhoodContext",
    operations: Sequence[Operation],
) -> "dict[int, tuple[FamilyPlan, int] | None]":
    """Map each operation (by id) to its family membership.

    The scan visits candidates in their original order and uses this
    lookup to batch the *arithmetic* by family: the first scanned member
    of a family triggers the whole family's kernel pass.  Loose candidates
    map to ``None`` (the one-candidate stack of
    :meth:`FamilyBatchScorer.prepare_rows`).
    """
    lookup: "dict[int, tuple[FamilyPlan, int] | None]" = {}
    families: dict[int, FamilyPlan] = {}
    for operation in operations:
        route = ctx.family_route(operation)
        if route is None:
            lookup[id(operation)] = None
            continue
        source, code = route
        family = families.get(id(source))
        if family is None:
            family = families[id(source)] = FamilyPlan(source)
        lookup[id(operation)] = (family, len(family))
        family.operations.append(operation)
        family.codes.append(code)
    return lookup


def pools_and_bounds(
    dw: np.ndarray,
    informative: np.ndarray,
    specs: "Sequence[RatingMapSpec]",
    k: int,
    k_prime: int,
    diversity_only: bool = False,
) -> tuple[list[list[int]], np.ndarray]:
    """Per-candidate pool membership + utility upper bound.

    A candidate's pool is its top-k' specs by ``(-dw, spec)`` that yield
    informative maps — exactly ``finalize_from_counts``'s ranking — and
    the Σ of the pool's top-k DW scores bounds the selected set's Σ from
    above.  One stable ``lexsort`` ranks the whole family: ties in DW fall
    back to the specs' own order through a precomputed rank, and the bound
    accumulates left to right as Python's ``sum`` does, so pools and bounds
    are bit-identical to a per-candidate ``sorted``.

    ``diversity_only`` (Table 5/6's Diversity-Only arm) makes the pool
    every informative spec in spec order, as the generator ranks it; the
    bound is still the Σ of the top-k DW scores.
    """
    n_candidates, n_specs = dw.shape
    rank = np.empty(n_specs, dtype=np.intp)
    by_spec = sorted(range(n_specs), key=specs.__getitem__)
    rank[by_spec] = np.arange(n_specs)
    order = np.lexsort((np.broadcast_to(rank, dw.shape), -dw), axis=-1)
    order = order[:, : n_specs if diversity_only else k_prime]
    keep = np.take_along_axis(informative, order, axis=1)
    if diversity_only:
        pools = [[j for j in by_spec if row[j]] for row in informative]
    else:
        pools = [row[mask].tolist() for row, mask in zip(order, keep)]
    summed = keep & (np.cumsum(keep, axis=1) <= k)
    values = np.take_along_axis(dw, order, axis=1)
    bounds = np.zeros(n_candidates)
    for column in range(order.shape[1]):
        bounds += np.where(summed[:, column], values[:, column], 0.0)
    return pools, bounds


class FamilyBatchScorer:
    """Scores the blocks of one recommendation request.

    Holds the request-scoped state the upper-bound prune needs: the top-o
    exact utilities seen so far, across families *and* loose candidates
    (every exact evaluation feeds it through :meth:`note_exact`).  A scorer
    is driven by one thread, the request's.
    """

    def __init__(
        self,
        ctx: "NeighborhoodContext",
        generator: RMSetGenerator,
        seen: SeenMaps,
        o: int,
        min_group_size: int,
    ) -> None:
        self._ctx = ctx
        self._min_group_size = min_group_size
        self._generator = generator
        self._seen = seen
        self._o = max(1, int(o))
        gcfg = generator.config
        self._k = gcfg.k
        self._k_prime = gcfg.k_prime
        self._diversity_only = gcfg.diversity_only
        self._profile = gcfg.distance_method is MapDistanceMethod.PROFILE
        self._utility = gcfg.utility
        self._seen_pooled = SeenPooled.of(seen)
        self._dim_weights = dimension_weights(
            seen.dimension_history(), seen.dimensions
        )
        self._spec_weights: "dict[RatingMapSpec, float]" = {}
        self._top: list[float] = []  # min-heap of the o best exact utilities
        self._families: "dict[int, PreparedFamily | None]" = {}
        self.stats = {
            "families": 0,
            "candidates": 0,
            "batched": 0,
            "scored": 0,
            "evaluated": 0,
            "pruned": 0,
            "materialized": 0,
        }

    # -- the global exact-utility threshold ---------------------------------
    def note_exact(self, utility: float) -> None:
        """Record one candidate's exact utility (family or loose path)."""
        if len(self._top) < self._o:
            heapq.heappush(self._top, utility)
        elif utility > self._top[0]:
            heapq.heapreplace(self._top, utility)

    def _threshold(self) -> float:
        if len(self._top) < self._o:
            return float("-inf")
        return self._top[0]

    # -- per-spec weights (constant across a family's candidates) -----------
    def _spec_weight(self, spec: RatingMapSpec) -> float:
        # ``seen`` is fixed for the scorer's one request, so each spec's
        # weight is computed once however many candidates share it
        weight = self._spec_weights.get(spec)
        if weight is None:
            weight = self._spec_weights[spec] = candidate_weight(
                spec.dimension,
                (spec.side, spec.attribute),
                self._seen,
                self._utility,
                self._dim_weights,
            )
        return weight

    # -- block scoring -------------------------------------------------------
    def score_block(
        self,
        operations: Sequence[Operation],
        lookup: "dict[int, tuple[FamilyPlan, int] | None]",
    ) -> tuple["list[BatchScored | None]", int]:
        """Score one block of the scan.

        Step 1 prepares every member: its family's kernel pass (run once,
        on the family's first member in any block) or its one-candidate
        row stack.  Step 2 evaluates the block's candidates best-bound-first
        against the shared threshold and prunes the tail in one cut — a
        candidate is only skipped when its bound proves it cannot reach the
        top-o, so the order changes no result.  Returns per-operation
        results aligned with ``operations`` (``None`` for size-gated,
        empty-pool and bound-pruned candidates) plus the number of *scored*
        candidates — those whose preview pool is non-empty, whether or not
        the prune skipped their evaluation.
        """
        with obs_span("batch.scan", candidates=len(operations)) as sp:
            queue: "list[tuple[float, int, PreparedFamily | PreparedRows, int]]" = []
            for i, operation in enumerate(operations):
                check_deadline()
                member = lookup.get(id(operation))
                if member is None:
                    ready: "PreparedFamily | PreparedRows | None" = (
                        self.prepare_rows(operation)
                    )
                    c: "int | None" = 0
                else:
                    family, index = member
                    ready = self._family(family)
                    c = None if ready is None else ready.candidate_of(index)
                if ready is not None and c is not None and ready.pools[c]:
                    queue.append((float(ready.bounds[c]), i, ready, c))
            queue.sort(key=lambda entry: (-entry[0], entry[1]))
            results: "list[BatchScored | None]" = [None] * len(operations)
            evaluated = pruned = 0
            for position, (bound, i, ready, c) in enumerate(queue):
                check_deadline()
                if bound < self._threshold() - _PRUNE_MARGIN:
                    pruned = len(queue) - position
                    break
                results[i] = self.evaluate_candidate(ready, c)
                evaluated += 1
            sp.set(scored=len(queue), evaluated=evaluated, pruned=pruned)
        self.stats["evaluated"] += evaluated
        self.stats["pruned"] += pruned
        return results, len(queue)

    def _family(self, family: FamilyPlan) -> "PreparedFamily | None":
        """The family's kernel pass, run once on its first scanned member.

        Returns ``None`` when no candidate survives the size gates.
        """
        key = id(family)
        if key not in self._families:
            source = family.source
            with obs_span(
                "batch.score",
                side=source.side.value,
                attribute=source.attribute,
                route=source.route,
                candidates=len(family),
            ) as sp:
                prepared = self._prepare(family)
                sp.set(scored=prepared.n_scored if prepared is not None else 0)
            self._families[key] = prepared
        return self._families[key]

    def _prepare(self, family: FamilyPlan) -> "PreparedFamily | None":
        source = family.source
        parent_size = self._ctx.parent_size
        sizes = [source.candidate_size(code) for code in family.codes]
        # the naive oracle's gates: size floor, then the source's
        # redundancy test (does the candidate select the parent's rows?)
        valid = [
            i
            for i, (code, size) in enumerate(zip(family.codes, sizes))
            if code is not None
            and size >= self._min_group_size
            and not source.redundant(code, parent_size)
        ]
        prepared: "PreparedFamily | None" = None
        n_scored = 0
        if valid:
            self._ctx.count_candidates(source.route, len(valid))
            codes = np.array([family.codes[i] for i in valid], dtype=np.intp)
            group_sizes = np.array([sizes[i] for i in valid], dtype=np.int64)
            specs = source.specs
            stacks = []
            for spec in specs:
                check_deadline()
                stacks.append(source.stacked_counts(codes, spec))
            scores = batch_family_scores(
                stacks, group_sizes, self._seen_pooled, self._utility
            )
            weights = np.array([self._spec_weight(spec) for spec in specs])
            dw = batch_family_dw(scores, weights, self._utility)
            pools, bounds = pools_and_bounds(
                dw, scores.informative, specs, self._k, self._k_prime,
                self._diversity_only,
            )
            n_scored = sum(1 for pool in pools if pool)
            if n_scored:
                prepared = PreparedFamily(
                    family=family,
                    valid=valid,
                    codes=codes,
                    group_sizes=group_sizes,
                    specs=specs,
                    scale=int(stacks[0].shape[2]),
                    scores=scores,
                    dw=dw,
                    pools=pools,
                    bounds=bounds,
                    n_scored=n_scored,
                )
        self.stats["families"] += 1
        self.stats["candidates"] += len(family)
        self.stats["batched"] += len(family)
        self.stats["scored"] += n_scored
        return prepared

    # -- loose (familyless) candidates ---------------------------------------
    def prepare_rows(self, operation: Operation) -> "PreparedRows | None":
        """Kernel pass for one loose candidate (no family).

        Applies the naive oracle's gates — size floor and the row-equality
        redundancy test — then runs the one-candidate
        count stack through the fused kernel.  The count matrices come
        from the candidate's statistics view, so they are the exact arrays
        the oracle would score.
        """
        view = self._ctx.candidate(operation)
        size = view.size
        prepared: "PreparedRows | None" = None
        n_scored = 0
        if (
            size >= self._min_group_size
            and not view.matches_parent(self._ctx.parent_size)
        ):
            specs = view.specs
            if specs:
                counts: "dict[RatingMapSpec, np.ndarray]" = {}
                stacks = []
                for spec in specs:
                    check_deadline()
                    matrix = np.asarray(view.counts_of(spec))
                    counts[spec] = matrix
                    stacks.append(matrix[None])
                scores = batch_family_scores(
                    stacks,
                    np.array([size], dtype=np.int64),
                    self._seen_pooled,
                    self._utility,
                )
                weights = np.array(
                    [self._spec_weight(spec) for spec in specs]
                )
                dw = batch_family_dw(scores, weights, self._utility)
                pools, bounds = pools_and_bounds(
                    dw, scores.informative, specs, self._k, self._k_prime,
                    self._diversity_only,
                )
                if pools[0]:
                    n_scored = 1
                    prepared = PreparedRows(
                        view=view,
                        op=operation,
                        specs=specs,
                        scale=int(stacks[0].shape[2]),
                        counts=counts,
                        scores=scores,
                        dw=dw,
                        pools=pools,
                        bounds=bounds,
                    )
        self.stats["candidates"] += 1
        self.stats["batched"] += 1
        self.stats["scored"] += n_scored
        return prepared

    # -- exact utility without materialisation -------------------------------
    def _pool_cdf(
        self, prepared: "PreparedFamily | PreparedRows", c: int, j: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The PROFILE-distance CDF table of one pool map, from counts.

        Bitwise-identical to ``distance._profile_cdf`` of the materialised
        :class:`~repro.core.rating_maps.RatingMap`: subgroups are the
        non-empty histogram rows in label order, means reduce each row
        with the same last-axis pairwise tree ``histogram_mean`` uses, and
        weights are the (exact integer) row totals.
        """
        counts = np.asarray(
            prepared.counts_of(c, prepared.specs[j]), dtype=np.float64
        )
        totals = counts.sum(axis=1)  # exact
        nonzero = totals > 0
        rows = counts[nonzero]
        weights = totals[nonzero]
        values = np.arange(1, counts.shape[1] + 1, dtype=np.float64)
        means = (values * rows).sum(axis=1) / weights
        return points_cdf(means, weights)

    def evaluate_candidate(
        self, prepared: "PreparedFamily | PreparedRows", c: int
    ) -> BatchScored:
        """Exact-score one candidate, materialising its preview only when
        the map distance is not PROFILE.

        Replays the RM-Selector on pool profiles computed straight from
        the count tensors: the same GMM over the same EMD values selects
        the same maps as the oracle's ``_finish``, so the Eq.-(2) utility
        — the Σ of the selected specs' DW scores, summed in selection
        order — is bitwise-identical to ``preview.total_utility()``.
        Under load pressure the oracle skips GMM and shows the plain
        top-k (except for Diversity-Only, which never degrades), and so
        does this.  POOLED/NESTED distances have no replay: the candidate's
        utility is its materialised preview's.  Feeds the exact utility
        back into the shared prune threshold.
        """
        if not self._profile:
            scored = self.materialize_candidate(prepared, c)
            self.note_exact(scored.utility)
            return BatchScored(
                scored.operation, scored.utility, self, prepared, c, scored
            )
        pool = prepared.pools[c]
        k = self._k
        if under_pressure() and not self._diversity_only:
            # mirror _finish's load-shedding path: plain top-k by utility
            chosen = pool[:k]
        elif k >= len(pool):
            chosen = list(pool)
        else:
            tables = [self._pool_cdf(prepared, c, j) for j in pool]
            span = float(prepared.scale - 1)

            def dist(ia: int, ib: int) -> float:
                return cdf_emd(tables[ia], tables[ib], span)

            chosen = [
                pool[i]
                for i in gmm_select(
                    list(range(len(pool))), k, dist, seed_index=0
                )
            ]
        utility = sum(float(prepared.dw[c, j]) for j in chosen)
        self.note_exact(utility)
        return BatchScored(prepared.operation(c), utility, self, prepared, c)

    def materialize_candidate(
        self,
        prepared: "PreparedFamily | PreparedRows",
        c: int,
        utility: "float | None" = None,
    ) -> "ScoredOperation":
        """Build one candidate's full preview with ``generate_from_counts``.

        The counts callable re-reads the candidate's rows from its source
        — the same histogram the kernel stacked, so the preview is built
        from values identical to the batch tensor's row ``c``.  ``utility``
        defaults to the preview's own ``total_utility()``.
        """
        from ..core.recommend import ScoredOperation

        preview = self._generator.generate_from_counts(
            prepared.operation(c).target,
            prepared.specs,
            lambda spec: prepared.counts_of(c, spec),
            prepared.labels_of,
            prepared.size_of(c),
            self._seen,
        )
        self.stats["materialized"] += 1
        if utility is None:
            utility = preview.total_utility()
        return ScoredOperation(prepared.operation(c), utility, preview)
