"""End-to-end closest-fair dispatch and the l-mean fair consensus aggregator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .balance_fractional import _balance_pq
from .balance_integral import _balance_p
from .distance import ConsensusObjective, check_exponent, dist_fast, dist_labels, lmean, objective_key
from .errors import EmptyInput, InternalDeficitMismatch
from .exact import _run_exact
from .fairify import _make_clusters_fair
from .model import Clustering, ColoredInstance, is_fair, validate_feasible
from .transcript import ClusterState, Transcript

# Per-stage guarantees: balancing factor alpha, fairifying factor beta,
# composed end-to-end factor alpha + beta + alpha*beta.
_REGIMES = {
    "exact": (1.0, 1.0, 1.0),
    "p:1": (3.5, 3.0, 17.0),
    "p:q": (7.5, 3.0, 33.0),
}


@dataclass(frozen=True)
class GuaranteeReport:
    """Worst-case factors for the dispatched regime next to measured costs."""

    regime: str
    alpha: float
    beta: float
    composed_factor: float
    achieved_distance: int
    stage_distances: dict[str, int]


@dataclass(frozen=True)
class ConsensusResult:
    clustering: Clustering
    objective: ConsensusObjective
    per_input_distances: tuple[int, ...]
    chosen_index: int
    factor: float
    regime: str


def _regime(instance: ColoredInstance) -> str:
    if instance.p == 1 and instance.q == 1:
        return "exact"
    if instance.q == 1:
        return "p:1"
    return "p:q"


def closest_fair(
    instance: ColoredInstance, clustering: Clustering
) -> tuple[Clustering, GuaranteeReport, Transcript]:
    """Fair clustering close to the input, with the regime's guarantee.

    Ratio 1:1 is solved exactly; an integral ratio via balancing plus
    fairifying within factor 17; a fractional ratio the same way within
    factor 33.  Move costs accumulate against the original clustering, so
    the transcript's total equals the achieved distance.
    """
    validate_feasible(instance)
    regime = _regime(instance)
    alpha, beta, composed = _REGIMES[regime]
    state = ClusterState(instance, clustering)
    transcript = state.transcript
    if regime == "exact":
        _run_exact(state)
    else:
        if regime == "p:1":
            _balance_p(state)
        else:
            _balance_pq(state)
        balance_moves = transcript.move_count
        mid = state.key_labels()
        _make_clusters_fair(state)
        fairify_distance = dist_labels(mid, state.key_labels())
    out = state.to_clustering()
    if not is_fair(instance, out):
        raise InternalDeficitMismatch("pipeline produced an unfair clustering")
    costs = transcript.costs  # every move priced in one pass
    achieved = int(costs.sum())
    if regime == "exact":
        stage_distances = {"exact": achieved}
    else:
        stage_distances = {"balance": int(costs[:balance_moves].sum()), "fairify": fairify_distance}
    report = GuaranteeReport(
        regime=regime,
        alpha=alpha,
        beta=beta,
        composed_factor=composed,
        achieved_distance=achieved,
        stage_distances=stage_distances,
    )
    return out, report, transcript


def fair_consensus(
    instance: ColoredInstance, clusterings: Sequence[Clustering], ell: float
) -> ConsensusResult:
    """Fair clustering minimizing the l-mean distance to the inputs.

    Computes a close fair clustering per input and returns the candidate
    with the smallest objective (smallest index on ties).  Approximation
    factor is 2 plus the closest-fair factor of the regime: 3, 19, or 35.
    """
    if not clusterings:
        raise EmptyInput("consensus over no clusterings")
    check_exponent(ell)
    validate_feasible(instance)
    candidates = [closest_fair(instance, d)[0] for d in clusterings]
    dmat = [
        [dist_fast(d, f) for d in clusterings]
        for f in candidates
    ]
    best = min(range(len(candidates)), key=lambda k: (objective_key(dmat[k], ell), k))
    regime = _regime(instance)
    return ConsensusResult(
        clustering=candidates[best],
        objective=lmean(dmat[best], ell),
        per_input_distances=tuple(dmat[best]),
        chosen_index=best,
        factor=2.0 + _REGIMES[regime][2],
        regime=regime,
    )
