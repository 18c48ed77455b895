"""3.5-close balancing for an integral blue:red ratio (q = 1).

Every cluster's blue count goes to a multiple of p through the balancing
body of ``balance_fractional``, with blue its only color.
"""

from __future__ import annotations

from .balance_fractional import _balance
from .errors import InfeasibleFairness, WrongRatio
from .model import Clustering, ColoredInstance
from .transcript import ClusterState, Transcript

# Unused here: bench/tracing.py wraps these names in both balancer modules.
from .model import all_stats
from .mergeloop import make_donor_blocks, pack_extras, run_merge_subsets


def _balance_p(state: ClusterState) -> None:
    _balance(state, (("blue", state.instance.p),), "merge")


def balance_p(instance: ColoredInstance, clustering: Clustering) -> tuple[Clustering, Transcript]:
    """Rearrange so every cluster's blue count is a multiple of p (q = 1)."""
    if instance.q != 1:
        raise WrongRatio(f"integral balancing requires q = 1, got q = {instance.q}")
    if instance.blue_total % instance.p != 0:
        raise InfeasibleFairness(
            f"blue total {instance.blue_total} not a multiple of p = {instance.p}"
        )
    state = ClusterState(instance, clustering)
    _balance_p(state)
    return state.to_clustering(), state.transcript
