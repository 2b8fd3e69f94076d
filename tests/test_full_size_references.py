"""The near-pair list, q_values, the graph rules and greedy against their
slow references at full size.

Everywhere else the fast paths meet their references on small instances.
Here they meet them on the protocol's full sizes: the graph-whitewine
benchmark stand-in (a 3,380-point pool) at split seeds 0 and 1, with the
batch at k = 676 and a greedy trial's 680 picks, and the near-pair list
alone at split seed 2 too. The references take minutes (about 3.5 in all
on 2 vCPUs), so the test runs only when ALREGRESS_FULL_REFERENCES is set:

    ALREGRESS_FULL_REFERENCES=1 PYTHONPATH=src python -m pytest -q \\
        tests/test_full_size_references.py
"""

import os

import pytest

from alregress import build_seed_set

from conftest import (
    assert_greedy_is_fresh_scans,
    assert_near_pairs_are_reference,
    assert_lazy_is_eager,
    assert_matches_dense,
    q_values_reference,
    whitewine_stand_in_graph,
)

# an ours_batch trial's k: 20% of the pool, rounded half up
FULL_K = 676
# a greedy trial's labels: 10 rounds of ceil(2% of the pool)
GREEDY_PICKS = 680


@pytest.mark.skipif(
    not os.environ.get("ALREGRESS_FULL_REFERENCES"),
    reason="set ALREGRESS_FULL_REFERENCES=1 to check near_pairs, q_values, "
    "build_seed_set, select_ours_batch and greedy_order against their slow "
    "references at full size (about 3.5 minutes)",
)
def test_slow_references_at_full_size():
    for split_seed in (0, 1):  # in one test, so that the skip counts once
        g = whitewine_stand_in_graph(split_seed)
        assert g.unlabeled.size == 3380
        # the pruned near-pair build against one pool x pool cdist, bitwise
        assert_near_pairs_are_reference(g)
        # q_values over that list against the dense row-order sums, bitwise
        assert g.q_values().tobytes() == q_values_reference(g).tobytes()
        # the eager chain of dense q scans: the same picks and drop bits
        assert_lazy_is_eager(g, FULL_K)
        # the dense search from the same seed: set, swap count, q_history bits
        assert_matches_dense(g, build_seed_set(g, FULL_K)[0])
        # a fresh greedy scan of the sets each step has reached
        assert_greedy_is_fresh_scans(g.features, g.labeled, g.unlabeled, GREEDY_PICKS)
    # the near-pair list, which every graph rule reads, at a third split
    assert_near_pairs_are_reference(whitewine_stand_in_graph(2))
