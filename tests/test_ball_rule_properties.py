"""The scalar memo follows each link change exactly.

A dynamics run keeps one `_resolve` memo, ``node -> (payoff, balls)``, for
the whole run.  On an add every remembered node gets the merged balls of
`model._added_balls`; on a cut only the nodes at equal hop counts from the
two ends stay.  Over random graphs on up to 12 nodes, every carried entry
must equal a fresh BFS (`model._balls`) on the new network, and every
carried payoff must be `payoff` there, bit for bit.
"""

import pytest
from hypothesis import given, settings, strategies as st

from groupform import model, stability
from groupform.model import (
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    all_pairs,
    payoff,
)

from conftest import assert_memo_on

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None, database=None)


@st.composite
def graphs(draw):
    """A society of one to three groups of 3 to 6, at most 12 nodes, and a
    network over it whose edges are drawn at a random density, so that
    sparse graphs with several components and dense ones both occur."""
    sizes = draw(st.lists(st.integers(3, 6), min_size=1, max_size=3)
                 .filter(lambda sizes: sum(sizes) <= 12))
    n = sum(sizes)
    density = draw(st.sampled_from([0.1, 0.25, 0.5, 0.8]))
    present = draw(st.lists(st.floats(0, 1), min_size=n * (n - 1) // 2,
                            max_size=n * (n - 1) // 2))
    edges = [pair for pair, u in zip(all_pairs(n), present) if u < density]
    m = len(sizes)
    cross = draw(st.lists(st.floats(0, 1), min_size=m * (m - 1) // 2,
                          max_size=m * (m - 1) // 2))
    params = ModelParams(draw(st.floats(0.1, 0.9)), draw(st.floats(0.01, 0.6)))
    society = Society(GroupPartition.from_sizes(sizes),
                      CoordinationMatrix.from_upper_triangle(m, cross), params)
    return Network(n, edges), society


def full_memo(network, society, read):
    """Every node's entry, the payoffs of the nodes in ``read`` filled."""
    masks = network.neighbor_masks
    return {v: (payoff(network, v, society) if v in read else None, model._balls(masks, v))
            for v in range(network.n)}


@PROPERTY
@given(graphs(), st.sets(st.integers(0, 11)))
def test_an_add_carries_every_node(graph, read):
    network, society = graph
    missing = [(i, j) for i, j in all_pairs(network.n) if not network.has_edge(i, j)]
    for i, j in missing:
        memo = full_memo(network, society, read)
        stability._carry_memo(memo, i, j, added=True)
        assert set(memo) == set(range(network.n))
        assert_memo_on(memo, network.with_edge(i, j), society)


@PROPERTY
@given(graphs(), st.sets(st.integers(0, 11)))
def test_a_cut_keeps_the_nodes_at_equal_hop_counts(graph, read):
    network, society = graph
    for i, j in network.sorted_edges():
        memo = full_memo(network, society, read)
        stability._carry_memo(memo, i, j, added=False)
        to_i, to_j = network.distances_from(i), network.distances_from(j)
        assert set(memo) == {v for v in range(network.n) if to_i[v] == to_j[v]}
        assert_memo_on(memo, network.without_edge(i, j), society)


@PROPERTY
@given(graphs(), st.sets(st.integers(0, 11)), st.data())
def test_resolve_leaves_the_memo_on_the_network_it_returns(graph, read, data):
    network, society = graph
    i, j = data.draw(st.sampled_from(all_pairs(network.n)))
    memo = full_memo(network, society, read)
    resolved = stability._resolve(network, i, j, society, memo)
    assert resolved in (network, network._toggled(i, j))
    if resolved.has_edge(i, j) and not network.has_edge(i, j):
        # an add keeps the two payoffs its decision computed
        assert None not in (memo[i][0], memo[j][0])
    assert_memo_on(memo, resolved, society)


@pytest.mark.parametrize("v", range(6))
def test_added_balls_is_the_rule_for_any_node(v):
    # a path 0-1-2-3-4-5 closed into a ring by the link (0, 5): every node's
    # new balls from its own, the near end's hop count and the far end's
    network = Network(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    masks = network.neighbor_masks
    to_0, to_5 = network.distances_from(0), network.distances_from(5)
    near, far = (to_0[v], 5) if to_0[v] <= to_5[v] else (to_5[v], 0)
    merged = model._added_balls(model._balls(masks, v), model._balls(masks, far), near)
    assert merged == model._balls(network.with_edge(0, 5).neighbor_masks, v)
