import random

import pytest
from hypothesis import HealthCheck, settings

from groupform.model import (
    CoordinationMatrix,
    GroupPartition,
    ModelParams,
    Network,
    Society,
    payoff,
)
from groupform import model, stability
from groupform.stability import full_graph_space

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


# Partitions with every group size >= 3 and n <= 8, so exhaustive checks stay cheap.
SMALL_SIZE_CHOICES = [(3,), (4,), (5,), (6,), (7,), (8,), (3, 3), (3, 4), (3, 5), (4, 4)]


@pytest.fixture(autouse=True)
def fresh_tables():
    """Each test starts with no table remembered by `compute_tables`."""
    stability._last_tables.clear()


def random_society(rng: random.Random, max_groups: int = 2) -> Society:
    sizes = rng.choice([s for s in SMALL_SIZE_CHOICES if len(s) <= max_groups])
    partition = GroupPartition.from_sizes(sizes)
    cross = [rng.uniform(0.0, 1.0) for _ in range(partition.m * (partition.m - 1) // 2)]
    coordination = CoordinationMatrix.from_upper_triangle(partition.m, cross)
    delta = rng.uniform(0.1, 0.9)
    cost = rng.uniform(0.01, 0.6)
    return Society(partition, coordination, ModelParams(delta, cost))


def random_network(rng: random.Random, n: int) -> Network:
    pair_count = n * (n - 1) // 2
    return full_graph_space(n).network_for(rng.getrandbits(pair_count))


@pytest.fixture
def two_groups_3_5() -> Society:
    return Society(
        GroupPartition.from_sizes([3, 5]),
        CoordinationMatrix.uniform(2, 0.4),
        ModelParams(0.5, 0.2),
    )


def assert_memo_on(memo, network, society):
    """Each `_resolve` memo entry is ``(payoff, balls)`` on ``network``: the
    balls of a fresh BFS, and `payoff` bit for bit, as read now where the
    payoff is still unread (None)."""
    for v, (u, balls) in memo.items():
        assert balls == model._balls(network.neighbor_masks, v), v
        read = model._level_sum(balls, v, society) if u is None else u
        assert read == payoff(network, v, society), v
