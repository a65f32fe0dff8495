import itertools

import numpy as np
import pytest

from clusterembed.embedding_ops import EmbeddingBatch, pairwise_distances
from clusterembed.errors import InvalidInputError
from clusterembed.facility import _group_costs, assign, facility_score, oracle_score
from clusterembed.inference import label_medoids

from oracles import facility_oracle, oracle_score_oracle


def random_dist(seed, m=10, d=3):
    rng = np.random.default_rng(seed)
    return pairwise_distances(EmbeddingBatch(rng.normal(size=(m, d))))


def test_facility_matches_oracle():
    dist = random_dist(0)
    for medoids in [(0,), (3, 7), (1, 4, 9), tuple(range(10))]:
        assert facility_score(dist, medoids) == pytest.approx(
            facility_oracle(dist, medoids), rel=1e-12
        )


def test_single_medoid_is_negated_column_sum():
    dist = random_dist(1)
    assert facility_score(dist, [4]) == pytest.approx(-dist[:, 4].sum(), rel=1e-12)


def test_coincident_points_score_zero():
    emb = EmbeddingBatch(np.ones((5, 3)))
    dist = pairwise_distances(emb)
    assert facility_score(dist, [2]) == 0.0


def test_medoid_validation():
    dist = random_dist(2)
    with pytest.raises(InvalidInputError):
        facility_score(dist, [])
    with pytest.raises(InvalidInputError):
        facility_score(dist, [1, 1])
    with pytest.raises(InvalidInputError):
        facility_score(dist, [10])
    with pytest.raises(InvalidInputError):
        facility_score(dist, [-1])
    # float and bool indices are refused, not truncated or read as 0 and 1
    y = np.arange(10) % 2
    for medoids in ([0.9, 2.2], [0.0, 2.0], np.array([True, False]), [True, False]):
        with pytest.raises(InvalidInputError):
            facility_score(dist, medoids)
        with pytest.raises(InvalidInputError):
            assign(dist, medoids)
        with pytest.raises(InvalidInputError):
            label_medoids(dist, medoids, y, 0.0)


def test_assign_nearest_and_tie_to_smallest_position():
    # points on a line; point at 1 is equidistant from medoids 0 and 2
    emb = EmbeddingBatch(np.array([[0.0], [1.0], [2.0]]))
    dist = pairwise_distances(emb)
    labels = assign(dist, [0, 2])
    assert labels.tolist() == [0, 0, 1]
    # order matters for the tie only
    labels = assign(dist, [2, 0])
    assert labels.tolist() == [1, 0, 0]


def test_oracle_score_matches_exhaustive_per_class_search():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = int(rng.integers(4, 12))
        y = rng.integers(0, 3, size=m)
        y[:3] = [0, 1, 2]
        dist = pairwise_distances(EmbeddingBatch(rng.normal(size=(m, 2))))
        total, medoids = oracle_score(dist, y)
        ref_total, ref_medoids = oracle_score_oracle(dist, y)
        assert total == pytest.approx(ref_total, rel=1e-12)
        assert list(medoids) == ref_medoids


def test_oracle_score_tie_breaks_to_smallest_index():
    # two coincident candidates within the class tie exactly
    emb = EmbeddingBatch(np.array([[0.0], [0.0], [5.0]]))
    dist = pairwise_distances(emb)
    _, medoids = oracle_score(dist, np.array([0, 0, 1]))
    assert medoids == (0, 2)


def test_oracle_score_keeps_inf_distances_out_of_other_classes():
    """Point 4 is at inf distance from the rest. Class 0's costs stay
    finite (a multiply by a 0/1 mask would turn its inf entries into nan),
    and class 1, whose two members are at inf from each other, ties at inf
    and takes its smaller index."""
    dist = pairwise_distances(EmbeddingBatch(np.array([[0.0], [1.0], [1.1], [5.0], [9.0]])))
    dist = dist.copy()
    dist[4, :4] = dist[:4, 4] = np.inf
    assert oracle_score(dist, np.array([0, 0, 0, 1, 1])) == (-np.inf, (1, 3))
    assert oracle_score(dist[:3, :3], np.array([0, 0, 0])) == (-dist[:3, 1].sum(), (1,))


def test_oracle_score_rejects_labels_not_dense_class_ids():
    """The oracle accepts exactly the labels inference accepts."""
    dist = random_dist(5, m=4)
    for y in (
        [0, 0, 2, 2],  # class 1 empty
        [-1, -1, 0, 1],  # negative id
        [0.0, 0.0, 1.0, 1.5],  # float ids
        [True, True, False, False],  # bool ids
        [0, 0, 1],  # one id short
    ):
        with pytest.raises(InvalidInputError):
            oracle_score(dist, np.array(y))


def test_within_cluster_costs_add_points_as_each_position_adds_them():
    """The within-group costs, on the points and medoids as refinement's
    cluster pool asks for them and on every point by class as the oracle
    asks for them, have the bits of a column sum over the group's points
    in ascending order, signed zeros included: each position's
    ``dist.T[np.ix_(cluster, cands)].sum(axis=0)`` over its cluster's
    points and its medoid, and each class's ``dist.T[np.ix_(y == k, y ==
    k)].sum(axis=0)``, whose first minimum is the class's oracle medoid.
    The oracle's total is the running total of those minima in class
    order, sign included. On entries of +-2^30..2^49 by the parity of
    i + j plus small parts, any other order of a group's points changes
    some sums, and of up to 16 classes any other order of the minima (a
    pairwise sum differs from 9 terms on); entries of +-0.0 check the sign
    of zero sums. Medoids need not lie in their own clusters."""
    rng = np.random.default_rng(48)
    # the oracle's classes, drawn apart so the clusters above stay as drawn
    class_rng = np.random.default_rng(49)
    for i in range(200):
        m = int(rng.integers(2, 60))
        idx = np.arange(m)
        if i % 4 == 3:
            dist = np.where(rng.random((m, m)) < 0.5, -0.0, 0.0)
        else:
            sign = np.where((idx[:, None] + idx[None, :]) % 2 == 0, 1.0, -1.0)
            dist = sign * 2.0 ** int(rng.integers(30, 50)) + rng.uniform(0.0, 3.0, size=(m, m))
        num_classes = int(rng.integers(1, min(m, 5) + 1))
        assignment = rng.integers(0, num_classes, size=m)
        medoids = [int(v) for v in rng.permutation(m)[:num_classes]]
        groups = np.append(assignment, np.arange(num_classes))
        got = _group_costs(dist, np.append(idx, medoids), groups, assignment)
        for k in range(num_classes):
            # as a position scores them: two or more candidates
            cands = np.union1d(np.flatnonzero(assignment == k), [medoids[k]])
            if cands.size < 2:
                continue
            want = dist.T[np.ix_(assignment == k, cands)].sum(axis=0)
            mine = np.where(cands == medoids[k], got[m + k], got[cands])
            assert np.array_equal(mine, want), (i, k)
            assert np.array_equal(np.signbit(mine), np.signbit(want)), (i, k)
        num_classes = int(class_rng.integers(1, min(m, 16) + 1))
        y = class_rng.permutation(idx % num_classes)
        want_medoids, want_total = [], 0.0
        for k in range(num_classes):
            col = dist.T[np.ix_(y == k, y == k)].sum(axis=0)
            best = int(np.argmin(col))
            want_medoids.append(int(np.flatnonzero(y == k)[best]))
            want_total -= float(col[best])
        total, medoids = oracle_score(dist, y)
        assert medoids == tuple(want_medoids), i
        assert total == want_total and np.signbit(total) == np.signbit(want_total), i


def test_monotone_and_submodular_exhaustively():
    # F over all subsets of a 6-point ground set: A subset of B implies
    # F(A) <= F(B), and marginal gains shrink as the set grows
    rng = np.random.default_rng(6)
    for _ in range(5):
        dist = pairwise_distances(EmbeddingBatch(rng.normal(size=(6, 3))))
        universe = range(6)
        value = {}
        for r in range(1, 7):
            for s in itertools.combinations(universe, r):
                value[s] = facility_score(dist, s)
        for a in value:
            for b in value:
                if not set(a) <= set(b):
                    continue
                assert value[a] <= value[b] + 1e-12
                for x in universe:
                    if x in set(b):
                        continue
                    ax = tuple(sorted(set(a) | {x}))
                    bx = tuple(sorted(set(b) | {x}))
                    gain_a = value[ax] - value[a]
                    gain_b = value[bx] - value[b]
                    assert gain_a >= gain_b - 1e-12
