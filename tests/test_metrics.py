import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterembed.embedding_ops import EmbeddingBatch, pairwise_distances
from clusterembed.errors import InvalidInputError
from clusterembed.metrics import SwapMargins, margin, nmi, recall_at_k, same_partition

from oracles import (
    canonical_partition,
    nmi_oracle,
    nmi_reference,
    recall_at_k_oracle,
    recall_at_k_reference,
)

label_pairs = st.integers(2, 30).flatmap(
    lambda m: st.tuples(
        st.lists(st.integers(0, 4), min_size=m, max_size=m),
        st.lists(st.integers(0, 4), min_size=m, max_size=m),
    )
)


def dense(y):
    """Remap arbitrary labels to dense 0..C-1 in sorted-value order."""
    y = np.asarray(y)
    _, inv = np.unique(y, return_inverse=True)
    return inv


def one_group(scorer, base, takes):
    """``SwapMargins`` rows of one group: row r moves the points
    ``takes[r]`` of ``base`` into a cluster of their own, as a greedy step
    scores them."""
    group = np.zeros(len(takes), dtype=np.intp)
    return scorer(base[None], np.flatnonzero(takes), group)


def test_same_partition():
    assert same_partition([0, 0, 1, 1], [1, 1, 0, 0])
    assert same_partition([0, 1, 2], [5, 3, 9])
    assert not same_partition([0, 0, 1, 1], [0, 1, 0, 1])
    assert type(same_partition([0, 1], [1, 0])) is bool


def test_same_partition_shape_validation():
    """Malformed label vectors fail as ``nmi`` fails, not inside numpy."""
    for y1, y2 in [
        ([0, 1], [0, 1, 2]),
        ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),
        ([], []),
    ]:
        with pytest.raises(InvalidInputError):
            same_partition(np.array(y1), np.array(y2))


def test_labels_that_are_not_integers_are_refused():
    """Float, nan and bool labels fail as malformed labels do, on either
    side, rather than being cast to integer ids (which made
    ``nmi([0.2, 0.7, 1.5, 1.9], [0, 0, 1, 1])`` 1.0). So does a
    ``SwapMargins`` truth of any of them, which was cast to ``[0 0 1 1]``."""
    truth = np.array([0, 0, 1, 1])
    for bad in (
        np.array([0.2, 0.7, 1.5, 1.9]),
        np.array([0.0, 0.0, 1.0, 1.0]),
        np.array([0.0, np.nan, 1.0, 1.0]),
        np.array([False, False, True, True]),
    ):
        for y1, y2 in ((bad, truth), (truth, bad)):
            for score in (nmi, margin, same_partition):
                with pytest.raises(InvalidInputError):
                    score(y1, y2)
        with pytest.raises(InvalidInputError, match="integer"):
            SwapMargins(bad)


def relabeled(pair):
    """The pair as drawn, or the first vector with a relabelled copy of
    itself: ids pushed through a random injection (an equal partition) or
    through a map onto 0..3 (a coarser one), on either side."""
    y = pair[0]
    copies = st.one_of(
        st.permutations(range(51)),
        st.lists(st.integers(0, 3), min_size=51, max_size=51),
    ).map(lambda ids: [ids[v] for v in y])
    swapped = st.tuples(copies, st.booleans()).map(
        lambda drawn: (drawn[0], y) if drawn[1] else (y, drawn[0])
    )
    return st.one_of(st.just(pair), swapped)


gapped_label_pairs = st.integers(1, 30).flatmap(
    lambda m: st.tuples(
        st.lists(st.integers(0, 50), min_size=m, max_size=m),
        st.lists(st.integers(0, 50), min_size=m, max_size=m),
    )
).flatmap(relabeled)


@settings(deadline=None, max_examples=300)
@given(gapped_label_pairs)
def test_same_partition_matches_first_appearance_oracle(pair):
    y1, y2 = np.array(pair[0]), np.array(pair[1])
    expected = np.array_equal(canonical_partition(y1), canonical_partition(y2))
    assert same_partition(y1, y2) == expected


def test_nmi_identity_is_exactly_one():
    y = np.array([0, 2, 1, 1, 0, 2])
    assert nmi(y, y) == 1.0


def test_nmi_label_permutation_is_exactly_one():
    y1 = np.array([0, 0, 1, 1, 2, 2])
    y2 = np.array([2, 2, 0, 0, 1, 1])
    assert nmi(y1, y2) == 1.0


def test_nmi_independent_pattern_is_zero():
    # balanced 2x2 independence: joint pmf factorizes, MI = 0
    assert nmi(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])) == 0.0


def test_nmi_zero_entropy_convention():
    allsame = np.zeros(4, dtype=int)
    assert nmi(allsame, allsame) == 1.0
    assert nmi(allsame, np.array([0, 0, 1, 1])) == 0.0
    assert nmi(np.array([0, 0, 1, 1]), allsame) == 0.0


def test_nmi_frozen_example():
    got = nmi(np.array([0, 0, 0, 1]), np.array([0, 0, 1, 1]))
    assert got == pytest.approx(0.3455920299442113, abs=1e-12)


def test_nmi_against_literal_oracle():
    rng = np.random.default_rng(13)
    for _ in range(300):
        m = int(rng.integers(2, 40))
        y1 = dense(rng.integers(0, rng.integers(1, 6), size=m))
        y2 = dense(rng.integers(0, rng.integers(1, 6), size=m))
        assert nmi(y1, y2) == pytest.approx(nmi_oracle(y1, y2), abs=1e-12)


def test_nmi_shape_validation():
    with pytest.raises(InvalidInputError):
        nmi(np.array([0, 1]), np.array([0, 1, 2]))
    with pytest.raises(InvalidInputError):
        nmi(np.array([]), np.array([]))


@settings(deadline=None, max_examples=200)
@given(label_pairs)
def test_nmi_bounds_and_symmetry(pair):
    y1, y2 = dense(pair[0]), dense(pair[1])
    value = nmi(y1, y2)
    assert 0.0 <= value <= 1.0
    assert nmi(y2, y1) == value


def test_margin_is_one_minus_nmi():
    """Bit for bit: both read one fixed-point NMI."""
    y1 = np.array([0, 0, 0, 1])
    y2 = np.array([0, 0, 1, 1])
    assert margin(y1, y2) == 1.0 - nmi(y1, y2)
    assert margin(y2, y2) == 0.0


def test_batched_margin_matches_scalar_margin():
    """``SwapMargins`` scores each candidate row with the bits ``margin``
    gives its materialized labels, on labels as inference passes them:
    dense classes 0..K-1, and base positions 0..K other than a position
    ``pos`` below K, where K stands for no medoid; the materialized labels
    give the moved points ``pos``. Rows that take
    nothing, every point or a whole base cluster, a base of no medoid at
    all (greedy's first step), and one-class ``y_star``. Relabelled copies
    of ``y_star`` score exactly 0.0."""
    rng = np.random.default_rng(16)
    for trial in range(300):
        m = int(rng.integers(1, 40))
        y_star = dense(rng.integers(0, rng.integers(1, 7), size=m) * int(rng.integers(1, 4)))
        k = int(y_star.max()) + 1
        pos = int(rng.integers(0, k))
        # the labels a base may hold: positions 0..k, less ``pos``
        others = np.delete(np.arange(k + 1), pos)
        base = others[rng.integers(0, k, size=m)]
        if trial % 4 == 0:
            base[:] = k
        takes = rng.random((int(rng.integers(3, 12)), m)) < rng.random()
        takes[0] = False
        takes[1] = True
        takes[2] = base == base[-1]
        scorer = SwapMargins(y_star)
        rows = np.where(takes, pos, base)
        want = [margin(row, y_star) for row in rows]
        assert one_group(scorer, base, takes).tolist() == want, trial
        assert want == pytest.approx([1.0 - nmi_reference(r, y_star) for r in rows], abs=1e-12)
        # a copy of y_star under other base labels, as is and with one whole class moved to pos
        copy = rng.permutation(others)[y_star]
        whole = np.stack([np.zeros(m, dtype=bool), y_star == y_star[-1]])
        assert one_group(scorer, copy, whole).tolist() == [0.0, 0.0]


@st.composite
def swap_margin_calls(draw):
    """A ``SwapMargins`` call as inference makes it: dense classes of m
    points, a base of positions 0..K (K: no medoid) other than a position
    ``pos`` below K, the moved points' label, and n rows of moves."""
    m = draw(st.integers(1, 30))
    y_star = dense(draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)))
    k = int(y_star.max()) + 1
    pos = draw(st.integers(0, k - 1))
    others = [p for p in range(k + 1) if p != pos]
    base = np.array(draw(st.lists(st.sampled_from(others), min_size=m, max_size=m)))
    n = draw(st.integers(0, 6))
    takes = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    return y_star, base, pos, np.array(takes, dtype=bool).reshape(n, m)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(swap_margin_calls())
def test_swap_margins_rows_equal_margin_of_materialized_labels(call):
    """Every row has the bits of ``margin`` of the labels it materializes."""
    y_star, base, pos, takes = call
    got = one_group(SwapMargins(y_star), base, takes).tolist()
    assert got == [margin(row, y_star) for row in np.where(takes, pos, base)]


@st.composite
def grouped_swap_margin_calls(draw):
    """A ``SwapMargins`` call as a refinement sweep makes it: dense classes
    of m points, and 1 to 4 groups, each with its own position ``pos[g]``
    below K for its moved points, its own base of positions 0..K other
    than ``pos[g]`` and 0 to 4 rows of moves. Groups may be empty and rows come in any group order."""
    m = draw(st.integers(1, 30))
    y_star = dense(draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)))
    k = int(y_star.max()) + 1
    pos = np.array(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4)))
    base = np.array(
        [draw(st.lists(st.sampled_from([q for q in range(k + 1) if q != p]), min_size=m, max_size=m))
         for p in pos]
    )
    group = np.array(draw(st.lists(st.integers(0, len(pos) - 1), max_size=4 * len(pos))), np.intp)
    takes = draw(st.lists(st.booleans(), min_size=group.size * m, max_size=group.size * m))
    return y_star, base, pos, np.array(takes, dtype=bool).reshape(group.size, m), group


@settings(deadline=None, max_examples=300, derandomize=True)
@given(grouped_swap_margin_calls())
def test_grouped_swap_margins_rows_equal_margin_of_materialized_labels(call):
    """With several groups in one call, every row has the bits of
    ``margin`` of the labels it materializes from its own group's base and
    position."""
    y_star, base, pos, takes, group = call
    got = SwapMargins(y_star)(base, np.flatnonzero(takes), group).tolist()
    rows = np.where(takes, pos[group, None], base[group])
    assert got == [margin(row, y_star) for row in rows]


def nmi_case(kind):
    """An (n, m) label matrix and a y_star of one kind of input."""
    rng = np.random.default_rng(18)
    if kind == "m1280":
        y_star = np.arange(1280) % 32
        noisy = np.where(rng.random(1280) < 0.2, rng.integers(0, 32, 1280), y_star)
        return np.stack([rng.integers(0, 32, 1280), noisy, rng.permutation(y_star)]), y_star
    m = 60
    y_star = rng.integers(0, 5, size=m)
    labels = rng.integers(0, 7, size=(12, m))
    if kind == "gapped":
        return labels * 3 + 2, y_star * 5 + 1
    if kind == "2**40":
        signs = np.where(rng.random((12, m)) < 0.5, -(2**40), 2**40)
        return signs + labels, 2**40 + 3 * y_star
    if kind == "one-cluster":
        return np.stack([np.full(m, 4), labels[0], y_star]), np.full(m, 9)
    if kind == "identical":
        return np.stack([rng.permutation(20)[y_star] for _ in range(3)]), y_star
    return labels, y_star


NMI_KINDS = ["random", "gapped", "2**40", "one-cluster", "identical", "m1280"]


@pytest.mark.parametrize("kind", NMI_KINDS)
def test_nmi_and_batched_margin_equal_the_scalar_reference(kind):
    """``nmi``, from exact integer sums, lies within 1e-14 of the float
    formula it replaced (2.6e-16 at worst on these rows), and is a Python
    float. ``margin`` lies within 1e-12 of 1 minus that formula, and
    ``SwapMargins`` gives a row ``margin``'s bits when the cluster of its
    first point moves in from another row's labels. ``SwapMargins`` reads
    inference's labels, so it sees ``y_star`` as dense classes 0..K-1 and
    each row folded onto positions 0..K-1, with K (no medoid) where the
    other row's label is the moving cluster's."""
    labels, y_star = nmi_case(kind)
    want = [nmi_reference(row, y_star) for row in labels]
    got = [nmi(row, y_star) for row in labels]
    assert got == pytest.approx(want, abs=1e-14)
    assert all(type(v) is float for v in got)
    margins = [margin(row, y_star) for row in labels]
    assert all(type(v) is float for v in margins)
    assert margins == pytest.approx([1.0 - v for v in want], abs=1e-12)
    assert nmi(y_star, labels[0]) == pytest.approx(nmi_reference(y_star, labels[0]), abs=1e-14)
    classes = dense(y_star)
    k = int(classes.max()) + 1
    scorer = SwapMargins(classes)
    folded = np.stack([dense(row) % k for row in labels])
    for row, other in zip(folded, np.roll(folded, 1, axis=0)):
        takes = row == row[0]
        base = np.where(takes, np.where(other == row[0], k, other), row)
        got = one_group(scorer, base, takes[None])
        assert got.tolist() == [margin(row, y_star)]


@pytest.mark.parametrize("kind", NMI_KINDS)
def test_nmi_is_symmetric_and_margin_is_one_minus_it_exactly(kind):
    """One fixed-point formula serves both orders of a pair and both
    quantities, so neither identity needs slack."""
    labels, y_star = nmi_case(kind)
    for i, row in enumerate(labels):
        assert nmi(row, y_star) == nmi(y_star, row), i
        assert margin(row, y_star) == 1.0 - nmi(row, y_star), i


def test_batched_margin_edge_shapes():
    """One-class ``y_star``, one point and no rows; ``margin`` rejects
    labels that are not two nonempty vectors of one length."""
    one_class = np.array([4, 4, 4, 4])
    base = np.array([1, 1, 1, 1])  # no medoid serves any point
    takes = np.array([[True] * 4, [False] * 4, [True, True, False, False]])
    got = one_group(SwapMargins(dense(one_class)), base, takes)
    want = [margin(row, one_class) for row in np.where(takes, 0, base)]
    assert got.tolist() == want == [0.0, 0.0, 1.0]
    three = np.array([0, 1, 1])
    assert one_group(SwapMargins(three), np.array([2, 0, 0]), np.zeros((1, 3), bool)).tolist() == [0.0]
    one = SwapMargins(np.array([0]))
    assert one_group(one, np.array([1]), np.array([[True], [False]])).tolist() == [0.0, 0.0]
    assert one_group(SwapMargins(three), np.array([0, 2, 2]), np.zeros((0, 3), bool)).shape == (0,)
    for y, y_star in [
        (np.zeros(3, dtype=int), np.zeros(4, dtype=int)),
        (np.zeros((2, 3), dtype=int), np.zeros((2, 3), dtype=int)),
        (np.zeros(0, dtype=int), np.zeros(0, dtype=int)),
    ]:
        with pytest.raises(InvalidInputError):
            margin(y, y_star)


def test_large_label_ids_match_dense_ids():
    """Ids near +-2**40 give ``nmi``, ``margin`` and ``same_partition`` the
    bits dense ids give, without a table sized by the largest id.
    ``SwapMargins`` takes inference's dense labels only."""
    y1 = np.array([0, 0, 1, 2, 2, 2, 1])
    y2 = np.array([1, 0, 0, 1, 2, 2, 2])
    big1 = np.array([-(2**40), 2**40])[np.minimum(y1, 1)] + y1
    big2 = 2**40 + 3 * y2
    assert nmi(big1, big2) == nmi(y1, y2)
    assert nmi(big1, y2) == nmi(y1, y2)
    assert margin(big1, big2) == margin(y1, y2)
    assert same_partition(big1, y1) and not same_partition(big1, big2)


def test_recall_at_k_separated_clusters():
    emb = EmbeddingBatch(
        np.array([[0.0, 0], [0.1, 0], [10.0, 0], [10.1, 0]])
    )
    labels = np.array([0, 0, 1, 1])
    assert recall_at_k(pairwise_distances(emb), labels, (1, 3)) == {1: 1.0, 3: 1.0}


def test_recall_at_k_singleton_class_cannot_hit():
    emb = EmbeddingBatch(np.array([[0.0], [1.0], [2.0]]))
    labels = np.array([0, 0, 1])
    # the singleton at 2.0 has no same-class neighbor anywhere
    recalls = recall_at_k(pairwise_distances(emb), labels, (1, 2))
    assert recalls[1] == pytest.approx(2 / 3)
    assert recalls[2] == pytest.approx(2 / 3)


def test_recall_at_k_distance_tie_breaks_by_index():
    # point 1 is equidistant from 0 and 2; index order puts 0 first
    dist = pairwise_distances(EmbeddingBatch(np.array([[0.0], [1.0], [2.0]])))
    assert recall_at_k(dist, np.array([0, 0, 1]), (1,))[1] == pytest.approx(2 / 3)
    assert recall_at_k(dist, np.array([1, 0, 0]), (1,))[1] == pytest.approx(1 / 3)


def test_recall_at_k_matches_oracle():
    rng = np.random.default_rng(14)
    for _ in range(10):
        m = int(rng.integers(4, 15))
        emb = rng.normal(size=(m, 3))
        labels = rng.integers(0, 3, size=m)
        ks = (1, 2, m - 1)
        got = recall_at_k(pairwise_distances(EmbeddingBatch(emb)), labels, ks)
        assert set(got) == set(ks)
        for k, value in got.items():
            assert type(value) is float
            assert value == pytest.approx(recall_at_k_oracle(emb, labels, k), abs=0)


def test_recall_at_k_partial_ranking_matches_oracle_on_ties():
    """Integer-rounded and duplicated points put many neighbors at one
    distance, the nearest classmate's among them; ranking by (distance,
    index) must give the oracle's full stable sort for every K."""
    rng = np.random.default_rng(16)
    for trial in range(30):
        m = int(rng.integers(4, 40))
        emb = np.round(rng.normal(scale=1.0 + trial % 3, size=(m, 2)))
        copies = rng.integers(0, m, size=m // 3)
        emb[rng.integers(0, m, size=copies.size)] = emb[copies]
        labels = rng.integers(0, 2 + trial % 3, size=m)
        dist = pairwise_distances(EmbeddingBatch(emb))
        before = dist.copy()
        want = {k: recall_at_k_oracle(emb, labels, k) for k in range(1, m)}
        for top in sorted({1, 2, 3, m // 2, m - 1}):
            got = recall_at_k(dist, labels, tuple(range(1, top + 1)))
            assert np.array_equal(dist, before)
            assert list(got) == list(range(1, top + 1))
            for k, value in got.items():
                assert type(value) is float
                assert value == want[k], (trial, top, k)


def ranking_instances():
    """Square matrices of small integers, so that other points tie the
    nearest classmate's distance, with a diagonal that need not be 0, few
    classes or many singleton ones, and in every third +inf entries. Then
    one matrix where point 3's only classmates, 1 and 4, are at inf behind
    point 0, another class's point at inf: 0 comes before 1 by index."""
    rng = np.random.default_rng(26)
    for trial in range(90):
        m = int(rng.integers(2, 16))
        dist = rng.integers(0, 4, size=(m, m)).astype(float)
        if trial % 3 == 2:
            dist[rng.random((m, m)) < 0.4] = np.inf
        yield dist, rng.integers(0, (2, m)[trial % 2], size=m)
    dist = np.array([
        [0.0, 1.0, 2.0, 3.0, 4.0],
        [1.0, 0.0, 1.0, 1.0, 1.0],
        [2.0, 1.0, 0.0, 1.0, 1.0],
        [np.inf, np.inf, 1.0, 0.5, np.inf],
        [1.0, 2.0, 3.0, 4.0, 0.0],
    ])
    yield dist, np.array([7, 5, 7, 5, 5])


def test_recall_at_k_equals_the_reference_ranking_of_the_matrix():
    """Every K's recall equals, under ``==``, that of ranking each row of
    the given matrix by (distance, index), self excluded: with ties at the
    nearest classmate's distance, a diagonal that is not 0, singleton
    classes and inf entries, among them a row whose only classmates are at
    inf. The matrix is not written to."""
    for i, (dist, labels) in enumerate(ranking_instances()):
        before = dist.copy()
        ks = tuple(range(1, len(dist)))
        got = recall_at_k(dist, labels, ks)
        assert np.array_equal(dist, before), i
        assert got == {k: recall_at_k_reference(dist, labels, k) for k in ks}, i
    assert [got[k] for k in ks] == [0.0, 0.4, 0.8, 1.0]


def test_recall_at_k_full_neighborhood_with_paired_classes():
    rng = np.random.default_rng(15)
    emb = EmbeddingBatch(rng.normal(size=(8, 2)))
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    assert recall_at_k(pairwise_distances(emb), labels, (7,)) == {7: 1.0}


def test_recall_at_k_bounds():
    emb = EmbeddingBatch(np.zeros((4, 2)))
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(InvalidInputError):
        recall_at_k(pairwise_distances(emb), labels, (0,))
    with pytest.raises(InvalidInputError):
        recall_at_k(pairwise_distances(emb), labels, (4,))
    with pytest.raises(InvalidInputError):
        recall_at_k(pairwise_distances(emb), labels, (1, 4))
    with pytest.raises(InvalidInputError, match="does not match"):
        recall_at_k(pairwise_distances(emb), labels[:3], (1,))
    # a nan has no rank: refused, as inference refuses it, not scored by
    # where it happens to sort
    nan = np.nan
    dist = np.array([[0, nan, 2, 1], [1, 0, 3, 1], [2, 3, 0, 1], [1, 1, 1, 0]])
    with pytest.raises(InvalidInputError, match="nan"):
        recall_at_k(dist, labels, (1, 2))
