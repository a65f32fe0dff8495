import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from clusterembed import inference
from clusterembed.embedding_ops import EmbeddingBatch, pairwise_distances
from clusterembed.errors import InstanceTooLargeError, InvalidInputError
from clusterembed.facility import assign, oracle_score
from clusterembed.inference import (
    _facility_rows,
    _others,
    _swap_margins,
    _two_nearest,
    brute_force_inference,
    greedy_inference,
    infer,
    label_medoids,
    pam_refine,
)
from clusterembed.metrics import SwapMargins, margin
from clusterembed.train import evaluate_embeddings

from oracles import (
    facility_oracle,
    greedy_reference,
    nearest_other_reference,
    oracle_score_oracle,
    pam_refine_reference,
)


def line_instance():
    """Points 0, 1, 2, 10 on a line; labels 0,0,0,1."""
    emb = EmbeddingBatch(np.array([[0.0], [1.0], [2.0], [10.0]]))
    return pairwise_distances(emb), np.array([0, 0, 0, 1])


def random_instance(rng, m=10, max_classes=3, d=3):
    num_classes = int(rng.integers(2, max_classes + 1))
    y = rng.integers(0, num_classes, size=m)
    y[:num_classes] = np.arange(num_classes)
    dist = pairwise_distances(EmbeddingBatch(rng.normal(size=(m, d))))
    return dist, y


def test_greedy_hand_traced_instance():
    dist, y = line_instance()
    result = greedy_inference(dist, y, gamma=0.0)
    # best singleton: medoid 1 (column sum 11, tie with 2 broken to 1)
    # best addition: 10 serves itself, giving A = -2
    assert result.medoids == (1, 3)
    assert result.trace == pytest.approx([-11.0, -2.0])
    assert result.objective == pytest.approx(-2.0)
    assert result.assignment.tolist() == [0, 0, 0, 1]


def test_greedy_first_step_tie_to_smallest_index():
    # two coincident center points tie as the best singleton
    emb = EmbeddingBatch(np.array([[0.0], [1.0], [1.0], [2.0]]))
    dist = pairwise_distances(emb)
    result = greedy_inference(dist, np.array([0, 0, 1, 1]), gamma=0.0)
    assert result.medoids[0] == 1


def test_greedy_takes_the_first_nan_score_as_argmax_does():
    """Rows holding both +inf and -inf sum to nan. A full greedy step picks
    as ``np.argmax`` does, the first nan ahead of any number, at gamma 0
    and 1, as the reference loop does on the transpose."""
    inf = np.inf
    dist = np.array(
        [[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 2.0, 2.0], [inf, -inf, 0.0, 0.0], [-inf, inf, 0.0, 0.0]]
    )
    y = np.array([0, 0, 1, 1])
    for gamma in (0.0, 1.0):
        with np.errstate(invalid="ignore"):  # inf - inf in the row sums
            got, want = greedy_inference(dist, y, gamma), greedy_reference(dist.T, y, gamma)
        assert got.medoids == want.medoids and got.medoids[0] == 2, gamma
        assert np.array_equal(got.trace, want.trace, equal_nan=True), gamma
        assert np.isnan(got.trace[0]), gamma


def test_greedy_trace_nondecreasing_without_margin():
    rng = np.random.default_rng(21)
    for _ in range(20):
        dist, y = random_instance(rng)
        result = greedy_inference(dist, y, gamma=0.0)
        diffs = np.diff(result.trace)
        assert (diffs >= -1e-12).all()


def test_greedy_objective_recomputable():
    rng = np.random.default_rng(22)
    for gamma in (0.0, 0.5, 2.0):
        dist, y = random_instance(rng)
        result = greedy_inference(dist, y, gamma)
        recomputed = label_medoids(dist, result.medoids, y, gamma).objective
        assert result.objective == pytest.approx(recomputed, abs=1e-9)
        assert np.array_equal(result.assignment, assign(dist, result.medoids))


def test_greedy_margin_rewards_violating_selection():
    # gamma large enough that a badly clustering medoid set wins
    dist, y = line_instance()
    plain = greedy_inference(dist, y, gamma=0.0)
    augmented = greedy_inference(dist, y, gamma=50.0)
    assert margin(plain.assignment, y) == 0.0
    assert margin(augmented.assignment, y) > 0.0


def test_greedy_rejects_more_classes_than_points():
    dist = pairwise_distances(EmbeddingBatch(np.zeros((2, 1))))
    with pytest.raises(InvalidInputError):
        greedy_inference(dist, np.array([0, 2]), 0.0)  # labels imply 3 classes


@pytest.mark.parametrize(
    "y",
    [[-1, -1, -1, -1], [0, 0, 2, 2], [0, 0, 1], [0, 0, 1, 1, 1], [[0, 0, 1, 1]], [0.0, 0, 1, 1]],
    ids=["all-negative", "gapped", "short", "long", "2-d", "float"],
)
def test_inference_rejects_labels_that_are_not_dense_class_ids(y):
    """One class id per point, ids 0..K-1 each present, at any gamma."""
    dist, good = line_instance()
    y = np.array(y)
    for gamma in (0.0, 0.5):
        with pytest.raises(InvalidInputError):
            greedy_inference(dist, y, gamma)
        with pytest.raises(InvalidInputError):
            pam_refine(dist, y, label_medoids(dist, (0, 3), good, gamma), gamma, 5)
        with pytest.raises(InvalidInputError):
            brute_force_inference(dist, y, gamma)


def test_pam_hand_traced_instance():
    dist, y = line_instance()
    result = pam_refine(dist, y, label_medoids(dist, (0, 3), y, 0.0), gamma=0.0, max_sweeps=5)
    # cluster {0,1,2}: within-cluster sums 3, 2, 3 -> swap medoid 0 for 1
    assert result.medoids == (1, 3)
    assert result.trace == pytest.approx([-2.0, -2.0])
    assert len(result.trace) == 2  # second sweep changes nothing, early exit


def test_pam_fixed_point_trace_length_one():
    dist, y = line_instance()
    result = pam_refine(dist, y, label_medoids(dist, (1, 3), y, 0.0), gamma=0.0, max_sweeps=5)
    assert result.medoids == (1, 3)
    assert len(result.trace) == 1


def positive_diagonal_instance(rng):
    """A symmetric matrix with a positive diagonal, so another medoid can
    serve a medoid more cheaply than it serves itself."""
    m = int(rng.integers(6, 20))
    upper = np.triu(rng.uniform(0.0, 3.0, size=(m, m)))
    dist = upper + np.triu(upper, 1).T
    y = rng.permutation(np.arange(m) % int(rng.integers(2, 5)))
    return dist, y


def test_pam_improves_on_greedy_and_is_monotone():
    """On distance matrices, and on symmetric matrices with a positive
    diagonal, where a medoid need not belong to its own cluster."""
    rng = np.random.default_rng(23)
    for trial in range(60):
        dist, y = random_instance(rng) if trial < 30 else positive_diagonal_instance(rng)
        gamma = (0.0, 0.5, 2.0)[trial % 3]
        seed = greedy_inference(dist, y, gamma)
        for pool in ("cluster", "all"):
            refined = pam_refine(dist, y, seed, gamma, 5, pool)
            assert refined.objective >= seed.objective - 1e-9
            assert (np.diff(refined.trace) >= -1e-9).all()
            assert refined.objective == pytest.approx(
                label_medoids(dist, refined.medoids, y, gamma).objective, abs=1e-9
            )
            assert len(set(refined.medoids)) == len(refined.medoids)


def test_pam_whole_batch_pool_reaches_swap_local_optimum():
    rng = np.random.default_rng(24)
    for trial in range(10):
        dist, y = random_instance(rng, m=12)
        gamma = (0.0, 1.0)[trial % 2]
        _, refined = infer(dist, y, gamma, 50, "all")
        assert len(refined.trace) < 50  # early exit happened
        medoids = list(refined.medoids)
        for k in range(len(medoids)):
            for j in range(dist.shape[0]):
                if j in medoids:
                    continue
                trial_set = list(medoids)
                trial_set[k] = j
                assert (
                    label_medoids(dist, trial_set, y, gamma).objective
                    <= refined.objective + 1e-9
                )


def test_pam_labels_each_medoid_set_once(monkeypatch):
    """No ``assign`` or ``margin`` call for the seed, and one of each (no
    ``margin`` at gamma = 0) after each sweep that changed the set; the
    labels and objective returned are those carried."""
    rng = np.random.default_rng(27)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    most_changed = 0
    for trial in range(24):
        dist, y = random_instance(rng, m=14, max_classes=4)
        gamma = (0.0, 0.5)[trial % 2]
        pool = ("cluster", "all")[trial // 2 % 2]
        start = tuple(int(i) for i in rng.permutation(14)[: int(y.max()) + 1])
        seed = label_medoids(dist, start, y, gamma)
        # the set after each sweep, from runs cut after 1, 2 and 3 sweeps
        sets = [start] + [pam_refine(dist, y, seed, gamma, s, pool).medoids for s in (1, 2, 3)]
        changed = sum(a != b for a, b in zip(sets, sets[1:]))
        most_changed = max(most_changed, changed)

        calls.clear()
        monkeypatch.setattr(inference, "assign", counted(assign))
        monkeypatch.setattr(inference, "margin", counted(margin))
        result = pam_refine(dist, y, seed, gamma, 3, pool)
        monkeypatch.undo()
        assert calls.count("assign") == changed, trial
        assert calls.count("margin") == (changed if gamma else 0), trial
        assert result.medoids == sets[-1]
        assert np.array_equal(result.assignment, assign(dist, result.medoids))
        assert result.objective == label_medoids(dist, result.medoids, y, gamma).objective
    assert most_changed >= 2


def test_pam_validation():
    dist, y = line_instance()
    seed = label_medoids(dist, (0, 3), y, 0.0)
    with pytest.raises(InvalidInputError):
        pam_refine(dist, y, label_medoids(dist, (0,), y, 0.0), 0.0, 5)  # wrong size
    # a start that is not a medoid set never becomes a seed
    with pytest.raises(InvalidInputError, match="distinct"):
        label_medoids(dist, (1, 1), y, 0.0)
    with pytest.raises(InvalidInputError, match="range"):
        label_medoids(dist, (0, 9), y, 0.0)
    with pytest.raises(InvalidInputError):
        pam_refine(dist, y, seed, 0.0, 0)  # no sweeps
    with pytest.raises(InvalidInputError):
        pam_refine(dist, y, seed, 0.0, 5, "everything")
    with pytest.raises(InvalidInputError, match="square"):
        greedy_inference(dist[:, :3], y, 0.0)


def test_inference_rejects_nan_and_empty_distance_matrices():
    """``assign``'s ``argmin`` lets a nan cost serve a point and ``_serves``
    never does, and a maximum over nan scores depends on their order, so
    greedy, refinement, ``infer``, brute force and ``oracle_score`` all
    refuse nan through one check: on 200 uniform 8 x 8 matrices with three
    nan entries each, at gamma 0 and 0.5. An empty matrix is refused too."""
    rng = np.random.default_rng(8)
    y = np.arange(8) % 3
    for _ in range(200):
        dist = rng.uniform(size=(8, 8))
        dist.flat[rng.choice(64, size=3, replace=False)] = np.nan
        with pytest.raises(InvalidInputError, match="nan"):
            oracle_score(dist, y)
        for gamma in (0.0, 0.5):
            seed = label_medoids(dist, (0, 1, 2), y, gamma)
            for run in (
                lambda: greedy_inference(dist, y, gamma),
                lambda: pam_refine(dist, y, seed, gamma, 5),
                lambda: infer(dist, y, gamma, 5, "all"),
                lambda: brute_force_inference(dist, y, gamma),
            ):
                with pytest.raises(InvalidInputError, match="nan"):
                    run()
    empty, none = np.zeros((0, 0)), np.zeros(0, dtype=int)
    with pytest.raises(InvalidInputError):
        greedy_inference(empty, none, 0.0)
    with pytest.raises(InvalidInputError):
        pam_refine(empty, none, inference.InferenceResult((), none, 0.0), 0.0, 5)
    with pytest.raises(InvalidInputError):
        infer(empty, none, 0.0, 5)
    with pytest.raises(InvalidInputError):
        brute_force_inference(empty, none, 0.0)
    with pytest.raises(InvalidInputError):
        oracle_score(empty, none)


@pytest.mark.parametrize(
    "max_sweeps, pool, match", [(0, "cluster", "sweep"), (5, "everything", "candidate pool")]
)
def test_infer_checks_refinement_arguments_before_greedy(monkeypatch, max_sweeps, pool, match):
    def no_greedy(*args):
        raise AssertionError("greedy ran before the refinement arguments were checked")

    monkeypatch.setattr(inference, "greedy_inference", no_greedy)
    dist, y = line_instance()
    with pytest.raises(InvalidInputError, match=match):
        infer(dist, y, 0.0, max_sweeps, pool)


def test_brute_force_tiny_enumeration():
    dist, y = line_instance()
    result = brute_force_inference(dist, y, gamma=0.0)
    # exhaustive: best pair must be (1, 3) with A = -2
    assert set(result.medoids) == {1, 3}
    assert result.objective == pytest.approx(-2.0)


def test_brute_force_lex_smallest_tie():
    # coincident duplicate points make several optimal pairs; enumeration
    # order guarantees the lexicographically smallest wins
    emb = EmbeddingBatch(np.array([[0.0], [0.0], [1.0], [1.0]]))
    dist = pairwise_distances(emb)
    result = brute_force_inference(dist, np.array([0, 0, 1, 1]), gamma=0.0)
    assert result.medoids == (0, 2)


def test_brute_force_dominates_heuristics():
    rng = np.random.default_rng(25)
    for trial in range(15):
        dist, y = random_instance(rng, m=9)
        gamma = (0.0, 0.5, 2.0)[trial % 3]
        exact = brute_force_inference(dist, y, gamma)
        seed, refined = infer(dist, y, gamma, 5)
        assert exact.objective >= refined.objective - 1e-9
        assert exact.objective >= seed.objective - 1e-9


def guarantee_instances():
    """Uniform, integer-tied and Euclidean matrices in turn, 60 of each,
    with m = 4..12 points and K = 1..5 classes."""
    rng = np.random.default_rng(1978)
    for i in range(180):
        m = int(rng.integers(4, 13))
        if i % 3 == 0:
            dist = rng.uniform(0.0, 1.0, size=(m, m))
        elif i % 3 == 1:
            dist = rng.integers(0, 3, size=(m, m)).astype(float)
        else:
            dist = pairwise_distances(EmbeddingBatch(rng.normal(size=(m, 2))))
        num_classes = int(rng.integers(1, 6))
        yield dist, rng.permutation(np.arange(m) % num_classes)


def test_greedy_reaches_the_submodular_guarantee_at_gamma_zero():
    """At gamma 0, f(S) = A(S) + sum_i max_s D[s, i] is facility location:
    normalized, monotone and submodular. So greedy reaches at least
    (1 - 1/e) of the best f over sets of its size (Nemhauser, Wolsey &
    Fisher 1978), the guarantee the paper cites for its greedy step. A
    floor, not an equality, so it gates any change to greedy's order or
    ties."""
    for i, (dist, y) in enumerate(guarantee_instances()):
        shift = float(dist.max(axis=0).sum())
        greedy = greedy_inference(dist, y, 0.0).objective + shift
        best = brute_force_inference(dist, y, 0.0).objective + shift
        assert greedy >= (1.0 - 1.0 / np.e) * best, i


def test_brute_force_refuses_huge_instances():
    rng = np.random.default_rng(26)
    m = 40
    y = rng.integers(0, 10, size=m)
    y[:10] = np.arange(10)
    dist = pairwise_distances(EmbeddingBatch(rng.normal(size=(m, 2))))
    with pytest.raises(InstanceTooLargeError):
        brute_force_inference(dist, y, 0.0)  # C(40,10) ~ 8.5e8


def assert_same_result(got, want, instance):
    assert got.medoids == want.medoids, instance
    assert np.array_equal(got.assignment, want.assignment), instance
    assert got.assignment.dtype == want.assignment.dtype, instance
    assert got.trace == want.trace, instance
    assert got.objective == want.objective, instance


def test_batched_candidate_scoring_matches_reference_loops():
    """``infer`` agrees exactly, not approximately, with the per-candidate
    greedy and refinement loops it replaced, in both pools. Every 7th
    instance has integer embeddings, so distances tie and tie-breaking is
    exercised."""
    rng = np.random.default_rng(41)
    for i in range(300):
        m = int(rng.integers(8, 28))
        num_classes = 2 + i % 4
        gamma = (0.0, 0.5, 2.0)[i % 3]
        pool = ("cluster", "all")[i % 2]
        emb = rng.normal(size=(m, 3))
        if i % 7 == 0:
            emb = np.round(2.0 * emb)
        y = rng.permutation(
            np.concatenate([np.arange(num_classes), rng.integers(0, num_classes, m - num_classes)])
        )
        dist = pairwise_distances(EmbeddingBatch(emb))
        seed = greedy_reference(dist, y, gamma)
        greedy, refined = infer(dist, y, gamma, 5, pool)
        assert_same_result(greedy, seed, i)
        assert_same_result(refined, pam_refine_reference(dist, y, seed.medoids, gamma, 5, pool), i)


@pytest.mark.parametrize(
    "m,num_classes,gamma,rounded",
    [
        (129, 4, 0.0, False),
        (129, 4, 0.0, True),
        (1280, 32, 0.0, False),
        (129, 32, 1.0, False),
        (300, 8, 0.5, False),
        (128, 32, 1e-9, False),
        (128, 32, 1e-3, False),
        (20, 5, 1e-9, False),
        (20, 5, 1e-3, True),
    ],
    ids=[
        "m129", "m129-ties", "m1280", "m129-gamma1", "m300-gamma-half", "m128-gamma-1e-9",
        "m128-gamma-1e-3", "m20-gamma-1e-9", "m20-ties-gamma-1e-3",
    ],
)
def test_candidate_scoring_matches_reference_loops_at_evaluation_scale(
    m, num_classes, gamma, rounded
):
    """Above numpy's 128-element pairwise-summation block, a different
    summation order would change the last bits of a facility score; ``infer``
    with either refinement pool still equals the per-candidate loops under
    ``==``. The instances are Gaussian blobs like the held-out data."""
    rng = np.random.default_rng(m + num_classes)
    y = np.arange(m) % num_classes
    emb = 3.0 * rng.normal(size=(num_classes, 16))[y] + rng.normal(size=(m, 16))
    if rounded:
        emb = np.round(emb)
    dist = pairwise_distances(EmbeddingBatch(emb))
    seed = greedy_reference(dist, y, gamma)
    instance = (m, num_classes, gamma, rounded)
    for pool in ("cluster", "all"):
        greedy, refined = infer(dist, y, gamma, 5, pool)
        assert_same_result(greedy, seed, instance)
        assert_same_result(
            refined, pam_refine_reference(dist, y, seed.medoids, gamma, 5, pool), (*instance, pool)
        )


def swap_scores(dist, y, gamma, medoids, cands, group, ks):
    """A(S) of each medoid set that puts candidate ``cands[r]`` at position
    ``ks[group[r]]`` of ``medoids``, from the pieces the whole-batch pool
    scores it by: the facility part against each point's nearest medoid at
    another position (``_others``), plus gamma times ``_swap_margins``."""
    nearest = _two_nearest(dist, medoids)
    rows = dist[cands]
    facility = _facility_rows(rows, _others(nearest, ks)[0][group], rows)
    if gamma == 0.0:
        return facility
    return facility + gamma * _swap_margins(dist, SwapMargins(y), nearest, cands, group, ks)


def test_candidate_scores_equal_objective_of_each_swapped_set():
    """Every candidate's score is A(S) of the set with the candidate placed
    at the position, including appends and ties between duplicate points,
    with the other medoids read from the two-nearest table as refinement
    reads them. As in inference, a set holds at most K medoids for K
    classes, so positions stay below K."""
    rng = np.random.default_rng(42)
    for i in range(60):
        m = int(rng.integers(6, 16))
        dist, y = random_instance(rng, m=m, max_classes=4)
        if i % 2:
            dist = pairwise_distances(EmbeddingBatch(rng.integers(0, 3, size=(m, 2)) * 1.0))
        num_classes = int(y.max()) + 1
        medoids = [int(v) for v in rng.permutation(m)[: 1 + i % num_classes]]
        pos = int(rng.integers(0, min(len(medoids) + 1, num_classes)))
        cands = np.delete(np.arange(m), medoids[:pos] + medoids[pos + 1 :])
        one = np.zeros(cands.size, dtype=np.intp)
        for gamma in (0.0, 0.5):
            scores = swap_scores(dist, y, gamma, medoids, cands, one, np.array([pos]))
            for cand, score in zip(cands, scores):
                swapped = medoids[:pos] + [int(cand)] + medoids[pos + 1 :]
                want = label_medoids(dist, swapped, y, gamma).objective
                assert score == pytest.approx(want, abs=1e-12), (i, pos, cand)


def test_grouped_candidate_scores_equal_one_group_calls():
    """Scoring every position of a medoid set in one call, as a refinement
    sweep does, gives each candidate the bits of scoring its position
    alone, at gamma 0 and 0.5, on Gaussian and integer-tied matrices."""
    rng = np.random.default_rng(47)
    for i in range(60):
        m = int(rng.integers(6, 16))
        dist, y = random_instance(rng, m=m, max_classes=4)
        if i % 2:
            dist = pairwise_distances(EmbeddingBatch(rng.integers(0, 3, size=(m, 2)) * 1.0))
        num_classes = int(y.max()) + 1
        medoids = [int(v) for v in rng.permutation(m)[:num_classes]]
        ks = np.arange(num_classes)
        is_cand = np.ones((num_classes, m), dtype=bool)
        is_cand[:, medoids] = False
        is_cand[ks, medoids] = True
        group, cands = np.nonzero(is_cand)
        for gamma in (0.0, 0.5):
            got = swap_scores(dist, y, gamma, medoids, cands, group, ks)
            for k in ks:
                rows = group == k
                one = np.zeros(rows.sum(), dtype=np.intp)
                want = swap_scores(dist, y, gamma, medoids, cands[rows], one, ks[k : k + 1])
                assert got[rows].tolist() == want.tolist(), (i, k, gamma)


ASYMMETRIC_KINDS = ["nonnegative", "rounded", "negative", "inf-block"]


def asymmetric_instance(rng, kind):
    """A square matrix with no symmetry, and dense labels. In ``inf-block``
    no point of group 0 can serve a point of group 1, while every point of
    group 1 serves every point at a finite cost."""
    m = int(rng.integers(6, 20))
    if kind == "rounded":
        dist = rng.integers(0, 4, size=(m, m)) * 1.0  # many exact ties
    else:
        dist = rng.uniform(0.0, 3.0, size=(m, m))
    if kind == "negative":
        dist.flat[rng.choice(m * m, size=3, replace=False)] *= -1.0
    if kind == "inf-block":
        group = rng.integers(0, 2, size=m)
        dist[(group[:, None] == 0) & (group[None, :] == 1)] = np.inf
    num_classes = int(rng.integers(2, 6))
    y = rng.permutation(np.arange(m) % num_classes)
    return dist, y


@pytest.mark.parametrize("kind", ASYMMETRIC_KINDS)
def test_asymmetric_matrix_is_read_as_medoid_rows(kind):
    """``dist[s, i]`` is the cost of serving point i from medoid s in every
    routine, so no symmetry is needed. The scores ``infer`` carries are the
    ones ``label_medoids`` and ``assign`` give its medoids, bit for bit; in
    both pools greedy's objective followed by the refinement trace never
    falls, with no tolerance, and every refinement stops before its sweep
    cap; a whole-batch refinement is a single-swap local optimum; and the
    facility and oracle scores equal the loop oracles, which read
    ``dist[point, medoid]``, on the transpose."""
    rng = np.random.default_rng(ASYMMETRIC_KINDS.index(kind))
    sweeps = 8
    for i in range(100):
        dist, y = asymmetric_instance(rng, kind)
        assert not np.array_equal(dist, dist.T), i
        for gamma in (0.0, 1.0):
            for pool in ("cluster", "all"):
                greedy, refined = infer(dist, y, gamma, sweeps, pool)
                for result in (greedy, refined):
                    want = label_medoids(dist, result.medoids, y, gamma)
                    assert result.objective == want.objective, (i, gamma, pool)
                    assert np.array_equal(result.assignment, assign(dist, result.medoids))
                objectives = [greedy.objective] + refined.trace
                assert all(a <= b for a, b in itertools.pairwise(objectives)), (i, gamma, pool)
                assert len(refined.trace) < sweeps, (i, gamma, pool)
                if pool == "cluster":
                    continue
                medoids = list(refined.medoids)
                for k, j in itertools.product(range(len(medoids)), range(len(dist))):
                    if j not in medoids:
                        swapped = medoids[:k] + [j] + medoids[k + 1 :]
                        swap = label_medoids(dist, swapped, y, gamma).objective
                        assert swap <= refined.objective, (i, gamma, k, j)
        medoids = rng.permutation(len(dist))[: int(rng.integers(1, 5))]
        assert label_medoids(dist, medoids, y, 0.0).objective == pytest.approx(
            facility_oracle(dist.T, medoids), rel=1e-12, abs=1e-12
        )
        total, oracle_medoids = oracle_score(dist, y)
        want_total, want_medoids = oracle_score_oracle(dist.T, y)
        assert total == pytest.approx(want_total, rel=1e-12, abs=1e-12), i
        assert list(oracle_medoids) == want_medoids, i


def tied_grid_instances():
    """Duplicate points on a small integer grid: runs of exactly tied
    candidates longer than a block, so ties straddle block boundaries."""
    rng = np.random.default_rng(43)
    for _ in range(12):
        sites = rng.integers(-2, 3, size=(int(rng.integers(2, 9)), 2)) * 1.0
        copies = int(rng.integers(40, 120))
        emb = rng.permutation(np.repeat(sites, copies, axis=0))
        num_classes = int(rng.integers(2, 13))
        y = rng.permutation(np.arange(len(emb)) % num_classes)
        yield pairwise_distances(EmbeddingBatch(emb)), y


def infinite_group_instances():
    """Groups at inf distance from each other: A(S) is -inf until every
    group holds a medoid, and a gain taken from -inf bounds nothing."""
    rng = np.random.default_rng(40)
    for i in range(40):
        sizes = rng.integers(20, 90, size=int(rng.integers(2, 4)))
        emb = rng.normal(size=(int(sizes.sum()), 3))
        if i % 3 == 0:
            emb = np.round(emb)
        dist = pairwise_distances(EmbeddingBatch(emb)).copy()
        group = np.repeat(np.arange(len(sizes)), sizes)
        dist[group[:, None] != group[None, :]] = np.inf
        num_classes = int(rng.integers(2, 12))
        yield dist, rng.permutation(np.arange(len(dist)) % num_classes)


def cancelling_negative_instances():
    """Entries of +-2^30..2^49 by the parity of i + j, plus small ties: every
    row sum cancels far below its terms, so its rounding is not bounded by a
    share of |A|. Lazy greedy on these picks differently from full scoring
    in two of the 52 instances."""
    rng = np.random.default_rng(1)
    for _ in range(52):
        m = int(rng.integers(66, 160))
        big = float(2.0 ** rng.integers(30, 50))
        idx = np.arange(m)
        sign = np.where((idx[:, None] + idx[None, :]) % 2 == 0, 1.0, -1.0)
        small = rng.integers(0, 4, size=(m, m)) * 0.25
        num_classes = int(rng.integers(3, 12))
        yield sign * big + small + small.T, rng.permutation(idx % num_classes)


@pytest.mark.parametrize(
    "instances",
    [tied_grid_instances, infinite_group_instances, cancelling_negative_instances],
    ids=["tied-grid", "infinite-groups", "cancelling-negative"],
)
def test_lazy_greedy_equals_full_scoring(instances):
    """At gamma = 0 greedy scores candidates highest bound first, in
    blocks of ``GREEDY_BLOCK_ENTRIES // m`` rows, wherever the bounds hold;
    on every instance it equals full scoring under ``==``."""
    for i, (dist, y) in enumerate(instances()):
        assert_same_result(greedy_inference(dist, y, 0.0), greedy_reference(dist, y, 0.0), i)


@pytest.mark.parametrize(
    "instances",
    [tied_grid_instances, infinite_group_instances],
    ids=["tied-grid", "infinite-groups"],
)
def test_margin_scoring_equals_reference_loops_on_ties_and_inf(instances):
    """At gamma = 1 ``infer`` equals the per-candidate loops under ``==`` on
    runs of exactly tied candidates and on groups at inf distance, where at
    greedy's first step the points a candidate does not take stay at its
    position 0. Three instances of each kind, both pools."""
    for i, (dist, y) in zip(range(3), instances()):
        seed = greedy_reference(dist, y, 1.0)
        for pool in ("cluster", "all"):
            greedy, refined = infer(dist, y, 1.0, 5, pool)
            assert_same_result(greedy, seed, i)
            want = pam_refine_reference(dist, y, seed.medoids, 1.0, 5, pool)
            assert_same_result(refined, want, (i, pool))


def asymmetric_instances():
    """Ten instances of each ``ASYMMETRIC_KINDS`` kind, in turn."""
    rng = np.random.default_rng(45)
    for i in range(40):
        yield asymmetric_instance(rng, ASYMMETRIC_KINDS[i % len(ASYMMETRIC_KINDS)])


@pytest.mark.parametrize(
    "instances",
    [tied_grid_instances, infinite_group_instances, asymmetric_instances],
    ids=["tied-grid", "infinite-groups", "asymmetric"],
)
def test_two_nearest_table_equals_assign_and_nearest_other_loops(instances):
    """Level 0 of ``_two_nearest`` is ``assign``'s labels, and each
    position's nearest other medoid, read as refinement reads it, equals
    the loop reference in cost and position under ``==``. With one medoid
    there is no other: cost inf at position 1. Medoid sets of 1 to 5
    points, so duplicate points and inf groups tie medoids exactly."""
    rng = np.random.default_rng(46)
    for i, (dist, _) in zip(range(10), instances()):
        medoids = [int(v) for v in rng.permutation(len(dist))[: 1 + i % 5]]
        nearest = _two_nearest(dist, medoids)
        assert np.array_equal(nearest[1][0], assign(dist, medoids)), i
        others = _others(nearest, np.arange(len(medoids)))
        for pos in range(len(medoids)):
            other_min, other_pos = (level[pos] for level in others)
            want_min, want_pos = nearest_other_reference(dist, medoids, pos)
            assert np.array_equal(other_min, want_min), (i, pos)
            if len(medoids) == 1:
                assert (other_pos == 1).all(), i
            else:
                assert other_pos.tolist() == want_pos, (i, pos)


def heldout_blobs():
    """Gaussian blobs of the held-out size: m = 1,280, 32 classes, d = 16."""
    rng = np.random.default_rng(1280 + 32)
    y = np.arange(1280) % 32
    emb = 3.0 * rng.normal(size=(32, 16))[y] + rng.normal(size=(1280, 16))
    return EmbeddingBatch(emb), y


def recorded_margin_calls(run):
    """Each ``SwapMargins`` call ``run()`` makes, as (steps, base, moves,
    group, values), with greedy's steps read from call order. Greedy runs
    ``_rivals`` once per step after step 0, and a step it leaves undecided
    makes a call of its own next: one group of m rows, whose step is the
    number of ``_rivals`` runs before it. A call of any other shape,
    greedy's last, holds the steps that made none, in order. In
    refinement the steps mean nothing."""
    score, rivals = SwapMargins.__call__, inference._rivals
    runs, calls = [], []

    def counted(*args):
        runs.append(len(runs) + 1)
        return rivals(*args)

    def recorded(margins, base, moves, group):
        got = score(margins, base, moves, group)
        own = len(base) == 1 and group.size == base.shape[1]
        calls.append(([len(runs)] if own else None, base.copy(), moves, group, got))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "_rivals", counted)
        patch.setattr(SwapMargins, "__call__", recorded)
        run()
    own = [steps[0] for steps, *_ in calls if steps]
    rest = [step for step in runs if step not in own]
    return [(steps or rest, *call) for steps, *call in calls]


def margin_calls(run):
    """The ``SwapMargins`` calls ``run()`` makes, as (steps, rows) pairs."""
    return [(steps, group.size) for steps, _, _, group, _ in recorded_margin_calls(run)]


def test_lazy_greedy_scores_few_rows_at_gamma_zero(monkeypatch):
    """On held-out-like blobs (m = 1,280, 32 classes) steps 0 and 1 sum
    every row and later steps only those of candidates whose bound reaches
    the best score: under a quarter of the 40,464 candidate rows that full
    scoring reads. Rows are counted per step, whatever blocks a step reads
    them in; a step's ``near`` is 0 exactly at its chosen medoids, since
    no two blob points coincide. With the margin step 0 makes no
    ``SwapMargins`` call. Every later step is scored once: in a call of
    its own, one row per point, over a subset of the moves of the step
    scored before it, or, where the facility part alone decides the step,
    in one last call that holds one group per such step. The steps read
    from call order agree with the base labels: on these blobs every
    chosen medoid serves itself and, after step 0, every point is served,
    so a step's greatest base label is the step before it."""
    batch, y = heldout_blobs()
    dist = pairwise_distances(batch)
    rows = [0] * 32

    def counted(block, near, out):
        rows[0 if near is None else np.count_nonzero(near == 0)] += len(block)
        return facility_rows(block, near, out)

    facility_rows = inference._facility_rows
    monkeypatch.setattr(inference, "_facility_rows", counted)
    greedy_inference(dist, y, 0.0)
    assert rows[:2] == [1280, 1280]
    assert sum(rows) < 0.25 * sum(range(1280 - 31, 1281))

    dist, y = dist[:129, :129], np.arange(129) % 32
    calls = recorded_margin_calls(lambda: greedy_inference(dist, y, 1.0))
    for steps, base, *_ in calls:
        assert [int(labels.max()) + 1 for labels in base] == steps, steps
    own = [(steps[0], moves) for steps, _, moves, group, _ in calls if group.size == 129]
    decided = [steps for steps, _, _, group, _ in calls if group.size != 129]
    assert own and decided, calls
    assert decided == [calls[-1][0]] and len(decided[0]) == calls[-1][3].size
    assert sorted(step for step, _ in own) == [step for step, _ in own]
    assert sorted([step for step, _ in own] + decided[0]) == list(range(1, 32))
    for (_, before), (step, after) in itertools.pairwise(own):
        assert np.isin(after, before).all(), step


def test_heldout_evaluation_holds_one_distance_matrix():
    """On held-out-like blobs, evaluation holds the m x m distance matrix
    and no other buffer of its size: its ``tracemalloc`` peak stays under
    one m x m float64 matrix plus 4 MiB. Greedy sums a full step's rows a
    block at a time through one buffer, and so allocates under 1 MiB beyond
    its input."""
    batch, y = heldout_blobs()
    matrix = 1280 * 1280 * 8
    tracemalloc.start()
    try:
        evaluate_embeddings(batch, y, (1, 4))
        _, peak = tracemalloc.get_traced_memory()
        dist = pairwise_distances(batch)
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        greedy_inference(dist, y, 0.0)
        _, greedy_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix + 4 * 2**20, peak
    assert greedy_peak - held < 2**20, greedy_peak - held


def test_refinement_scores_each_segment_of_a_sweep_in_one_margin_call():
    """On paper-sized batches (m = 128, 32 classes, gamma 1, cluster pool)
    a sweep scores the positions from its start, or from just after an
    installed swap, in one ``SwapMargins`` call: the positions' candidates
    are their clusters' points, at most m rows. So a refinement makes at
    most (sweeps + installed swaps) calls, where one call per scored
    position made up to 32 per sweep. Blobs at two separations, so that
    some refinements install many swaps."""
    score = SwapMargins.__call__
    rows = []

    def counted(self, base, moves, group):
        rows.append(group.size)
        return score(self, base, moves, group)

    calls = sweeps = 0
    for seed in range(6):
        rng = np.random.default_rng(128 + seed)
        y = rng.permutation(np.arange(128) % 32)
        emb = (3.0, 1.0)[seed % 2] * rng.normal(size=(32, 16))[y] + rng.normal(size=(128, 16))
        dist = pairwise_distances(EmbeddingBatch(emb))
        greedy = greedy_inference(dist, y, 1.0)
        rows.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SwapMargins, "__call__", counted)
            refined = pam_refine(dist, y, greedy, 1.0, 5)
        # the set after each sweep, from runs cut after 1, 2, ... sweeps;
        # a sweep installs at most one swap per position
        sets = [greedy.medoids] + [
            pam_refine(dist, y, greedy, 1.0, s).medoids for s in range(1, len(refined.trace) + 1)
        ]
        installed = sum(sum(a != b for a, b in zip(*pair)) for pair in itertools.pairwise(sets))
        assert 0 < len(rows) <= len(refined.trace) + installed, (seed, rows, installed)
        assert max(rows) <= 128, (seed, rows)
        calls += len(rows)
        sweeps += len(refined.trace)
    assert calls < 32 * sweeps / 5


def test_whole_batch_refinement_scores_two_positions_per_call():
    """In the whole-batch pool at m = 128 with 32 classes of 4, each
    position has m - 31 candidates, and a call takes whole positions until
    their rows reach m: two positions, or position 31 alone. A call starts
    at position 0 of a sweep, just after the position whose swap the last
    call installed, or else just after the last call's positions. At gamma
    0 each call makes one ``_group_argmax`` call; the test replays their
    picks, so it fails if all the positions left in a sweep become one
    call. Blobs at two separations, so that some refinements install
    swaps."""
    group_argmax = inference._group_argmax
    calls = []

    def recorded(scores, group):
        at = group_argmax(scores, group)
        calls.append((group, at))
        return at

    rows = 128 - 31
    lone = swaps = 0
    for seed in range(20):
        rng = np.random.default_rng(256 + seed)
        y = rng.permutation(np.arange(128) % 32)
        emb = (3.0, 1.0)[seed % 2] * rng.normal(size=(32, 16))[y] + rng.normal(size=(128, 16))
        dist = pairwise_distances(EmbeddingBatch(emb))
        greedy = greedy_inference(dist, y, 0.0)
        calls.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_group_argmax", recorded)
            refined = pam_refine(dist, y, greedy, 0.0, 10, "all")
        medoids, first, sweeps = list(greedy.medoids), 32, 0
        for group, at in calls:
            if first == 32:
                first, sweeps = 0, sweeps + 1
            ks = [first] if first == 31 else [first, first + 1]
            assert np.array_equal(group, np.repeat(np.arange(len(ks)), rows)), (seed, ks)
            lone += len(ks) == 1
            first = ks[-1] + 1
            for g, k in enumerate(ks):
                # every point but the other positions' medoids, ascending
                cands = sorted(set(range(128)) - set(medoids) | {medoids[k]})
                pick = cands[at[g] - g * rows]
                if pick != medoids[k]:
                    medoids[k], first = pick, k + 1
                    swaps += 1
                    break
        assert first == 32 and sweeps == len(refined.trace), (seed, first, sweeps)
        assert tuple(medoids) == refined.medoids, seed
    assert lone > 0 and swaps > 0, (lone, swaps)


MATRIX_KINDS = [
    "gaussian", "integer-tied", "rounded-asymmetric", "inf-block", "negative", "positive-diagonal",
    "cancelling",
]


@st.composite
def square_instances(draw):
    """A square matrix of one of seven kinds and dense labels, where the
    last class may hold one point: Gaussian or integer-grid embeddings
    (distances, with exact ties on the grid), asymmetric integer entries,
    an asymmetric block at inf distance, asymmetric entries of either
    sign, symmetric positive entries, diagonal included, so that a
    medoid need not belong to its own cluster, or entries of +-2^30..2^49
    by the parity of i + j plus small asymmetric parts. On the last kind
    sums cancel far below their terms and round to a coarse grid, so the
    order in which a facility score adds its points decides picks."""
    kind = draw(st.sampled_from(MATRIX_KINDS))
    m = draw(st.integers(2, 14))
    if kind in ("gaussian", "integer-tied"):
        coords = st.floats(-3.0, 3.0) if kind == "gaussian" else st.integers(-2, 2)
        emb = np.array(draw(st.lists(coords, min_size=2 * m, max_size=2 * m)), float)
        dist = pairwise_distances(EmbeddingBatch(emb.reshape(m, 2)))
    elif kind == "cancelling":
        big = 2.0 ** draw(st.integers(30, 49))
        small = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=m * m, max_size=m * m)))
        idx = np.arange(m)
        sign = np.where((idx[:, None] + idx[None, :]) % 2 == 0, 1.0, -1.0)
        dist = sign * big + small.reshape(m, m)
    else:
        entries = {
            "rounded-asymmetric": st.integers(0, 3),
            "inf-block": st.floats(0.0, 3.0),
            "negative": st.floats(-3.0, 3.0),
            "positive-diagonal": st.floats(0.5, 3.0),
        }[kind]
        dist = np.array(draw(st.lists(entries, min_size=m * m, max_size=m * m)), float)
        dist = dist.reshape(m, m)
        if kind == "positive-diagonal":
            dist = np.triu(dist) + np.triu(dist, 1).T
        if kind == "inf-block":
            group = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
            dist[~group[:, None] & group[None, :]] = np.inf
    num_classes = draw(st.integers(1, min(m, 5)))
    # with ``single`` the last class holds only its first point
    single = num_classes > 1 and draw(st.booleans())
    more = m - num_classes
    rest = draw(st.lists(st.integers(0, num_classes - 1 - single), min_size=more, max_size=more))
    return dist, np.array(draw(st.permutations(list(range(num_classes)) + rest)))


# The 200 instances the reference-loop property has always drawn: the seed
# that ``derandomize`` took from an earlier text of its source. A property
# whose text changes draws anew, and among other draws are instances where
# the cluster pool's trace ends one ulp below greedy's objective at gamma 0,
# the fall ROADMAP item 3 tracks.
SQUARE_INSTANCES_SEED = int(
    "11593610234831738517067175373478746743742872852679162007938490896178662987567383"
    "348621842801682169492295633459350148"
)


def contract_checked(call):
    """``SwapMargins.__call__`` that first asserts the labels inference
    must pass it: dense classes 0..K-1, and per group of rows one base
    label per point in 0..K (K: no medoid) that leaves some position below
    K empty, a cluster of their own for the moved points. Every row
    belongs to a group, and the moves are distinct flat indices of (row,
    point) pairs."""

    def checked(margins, base, moves, group):
        k, m = margins.num_classes, margins.truth.size
        assert np.array_equal(np.unique(margins.truth), np.arange(k))
        assert base.dtype.kind == "i" and base.ndim == 2 and base.shape[1] == m
        assert group.ndim == 1 and ((0 <= group) & (group < len(base))).all()
        assert moves.dtype.kind == "i" and ((0 <= moves) & (moves < group.size * m)).all()
        assert np.unique(moves).size == moves.size
        for labels in base:
            assert ((0 <= labels) & (labels <= k)).all(), labels
            assert np.setdiff1d(np.arange(k), labels).size > 0, labels
        checked.calls += 1
        return call(margins, base, moves, group)

    checked.calls = 0
    return checked


@seed(SQUARE_INSTANCES_SEED)
@settings(deadline=None, max_examples=200, derandomize=True)
@given(square_instances())
def test_infer_equals_reference_loops_on_square_matrices(instance):
    """``infer`` on ``dist`` equals, under ``==``, the per-candidate greedy
    and refinement loops on ``dist.T`` (they read medoid columns), at
    gamma 0, 1e-9, 1e-3, 0.5 and 2 in both pools: at the small gammas the
    facility part alone decides most steps and calls. Greedy's objective
    followed by the refinement trace never falls, with no tolerance, and
    refinement stops before its sweep cap. Every ``SwapMargins`` call
    meets its label contract, and one is made unless there is one class:
    every margin is then 0, and the facility part decides every step and
    call that has no facility tie within gamma."""
    dist, y = instance
    sweeps = 5
    checked = contract_checked(SwapMargins.__call__)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SwapMargins, "__call__", checked)
        for gamma in (0.0, 1e-9, 1e-3, 0.5, 2.0):
            seed = greedy_reference(dist.T, y, gamma)
            for pool in ("cluster", "all"):
                greedy, refined = infer(dist, y, gamma, sweeps, pool)
                assert_same_result(greedy, seed, (gamma, pool))
                want = pam_refine_reference(dist.T, y, seed.medoids, gamma, sweeps, pool)
                assert_same_result(refined, want, (gamma, pool))
                objectives = [greedy.objective] + refined.trace
                assert all(a <= b for a, b in itertools.pairwise(objectives)), (gamma, pool)
                assert len(refined.trace) < sweeps, (gamma, pool)
    assert checked.calls > 0 or y.max() == 0


@settings(deadline=None, max_examples=200, derandomize=True)
@given(square_instances())
def test_greedy_carries_the_moves_of_the_dense_serving_rule(instance):
    """At gamma 0.5 greedy scores step 0, where every candidate takes every
    point, without a ``SwapMargins`` call. Each later step is scored once:
    in a call of its own, one row per point, or, where the facility part
    alone decides the step, as one group of a last call, one row for its
    pick. Either way a row's moves are those of the dense rule: the points
    where ``_serves`` says the row's candidate, placed at the step's
    position, would serve them against the medoids chosen so far; and the
    row's value is ``margin``'s of those labels, the moved points labelled
    by the step. Steps are read from call order, and each group's base
    labels must be those of its step."""
    dist, y = instance
    calls = recorded_margin_calls(lambda: greedy_inference(dist, y, 0.5))
    result = greedy_inference(dist, y, 0.5)
    m, num_classes = len(y), int(y.max()) + 1
    assert sorted(step for steps, *_ in calls for step in steps) == list(range(1, num_classes))
    for steps, base, moves, group, got in calls:
        own = len(base) == 1 and group.size == m
        assert len(steps) == len(base), steps
        takes = np.zeros(group.size * m, dtype=bool)
        takes[moves] = True
        for r, (g, row) in enumerate(zip(group, takes.reshape(-1, m))):
            step = steps[g]
            chosen = list(result.medoids[:step])
            assert np.array_equal(base[g], assign(dist, chosen)), step
            best_dist = np.where(base[g] == num_classes, np.inf, dist[chosen].min(axis=0))
            cand = r if own else result.medoids[step]
            want = inference._serves(dist[cand], step, best_dist, base[g])
            assert np.array_equal(row, want), (step, r)
            assert got[r] == margin(np.where(row, step, base[g]), y), (step, r)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf"), -0.5])
def test_inference_rejects_a_gamma_that_is_not_finite_and_nonnegative(gamma):
    """A nan gamma made every score nan, and so the loss max(0, nan) = 0;
    greedy, refinement, ``infer`` and brute force all refuse it, an
    infinite or a negative one through one check."""
    dist, y = line_instance()
    seed = greedy_inference(dist, y, 1.0)
    for run in (
        lambda: greedy_inference(dist, y, gamma),
        lambda: pam_refine(dist, y, seed, gamma, 5),
        lambda: infer(dist, y, gamma, 5),
        lambda: brute_force_inference(dist, y, gamma),
    ):
        with pytest.raises(InvalidInputError, match="gamma"):
            run()


def test_the_facility_part_decides_separated_blobs_without_margin_calls():
    """On well-separated blobs (m = 128, 32 classes) at gamma 1e-6 every
    facility gap exceeds gamma: greedy scores the margins of all 31 steps
    after step 0 in one call, and refinement makes none, with the medoids
    and traces of the per-candidate loops."""
    rng = np.random.default_rng(128)
    y = np.arange(128) % 32
    emb = 10.0 * rng.normal(size=(32, 16))[y] + 0.1 * rng.normal(size=(128, 16))
    dist = pairwise_distances(EmbeddingBatch(emb))
    greedy = greedy_inference(dist, y, 1e-6)
    assert margin_calls(lambda: greedy_inference(dist, y, 1e-6)) == [(list(range(1, 32)), 31)]
    seed = greedy_reference(dist, y, 1e-6)
    assert_same_result(greedy, seed, "greedy")
    for pool in ("cluster", "all"):
        assert margin_calls(lambda: pam_refine(dist, y, greedy, 1e-6, 5, pool)) == [], pool
        refined = pam_refine(dist, y, greedy, 1e-6, 5, pool)
        want = pam_refine_reference(dist, y, seed.medoids, 1e-6, 5, pool)
        assert_same_result(refined, want, pool)


def gap_instances():
    """Matrices of half-integer entries whose facility parts differ by
    multiples of 0.5. At gamma 0.5 a gap can equal gamma exactly. Every
    other instance adds 2^51 to the first column, where the float spacing
    is 0.5, and takes gamma 0.375: a gap of one spacing exceeds gamma, yet
    fl(F_c + gamma) rounds up to F_c + 0.5."""
    rng = np.random.default_rng(52)
    for i in range(200):
        m = int(rng.integers(3, 7))
        num_classes = int(rng.integers(2, min(m, 3) + 1))
        dist = rng.integers(0, 4, size=(m, m)) * 0.5
        if i % 4 >= 2:
            dist = np.triu(dist) + np.triu(dist, 1).T
        gamma = 0.5
        if i % 2:
            dist[:, 0] += 2.0**51
            gamma = 0.375
        rest = rng.integers(0, num_classes, m - num_classes)
        y = rng.permutation(np.concatenate([np.arange(num_classes), rest]))
        yield dist, y, gamma


def test_the_margin_is_scored_where_a_gap_is_within_gamma_after_rounding():
    """A candidate c is a rival of the first maximum b of the facility part
    F when fl(F_c + gamma) >= F_b, with the sum rounded as numpy rounds it.
    Where the gap F_b - F_c equals gamma, or exceeds it by less than the
    rounding, the margin can tie c with b, and the tie goes to the smaller
    index. Two hand-made instances show it, greedy's at step 1 and the
    cluster pool's and the whole-batch pool's at position 0, and ``infer``
    equals the per-candidate loops on 200 matrices built to hold such gaps,
    in both pools."""
    big = 2.0**51  # float spacing 0.5
    # step 0 takes point 0; at step 1 candidate 2 leads by 0.5, one spacing,
    # and takes only point 3, which gives y's partition (margin 0); 1 and 3
    # take nothing (one cluster, margin 1): fl(F_1 + 0.375) = F_2
    dist = np.array(
        [[0.0, big, 0.5, 0.5], [0.5, big, 0.5, 0.5], [1.0, big, 0.5, 0.0], [1.0, big, 0.5, 0.5]]
    )
    y = np.array([0, 0, 0, 1])
    greedy = greedy_inference(dist, y, 0.375)
    assert greedy.medoids == (0, 1) and greedy.trace[1] == -(big + 0.5)
    assert_same_result(greedy, greedy_reference(dist.T, y, 0.375), "greedy")
    # position 0 holds point 2 and its cluster {0, 1, 2}: candidate 1 leads
    # candidate 0 by one spacing; 1 gives y's partition and 0 takes every
    # point (it ties point 2's medoid 3 at points 3 and 4)
    dist = np.array(
        [
            [0.0, 1.0, big + 0.5, 0.0, 0.0],
            [0.5, 0.0, big + 0.5, 9.0, 9.0],
            [1.0, 1.0, big, 9.0, 9.0],
            [9.0, 9.0, big + 9.0, 0.0, 0.0],
            [9.0, 9.0, big + 9.0, 1.0, 0.0],
        ]
    )
    y = np.array([0, 0, 0, 1, 1])
    seed = label_medoids(dist, (2, 3), y, 0.375)
    for pool in ("cluster", "all"):
        refined = pam_refine(dist, y, seed, 0.375, 5, pool)
        want = pam_refine_reference(dist.T, y, (2, 3), 0.375, 5, pool)
        assert_same_result(refined, want, pool)
        assert pam_refine(dist, y, seed, 0.375, 1, pool).medoids[0] == 0, pool
    for i, (dist, y, gamma) in enumerate(gap_instances()):
        seed = greedy_reference(dist.T, y, gamma)
        for pool in ("cluster", "all"):
            greedy, refined = infer(dist, y, gamma, 5, pool)
            assert_same_result(greedy, seed, (i, pool))
            want = pam_refine_reference(dist.T, y, seed.medoids, gamma, 5, pool)
            assert_same_result(refined, want, (i, pool))


def test_an_exact_facility_tie_is_broken_by_the_margin_at_tiny_gamma():
    """An exact facility tie leaves a step or a call to the margin, however
    small gamma is. At gamma 0 greedy takes the smaller of two tied
    candidates at step 1, and the cluster pool keeps medoid 0 of the
    symmetric two-point cluster {0, 1}, whose points serve it at the same
    cost; at gamma 1e-9 the margin picks the other, as the per-candidate
    loops do."""
    x = np.array([5.0, 1.0, 3.0, 6.0, 6.0])
    dist, y = np.abs(x[:, None] - x[None, :]), np.array([0, 2, 0, 1, 1])
    assert greedy_inference(dist, y, 0.0).medoids == (0, 1, 2)
    greedy = greedy_inference(dist, y, 1e-9)
    assert greedy.medoids == (0, 2, 1)
    assert_same_result(greedy, greedy_reference(dist, y, 1e-9), "greedy")
    x = np.array([2.0, 1.0, 3.0, 3.0, 5.0])
    dist, y = np.abs(x[:, None] - x[None, :]), np.array([1, 1, 2, 0, 0])
    assert greedy_inference(dist, y, 0.0).medoids == (2, 0, 4)
    assert pam_refine(dist, y, label_medoids(dist, (2, 0, 4), y, 0.0), 0.0, 5).medoids == (2, 0, 4)
    refined = pam_refine(dist, y, label_medoids(dist, (2, 0, 4), y, 1e-9), 1e-9, 5)
    assert refined.medoids == (2, 1, 4)
    want = pam_refine_reference(dist, y, (2, 0, 4), 1e-9, 5, "cluster")
    assert_same_result(refined, want, "refine")


def test_inf_nan_and_lone_candidates_at_small_gamma():
    """Steps whose facility parts hold -inf, +inf or nan, and a step with one
    free candidate, at gamma 1e-9, 1e-3 and 0.5 in both pools, equal the
    per-candidate loops; the trace is compared with nan equal to nan.
    A -inf row below a finite maximum is no rival, so that step is decided
    and scored in greedy's last call. A nan maximum has no rival, not even
    itself, and a maximum of +inf or -inf that another row shares has one,
    so those steps make their own calls. One free candidate decides its
    step."""
    inf = np.inf
    cases = {
        # step 1: rows 2 and 3 finite, row 1 -inf
        "neg-inf-row": (
            [[0, 1, inf, inf], [1, 0, inf, inf], [inf, 3, 0, 1], [inf, 2, 1.5, 0]],
            [0, 0, 1, 1],
            [([1], 1)],
        ),
        # step 0 takes the first nan, step 1 again, and step 2 ties two +inf
        "nan-and-pos-inf": (
            [[0, inf, 1, 1], [inf, 0, 1, 1], [-inf, inf, 0, 0], [1, 1, 1, 0]],
            [0, 1, 2, 2],
            [([1], 4), ([2], 4)],
        ),
        # three groups at inf from each other: step 1 ties rows at -inf
        "neg-inf-tie": (
            [
                [0, 1, inf, inf, inf, inf],
                [1, 0, inf, inf, inf, inf],
                [inf, inf, 0, 2, inf, inf],
                [inf, inf, 2, 0, inf, inf],
                [inf, inf, inf, inf, 0, 3],
                [inf, inf, inf, inf, 3, 0],
            ],
            [0, 1, 2, 0, 1, 2],
            None,
        ),
        # step 2 has one free candidate
        "lone-candidate": ([[0, 1, 5], [1, 0, 4], [5, 4, 0]], [0, 1, 2], None),
    }
    for name, (dist, y, calls) in cases.items():
        dist, y = np.array(dist, dtype=float), np.array(y)
        for gamma in (1e-9, 1e-3, 0.5):
            with np.errstate(invalid="ignore"):  # inf - inf in the row sums
                seed = greedy_reference(dist.T, y, gamma)
                if calls is not None and gamma == 1e-3:
                    assert margin_calls(lambda: greedy_inference(dist, y, gamma)) == calls, name
                for pool in ("cluster", "all"):
                    greedy, refined = infer(dist, y, gamma, 5, pool)
                    want = pam_refine_reference(dist.T, y, seed.medoids, gamma, 5, pool)
                    for got, ref in ((greedy, seed), (refined, want)):
                        assert got.medoids == ref.medoids, (name, gamma, pool)
                        assert np.array_equal(got.trace, ref.trace, equal_nan=True), (name, gamma)
        if name == "neg-inf-tie":
            steps = margin_calls(lambda: greedy_inference(dist, y, 1e-3))
            assert ([1], 6) in steps, steps
        if name == "lone-candidate":
            steps = margin_calls(lambda: greedy_inference(dist, y, 1e-3))
            assert steps[-1][0][-1] == 2, steps
