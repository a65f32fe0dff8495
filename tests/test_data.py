import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterembed.data import (
    Dataset,
    SplitSpec,
    generate_gaussian,
    load_csv,
    sample_batch,
    save_csv,
    split_by_class,
)
from clusterembed.errors import CsvParseError, InvalidInputError, PathologicalBatchError


def test_generate_shapes_and_determinism():
    a = generate_gaussian(4, 10, 3, center_scale=5.0, cluster_std=1.0, seed=7)
    b = generate_gaussian(4, 10, 3, center_scale=5.0, cluster_std=1.0, seed=7)
    assert a.features.shape == (40, 3)
    assert a.labels.tolist() == np.repeat(np.arange(4), 10).tolist()
    assert np.array_equal(a.features, b.features)
    c = generate_gaussian(4, 10, 3, center_scale=5.0, cluster_std=1.0, seed=8)
    assert not np.array_equal(a.features, c.features)


def test_generate_zero_std_collapses_to_centers():
    ds = generate_gaussian(3, 5, 2, center_scale=1.0, cluster_std=0.0, seed=1)
    for c, members in ds.class_index.items():
        block = ds.features[members]
        assert np.all(block == block[0])


def test_generate_tiny_std_is_nearest_neighbor_separable():
    ds = generate_gaussian(5, 20, 4, center_scale=10.0, cluster_std=0.01, seed=2)
    diffs = ds.features[:, None, :] - ds.features[None, :, :]
    dist = np.sqrt((diffs**2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    nn = np.argmin(dist, axis=1)
    accuracy = np.mean(ds.labels[nn] == ds.labels)
    assert accuracy == 1.0


def test_generate_validation():
    with pytest.raises(InvalidInputError):
        generate_gaussian(0, 5, 2, 1.0, 1.0, 0)
    with pytest.raises(InvalidInputError):
        generate_gaussian(3, 5, 2, 1.0, -1.0, 0)
    with pytest.raises(InvalidInputError, match="finite"):
        generate_gaussian(3, 5, 2, 1.0, float("nan"), 0)


@pytest.mark.parametrize(
    "center_scale,std",
    [(1e308, 1.0), (1e308, 0.0), (1.0, 1e308)],
    ids=["range", "range-std0", "std"],
)
def test_generate_overflowing_scales_raise_invalid_input(center_scale, std):
    # a center range 2e308 wide overflows rng.uniform; a std of 1e308 draws inf
    with pytest.raises(InvalidInputError, match="finite"):
        generate_gaussian(3, 2, 2, center_scale, std, 0)


def test_largest_finite_center_range_still_generates():
    ds = generate_gaussian(3, 2, 2, np.finfo(float).max / 2, 0.0, 0)
    assert np.isfinite(ds.features).all()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_dataset_rejects_non_finite_features(bad):
    features = np.zeros((2, 2))
    features[1, 0] = bad
    with pytest.raises(InvalidInputError, match="non-finite"):
        Dataset(features=features, labels=np.array([0, 1]))


@pytest.mark.parametrize("labels", [[0.5, 1.7, 1.2], [0.0, 1.0, 1.0], [True, False, True]])
def test_dataset_refuses_float_and_bool_class_ids(labels):
    """Float and bool ids are refused, not truncated or read as 0 and 1, as
    every other label entry point refuses them; an empty list, which numpy
    reads as float, stays a dataset of no examples."""
    with pytest.raises(InvalidInputError, match="integers"):
        Dataset(features=np.zeros((3, 1)), labels=labels)
    ints = Dataset(features=np.zeros((3, 1)), labels=np.array(labels, dtype=int))
    assert ints.labels.dtype == np.intp
    assert Dataset(features=np.zeros((0, 1)), labels=[]).num_examples == 0


def test_csv_roundtrip_exact(tmp_path):
    ds = generate_gaussian(3, 7, 4, center_scale=3.0, cluster_std=0.5, seed=3)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)
    text = path.read_text()
    assert text.startswith("label,f0,f1,f2,f3\n")
    assert "\r" not in text


def test_csv_header_only_gives_empty_dataset(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("label,f0,f1\n")
    ds = load_csv(path)
    assert ds.num_examples == 0
    assert ds.input_dim == 2
    assert ds.class_index == {}


def test_csv_parse_errors_name_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(CsvParseError, match="line 3"):
        load_csv(path)
    path.write_text("label,f0,f1\n0,1.0,abc\n")
    with pytest.raises(CsvParseError, match="line 2"):
        load_csv(path)
    path.write_text("label,f0,f1\nx,1.0,2.0\n")
    with pytest.raises(CsvParseError, match="line 2"):
        load_csv(path)
    path.write_text("label,f0,f1\n-1,1.0,2.0\n")
    with pytest.raises(CsvParseError, match="line 2"):
        load_csv(path)
    for value in ("nan", "inf", "-inf", "1e999"):
        path.write_text(f"label,f0,f1\n0,1.0,2.0\n1,3.0,{value}\n")
        with pytest.raises(CsvParseError, match="line 3"):
            load_csv(path)
    path.write_text("id,f0,f1\n")
    with pytest.raises(CsvParseError, match="line 1"):
        load_csv(path)
    path.write_text("label,f0,g1\n")
    with pytest.raises(CsvParseError, match="line 1"):
        load_csv(path)


def test_split_by_class():
    ds = generate_gaussian(4, 3, 2, 1.0, 0.1, seed=4)
    split = split_by_class(ds, 0.5, seed=11)
    assert len(split.train_classes) == 2
    assert len(split.test_classes) == 2
    assert set(split.train_classes) | set(split.test_classes) == {0, 1, 2, 3}
    again = split_by_class(ds, 0.5, seed=11)
    assert split == again
    other = split_by_class(ds, 0.5, seed=12)
    assert isinstance(other, SplitSpec)
    # ceil(0.9 * 4) = 4 train classes would leave nothing to evaluate on
    with pytest.raises(InvalidInputError, match="held out"):
        split_by_class(ds, 0.9, seed=11)


def test_split_validation():
    ds = generate_gaussian(4, 3, 2, 1.0, 0.1, seed=4)
    with pytest.raises(InvalidInputError):
        split_by_class(ds, 0.0, seed=0)
    with pytest.raises(InvalidInputError):
        split_by_class(ds, 1.0, seed=0)
    single = Dataset(features=np.zeros((3, 2)), labels=np.zeros(3, dtype=int))
    with pytest.raises(InvalidInputError):
        split_by_class(single, 0.5, seed=0)


def test_split_spec_rejects_overlap():
    with pytest.raises(InvalidInputError):
        SplitSpec(train_classes=(0, 1), test_classes=(1, 2))


def test_sample_batch_even_division():
    ds = generate_gaussian(6, 10, 2, 5.0, 0.1, seed=5)
    rng = np.random.default_rng(0)
    feats, labels = sample_batch(ds, (0, 1, 2, 3), m=8, class_ratio=0.25, rng=rng)
    assert feats.shape == (8, 2)
    counts = np.bincount(labels)
    assert counts.tolist() == [4, 4]


def test_sample_batch_class_count_rounding():
    ds = generate_gaussian(100, 3, 2, 5.0, 0.1, seed=6)
    rng = np.random.default_rng(1)
    feats, labels = sample_batch(ds, tuple(range(100)), m=128, class_ratio=0.75, rng=rng)
    assert len(np.unique(labels)) == 96
    assert feats.shape[0] == 128


def test_sample_batch_labels_dense_and_partition_preserving():
    # zero noise: features identify the source class exactly
    ds = generate_gaussian(8, 6, 3, 10.0, 0.0, seed=7)
    rng = np.random.default_rng(2)
    feats, labels = sample_batch(ds, tuple(range(8)), m=12, class_ratio=0.25, rng=rng)
    assert sorted(np.unique(labels).tolist()) == [0, 1, 2]
    # recover original class by matching the (noise-free) center
    originals = np.array(
        [int(ds.labels[np.argmax(np.all(ds.features == row, axis=1))]) for row in feats]
    )
    for i in range(len(labels)):
        for j in range(len(labels)):
            assert (labels[i] == labels[j]) == (originals[i] == originals[j])


def test_sample_batch_reproducible():
    ds = generate_gaussian(6, 10, 2, 5.0, 0.5, seed=8)
    f1, l1 = sample_batch(ds, (0, 1, 2), m=9, class_ratio=0.25, rng=np.random.default_rng(3))
    f2, l2 = sample_batch(ds, (0, 1, 2), m=9, class_ratio=0.25, rng=np.random.default_rng(3))
    assert np.array_equal(f1, f2)
    assert np.array_equal(l1, l2)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000))
def test_sample_batch_never_pathological(seed):
    ds = generate_gaussian(6, 4, 2, 5.0, 0.5, seed=9)
    rng = np.random.default_rng(seed)
    _, labels = sample_batch(ds, (0, 1, 2, 3, 4, 5), m=7, class_ratio=0.4, rng=rng)
    uniq, counts = np.unique(labels, return_counts=True)
    assert uniq.size >= 2
    assert counts.max() >= 2


def test_sample_batch_errors():
    ds = generate_gaussian(4, 5, 2, 5.0, 0.5, seed=10)
    rng = np.random.default_rng(4)
    with pytest.raises(InvalidInputError):
        sample_batch(ds, (0, 1), m=16, class_ratio=0.25, rng=rng)  # needs 4 classes
    with pytest.raises(InvalidInputError):
        sample_batch(ds, (0, 1, 2, 3), m=4, class_ratio=0.25, rng=rng)  # 1 class
    with pytest.raises(PathologicalBatchError):
        # m == classes per batch: every batch is all-singletons
        sample_batch(ds, (0, 1, 2, 3), m=2, class_ratio=1.0, rng=rng)


def test_sample_batch_all_singleton_batches_fail_before_drawing():
    """The guard depends only on m and the classes per batch, so it fails
    without using the generator."""
    ds = generate_gaussian(4, 5, 2, 5.0, 0.5, seed=10)
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(PathologicalBatchError):
        sample_batch(ds, (0, 1, 2, 3), m=3, class_ratio=1.0, rng=rng)
    assert rng.bit_generator.state == before


@st.composite
def csv_texts(draw):
    """Arbitrary text, or a header and rows that are mostly well formed."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text())

    def sometimes(usual, *faults):
        pick = draw(st.integers(0, 24))
        return faults[pick] if pick < len(faults) else usual

    dim = draw(st.integers(1, 3))
    header = "label," + ",".join(f"f{i}" for i in range(dim))
    lines = [sometimes(header, "label", "label,f1", "f0,label", "")]
    floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    for _ in range(draw(st.integers(0, 4))):
        label = sometimes(str(draw(st.integers(0, 50))), "-1", "", " 7 ", "1.0", str(2**63))
        cells = [draw(floats) for _ in range(sometimes(dim, dim - 1, dim + 1))]
        if cells:
            cells[-1] = sometimes(cells[-1], "nan", "-inf", "1e999", "x", "")
        lines.append(sometimes(",".join([label, *cells]), draw(st.text(max_size=8))))
    return "\n".join(lines) + sometimes("\n", "", "\r\n", "\n\n")


@settings(deadline=None, max_examples=300)
@given(csv_texts())
@example(f"label,f0\n{2**63},1.0\n")
def test_load_csv_of_any_text_gives_a_dataset_or_names_the_line(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        ds = load_csv(path)
    except (CsvParseError, InvalidInputError) as exc:
        assert re.match(r"line \d+: ", str(exc)), str(exc)
    else:
        assert ds.features.ndim == 2 and ds.labels.shape == (ds.num_examples,)
        assert np.isfinite(ds.features).all() and (ds.labels >= 0).all()
