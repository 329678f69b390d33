import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrst.api import BBox, CropEntry, Instance
from acrst.cropbank import CropBank, build_labeled_bank, refresh_pseudo_bank
from acrst.dataset import ClassCdfs, Dataset, ImageRecord, parse_coco_annotations
from acrst.model import Detections, DetectorParams, detect
from acrst.rebalance import PasteConfig, SamplingDistribution, place_pastes
from acrst.synthdata import synthetic_dataset


def entry(class_id, origin="labeled", score=1.0, w=10):
    return CropEntry(
        source_image_id=1,
        bbox=BBox(0, 0, w, 10),
        class_id=class_id,
        score=score,
        origin=origin,
    )


def pseudo(class_id, w=10):
    """A pseudo-label as the loop made one before the pseudo bank became rows."""
    return Instance(class_id, BBox(0, 0, w, 10), 1)


def rows(instances):
    """The crop rows of ``instances``, in order."""
    return tuple((i.class_id, i.bbox.w, i.bbox.h) for i in instances)


def crop_bank(labeled, pseudo_instances=()):
    """A bank of the crop columns of ``labeled`` and of ``pseudo_instances``."""
    (lab, lab_sizes), (ids, sizes) = (
        (c[0].astype(np.intp), c[1:])
        for c in (np.array(rows(i), dtype=float).reshape(-1, 3).T for i in (labeled, pseudo_instances))
    )
    return CropBank(lab, lab_sizes, ids, sizes)


def labeled_rows(bank):
    """The (class, w, h) rows of ``bank``'s labeled crops, in order."""
    return tuple(zip(bank.labeled_class_ids.tolist(), *bank.labeled_sizes.tolist()))


def pseudo_rows(bank):
    """The (class, w, h) rows of ``bank``'s pseudo crops, in order."""
    return tuple(zip(bank.pseudo_class_ids.tolist(), *bank.pseudo_sizes.tolist()))


# Every crop of these tests fits a SIDE x SIDE image as it is.
SIDE = 1000.0


def paste_columns(bank, distribution, n, rng):
    """:func:`place_pastes`' paste columns, flat, for ``n`` crops drawn from
    ``bank`` by ``distribution`` onto a SIDE x SIDE image. Every crop fits, so
    the image's class, entry and position doubles come from one call, as the
    loop draws them."""
    draws = np.zeros((1, 5 * n))
    rng.random(out=draws[0, :4 * n])
    table = bank.class_table(distribution.mu)
    return place_pastes(draws, np.array([[SIDE], [SIDE]]), table,
                        PasteConfig(crops_per_image=n)).T.ravel().tolist()


def pasted_crops(bank, distribution, n, rng):
    """The (class, w, h) crop rows that :func:`paste_columns` pastes, each side
    rounded back from the pasted box's integer-sided edges."""
    flat = paste_columns(bank, distribution, n, rng)
    return [
        (int(c), round(x2 - x1), round(y2 - y1))
        for c, _, x1, y1, x2, y2 in zip(*[iter(flat)] * 6)
    ]


class TestCropEntry:
    def test_labeled_must_score_one(self):
        with pytest.raises(ValueError):
            entry(1, origin="labeled", score=0.9)

    def test_score_range(self):
        with pytest.raises(ValueError):
            entry(1, origin="pseudo", score=1.2)

    def test_unknown_origin(self):
        with pytest.raises(ValueError):
            entry(1, origin="mystery")


class TestBuild:
    def test_one_entry_per_instance(self, coco_text):
        ds = parse_coco_annotations(coco_text)
        bank = build_labeled_bank(ds)
        assert bank.n_labeled == 3
        assert bank.n_pseudo == 0
        # One row per ground-truth instance of the split, in image order.
        assert labeled_rows(bank) == tuple(
            (c, w, h) for img in ds.images for c, _, _, w, h in img.truth_rows
        )

    def test_entries_carry_geometry(self, coco_text):
        ds = parse_coco_annotations(coco_text)
        bank = build_labeled_bank(ds)
        # Category 7 is class 1; the crop keeps the box's size and nothing else.
        assert labeled_rows(bank)[0] == (1, 20, 10)


class TestRefresh:
    def setup_method(self):
        self.bank = crop_bank([entry(1), entry(2)])
        # Image 5 has two detections, image 6 three, image 7 none: a detector
        # without noise, misses, confusion or false positives emits its truth rows.
        exact = DetectorParams(
            recall_skill=(1.0,) * 3, confusion_rate=0.0, loc_skill=1.0, partial_rate=0.0,
            fp_rate=0.0, confidence_sharpness=8.0,
        )
        records = tuple(ImageRecord(image_id, 10.0, 10.0, tuple(truth)) for image_id, truth in [
            (5, [(1, 0.0, 0.0, 4.0, 4.0), (2, 3.0, 3.0, 2.0, 2.0)]),
            (6, [(2, 1.0, 1.0, 5.0, 5.0), (3, 0.5, 0.5, 1.0, 1.0), (1, 2.0, 2.0, 3.0, 3.0)]),
            (7, []),
        ])
        self.dets = Detections(Dataset(records, ()), exact, ClassCdfs([1.0] * 3))
        record = detect(self.dets, np.random.default_rng(0))
        for image in range(len(records)):
            record(image)
        self.kept = [True, False, True, False, True]

    def test_wholesale_replacement(self):
        bank = refresh_pseudo_bank(self.bank, self.dets, self.kept)
        assert bank.n_pseudo == 3
        assert bank is not self.bank
        assert bank.labeled_class_ids is self.bank.labeled_class_ids
        assert bank.labeled_sizes is self.bank.labeled_sizes
        # The kept rows' class and size, in order.
        assert pseudo_rows(bank) == ((1, 4.0, 4.0), (2, 5.0, 5.0), (1, 3.0, 3.0))
        again = refresh_pseudo_bank(bank, self.dets, [False] * 5)
        assert again.n_pseudo == 0
        assert pseudo_rows(again) == ()


class TestClassTableFromColumns:
    """A refreshed bank keeps its pseudo crops as columns; the class table
    built from them holds the pools that grouping crop rows gave: per class
    with a crop, its labeled rows, then the kept detections' (class, w, h)
    rows, each in order."""

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        share=st.floats(0.0, 1.0),
        weights=st.lists(st.floats(1e-3, 1.0), min_size=5, max_size=5),
    )
    def test_pools_equal_grouped_rows(self, k, seed, share, weights):
        ds = synthetic_dataset(6, k, seed=seed % 997)
        noisy = DetectorParams(
            recall_skill=(0.8,) * k, confusion_rate=0.3, loc_skill=0.5, partial_rate=0.2,
            fp_rate=1.5, confidence_sharpness=8.0,
        )
        rng = np.random.default_rng(seed)
        dets = Detections(ds, noisy, ds.class_cdfs)
        record = detect(dets, rng)
        for image in range(len(ds.images)):
            record(image)
        kept = rng.random(sum(dets.counts)) < share
        labeled = build_labeled_bank(ds)
        bank = refresh_pseudo_bank(labeled, dets, kept)
        mu = SamplingDistribution.normalized(weights[:k]).mu
        table = bank.class_table(mu)
        pools = tuple(
            list(zip(table.class_id[a:a + n].tolist(), *table.sizes[:, a:a + n].tolist()))
            for a, n in zip(table.starts.tolist(), table.lengths.tolist())
        )
        cdf = table.cdf.tolist()
        # The reference groups rows read off the detections' (x, y, w, h,
        # class, score) table.
        crop_rows = [*labeled_rows(labeled), *((int(c), w, h) for (_, _, w, h, c, _), keep in zip(
            dets.table.T.tolist(), kept) if keep)]
        groups = {}
        for crop in crop_rows:
            groups.setdefault(crop[0], []).append(crop)
        available = [c for c in range(1, k + 1) if c in groups]
        assert repr(pools) == repr(tuple(groups[c] for c in available))
        assert bank.n_pseudo == int(kept.sum())
        assert len(cdf) == len(available) and cdf[-1] == 1.0
        assert table.largest.T.tolist() == [np.array(crop_rows)[:, 1:].max(axis=0).tolist()]


class TestSampling:
    def test_one_hot_distribution(self):
        bank = crop_bank([entry(1), entry(2), entry(2)])
        dist = SamplingDistribution(mu=(0.0, 1.0))
        rng = np.random.default_rng(0)
        crops = pasted_crops(bank, dist, 50, rng)
        assert len(crops) == 50
        assert all(c[0] == 2 for c in crops)

    def test_renormalizes_over_available_classes(self):
        bank = crop_bank([entry(1)])
        dist = SamplingDistribution(mu=(0.1, 0.9))
        crops = pasted_crops(bank, dist, 20, np.random.default_rng(1))
        assert all(c[0] == 1 for c in crops)

    def test_union_of_banks_is_sampled(self):
        bank = crop_bank([entry(1, w=100)], [pseudo(1, w=200)])
        dist = SamplingDistribution.uniform(1)
        crops = pasted_crops(bank, dist, 400, np.random.default_rng(2))
        widths = {c[1] for c in crops}
        assert widths == {100, 200}

    def test_deterministic_for_seed(self):
        bank = crop_bank([entry(1), entry(2), entry(3)])
        dist = SamplingDistribution.uniform(3)
        a = pasted_crops(bank, dist, 100, np.random.default_rng(42))
        b = pasted_crops(bank, dist, 100, np.random.default_rng(42))
        assert a == b

    def test_uniform_frequencies_within_two_percent(self):
        bank = crop_bank([entry(1), entry(2)])
        dist = SamplingDistribution.uniform(2)
        crops = pasted_crops(bank, dist, 100_000, np.random.default_rng(7))
        share = sum(c[0] == 1 for c in crops) / len(crops)
        assert abs(share - 0.5) < 0.02

    def test_two_level_sampling_matches_distribution_chisquare(self):
        """Class frequencies at 1e5 draws pass a goodness-of-fit test."""
        bank = crop_bank([entry(k) for k in (1, 1, 1, 2, 3, 3)], [pseudo(k) for k in (2, 4)])
        dist = SamplingDistribution(mu=(0.4, 0.3, 0.2, 0.1))
        n = 100_000
        crops = pasted_crops(bank, dist, n, np.random.default_rng(123))
        observed = np.bincount([c[0] for c in crops], minlength=5)[1:]
        expected = np.asarray(dist.mu) * n
        result = scipy.stats.chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_sampled_crops_are_bank_rows(self, monkeypatch):
        bank = crop_bank([entry(1, w=1)], [pseudo(1 + i % 2, w=10 + i) for i in range(40)])
        made = []
        init = Instance.__init__

        def counting(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Instance, "__init__", counting)
        dist, rng = SamplingDistribution.uniform(2), np.random.default_rng(4)
        crops = [c for _ in range(200) for c in pasted_crops(bank, dist, 4, rng)]
        # Every pasted crop is a row the bank holds, and none became an instance.
        assert set(crops) <= {*labeled_rows(bank), *pseudo_rows(bank)}
        assert len(set(crops)) > 30
        assert made == []
        pseudo(1)  # the patched constructor does count an instance
        assert len(made) == 1

    def test_within_class_entries_uniform(self):
        bank = crop_bank([entry(1, w=i) for i in range(1, 5)])
        crops = pasted_crops(
            bank, SamplingDistribution.uniform(1), 100_000, np.random.default_rng(5)
        )
        counts = np.bincount([int(c[1]) - 1 for c in crops], minlength=4)
        assert scipy.stats.chisquare(counts).pvalue > 0.001


class EmptyBankError(RuntimeError):
    """The reference sampler's error for a bank with nothing it may draw."""


class _InstanceBank:
    """The bank as it was before its crops became rows: both sides instances,
    grouped by class with the labeled entries first."""

    def __init__(self, labeled, pseudo_instances):
        self.entries_by_class = {}
        for entry in (*labeled, *pseudo_instances):
            self.entries_by_class.setdefault(entry.class_id, []).append(entry)


def _choice_sample_crops(bank, distribution, n, rng):
    """Reference sampler over an :class:`_InstanceBank`: class weights rebuilt
    and drawn by rng.choice per call."""
    if n < 0:
        raise ValueError(f"sample size must be non-negative, got {n}")
    groups = bank.entries_by_class
    if not groups:
        raise EmptyBankError("both banks are empty, nothing to sample")
    mu = np.asarray(distribution.mu, dtype=float)
    available = [k for k in range(1, len(mu) + 1) if groups.get(k)]
    if not available:
        raise EmptyBankError("no stored crop falls inside the distribution's classes")
    weights = mu[np.array(available) - 1]
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("no available class has positive sampling probability")
    if n == 0:
        return []
    class_draws = rng.choice(len(available), size=n, p=weights / total)
    entry_u = rng.random(n)
    out = []
    for ci, u in zip(class_draws, entry_u):
        pool = groups[available[int(ci)]]
        out.append(pool[int(u * len(pool))])
    return out


def _choice_paste_columns(bank, distribution, n, rng):
    """Reference paste columns: :func:`_choice_sample_crops`' crops, each
    placed as it is by scalar rng.uniform draws onto a SIDE x SIDE image."""
    out = []
    for crop in _choice_sample_crops(bank, distribution, n, rng):
        w, h = crop.bbox.w, crop.bbox.h
        x = float(rng.uniform(0.0, SIDE - w))
        y = float(rng.uniform(0.0, SIDE - h))
        out += (crop.class_id, 0, x, y, x + w, y + h)
    return out


@st.composite
def _bank_and_distributions(draw):
    """A bank the loop can build and distributions it can sample by: at least
    one labeled crop lies in a class of 1..k that every distribution weighs
    above zero. Other crops may lie past k, and other weights may be zero."""
    k = draw(st.integers(1, 6))
    anchor = draw(st.integers(1, k))
    # Every entry has its own width, so equal results mean equal picks.
    classes = draw(st.lists(st.integers(1, k + 2), max_size=11))
    classes.insert(draw(st.integers(0, len(classes))), anchor)
    pseudo_classes = draw(st.lists(st.integers(1, k + 2), max_size=6))
    labeled = tuple(entry(c, w=1 + i) for i, c in enumerate(classes))
    pseudo_labels = [pseudo(c, w=100 + i) for i, c in enumerate(pseudo_classes)]
    weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    dists = []
    for _ in range(draw(st.integers(1, 3))):
        raw = draw(st.lists(weight, min_size=k, max_size=k))
        raw[anchor - 1] = draw(st.floats(1e-6, 1.0))
        dists.append(SamplingDistribution.normalized(raw))
    return labeled, pseudo_labels, dists


class TestSampleEquivalence:
    """On every bank the loop can build, the row bank's class table, through
    place_pastes, draws the crops, in order, that rng.choice drew from the bank
    of instances, from the same doubles."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=_bank_and_distributions(),
        sizes=st.lists(st.integers(0, 9), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        case=(
            tuple(entry(k, w=k) for k in (1, 2, 3)),
            [],
            [SamplingDistribution(mu=(0.5, 0.0, 0.5))],
        ),
        sizes=[0, 5, 5],
        seed=1,
    )
    # Classes 2 and 3 are only in the pseudo bank, and the pseudo side alone
    # holds every crop.
    @example(
        case=(
            (entry(1, w=1), entry(1, w=2)),
            [pseudo(2, w=100), pseudo(3, w=101), pseudo(2, w=102)],
            [SamplingDistribution(mu=(0.2, 0.5, 0.3))],
        ),
        sizes=[9, 9, 9],
        seed=3,
    )
    @example(
        case=((), [pseudo(2, w=100), pseudo(1, w=101)],
              [SamplingDistribution.uniform(2)]),
        sizes=[9, 4],
        seed=4,
    )
    def test_matches_choice_sampler(self, case, sizes, seed):
        labeled, pseudo_labels, dists = case
        bank = crop_bank(labeled, pseudo_labels)
        ref_bank = _InstanceBank(labeled, pseudo_labels)
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        for i, n in enumerate(sizes):
            dist = dists[i % len(dists)]
            got = paste_columns(bank, dist, n, rng_got)
            assert got == _choice_paste_columns(ref_bank, dist, n, rng_want)
        assert rng_got.random() == rng_want.random()
