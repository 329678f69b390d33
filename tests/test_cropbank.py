import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrst.api import BBox, CropEntry, Instance
from acrst.cropbank import (
    CropBank,
    EmptyBankError,
    build_labeled_bank,
    refresh_pseudo_bank,
    sample_crops,
)
from acrst.dataset import ClassCdfs, ImageRecord, parse_coco_annotations
from acrst.model import Detections, DetectorParams, detect
from acrst.rebalance import SamplingDistribution


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
        assert bank.labeled_bank == tuple(
            (c, w, h) for img in ds.images for c, _, _, w, h in img.truth_rows
        )

    def test_entries_carry_geometry(self, coco_text):
        ds = parse_coco_annotations(coco_text)
        bank = build_labeled_bank(ds)
        # Category 7 is class 1; the crop keeps the box's size and nothing else.
        assert bank.labeled_bank[0] == (1, 20, 10)


class TestRefresh:
    def setup_method(self):
        self.bank = CropBank(labeled_bank=rows([entry(1), entry(2)]))
        # Image 5 has two detections, image 6 three, image 7 none: a detector
        # without noise, misses, confusion or false positives emits its truth rows.
        exact = DetectorParams(
            recall_skill=(1.0,) * 3, confusion_rate=0.0, loc_skill=1.0, partial_rate=0.0,
            fp_rate=0.0, confidence_sharpness=8.0,
        )
        self.dets = Detections()
        for image_id, truth in [
            (5, [(1, 0.0, 0.0, 4.0, 4.0), (2, 3.0, 3.0, 2.0, 2.0)]),
            (6, [(2, 1.0, 1.0, 5.0, 5.0), (3, 0.5, 0.5, 1.0, 1.0), (1, 2.0, 2.0, 3.0, 3.0)]),
            (7, []),
        ]:
            record = ImageRecord(image_id, 10.0, 10.0, tuple(truth))
            detect(exact, record, np.random.default_rng(0), ClassCdfs([1.0] * 3), self.dets)
        self.kept = [True, False, True, False, True]

    def test_wholesale_replacement(self):
        bank = refresh_pseudo_bank(self.bank, self.dets, self.kept)
        assert bank.n_pseudo == 3
        assert bank is not self.bank
        assert bank.labeled_bank is self.bank.labeled_bank
        # The kept rows' class and size, in order.
        assert bank.pseudo_bank == ((1, 4.0, 4.0), (2, 5.0, 5.0), (1, 3.0, 3.0))
        again = refresh_pseudo_bank(bank, self.dets, [False] * 5)
        assert again.n_pseudo == 0
        assert again.pseudo_bank == ()


class TestSampling:
    def test_one_hot_distribution(self):
        bank = CropBank(labeled_bank=rows([entry(1), entry(2), entry(2)]))
        dist = SamplingDistribution(mu=(0.0, 1.0))
        rng = np.random.default_rng(0)
        crops = sample_crops(bank, dist, 50, rng)
        assert len(crops) == 50
        assert all(c[0] == 2 for c in crops)

    def test_renormalizes_over_available_classes(self):
        bank = CropBank(labeled_bank=rows([entry(1)]))
        dist = SamplingDistribution(mu=(0.1, 0.9))
        crops = sample_crops(bank, dist, 20, np.random.default_rng(1))
        assert all(c[0] == 1 for c in crops)

    def test_union_of_banks_is_sampled(self):
        bank = CropBank(
            labeled_bank=rows([entry(1, w=100)]),
            pseudo_bank=rows([pseudo(1, w=200)]),
        )
        dist = SamplingDistribution.uniform(1)
        crops = sample_crops(bank, dist, 400, np.random.default_rng(2))
        widths = {c[1] for c in crops}
        assert widths == {100, 200}

    def test_empty_bank_raises(self):
        bank = CropBank(labeled_bank=())
        with pytest.raises(EmptyBankError):
            sample_crops(bank, SamplingDistribution.uniform(2), 1, np.random.default_rng(0))

    def test_zero_weight_on_available_classes_raises(self):
        bank = CropBank(labeled_bank=rows([entry(1)]))
        dist = SamplingDistribution(mu=(0.0, 1.0))
        with pytest.raises(ValueError):
            sample_crops(bank, dist, 1, np.random.default_rng(0))

    def test_deterministic_for_seed(self):
        bank = CropBank(labeled_bank=rows([entry(1), entry(2), entry(3)]))
        dist = SamplingDistribution.uniform(3)
        a = sample_crops(bank, dist, 100, np.random.default_rng(42))
        b = sample_crops(bank, dist, 100, np.random.default_rng(42))
        assert a == b

    def test_uniform_frequencies_within_two_percent(self):
        bank = CropBank(labeled_bank=rows([entry(1), entry(2)]))
        dist = SamplingDistribution.uniform(2)
        crops = sample_crops(bank, dist, 100_000, np.random.default_rng(7))
        share = sum(c[0] == 1 for c in crops) / len(crops)
        assert abs(share - 0.5) < 0.02

    def test_two_level_sampling_matches_distribution_chisquare(self):
        """Class frequencies at 1e5 draws pass a goodness-of-fit test."""
        bank = CropBank(
            labeled_bank=rows(entry(k) for k in (1, 1, 1, 2, 3, 3)),
            pseudo_bank=rows([pseudo(k) for k in (2, 4)]),
        )
        dist = SamplingDistribution(mu=(0.4, 0.3, 0.2, 0.1))
        n = 100_000
        crops = sample_crops(bank, dist, n, np.random.default_rng(123))
        observed = np.bincount([c[0] for c in crops], minlength=5)[1:]
        expected = np.asarray(dist.mu) * n
        result = scipy.stats.chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_sampled_crops_are_bank_rows(self, monkeypatch):
        bank = CropBank(
            labeled_bank=rows([entry(1, w=1)]),
            pseudo_bank=rows([pseudo(1 + i % 2, w=10 + i) for i in range(40)]),
        )
        made = []
        init = Instance.__init__

        def counting(self, *args, **kwargs):
            made.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Instance, "__init__", counting)
        dist, rng = SamplingDistribution.uniform(2), np.random.default_rng(4)
        crops = [c for _ in range(200) for c in sample_crops(bank, dist, 4, rng)]
        # Every crop is a row the bank holds, returned as that one object.
        stored = {id(row) for row in (*bank.labeled_bank, *bank.pseudo_bank)}
        assert all(id(c) in stored for c in crops)
        assert made == []
        pseudo(1)  # the patched constructor does count an instance
        assert len(made) == 1

    def test_within_class_entries_uniform(self):
        bank = CropBank(labeled_bank=rows(entry(1, w=i) for i in range(1, 5)))
        crops = sample_crops(
            bank, SamplingDistribution.uniform(1), 100_000, np.random.default_rng(5)
        )
        counts = np.bincount([int(c[1]) - 1 for c in crops], minlength=4)
        assert scipy.stats.chisquare(counts).pvalue > 0.001


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


def _outcome(sampler, bank, distribution, n, rng):
    try:
        return sampler(bank, distribution, n, rng)
    except (EmptyBankError, ValueError) as e:
        return type(e), str(e)


@st.composite
def _bank_and_distributions(draw):
    k = draw(st.integers(1, 6))
    # Every entry has its own width, so equal results mean equal picks.
    classes = draw(st.lists(st.integers(1, k + 2), max_size=12))
    pseudo_classes = draw(st.lists(st.integers(1, k + 2), max_size=6))
    labeled = tuple(entry(c, w=1 + i) for i, c in enumerate(classes))
    pseudo_labels = [pseudo(c, w=100 + i) for i, c in enumerate(pseudo_classes)]
    weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    dists = []
    for _ in range(draw(st.integers(1, 3))):
        raw = draw(st.lists(weight, min_size=k, max_size=k))
        if sum(raw) > 0:
            dists.append(SamplingDistribution.normalized(raw))
        else:
            dists.append(SamplingDistribution.uniform(k))
    return labeled, pseudo_labels, dists


class TestSampleEquivalence:
    """The row bank's class table draws the crops, in order, that rng.choice
    drew from the bank of instances, from the same doubles."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=_bank_and_distributions(),
        sizes=st.lists(st.integers(0, 9), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(case=((), [], [SamplingDistribution.uniform(2)]), sizes=[1, 0], seed=0)
    @example(
        case=(
            tuple(entry(k, w=k) for k in (1, 2, 3)),
            [],
            [SamplingDistribution(mu=(0.5, 0.0, 0.5))],
        ),
        sizes=[0, 5, 5],
        seed=1,
    )
    @example(
        case=((entry(1, w=1),), [], [SamplingDistribution(mu=(0.0, 1.0))]),
        sizes=[1, 1],
        seed=2,
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
        bank = CropBank(labeled_bank=rows(labeled), pseudo_bank=rows(pseudo_labels))
        ref_bank = _InstanceBank(labeled, pseudo_labels)
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        for i, n in enumerate(sizes):
            dist = dists[i % len(dists)]
            got = _outcome(sample_crops, bank, dist, n, rng_got)
            want = _outcome(_choice_sample_crops, ref_bank, dist, n, rng_want)
            assert got == (list(rows(want)) if isinstance(want, list) else want)
        assert rng_got.random() == rng_want.random()
