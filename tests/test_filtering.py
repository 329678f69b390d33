import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrst.api import BBox, ImageLevelLabel, Prediction, two_stage_filter, two_stage_mining
from acrst.config import ConfigError, ExperimentConfig, config_from_dict
from acrst.dataset import Category, Dataset, ImageRecord
from acrst.filtering import FilterConfig, OracleNoise, keep_mask, oracle_activations
from acrst.model import Detections, DetectorParams, detect
from acrst.simloop import label_pass


def pred(class_id, score):
    return Prediction(class_id=class_id, bbox=BBox(0, 0, 10, 10), score=score)


@pytest.fixture
def three_preds():
    # score clears / activation low; score low / activation clears; both clear.
    return [pred(1, 0.8), pred(2, 0.6), pred(3, 0.9)]


@pytest.fixture
def label():
    return ImageLevelLabel(image_id=1, activations=(0.1, 0.5, 0.3))


class TestTwoStageFilter:
    def test_and_keeps_only_doubly_confirmed(self, three_preds, label):
        config = FilterConfig(tau_cls=0.7, tau_ml=0.2, mode="two_stage_filtering")
        kept = two_stage_filter(three_preds, label, config)
        assert [(p.class_id, p.score) for p in kept] == [(3, 0.9)]

    def test_one_stage_ignores_label(self, three_preds):
        config = FilterConfig(tau_cls=0.7, mode="one_stage")
        kept = two_stage_filter(three_preds, None, config)
        assert [p.class_id for p in kept] == [1, 3]

    def test_two_stage_requires_label(self, three_preds):
        config = FilterConfig(mode="two_stage_filtering")
        with pytest.raises(ValueError):
            two_stage_filter(three_preds, None, config)

    def test_mining_mode_rejected(self, three_preds, label):
        config = FilterConfig(mode="two_stage_mining")
        with pytest.raises(ValueError):
            two_stage_filter(three_preds, label, config)

    def test_order_preserved(self, label):
        preds = [pred(3, 0.71), pred(3, 0.99), pred(3, 0.85)]
        config = FilterConfig(tau_cls=0.7, tau_ml=0.2, mode="two_stage_filtering")
        kept = two_stage_filter(preds, label, config)
        assert [p.score for p in kept] == [0.71, 0.99, 0.85]

    def test_thresholds_are_inclusive(self):
        config = FilterConfig(tau_cls=0.7, tau_ml=0.2, mode="two_stage_filtering")
        lab = ImageLevelLabel(image_id=1, activations=(0.2,))
        kept = two_stage_filter([pred(1, 0.7)], lab, config)
        assert len(kept) == 1


class TestTwoStageMining:
    def test_or_keeps_singly_confirmed(self, three_preds, label):
        config = FilterConfig(tau_cls=0.7, tau_ml=0.2, mode="two_stage_mining")
        kept = two_stage_mining(three_preds, label, config)
        assert [p.class_id for p in kept] == [1, 2, 3]

    def test_rejects_doubly_unconfirmed(self, label):
        config = FilterConfig(tau_cls=0.7, tau_ml=0.2, mode="two_stage_mining")
        kept = two_stage_mining([pred(1, 0.5)], label, config)
        assert kept == []


class TestSetRelations:
    """AND output is a subset of one-stage output; OR output a superset."""

    def test_random_predictions(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            n_classes = int(rng.integers(1, 6))
            preds = [
                pred(int(rng.integers(1, n_classes + 1)), float(rng.random()))
                for _ in range(int(rng.integers(0, 12)))
            ]
            lab = ImageLevelLabel(
                image_id=1, activations=tuple(rng.random(n_classes).tolist())
            )
            tau_cls = float(rng.random())
            tau_ml = float(rng.random())
            one = two_stage_filter(
                preds, None, FilterConfig(tau_cls, tau_ml, "one_stage")
            )
            both = two_stage_filter(
                preds, lab, FilterConfig(tau_cls, tau_ml, "two_stage_filtering")
            )
            either = two_stage_mining(
                preds, lab, FilterConfig(tau_cls, tau_ml, "two_stage_mining")
            )
            assert set(map(id, both)) <= set(map(id, one)) <= set(map(id, either))
            # Exact membership, element by element.
            for p in preds:
                act = lab.activation(p.class_id)
                assert (p in one) == (p.score >= tau_cls)
                assert (p in both) == (p.score >= tau_cls and act >= tau_ml)
                assert (p in either) == (p.score >= tau_cls or act >= tau_ml)


# Reference filters: the per-prediction filters the keep mask replaced, kept
# verbatim but for their mode checks.


def _ref_two_stage_filter(preds, image_label, config):
    if config.mode == "one_stage":
        return [p for p in preds if p.score >= config.tau_cls]
    return [
        p
        for p in preds
        if p.score >= config.tau_cls
        and image_label.activation(p.class_id) >= config.tau_ml
    ]


def _ref_two_stage_mining(preds, image_label, config):
    return [
        p
        for p in preds
        if p.score >= config.tau_cls
        or image_label.activation(p.class_id) >= config.tau_ml
    ]


_threshold = st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0])


class TestKeepMaskEquivalence:
    """The keep mask, given each prediction's score and the activation of its
    class, keeps what the per-prediction filters kept, in every mode."""

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 5),
        data=st.data(),
        tau_cls=_threshold,
        tau_ml=_threshold,
        mode=st.sampled_from(["one_stage", "two_stage_filtering", "two_stage_mining"]),
    )
    def test_matches_reference_filters(self, k, data, tau_cls, tau_ml, mode):
        activations = data.draw(st.lists(_threshold, min_size=k, max_size=k))
        label = ImageLevelLabel(image_id=1, activations=tuple(activations))
        preds = data.draw(st.lists(
            st.builds(pred, st.integers(1, k), st.one_of(_threshold, st.floats(0.0, 1.0))),
            max_size=10,
        ))
        config = FilterConfig(tau_cls, tau_ml, mode)
        scores = [p.score for p in preds]
        mask = keep_mask(scores, [label.activation(p.class_id) for p in preds], config).tolist()
        kept = [p for p, keep in zip(preds, mask) if keep]
        if mode == "two_stage_mining":
            want = _ref_two_stage_mining(preds, label, config)
            got = two_stage_mining(preds, label, config)
        else:
            want = _ref_two_stage_filter(preds, label, config)
            got = two_stage_filter(preds, label, config)
        assert list(map(id, kept)) == list(map(id, want)) == list(map(id, got))
        # The mining wrapper is the OR gate whatever mode the config names.
        assert two_stage_mining(preds, label, config) == _ref_two_stage_mining(preds, label, config)


def oracle_label(record, noise, rng, n_classes, tau_ml):
    """One image's validated label: :func:`oracle_activations` of every class,
    from two doubles per class drawn in one call, as the label pass draws them,
    with ``tau_ml`` as the low band's edge."""
    classes = {row[0] for row in record.truth_rows}
    present = np.array([c in classes for c in range(1, n_classes + 1)], dtype=bool)
    activations = oracle_activations(rng.random((n_classes, 2)), present, noise, tau_ml)
    return ImageLevelLabel(record.id, tuple(activations.tolist()))


class TestOracle:
    def record(self, class_ids, image_id=1):
        rows = tuple((c, 0, 0, 5, 5) for c in class_ids)
        return ImageRecord(id=image_id, width=100, height=100, truth_rows=rows)

    def test_noiseless_bands(self):
        noise = OracleNoise(fn_rate=0.0, fp_rate=0.0)
        rng = np.random.default_rng(0)
        rec = self.record([1, 3])
        lab = oracle_label(rec, noise, rng, n_classes=4, tau_ml=0.2)
        assert 0.6 <= lab.activation(1) <= 1.0
        assert lab.activation(2) < 0.2
        assert 0.6 <= lab.activation(3) <= 1.0
        assert lab.activation(4) < 0.2

    def test_low_band_bounded_by_tau_ml(self):
        noise = OracleNoise(fn_rate=0.0, fp_rate=0.0)
        rng = np.random.default_rng(1)
        rec = self.record([1])
        for _ in range(200):
            lab = oracle_label(rec, noise, rng, n_classes=2, tau_ml=0.05)
            assert lab.activation(2) < 0.05

    def test_error_rates_within_two_percent(self):
        noise = OracleNoise(fn_rate=0.1, fp_rate=0.3)
        rng = np.random.default_rng(2)
        rec = self.record([1])
        n = 20_000
        fn = fp = 0
        for _ in range(n):
            lab = oracle_label(rec, noise, rng, n_classes=2, tau_ml=0.2)
            fn += lab.activation(1) < 0.2
            fp += lab.activation(2) >= 0.6
        assert abs(fn / n - 0.1) < 0.02
        assert abs(fp / n - 0.3) < 0.02

    def test_always_fn_always_fp(self):
        noise = OracleNoise(fn_rate=1.0, fp_rate=1.0)
        rng = np.random.default_rng(3)
        lab = oracle_label(self.record([1]), noise, rng, n_classes=2, tau_ml=0.2)
        assert lab.activation(1) < 0.2
        assert lab.activation(2) >= 0.6

    def test_rate_validation(self):
        with pytest.raises(ConfigError, match=r"oracle\.fn_rate"):
            config_from_dict({"oracle": {"fn_rate": 1.5}})


def _per_class_oracle_labels(record, noise, rng, n_classes, tau_ml):
    """Reference oracle: one scalar draw for each band test and band value."""
    present = {row[0] for row in record.truth_rows}
    activations = []
    for class_id in range(1, n_classes + 1):
        if class_id in present:
            high = rng.random() >= noise.fn_rate
        else:
            high = rng.random() < noise.fp_rate
        if high:
            activations.append(float(rng.uniform(0.6, 1.0)))
        else:
            activations.append(float(rng.uniform(0.0, tau_ml)))
    return ImageLevelLabel(image_id=record.id, activations=tuple(activations))


_unit = st.one_of(
    st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False),
)
# The order in which a test reads an oracle label's classes; classes past
# the label's count are skipped.
_read_order = st.permutations(range(1, 13))


def _read(label, n_classes, order):
    """The label's activations in class order, read class by class in ``order``."""
    read = {c: label.activation(c) for c in order if c <= n_classes}
    return tuple(read[c] for c in range(1, n_classes + 1))


def _bulk_oracle_labels(record, noise, rng, n_classes, tau_ml):
    """Reference oracle: the bulk draw, every class's activation built into
    one validated :class:`ImageLevelLabel` per image."""
    present = {row[0] for row in record.truth_rows}
    fn_rate, fp_rate = noise.fn_rate, noise.fp_rate
    (high_lo, high_hi), low_lo = (0.6, 1.0), 0.0
    high_span, low_span = high_hi - high_lo, tau_ml - low_lo
    u = rng.random(2 * n_classes).tolist()
    activations = [
        high_lo + high_span * value
        if (test >= fn_rate if class_id in present else test < fp_rate)
        else low_lo + low_span * value
        for class_id, test, value in zip(range(1, n_classes + 1), u[0::2], u[1::2])
    ]
    return ImageLevelLabel(image_id=record.id, activations=tuple(activations))


_MODES = ("one_stage", "two_stage_filtering", "two_stage_mining")


class TestOracleEquivalence:
    """The bulk draw and the array activations give the per-class draws'
    labels and stream position, alone and in the label pass."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_classes=st.integers(0, 12),
        images=st.lists(st.lists(st.integers(1, 14), max_size=6), min_size=1, max_size=4),
        fn_rate=_unit,
        fp_rate=_unit,
        tau_ml=_unit,
        order=_read_order,
    )
    @example(seed=0, n_classes=3, images=[[1, 2, 3], []], fn_rate=0.0, fp_rate=0.0, tau_ml=0.2,
             order=list(range(1, 13)))
    @example(seed=1, n_classes=3, images=[[1, 2, 3], []], fn_rate=1.0, fp_rate=1.0, tau_ml=0.2,
             order=list(range(12, 0, -1)))
    @example(seed=2, n_classes=4, images=[[2]], fn_rate=1.0, fp_rate=0.0, tau_ml=0.0,
             order=list(range(1, 13)))
    @example(seed=3, n_classes=4, images=[[2]], fn_rate=0.0, fp_rate=1.0, tau_ml=1.0,
             order=list(range(1, 13)))
    def test_matches_per_class_draws(
        self, seed, n_classes, images, fn_rate, fp_rate, tau_ml, order
    ):
        noise = OracleNoise(fn_rate=fn_rate, fp_rate=fp_rate)
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        for image_id, class_ids in enumerate(images):
            rec = TestOracle().record(class_ids, image_id=image_id)
            got = oracle_label(rec, noise, rng_got, n_classes, tau_ml)
            want = _per_class_oracle_labels(rec, noise, rng_want, n_classes, tau_ml)
            assert _read(got, n_classes, order) == want.activations
        assert rng_got.random() == rng_want.random()

    @pytest.mark.parametrize("fn_rate", [0.0, 1.0])
    @pytest.mark.parametrize("fp_rate", [0.0, 1.0])
    @pytest.mark.parametrize("tau_ml", [0.0, 1.0])
    def test_rates_at_zero_and_one_bit_for_bit(self, fn_rate, fp_rate, tau_ml):
        noise = OracleNoise(fn_rate=fn_rate, fp_rate=fp_rate)
        images = [[1, 3], [], [2, 2, 4], [1, 2, 3, 4]]
        rng_got, rng_want = np.random.default_rng(5), np.random.default_rng(5)
        for image_id, class_ids in enumerate(images):
            rec = TestOracle().record(class_ids, image_id=image_id)
            got = oracle_label(rec, noise, rng_got, 4, tau_ml)
            want = _per_class_oracle_labels(rec, noise, rng_want, 4, tau_ml)
            assert [a.hex() for a in got.activations] == [a.hex() for a in want.activations]
        assert rng_got.random() == rng_want.random()
        # The label pass against one scalar draw per band test and band value.
        dataset = _dataset(images, 4)
        for mode in _MODES:
            config = ExperimentConfig(filter=FilterConfig(0.7, tau_ml, mode), oracle=noise)
            for indices in ([0, 1, 2, 3], [3, 1, 3, 0, 2]):
                _pass_matches_reference(
                    5, dataset, indices, _teacher(4), config, _per_class_oracle_labels
                )


@st.composite
def _pass_images(draw, k):
    """Images as lists of ground-truth classes; some have none."""
    return draw(st.lists(st.lists(st.integers(1, k), max_size=6), min_size=1, max_size=5))


def _dataset(images, k):
    records = tuple(TestOracle().record(truth, image_id=i + 1) for i, truth in enumerate(images))
    return Dataset(records, tuple(Category(c, f"class_{c}", c) for c in range(1, k + 1)))


def _teacher(k, recall=0.9, fp_rate=1.0, confusion_rate=0.3, sharpness=8.0):
    return DetectorParams(
        recall_skill=(recall,) * k, confusion_rate=confusion_rate, loc_skill=0.5,
        partial_rate=0.2, fp_rate=fp_rate, confidence_sharpness=sharpness,
    )


def _pass_matches_reference(seed, dataset, indices, teacher, config, oracle):
    """Run :func:`label_pass` and, side by side, a reference that labels image
    by image: detect, then the reference ``oracle``'s label in a two-stage
    mode, then the per-prediction filter on the image's predictions. Both must
    detect the same rows, keep the same ones and leave their generators in the
    same state. Returns the number of rows."""
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    cdfs, k = dataset.class_cdfs, dataset.num_classes
    fcfg = config.filter
    if not config.two_stage:
        fcfg = FilterConfig(fcfg.tau_cls, mode="one_stage")
    dets, keep, mixes = label_pass(teacher, dataset, indices, rng_got, config, cdfs)
    want_dets, want_keep = Detections(), []
    for i in indices:
        record = dataset.images[i]
        start = len(want_dets.score)
        detect(teacher, record, rng_want, cdfs, want_dets)
        two_stage = fcfg.mode != "one_stage"
        label = oracle(record, config.oracle, rng_want, k, fcfg.tau_ml) if two_stage else None
        preds = [pred(c, s) for c, s in zip(want_dets.class_id[start:], want_dets.score[start:])]
        ref = _ref_two_stage_mining if fcfg.mode == "two_stage_mining" else _ref_two_stage_filter
        kept = set(map(id, ref(preds, label, fcfg)))
        want_keep += [id(p) in kept for p in preds]
    assert list(dets.rows()) == list(want_dets.rows())
    assert dets.counts == want_dets.counts
    assert keep.tolist() == want_keep
    assert mixes == []
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    return len(want_keep)


class TestLoopGateEquivalence:
    """The label pass, which draws every image's oracle doubles into one array
    and sets all keep bits in one array pass, keeps what a full ImageLevelLabel
    per image and the per-prediction filters keep, row for row, in every mode
    and with the two_stage toggle off, and leaves the generator where they do."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
        k=st.integers(1, 12),
        fn_rate=_unit,
        fp_rate=_unit,
        tau_cls=_unit,
        tau_ml=_unit,
        mode=st.sampled_from(_MODES),
        two_stage=st.booleans(),
        recall=_unit,
        teacher_fp_rate=st.sampled_from([0.0, 0.5, 3.0]),
    )
    def test_matches_full_image_labels(
        self, seed, data, k, fn_rate, fp_rate, tau_cls, tau_ml, mode,
        two_stage, recall, teacher_fp_rate,
    ):
        images = data.draw(_pass_images(k))
        indices = data.draw(st.lists(st.integers(0, len(images) - 1), max_size=6))
        noise = OracleNoise(fn_rate=fn_rate, fp_rate=fp_rate)
        config = ExperimentConfig(
            filter=FilterConfig(tau_cls, tau_ml, mode), oracle=noise, two_stage=two_stage
        )
        teacher = _teacher(k, recall=recall, fp_rate=teacher_fp_rate)
        _pass_matches_reference(seed, _dataset(images, k), indices, teacher, config,
                                _bulk_oracle_labels)

    @pytest.mark.parametrize("mode", _MODES)
    @pytest.mark.parametrize("fn_rate", [0.0, 1.0])
    @pytest.mark.parametrize("fp_rate", [0.0, 1.0])
    @pytest.mark.parametrize("tau_ml", [0.0, 1.0])
    def test_rates_and_thresholds_at_zero_and_one(self, mode, fn_rate, fp_rate, tau_ml):
        # Images 1 and 3 have no ground truth, so a teacher without false
        # positives predicts nothing there; their labels are drawn all the same.
        images = [[1, 3], [], [2], [], [1, 2, 3, 4], [4]]
        noise = OracleNoise(fn_rate=fn_rate, fp_rate=fp_rate)
        for k in (4, 12):
            dataset = _dataset(images, k)
            for tau_cls in (0.0, 0.7, 1.0):
                config = ExperimentConfig(filter=FilterConfig(tau_cls, tau_ml, mode), oracle=noise)
                for teacher in (_teacher(k), _teacher(k, recall=1.0, fp_rate=0.0)):
                    _pass_matches_reference(7, dataset, range(6), teacher, config,
                                            _bulk_oracle_labels)

    def test_images_without_predictions_still_draw(self):
        dataset = _dataset([[], [], []], 5)
        rng, skipped = np.random.default_rng(3), np.random.default_rng(3)
        teacher = _teacher(5, fp_rate=0.0)
        dets, keep, _ = label_pass(teacher, dataset, [2, 0, 1], rng, ExperimentConfig(),
                                   dataset.class_cdfs)
        assert dets.counts == [0, 0, 0] and keep.tolist() == []
        skipped.random(3 * 10)  # two doubles per class, per image
        assert rng.bit_generator.state == skipped.bit_generator.state


class TestOneBandEdge:
    def test_hand_built_config_bounds_the_oracle_by_the_filter(self, monkeypatch):
        # A config built in Python has one tau_ml too: the echo and the low
        # band both follow the filter's, whatever OracleNoise says.
        config = ExperimentConfig(
            filter=FilterConfig(tau_ml=0.35), oracle=OracleNoise(fn_rate=1.0, fp_rate=0.0)
        )
        assert config.to_dict()["oracle"]["tau_ml"] == 0.35
        drawn = []

        def spy(*args):
            drawn.append(oracle_activations(*args))
            return drawn[-1]

        monkeypatch.setattr("acrst.simloop.oracle_activations", spy)
        dataset = _dataset([[1, 2], [3], [1, 2, 3, 4]] * 10, 4)
        rng = np.random.default_rng(0)
        label_pass(_teacher(4), dataset, range(30), rng, config, dataset.class_cdfs)
        # fn_rate 1 and fp_rate 0 put every activation in the low band.
        activations = np.concatenate(drawn)
        assert activations.size >= 50
        assert 0.2 < activations.max() < 0.35


class TestFilterConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ConfigError, match=r"filter\.tau_cls"):
            config_from_dict({"filter": {"tau_cls": 1.5}})
        with pytest.raises(ConfigError, match=r"filter\.tau_ml"):
            config_from_dict({"filter": {"tau_ml": -0.1}})

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match=r"filter\.mode"):
            config_from_dict({"filter": {"mode": "three_stage"}})

    def test_activation_bounds(self):
        with pytest.raises(ValueError):
            ImageLevelLabel(image_id=1, activations=(1.2,))
