import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acrst.config import ConfigError, config_from_dict
from acrst.dataset import BBox, ImageRecord, Instance, Prediction
from acrst.filtering import (
    FilterConfig,
    ImageLevelLabel,
    OracleNoise,
    keep_mask,
    oracle_image_labels,
    two_stage_filter,
    two_stage_mining,
)


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
    """The keep mask keeps what the per-prediction filters kept, in every mode."""

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
        mask = keep_mask([p.class_id for p in preds], [p.score for p in preds], label, config)
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


class TestOracle:
    def record(self, class_ids, image_id=1):
        gt = tuple(
            Instance(class_id=c, bbox=BBox(0, 0, 5, 5), source_image_id=image_id)
            for c in class_ids
        )
        return ImageRecord(id=image_id, width=100, height=100, ground_truth=gt)

    def test_noiseless_bands(self):
        noise = OracleNoise(fn_rate=0.0, fp_rate=0.0, tau_ml=0.2)
        rng = np.random.default_rng(0)
        rec = self.record([1, 3])
        lab = oracle_image_labels(rec, noise, rng, n_classes=4)
        assert 0.6 <= lab.activation(1) <= 1.0
        assert lab.activation(2) < 0.2
        assert 0.6 <= lab.activation(3) <= 1.0
        assert lab.activation(4) < 0.2

    def test_low_band_bounded_by_tau_ml(self):
        noise = OracleNoise(fn_rate=0.0, fp_rate=0.0, tau_ml=0.05)
        rng = np.random.default_rng(1)
        rec = self.record([1])
        for _ in range(200):
            lab = oracle_image_labels(rec, noise, rng, n_classes=2)
            assert lab.activation(2) < 0.05

    def test_error_rates_within_two_percent(self):
        noise = OracleNoise(fn_rate=0.1, fp_rate=0.3, tau_ml=0.2)
        rng = np.random.default_rng(2)
        rec = self.record([1])
        n = 20_000
        fn = fp = 0
        for _ in range(n):
            lab = oracle_image_labels(rec, noise, rng, n_classes=2)
            fn += lab.activation(1) < 0.2
            fp += lab.activation(2) >= 0.6
        assert abs(fn / n - 0.1) < 0.02
        assert abs(fp / n - 0.3) < 0.02

    def test_always_fn_always_fp(self):
        noise = OracleNoise(fn_rate=1.0, fp_rate=1.0, tau_ml=0.2)
        rng = np.random.default_rng(3)
        lab = oracle_image_labels(self.record([1]), noise, rng, n_classes=2)
        assert lab.activation(1) < 0.2
        assert lab.activation(2) >= 0.6

    def test_rate_validation(self):
        with pytest.raises(ConfigError, match=r"oracle\.fn_rate"):
            config_from_dict({"oracle": {"fn_rate": 1.5}})


def _per_class_oracle_labels(record, noise, rng, n_classes):
    """Reference oracle: one scalar draw for each band test and band value."""
    present = {inst.class_id for inst in record.ground_truth}
    activations = []
    for class_id in range(1, n_classes + 1):
        if class_id in present:
            high = rng.random() >= noise.fn_rate
        else:
            high = rng.random() < noise.fp_rate
        if high:
            activations.append(float(rng.uniform(0.6, 1.0)))
        else:
            activations.append(float(rng.uniform(0.0, noise.tau_ml)))
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


def _bulk_oracle_labels(record, noise, rng, n_classes):
    """Reference oracle: the bulk draw, every class's activation built into
    one validated :class:`ImageLevelLabel` per image."""
    present, fn_rate, fp_rate = record.class_ids, noise.fn_rate, noise.fp_rate
    (high_lo, high_hi), low_lo = (0.6, 1.0), 0.0
    high_span, low_span = high_hi - high_lo, noise.tau_ml - low_lo
    u = rng.random(2 * n_classes).tolist()
    activations = [
        high_lo + high_span * value
        if (test >= fn_rate if class_id in present else test < fp_rate)
        else low_lo + low_span * value
        for class_id, test, value in zip(range(1, n_classes + 1), u[0::2], u[1::2])
    ]
    return ImageLevelLabel(image_id=record.id, activations=tuple(activations))


class TestOracleEquivalence:
    """The bulk draw gives the per-class draws' labels and stream position."""

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
        noise = OracleNoise(fn_rate=fn_rate, fp_rate=fp_rate, tau_ml=tau_ml)
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        for image_id, class_ids in enumerate(images):
            rec = TestOracle().record(class_ids, image_id=image_id)
            got = oracle_image_labels(rec, noise, rng_got, n_classes)
            want = _per_class_oracle_labels(rec, noise, rng_want, n_classes)
            assert _read(got, n_classes, order) == want.activations
        assert rng_got.random() == rng_want.random()

    @pytest.mark.parametrize("fn_rate", [0.0, 1.0])
    @pytest.mark.parametrize("fp_rate", [0.0, 1.0])
    @pytest.mark.parametrize("tau_ml", [0.0, 1.0])
    def test_rates_at_zero_and_one_bit_for_bit(self, fn_rate, fp_rate, tau_ml):
        noise = OracleNoise(fn_rate=fn_rate, fp_rate=fp_rate, tau_ml=tau_ml)
        rng_got, rng_want = np.random.default_rng(5), np.random.default_rng(5)
        for image_id, class_ids in enumerate([[1, 3], [], [2, 2, 4], [1, 2, 3, 4]]):
            rec = TestOracle().record(class_ids, image_id=image_id)
            # Twice per record: the second call reads the classes the record kept.
            for _ in range(2):
                got = oracle_image_labels(rec, noise, rng_got, 4)
                want = _per_class_oracle_labels(rec, noise, rng_want, 4)
                got_hex = [a.hex() for a in _read(got, 4, range(4, 0, -1))]
                assert got_hex == [a.hex() for a in want.activations]
        assert rng_got.random() == rng_want.random()


_MODES = ("one_stage", "two_stage_filtering", "two_stage_mining")


@st.composite
def _gate_images(draw, k):
    """Images as (ground-truth classes, prediction classes, prediction scores);
    some have no ground truth or no predictions."""
    images = []
    for _ in range(draw(st.integers(1, 4))):
        truth = draw(st.lists(st.integers(1, k), max_size=6))
        n = draw(st.integers(0, 8))
        classes = draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
        scores = draw(st.lists(st.one_of(_unit, st.just(0.7)), min_size=n, max_size=n))
        images.append((truth, classes, scores))
    return images


def _gate_matches_reference(seed, k, images, noise, config):
    """Run the loop's gate (the oracle's draw, then keep_mask, on every image)
    and the reference gate side by side; both must keep the same rows and
    leave their generators in the same state."""
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    two_stage = config.mode != "one_stage"
    for image_id, (truth, classes, scores) in enumerate(images):
        rec = TestOracle().record(truth, image_id=image_id)
        label = oracle_image_labels(rec, noise, rng_got, k) if two_stage else None
        ref = _bulk_oracle_labels(rec, noise, rng_want, k) if two_stage else None
        assert keep_mask(classes, scores, label, config) == keep_mask(classes, scores, ref, config)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


class TestLoopGateEquivalence:
    """The loop's gate, an oracle label whose activations are worked out only
    for the classes keep_mask reads, keeps what a full ImageLevelLabel built
    from the same draw keeps, row for row, in every mode."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
        k=st.integers(1, 12),
        fn_rate=_unit,
        fp_rate=_unit,
        oracle_tau_ml=_unit,
        tau_cls=_unit,
        tau_ml=_unit,
        mode=st.sampled_from(_MODES),
    )
    def test_matches_full_image_labels(
        self, seed, data, k, fn_rate, fp_rate, oracle_tau_ml, tau_cls, tau_ml, mode
    ):
        images = data.draw(_gate_images(k))
        noise = OracleNoise(fn_rate=fn_rate, fp_rate=fp_rate, tau_ml=oracle_tau_ml)
        _gate_matches_reference(seed, k, images, noise, FilterConfig(tau_cls, tau_ml, mode))

    @pytest.mark.parametrize("mode", _MODES)
    @pytest.mark.parametrize("fn_rate", [0.0, 1.0])
    @pytest.mark.parametrize("fp_rate", [0.0, 1.0])
    @pytest.mark.parametrize("tau_ml", [0.0, 1.0])
    def test_rates_and_thresholds_at_zero_and_one(self, mode, fn_rate, fp_rate, tau_ml):
        # Two images have no predictions; their labels are drawn all the same.
        images = [
            ([1, 3], [1, 2, 3, 3], [0.9, 0.1, 0.7, 0.0]),
            ([], [], []),
            ([2], [1, 2, 4], [1.0, 0.5, 0.69]),
            ([1, 2, 3, 4], [], []),
            ([4], [4], [0.7]),
        ]
        noise = OracleNoise(fn_rate=fn_rate, fp_rate=fp_rate, tau_ml=tau_ml)
        for k in (4, 12):
            for tau_cls in (0.0, 0.7, 1.0):
                config = FilterConfig(tau_cls, tau_ml, mode)
                _gate_matches_reference(7, k, images, noise, config)

    def test_images_without_predictions_still_draw(self):
        noise = OracleNoise()
        rng, skipped = np.random.default_rng(3), np.random.default_rng(3)
        label = oracle_image_labels(TestOracle().record([1]), noise, rng, 5)
        assert keep_mask([], [], label, FilterConfig()) == []
        assert len(label) == 0  # no activation was worked out
        skipped.random(10)
        assert rng.bit_generator.state == skipped.bit_generator.state


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
