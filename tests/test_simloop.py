import dataclasses
import json
import logging
import math

import pytest

from acrst import simloop
from acrst.api import BBox, ImageLevelLabel, Instance, PastePlacement
from acrst.config import ConfigError, DetectorConfig, ExperimentConfig
from acrst.cropbank import build_labeled_bank, refresh_pseudo_bank
from acrst.dataset import Dataset, ImageRecord, parse_coco_annotations, split_standard
from acrst.filtering import FilterConfig, OracleNoise
from acrst.model import LossBreakdown
from acrst.rebalance import SamplingDistribution, affr_distribution
from acrst.seeding import derive_seed, substream
from acrst.simloop import (
    EPOCH_CSV_COLUMNS,
    EpochTrace,
    LoopState,
    pretrain,
    run_epoch,
    run_experiment,
)
from acrst.synthdata import synthetic_dataset


def one_image_coco():
    """Eight images, with all three annotations on image 1."""
    return {
        "images": [{"id": i, "width": 100, "height": 100} for i in range(1, 9)],
        "annotations": [
            {"id": a, "image_id": 1, "category_id": 1, "bbox": [10 * a, 10, 20, 20]}
            for a in range(1, 4)
        ],
        "categories": [{"id": 1, "name": "thing"}],
    }


def quick_config(**overrides):
    """Small, fast settings with training rates high enough to show movement."""
    base = dict(
        seed=3,
        split_fraction=0.25,
        epochs=7,
        pretrain_epochs=3,
        labeled_batch=8,
        unlabeled_batch=8,
        batches_per_epoch=2,
        proposal_budget=64,
        detector=DetectorConfig(initial_recall_skill=0.7, lr=0.2, ema_alpha=0.7),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    return synthetic_dataset(48, 4, seed=9)


@pytest.fixture(scope="module")
def report(corpus):
    return run_experiment(quick_config(), corpus)


def initial_state(config, corpus):
    labeled, unlabeled = split_standard(
        corpus, config.split_fraction, derive_seed(config.seed, "split")
    )
    student = pretrain(config, labeled, substream(config.seed, "pretrain"))
    return LoopState(
        teacher=student,
        student=student,
        bank=build_labeled_bank(labeled),
        labeled=labeled,
        unlabeled=unlabeled,
    )


class TestDeterminism:
    def test_byte_identical_reports(self, corpus):
        config = quick_config()
        a = run_experiment(config, corpus)
        b = run_experiment(config, corpus)
        assert a.to_json() == b.to_json()
        assert a.epochs_csv() == b.epochs_csv()

    def test_seed_changes_report(self, corpus):
        a = run_experiment(quick_config(seed=3), corpus)
        b = run_experiment(quick_config(seed=4), corpus)
        assert a.to_json() != b.to_json()


class TestLoopStructure:
    def test_trace_count_and_numbering(self, corpus):
        report = run_experiment(quick_config(), corpus)
        assert len(report.traces) == 7 - 3
        assert [t.epoch for t in report.traces] == [0, 1, 2, 3]

    def test_zero_mutual_epochs(self, corpus):
        report = run_experiment(quick_config(epochs=3, pretrain_epochs=3), corpus)
        assert report.traces == ()
        assert report.summary["epochs_run"] == 0
        assert "final" not in report.summary

    def test_run_epoch_advances_state(self, corpus):
        config = quick_config()
        state = initial_state(config, corpus)
        new_state, trace = run_epoch(state, config, substream(config.seed, "epoch", 0))
        assert new_state.epoch == 1
        assert trace.epoch == 0
        assert new_state.student != state.student
        assert new_state.labeled is state.labeled

    def test_bank_turnover_period_one(self, corpus):
        report = run_experiment(quick_config(refresh_period=1), corpus)
        traces = report.traces
        assert traces[0].n_u == 0
        for prev, cur in zip(traces, traces[1:]):
            assert cur.n_u == prev.n_pseudo

    def test_bank_turnover_period_two(self, corpus):
        report = run_experiment(quick_config(refresh_period=2, epochs=8), corpus)
        traces = report.traces
        # Refresh fires on even epochs, so odd-epoch banks persist one epoch.
        assert traces[1].n_u == traces[0].n_pseudo
        assert traces[2].n_u == traces[1].n_u

    def test_refresh_only_on_period_epochs(self, corpus, monkeypatch):
        config = quick_config(refresh_period=3)
        refreshed = []

        def recording(bank, dets, kept):
            refreshed.append(epoch)
            return refresh_pseudo_bank(bank, dets, kept)

        monkeypatch.setattr(simloop, "refresh_pseudo_bank", recording)
        state = first = initial_state(config, corpus)
        for epoch in range(8):
            new_state, _ = run_epoch(state, config, substream(config.seed, "epoch", epoch))
            # An off-period epoch passes on the very bank it was given.
            assert (new_state.bank is state.bank) == (epoch % 3 != 0)
            assert new_state.bank.labeled_bank is first.bank.labeled_bank
            state = new_state
        assert refreshed == [0, 3, 6]


class TestToggleMechanics:
    def test_selective_off_has_zero_unsup_regression(self, corpus):
        report = run_experiment(
            quick_config(selective_supervision=False), corpus
        )
        for t in report.traces:
            assert t.unsup_loss.rpn_reg == 0.0
            assert t.unsup_loss.roi_reg == 0.0

    def test_selective_on_has_unsup_regression(self, corpus):
        report = run_experiment(quick_config(selective_supervision=True), corpus)
        assert any(t.unsup_loss.rpn_reg > 0.0 for t in report.traces)

    def test_supervised_regression_always_present(self, corpus):
        report = run_experiment(
            quick_config(selective_supervision=False), corpus
        )
        assert all(t.sup_loss.rpn_reg > 0.0 for t in report.traces)

    def test_no_mixing_pastes_nothing(self, corpus):
        report = run_experiment(quick_config(fbr=False, affr=False), corpus)
        for t in report.traces:
            assert sum(t.pasted_counts) == 0

    def test_affr_alone_pastes_nothing(self, corpus):
        # AFFR only chooses which crops FBR pastes; without FBR nothing is.
        report = run_experiment(quick_config(fbr=False, affr=True), corpus)
        for t in report.traces:
            assert set(t.pasted_counts) == {0}

    def test_paste_budget_fully_spent(self, corpus):
        config = quick_config(fbr=True)
        report = run_experiment(config, corpus)
        expected = (
            config.batches_per_epoch
            * config.unlabeled_batch
            * config.paste.crops_per_image
        )
        for t in report.traces:
            assert sum(t.pasted_counts) == expected

    def test_mixing_raises_foreground_ratio(self, corpus):
        with_mix = run_experiment(quick_config(fbr=True, affr=False), corpus)
        without = run_experiment(quick_config(fbr=False, affr=False), corpus)
        mean_with = sum(t.fg_ratio for t in with_mix.traces) / len(with_mix.traces)
        mean_without = sum(t.fg_ratio for t in without.traces) / len(without.traces)
        assert mean_with > mean_without

    def test_uniform_sampling_when_affr_off(self, corpus):
        report = run_experiment(quick_config(fbr=True, affr=False), corpus)
        for t in report.traces:
            assert all(math.isclose(m, 0.25, abs_tol=1e-12) for m in t.mu)

    def test_adaptive_sampling_when_affr_on(self, corpus):
        report = run_experiment(quick_config(fbr=True, affr=True), corpus)
        final = report.traces[-1]
        assert max(final.mu) - min(final.mu) > 1e-9

    def test_two_stage_gate_blocks_on_dead_oracle(self, corpus):
        # An oracle that never activates makes the AND filter reject all
        # pseudo-labels; switching the stage off restores score-only filtering.
        oracle = OracleNoise(fn_rate=1.0, fp_rate=0.0)
        gated = run_experiment(quick_config(oracle=oracle, two_stage=True), corpus)
        open_gate = run_experiment(quick_config(oracle=oracle, two_stage=False), corpus)
        assert all(t.n_pseudo == 0 for t in gated.traces)
        assert any(t.n_pseudo > 0 for t in open_gate.traces)
        # With nothing kept, accuracy is vacuously 1 and no pair has an IoU.
        for t in gated.traces:
            assert (t.pseudo_acc, t.pseudo_rec, t.box_miou) == (1.0, 0.0, 0.0)
        # Recall is vacuously 1 as well where the unlabeled side has no truth:
        # every annotation sits on image 1, and this split labels it.
        no_truth = parse_coco_annotations(json.dumps(one_image_coco()))
        seed = next(
            s for s in range(50)
            if split_standard(no_truth, 0.25, derive_seed(s, "split"))[0].class_counts.sum()
        )
        blind = run_experiment(quick_config(seed=seed, oracle=oracle), no_truth)
        assert blind.traces
        for t in blind.traces:
            assert (t.n_pseudo, t.pseudo_acc, t.pseudo_rec, t.box_miou) == (0, 1.0, 1.0, 0.0)

    def test_mining_keeps_low_score_correct_predictions(self, corpus):
        # Low starting skill puts scores under tau_cls; a perfect oracle then
        # feeds the OR variant but not the AND variant.
        from dataclasses import replace

        detector = DetectorConfig(initial_recall_skill=0.35, lr=0.2, ema_alpha=0.7)
        oracle = OracleNoise(fn_rate=0.0, fp_rate=0.0)
        base = quick_config(
            detector=detector, oracle=oracle, epochs=4, pretrain_epochs=3
        )
        mining = replace(base, filter=FilterConfig(mode="two_stage_mining"))
        filtering = replace(base, filter=FilterConfig(mode="two_stage_filtering"))
        mined = run_experiment(mining, corpus)
        filtered = run_experiment(filtering, corpus)
        assert mined.traces[0].n_pseudo > filtered.traces[0].n_pseudo


ZERO_RECALL_WARNING = "every pseudo recall is zero"


def zero_recall_warnings(caplog):
    return [r for r in caplog.records if ZERO_RECALL_WARNING in r.getMessage()]


class TestPseudoLabelsStayColumns:
    """A pseudo-label is a row of the epoch's columns, never an object, and
    pasting works on those rows and the bank's crop rows."""

    @staticmethod
    def count_objects(monkeypatch):
        made = []
        for cls in (Instance, BBox, ImageRecord, PastePlacement):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                made.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        return made

    def run_epochs(self, config, corpus, monkeypatch):
        state = initial_state(config, corpus)
        made = self.count_objects(monkeypatch)
        for epoch in range(3):
            state, trace = run_epoch(state, config, substream(config.seed, "epoch", epoch))
        assert trace.n_pseudo > 0 and state.bank.n_pseudo > 0
        return made, trace

    def test_no_instance_without_pasting(self, corpus, monkeypatch):
        made, _ = self.run_epochs(quick_config(fbr=False), corpus, monkeypatch)
        assert made == []

    def test_pasting_builds_no_objects(self, corpus, monkeypatch):
        made, trace = self.run_epochs(quick_config(), corpus, monkeypatch)
        assert sum(trace.pasted_counts) > 0
        assert made == []
        # The counter does see objects: one record and one instance built by hand.
        ImageRecord(1, 10, 10, ((1, 0, 0, 5, 5),))
        Instance(1, BBox(0, 0, 5, 5), 1)
        assert made == ["ImageRecord", "BBox", "Instance"]


class _DrawLog:
    """A generator that notes the shape of every draw made into an array and
    passes every call on to ``rng``, so the stream is unchanged."""

    def __init__(self, rng):
        self.rng, self.into = rng, []

    def random(self, *args, out=None, **kwargs):
        if out is not None:
            self.into.append(out.shape)
        return self.rng.random(*args, out=out, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestOracleGate:
    """A two-stage epoch makes one oracle draw, two doubles per class, per
    image it labels, and builds no ImageLevelLabel for any of them."""

    @pytest.mark.parametrize("mode", ["two_stage_filtering", "two_stage_mining"])
    def test_no_image_level_label_per_image(self, corpus, monkeypatch, mode):
        config = quick_config(filter=FilterConfig(mode=mode))
        state = plain = initial_state(config, corpus)
        built = []

        def counting_init(self, *args, _init=ImageLevelLabel.__init__, **kwargs):
            built.append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(ImageLevelLabel, "__init__", counting_init)
        draws = []
        for epoch in range(3):
            rng = _DrawLog(substream(config.seed, "epoch", epoch))
            state, trace = run_epoch(state, config, rng)
            plain, plain_trace = run_epoch(plain, config, substream(config.seed, "epoch", epoch))
            assert trace == plain_trace
            draws += rng.into
        assert trace.n_pseudo > 0
        assert built == []
        # Every batch image, then every unlabeled image once for evaluation.
        n_unl = len(state.unlabeled.images)
        per_epoch = config.batches_per_epoch * min(config.unlabeled_batch, n_unl) + n_unl
        assert draws == [(corpus.num_classes, 2)] * (3 * per_epoch)
        # The counter does see labels built by hand.
        ImageLevelLabel(image_id=1, activations=(0.5,))
        assert len(built) == 1


class TestZeroRecallWarning:
    """The empty pseudo bank before the first refresh is expected, not abnormal."""

    def test_silent_before_first_refresh(self, corpus, caplog):
        config = quick_config()
        assert config.affr
        state = initial_state(config, corpus)
        with caplog.at_level(logging.WARNING):
            _, trace = run_epoch(state, config, substream(config.seed, "epoch", 0))
        assert not zero_recall_warnings(caplog)
        assert trace.mu == SamplingDistribution.uniform(corpus.num_classes).mu

    def test_later_empty_bank_still_warns(self, corpus, caplog):
        config = quick_config()
        state = dataclasses.replace(initial_state(config, corpus), epoch=1)
        with caplog.at_level(logging.WARNING):
            _, trace = run_epoch(state, config, substream(config.seed, "epoch", 1))
        assert zero_recall_warnings(caplog)
        assert trace.mu == SamplingDistribution.uniform(corpus.num_classes).mu

    def test_direct_call_still_warns(self, caplog):
        with caplog.at_level(logging.WARNING):
            dist = affr_distribution([0, 0, 0], 1.0)
        assert zero_recall_warnings(caplog)
        assert dist.mu == SamplingDistribution.uniform(3).mu


class TestPretrain:
    def test_improves_recall(self, corpus):
        config = quick_config()
        labeled, _ = split_standard(corpus, 0.25, derive_seed(3, "split"))
        params = pretrain(config, labeled, substream(3, "pretrain"))
        assert all(s > 0.7 for s in params.recall_skill)

    def test_zero_epochs_returns_initial(self, corpus):
        config = quick_config(epochs=0, pretrain_epochs=0)
        labeled, _ = split_standard(corpus, 0.25, derive_seed(3, "split"))
        params = pretrain(config, labeled, substream(3, "pretrain"))
        assert params == config.detector.build(labeled.num_classes)

    def test_empty_labeled_raises(self, corpus):
        empty = Dataset(images=(), categories=corpus.categories)
        with pytest.raises(ConfigError):
            pretrain(quick_config(), empty, substream(0, "pretrain"))


class TestRunExperimentGuards:
    def test_empty_dataset(self):
        with pytest.raises(ConfigError):
            run_experiment(quick_config(), Dataset(images=(), categories=()))

    def test_labeled_split_without_instances(self):
        # Every annotation sits on image 1; find a seed whose split leaves it
        # unlabeled, so the labeled bank holds no crop for fbr to paste.
        corpus = parse_coco_annotations(json.dumps(one_image_coco()))
        seed = next(
            s for s in range(50)
            if not split_standard(corpus, 0.25, derive_seed(s, "split"))[0].class_counts.sum()
        )
        with pytest.raises(ConfigError, match="labeled split drew no instances"):
            run_experiment(quick_config(seed=seed, fbr=True), corpus)
        # Without pasting the same split runs to the end.
        report = run_experiment(quick_config(seed=seed, fbr=False), corpus)
        assert len(report.traces) == 4

    def test_degenerate_split(self):
        tiny = synthetic_dataset(4, 2, seed=1)
        with pytest.raises(ConfigError):
            run_experiment(quick_config(split_fraction=0.05), tiny)


class TestReportSerialization:
    def test_json_shape(self, report):
        text = report.to_json()
        assert text.endswith("\n")
        data = json.loads(text)
        assert set(data) == {"config", "seed", "categories", "epochs", "summary"}
        assert data["seed"] == 3
        assert len(data["epochs"]) == len(report.traces)
        assert data["config"]["toggles"]["fbr"] is True

    def test_json_keys_sorted(self, report):
        text = report.to_json()
        assert text == json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"

    def test_csv_shape(self, report):
        lines = report.epochs_csv().split("\n")
        assert lines[0] == ",".join(EPOCH_CSV_COLUMNS)
        assert lines[-1] == ""
        rows = lines[1:-1]
        assert len(rows) == len(report.traces)
        for row in rows:
            values = row.split(",")
            assert len(values) == len(EPOCH_CSV_COLUMNS)
            for v in values:
                float(v)

    def test_summary_final_matches_last_trace(self, report):
        final = report.traces[-1]
        for column in EPOCH_CSV_COLUMNS:
            if column == "epoch":
                continue
            assert report.summary["final"][column] == getattr(final, column)

    def test_categories_echoed(self, report, corpus):
        assert len(report.categories) == len(corpus.categories)
        assert report.categories[0]["name"] == corpus.categories[0].name


class TestTraceValidation:
    def test_rejects_non_finite(self):
        zero = LossBreakdown(0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            EpochTrace(
                epoch=0,
                sup_loss=zero,
                unsup_loss=zero,
                total_loss=float("nan"),
                fg_ratio=0.1,
                kld=0.0,
                pseudo_acc=1.0,
                pseudo_rec=1.0,
                box_miou=0.5,
                ap50=0.5,
                ap5095=0.3,
                n_pseudo=0,
                n_u=0,
                pr=(0.0,),
                mu=(1.0,),
                class_exposure=(0,),
                pasted_counts=(0,),
            )
