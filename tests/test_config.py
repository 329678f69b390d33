import json
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acrst.cli import _build_dataset, _sweep_plan
from acrst.config import SCHEMA, ConfigError, ExperimentConfig, config_from_dict
from acrst.simloop import run_experiment

README = Path(__file__).resolve().parents[1] / "README.md"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestOracleTauMl:
    """The oracle's low band and the filter's image-level gate share tau_ml:
    the filter owns it, and the echo repeats it under the oracle."""

    def test_absent_oracle_tau_ml_takes_filter_tau_ml(self):
        config = config_from_dict({"filter": {"tau_ml": 0.05}, "oracle": {"fn_rate": 0.1}})
        assert config.to_dict()["oracle"]["tau_ml"] == 0.05
        assert config.oracle.fn_rate == 0.1

    def test_absent_sections_share_the_default(self):
        echo = config_from_dict({}).to_dict()
        assert echo["oracle"]["tau_ml"] == echo["filter"]["tau_ml"] == 0.2

    def test_equal_explicit_value_rejected(self):
        # oracle.tau_ml is filter.tau_ml, so it is no key of its own.
        with pytest.raises(ConfigError, match=r"oracle\.tau_ml"):
            config_from_dict({"filter": {"tau_ml": 0.3}, "oracle": {"tau_ml": 0.3}})

    @pytest.mark.parametrize(
        "data",
        [
            {"filter": {"tau_ml": 0.5}, "oracle": {"tau_ml": 0.05}},
            # filter.tau_ml left at its default of 0.2.
            {"oracle": {"tau_ml": 0.05}},
        ],
    )
    def test_differing_oracle_tau_ml_rejected(self, data):
        with pytest.raises(ConfigError, match=r"oracle\.tau_ml"):
            config_from_dict(data)

    def test_config_echo_of_shipped_settings(self):
        # The shipped configs set filter.tau_ml to 0.2 and leave oracle.tau_ml
        # out, so their echo shows 0.2 for both.
        echo = config_from_dict({"filter": {"tau_ml": 0.2}}).to_dict()
        assert echo["oracle"]["tau_ml"] == echo["filter"]["tau_ml"] == 0.2


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)

_SECTION_KEYS: dict[str, list[str]] = {}
for _key in SCHEMA:
    if "." in _key:
        _section, _name = _key.split(".")
        _SECTION_KEYS.setdefault(_section, []).append(_name)
_TOP_LEVEL_KEYS = [key for key in SCHEMA if "." not in key] + [*_SECTION_KEYS, "sweep"]


@st.composite
def _document(draw):
    """A config with one known top-level key; a section may hold known keys."""
    key = draw(st.sampled_from(_TOP_LEVEL_KEYS))
    value = _JSON
    if key in _SECTION_KEYS:
        value |= st.dictionaries(st.sampled_from(_SECTION_KEYS[key]), _JSON, max_size=3)
    return {key: draw(value)}


class TestIllTypedValues:
    """Any JSON value under a known key parses or is a ConfigError, never a crash."""

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(data=_document())
    def test_parses_or_raises_config_error(self, data):
        try:
            config_from_dict(data)
        except ConfigError:
            pass

    @pytest.mark.parametrize(
        "data, named",
        [
            ({"paste": []}, "'paste'"),
            ({"toggles": False}, "'toggles'"),
            ({"seed": True}, "seed"),
            ({"epochs": 30.0}, "epochs"),
            ({"split_fraction": "0.2"}, "split_fraction"),
            ({"oracle": {"fn_rate": [0.1]}}, "oracle"),
            ({"toggles": {"fbr": "no"}}, "toggles.fbr"),
            ({"detector": {"initial_recall_skill": [0.5, 1.5]}}, "detector.initial_recall_skill"),
            ({"paste": {"rescale_min": 2.0}}, "paste.rescale_min"),
            ({"dataset": {"type": "coco_json"}}, "dataset.path"),
            ({"epochs": 3, "pretrain_epochs": 4}, "pretrain_epochs"),
            ({"dataset.images": 5}, "dataset.images"),
        ],
    )
    def test_named_in_the_error(self, data, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            config_from_dict(data)

    def test_null_section_takes_the_defaults(self):
        assert config_from_dict({"paste": None}) == config_from_dict({})


class TestOverrides:
    """Partial documents merged over a config document, in order, key by key."""

    def test_top_level_key_replaced_and_section_keys_merged(self):
        config = config_from_dict(
            {"epochs": 10, "paste": {"beta": 2.0, "crops_per_image": 3}},
            {"epochs": 12, "paste": {"beta": 0.5}},
        )
        assert config.epochs == 12
        assert (config.paste.beta, config.paste.crops_per_image) == (0.5, 3)

    def test_later_document_wins(self):
        config = config_from_dict({}, {"seed": 1, "toggles": {"fbr": False}}, {"seed": 2})
        assert (config.seed, config.fbr, config.affr) == (2, False, True)

    def test_null_section_changes_nothing(self):
        base = {"paste": {"beta": 2.0}}
        assert config_from_dict(base, {"paste": None}) == config_from_dict(base)

    def test_rules_run_once_on_the_merged_result(self):
        with pytest.raises(ConfigError, match="epochs must be >= pretrain_epochs"):
            config_from_dict({"epochs": 4, "pretrain_epochs": 2}, {"pretrain_epochs": 5})
        # The rule would fail between the two overrides; only the result counts.
        config = config_from_dict(
            {"epochs": 4, "pretrain_epochs": 2}, {"pretrain_epochs": 6}, {"epochs": 8}
        )
        assert (config.epochs, config.pretrain_epochs) == (8, 6)

    def test_oracle_tau_ml_follows_the_merged_filter(self):
        config = config_from_dict({"filter": {"tau_ml": 0.2}}, {"filter": {"tau_ml": 0.3}})
        echo = config.to_dict()
        assert echo["oracle"]["tau_ml"] == echo["filter"]["tau_ml"] == 0.3

    @pytest.mark.parametrize(
        "override, named",
        [
            ({"toggles": {"warp": True}}, "toggles.warp"),
            ({"split_fraction": 1.5}, "split_fraction"),
            ({"paste": 3}, "'paste'"),
            ({"sweep": {"runs": []}}, "'sweep'"),
            ([1], "JSON object"),
        ],
    )
    def test_override_keys_are_checked(self, override, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            config_from_dict({}, override)

    def test_base_sweep_section_is_skipped(self):
        assert config_from_dict({"sweep": {"runs": []}}) == config_from_dict({})


class TestShippedConfigs:
    def test_label_fraction_study_builds_every_run(self):
        """The example config's three sweep arms at four labeled shares, five seeds each."""
        raw = json.loads((CONFIGS / "label_fraction.json").read_text(encoding="utf-8"))
        example = json.loads((CONFIGS / "example.json").read_text(encoding="utf-8"))
        assert {k: v for k, v in raw.items() if k != "sweep"} == {
            k: v for k, v in example.items() if k != "sweep"
        }
        runs, seeds = _sweep_plan(raw)
        assert seeds == [101, 202, 303, 404, 505]
        arms = [run["toggles"] for run in example["sweep"]["runs"]]
        assert [(run["split_fraction"], run["toggles"]) for run in runs] == [
            (fraction, arm) for fraction in (0.05, 0.1, 0.2, 0.4) for arm in arms
        ]
        for run in runs:
            run_doc = {k: v for k, v in run.items() if k != "name"}
            for seed in seeds:
                # Nothing but the share, the toggles and the seed leaves the example's value.
                assert config_from_dict(raw, run_doc, {"seed": seed}) == config_from_dict(
                    example, {"seed": seed, "split_fraction": run["split_fraction"]},
                    {"toggles": run["toggles"]},
                )


class TestSchema:
    """One table names every config field, and README shows the same table."""

    def test_every_field_has_one_table_key(self):
        config = ExperimentConfig()
        want = set()
        for f in fields(config):
            value = getattr(config, f.name)
            if f.name in _SECTION_KEYS:
                want |= {f"{f.name}.{sub.name}" for sub in fields(value)}
            elif isinstance(value, bool):
                want.add(f"toggles.{f.name}")
            else:
                want.add(f.name)
        assert set(SCHEMA) == want
        # Echoed, not a field: the oracle's low band ends at the filter's gate.
        echo = config.to_dict()
        assert echo["oracle"]["tau_ml"] == echo["filter"]["tau_ml"]

    def test_readme_rows_equal_the_table(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip().strip("`").replace("\\|", "|") for c in re.split(r"(?<!\\)\|", line)]
            if len(cells) > 4 and cells[1] not in ("key", "") and not set(cells[1]) <= {"-"}:
                rows[cells[1]] = (cells[2], cells[3])
        assert rows == SCHEMA

    def test_values_are_echoed_uncoerced(self):
        echo = config_from_dict(
            {"lambda_unsup": 2, "detector": {"initial_recall_skill": [0, 0.5]}}
        ).to_dict()
        assert echo["lambda_unsup"] == 2 and isinstance(echo["lambda_unsup"], int)
        assert list(echo["detector"]["initial_recall_skill"]) == [0, 0.5]


# A run small enough to take one mutual epoch in a few milliseconds.
_TINY = {
    "seed": 3,
    "split_fraction": 0.25,
    "epochs": 1,
    "pretrain_epochs": 0,
    "labeled_batch": 2,
    "unlabeled_batch": 4,
    "batches_per_epoch": 1,
    "proposal_budget": 32,
    "dataset": {"images": 12, "classes": 3},
    "detector": {"initial_recall_skill": 0.6, "lr": 0.2, "ema_alpha": 0.7},
}

_SMALL_FLOATS = st.sampled_from([0.0, 1.0]) | st.floats(-1.0, 3.0)
_SMALL_JSON = (
    st.integers(-2, 40)
    | _SMALL_FLOATS
    | st.booleans()
    | st.none()
    | st.text(max_size=4)
    | st.sampled_from(["synthetic", "coco_json", "one_stage", "two_stage_mining"])
    | st.lists(st.integers(-2, 40) | _SMALL_FLOATS, max_size=4)
)


class TestClassCap:
    """``dataset.classes`` is capped: past the cap, building the corpus failed
    to allocate before the first epoch."""

    def test_past_the_cap_is_named(self):
        with pytest.raises(ConfigError, match=r"dataset\.classes"):
            config_from_dict(_TINY, {"dataset": {"classes": 10**12}})

    def test_the_cap_builds_and_runs(self):
        config = config_from_dict(_TINY, {"dataset": {"classes": 10_000}})
        dataset = _build_dataset(config)
        assert dataset.num_classes == 10_000
        assert len(run_experiment(config, dataset).traces) == 1


class TestEveryKeyRunsOrFails:
    """A table key set to a small JSON value parses and runs, or is a ConfigError.

    ``run_experiment`` may raise ConfigError too: its set-up rejects a split
    with an empty side and an ``initial_recall_skill`` list of the wrong
    length, both before the first epoch. Any other exception is a defect.
    """

    @pytest.mark.parametrize("key", sorted(SCHEMA))
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(value=_SMALL_JSON)
    def test_runs_one_epoch_or_raises_config_error(self, key, value):
        data = {name: dict(v) if isinstance(v, dict) else v for name, v in _TINY.items()}
        if "." in key:
            section, name = key.split(".")
            data.setdefault(section, {})[name] = value
        else:
            data[key] = value
        try:
            config = config_from_dict(data)
        except ConfigError:
            return
        try:
            report = run_experiment(config, _build_dataset(config))
        except ConfigError:
            return
        assert len(report.traces) == config.epochs - config.pretrain_epochs
