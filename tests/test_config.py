from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acrst.config import (
    _TOP_LEVEL_KEYS,
    TOGGLES,
    ConfigError,
    DatasetConfig,
    DetectorConfig,
    config_from_dict,
)
from acrst.filtering import FilterConfig, OracleNoise
from acrst.rebalance import PasteConfig


class TestOracleTauMl:
    """The oracle's low band and the filter's image-level gate share tau_ml."""

    def test_absent_oracle_tau_ml_takes_filter_tau_ml(self):
        config = config_from_dict({"filter": {"tau_ml": 0.05}, "oracle": {"fn_rate": 0.1}})
        assert config.oracle.tau_ml == 0.05
        assert config.oracle.fn_rate == 0.1

    def test_absent_sections_share_the_default(self):
        config = config_from_dict({})
        assert config.oracle.tau_ml == config.filter.tau_ml == 0.2

    def test_equal_explicit_values_accepted(self):
        config = config_from_dict({"filter": {"tau_ml": 0.3}, "oracle": {"tau_ml": 0.3}})
        assert config.oracle.tau_ml == 0.3

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

_SECTION_KEYS = {
    "toggles": list(TOGGLES),
    **{
        name: [f.name for f in fields(cls)]
        for name, cls in (
            ("dataset", DatasetConfig),
            ("paste", PasteConfig),
            ("filter", FilterConfig),
            ("detector", DetectorConfig),
            ("oracle", OracleNoise),
        )
    },
}


@st.composite
def _document(draw):
    """A config with one known top-level key; a section may hold known keys."""
    key = draw(st.sampled_from(sorted(_TOP_LEVEL_KEYS)))
    value = _JSON
    if key in _SECTION_KEYS:
        value |= st.dictionaries(st.sampled_from(_SECTION_KEYS[key]), _JSON, max_size=3)
    return {key: draw(value)}


class TestIllTypedValues:
    """Any JSON value under a known key parses or is a ConfigError, never a crash."""

    @settings(max_examples=500, deadline=None)
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
        ],
    )
    def test_named_in_the_error(self, data, named):
        with pytest.raises(ConfigError, match=named):
            config_from_dict(data)

    def test_null_section_takes_the_defaults(self):
        assert config_from_dict({"paste": None}) == config_from_dict({})
