import pytest

from acrst import ConfigError, config_from_dict


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
