"""Run-configuration parsing: defaults, overrides, and hard errors."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kickscope import (
    COMPUTATIONAL,
    SYMMETRIC,
    ConfigurationError,
    DetectorConfig,
    DomainError,
    GridSpec,
    PhysicalUnits,
    SlitGeometry,
    tilted,
)
from kickscope.config import (
    RunConfig,
    default_config,
    load_config,
    parse_c_values,
    parse_config_text,
)
from kickscope.verify import TOLERANCES

POSITIVE = st.floats(1e-6, 1e6)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# An odd integer past 2^53 has no float64, so reading it through float rounds.
COUNT = st.integers(0, 2**63) | st.integers(2**52, 2**62 - 1).map(lambda k: 2 * k + 1)


@st.composite
def in_domain_values(draw):
    """One in-domain value per config key; sigma/d <= 0.05 raises no warning.

    ``basis`` is drawn as its config text and the `Basis` it names.
    """
    d = draw(POSITIVE)
    x_min = draw(st.floats(-1e6, 1e6))
    return {
        "geometry.d": d,
        "geometry.sigma": d * draw(st.floats(1e-4, 0.049)),
        "units.hbar": draw(POSITIVE),
        "units.mass": draw(POSITIVE),
        "units.t": draw(st.floats(0.0, 1e6)),
        "grid.n": 2 ** draw(st.integers(4, 30)),
        "grid.x_min": x_min,
        "grid.x_max": x_min + draw(st.floats(1e-3, 1e6)),
        "detector.c": draw(st.floats(0.0, 1.0)),
        "detector.theta": draw(st.floats(-math.pi, math.pi, exclude_min=True)),
        "basis": draw(
            st.one_of(
                st.sampled_from([("computational", COMPUTATIONAL), ("symmetric", SYMMETRIC)]),
                FINITE.map(lambda angle: (f"tilted:{angle!r}", tilted(angle))),
            )
        ),
        "sampling.count": draw(COUNT),
        "sampling.seed": draw(COUNT),
    }


class TestDefaults:
    def test_desk_scale_defaults(self):
        cfg = default_config()
        assert cfg.geometry.d == 1.0
        assert cfg.geometry.sigma == 0.01
        assert cfg.units.hbar == 1.0 and cfg.units.mass == 1.0 and cfg.units.t == 5.0
        assert cfg.grid.n == 2**21
        assert_allclose(cfg.grid.dx, 0.0025, rtol=0, atol=1e-15)
        # The box is centered between the slits.
        assert_allclose(cfg.grid.x_min + cfg.grid.x_max, 1.0, rtol=0, atol=1e-9)
        assert cfg.detector.c == 0.5 and cfg.detector.theta == 0.0
        assert cfg.basis == SYMMETRIC
        assert cfg.sample_count == 100_000 and cfg.seed == 42

    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == default_config()


class TestParsing:
    def test_overrides_comments_and_blanks(self):
        cfg = parse_config_text(
            """
            # reduced-scale run
            geometry.sigma = 0.02   # wider slits
            grid.n = 1024
            grid.x_min = -2.06
            grid.x_max = 3.06
            detector.c = 0.25
            detector.theta = 1.5
            basis = computational
            sampling.count = 5000
            sampling.seed = 9
            """
        )
        assert cfg.geometry.sigma == 0.02
        assert cfg.grid.n == 1024
        assert cfg.detector.c == 0.25 and cfg.detector.theta == 1.5
        assert cfg.basis == COMPUTATIONAL
        assert cfg.sample_count == 5000 and cfg.seed == 9

    def test_tilted_basis(self):
        cfg = parse_config_text("basis = tilted:0.7853981633974483")
        assert cfg.basis == tilted(math.pi / 4)

    def test_tilted_zero_folds_to_symmetric(self):
        assert parse_config_text("basis = tilted:0").basis == SYMMETRIC

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("grid.m = 4", "unknown config key"),
            ("geometry.sigma = wide", "cannot parse"),
            ("just some words", "expected key = value"),
            ("basis = diagonal", "unknown basis"),
            ("basis = tilted:fast", "angle"),
            ("sampling.count = -3", "non-negative"),
            ("sampling.seed = -1", "sampling.seed"),
        ],
    )
    def test_hard_errors(self, line, fragment):
        with pytest.raises(ConfigurationError, match=fragment):
            parse_config_text(line)

    @pytest.mark.parametrize(
        "line",
        [
            "geometry.d = nan",
            "geometry.sigma = inf",
            "units.hbar = nan",
            "units.mass = inf",
            "units.t = nan",
            "grid.x_min = -inf",
            "grid.x_max = nan",
            "basis = tilted:nan",
            "basis = tilted:inf",
        ],
    )
    def test_non_finite_values_are_rejected(self, line):
        with pytest.raises((ConfigurationError, DomainError), match="finite"):
            parse_config_text(line)

    def test_error_reports_line_number(self):
        with pytest.raises(ConfigurationError, match="line 3"):
            parse_config_text("detector.c = 0.5\n# fine\ngrid.m = 4\n")

    def test_physics_validation_still_applies(self):
        with pytest.raises(DomainError):
            parse_config_text("detector.c = 1.5")
        with pytest.raises(ConfigurationError):
            parse_config_text("grid.n = 1000")

    def test_slits_may_overlap_up_to_verifys_probability_tolerance(self):
        # The branch probabilities sum to 1 + c*cos(theta)*exp(-d^2/8 sigma^2):
        # the overlap may reach verify's tolerance on that sum, and no further.
        tol = TOLERANCES["experiment.branch_probabilities"]
        edge = 1.0 / math.sqrt(8.0 * math.log(1.0 / tol))
        assert 0.0736 < edge < 0.0737
        with pytest.warns(UserWarning, match="narrow-slit"):
            parse_config_text(f"geometry.d = 2.0\ngeometry.sigma = {2 * edge * (1 - 1e-9)!r}")
        with pytest.raises(ConfigurationError, match=r"geometry\.sigma = \S+ .* geometry\.d = 2\.0"):
            parse_config_text(f"geometry.d = 2.0\ngeometry.sigma = {2 * edge * (1 + 1e-9)!r}")

    @settings(max_examples=60, deadline=None)
    @given(values=in_domain_values())
    def test_config_text_round_trips(self, values):
        basis_text, basis = values.pop("basis")
        text = "".join(f"{key} = {value!r}\n" for key, value in values.items())
        text += f"basis = {basis_text}\n"
        want = RunConfig(
            geometry=SlitGeometry(d=values["geometry.d"], sigma=values["geometry.sigma"]),
            units=PhysicalUnits(
                hbar=values["units.hbar"], mass=values["units.mass"], t=values["units.t"]
            ),
            grid=GridSpec(
                n=values["grid.n"], x_min=values["grid.x_min"], x_max=values["grid.x_max"]
            ),
            detector=DetectorConfig(c=values["detector.c"], theta=values["detector.theta"]),
            basis=basis,
            sample_count=values["sampling.count"],
            seed=values["sampling.seed"],
        )
        assert parse_config_text(text) == want

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(str(tmp_path / "nope.cfg"))


class TestCValues:
    def test_parses_list(self):
        assert parse_c_values("0, 0.25 ,1") == [0.0, 0.25, 1.0]

    @pytest.mark.parametrize("text", ["a,b", "0.5,1.5", "-0.1", "", ","])
    def test_rejects_bad_lists(self, text):
        with pytest.raises(ConfigurationError):
            parse_c_values(text)
