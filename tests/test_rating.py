"""Band functions and the RPN formula, including every published boundary."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskforge import (
    BANDS,
    CONTROL_METHOD_CLASSES,
    Domain,
    Frequency,
    RankBand,
    SEVERITY_CLASSES,
    allowed_categories,
    detection_band,
    occurrence_band,
    rpn,
    severity_band,
)

positive_fractions = st.fractions(
    min_value=Fraction(1, 10**9), max_value=Fraction(10**6)
)


def reference_occurrence_band(value: Fraction) -> RankBand:
    """The occurrence scale read directly, in Fractions: gaps go to the higher band."""
    if value >= Fraction(1, 20):
        return RankBand(9, 10)
    if value >= Fraction(1, 125):
        return RankBand(7, 8)
    if value > Fraction(1, 10000):
        return RankBand(5, 6)
    if value > Fraction(1, 1000000):
        return RankBand(2, 4)
    return RankBand(1, 1)


BOUNDARY_OPPORTUNITIES = (20, 125, 1250, 10000, 100000, 1000000)
#: (failures, opportunities) pairs: anywhere up to 10^7, at or one step off
#: a boundary (also unreduced), and inside each of the scale's two gaps.
frequency_pairs = st.one_of(
    st.tuples(st.integers(1, 10**7), st.integers(1, 10**7)),
    st.builds(
        lambda per, scale, step: (scale, per * scale + step),
        st.sampled_from(BOUNDARY_OPPORTUNITIES),
        st.integers(1, 10),
        st.integers(-1, 1),
    ),
    st.one_of(
        st.fractions(Fraction(1, 10000), Fraction(1, 1250), max_denominator=10**7),
        st.fractions(Fraction(1, 1000000), Fraction(1, 100000), max_denominator=10**7),
    ).map(lambda value: (value.numerator, value.denominator)),
)


class TestOccurrenceBand:
    @pytest.mark.parametrize(
        "numerator,denominator,expected",
        [
            (1, 20, (9, 10)),  # boundary inclusive
            (1, 2, (9, 10)),
            (3, 10, (9, 10)),
            (1, 21, (7, 8)),
            (1, 125, (7, 8)),
            (1, 126, (5, 6)),
            (1, 1250, (5, 6)),
            (1, 5000, (5, 6)),  # gap input resolves to the higher band
            (1, 9999, (5, 6)),
            (1, 10000, (2, 4)),  # boundary inclusive downward
            (1, 100000, (2, 4)),
            (1, 500000, (2, 4)),  # gap input resolves to the higher band
            (1, 999999, (2, 4)),
            (1, 1000000, (1, 1)),
            (1, 20000000, (1, 1)),
        ],
    )
    def test_boundaries_and_gaps(self, numerator, denominator, expected):
        band = occurrence_band(Frequency(numerator, denominator))
        assert (band.lo, band.hi) == expected

    def test_accepts_bare_fractions(self):
        assert occurrence_band(Fraction(1, 20)) == RankBand(9, 10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            occurrence_band(Fraction(0))

    def test_exact_rational_comparison_at_a_binary_unfriendly_boundary(self):
        # 1/1250 has no exact float form; the comparison must still be exact.
        assert occurrence_band(Frequency(1, 1250)) == RankBand(5, 6)
        assert occurrence_band(Frequency(999, 1250 * 1000)) == RankBand(5, 6)

    @given(first=positive_fractions, second=positive_fractions)
    @settings(max_examples=300, deadline=None)
    def test_monotone(self, first, second):
        if first < second:
            first, second = second, first
        assert occurrence_band(first).hi >= occurrence_band(second).hi

    @given(value=positive_fractions)
    @settings(max_examples=300, deadline=None)
    def test_total_over_positive_rationals(self, value):
        assert occurrence_band(value) in BANDS

    @given(pair=frequency_pairs)
    @settings(max_examples=300, deadline=None)
    def test_integer_comparison_matches_fractions(self, pair):
        failures, opportunities = pair
        expected = reference_occurrence_band(Fraction(failures, opportunities))
        assert occurrence_band(Frequency(failures, opportunities)) == expected
        assert occurrence_band(Fraction(failures, opportunities)) == expected

    def test_rejects_nonpositive_numbers_with_their_value(self):
        with pytest.raises(ValueError, match=r"^frequency must be positive, got -1/2$"):
            occurrence_band(Fraction(-1, 2))
        with pytest.raises(ValueError, match=r"^frequency must be positive, got 0$"):
            occurrence_band(0)


class TestSeverityBand:
    @pytest.mark.parametrize(
        "domain,name,expected",
        [
            (Domain.REQUIREMENT, "SafetyIssue", (9, 10)),
            (Domain.REQUIREMENT, "ChooseCompetitor", (7, 8)),
            (Domain.REQUIREMENT, "ReturnToFix", (5, 6)),
            (Domain.REQUIREMENT, "Tolerate", (2, 4)),
            (Domain.REQUIREMENT, "Invisible", (1, 1)),
            (Domain.FUNCTION, "SafetyIssue", (9, 10)),
            (Domain.FUNCTION, "DifficultToOperate", (7, 8)),
            (Domain.FUNCTION, "UnderStandardPerformance", (5, 6)),
            (Domain.FUNCTION, "IsolatedDefect", (2, 4)),
            (Domain.FUNCTION, "Invisible", (1, 1)),
            (Domain.COMPONENT, "SafetyIssue", (9, 10)),
            (Domain.COMPONENT, "PrimaryFunctionEffect", (7, 8)),
            (Domain.COMPONENT, "SecondaryFunctionEffect", (5, 6)),
            (Domain.COMPONENT, "NonFunctionalEffect", (2, 4)),
            (Domain.COMPONENT, "Invisible", (1, 1)),
        ],
    )
    def test_all_fifteen_pairs(self, domain, name, expected):
        band = severity_band(domain, name)
        assert (band.lo, band.hi) == expected

    def test_columns_share_row_structure(self):
        for names in SEVERITY_CLASSES.values():
            assert len(names) == 5
            assert names[0] == "SafetyIssue"
            assert names[-1] == "Invisible"

    def test_wrong_domain_class_rejected(self):
        with pytest.raises(ValueError):
            severity_band(Domain.COMPONENT, "ChooseCompetitor")

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            severity_band(Domain.REQUIREMENT, "Catastrophic")

    @pytest.mark.parametrize("domain", list(Domain))
    def test_a_domain_or_its_value(self, domain):
        for name in SEVERITY_CLASSES[domain]:
            assert severity_band(domain.value, name) == severity_band(domain, name)
        assert allowed_categories(domain.value) == allowed_categories(domain)
        message = (
            f"unknown severity class 'Catastrophic' for {domain.value} elements;"
            f" expected one of {SEVERITY_CLASSES[domain]}"
        )
        for key in (domain, domain.value):
            with pytest.raises(ValueError) as excinfo:
                severity_band(key, "Catastrophic")
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("domain", ["element", None, ["requirement"]])
    def test_unknown_domain_rejected(self, domain):
        for lookup in (lambda: severity_band(domain, "SafetyIssue"), lambda: allowed_categories(domain)):
            with pytest.raises(ValueError, match="is not a valid Domain"):
                lookup()


class TestDetectionBand:
    @pytest.mark.parametrize(
        "method_class,expected",
        [
            ("NoApparentMethod", (9, 10)),
            ("DesignAnalysis", (7, 8)),
            ("StandardDesignDocuments", (5, 6)),
            ("PassFailOrReliabilityTest", (2, 4)),
            ("RealLifeProductTest", (1, 1)),
        ],
    )
    def test_all_five_classes(self, method_class, expected):
        band = detection_band(method_class)
        assert (band.lo, band.hi) == expected

    def test_covers_every_declared_class(self):
        for method_class in CONTROL_METHOD_CLASSES:
            assert detection_band(method_class) in BANDS

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            detection_band("VisualInspection")
        expected = f"unknown control method class 'VisualInspection'; expected one of {CONTROL_METHOD_CLASSES}"
        assert str(excinfo.value) == expected
        with pytest.raises(ValueError, match=r"^unknown control method class \['DesignAnalysis'\];"):
            detection_band(["DesignAnalysis"])


class TestBandMechanics:
    def test_rank_consistent(self):
        assert 8 in RankBand(7, 8)
        assert 6 not in RankBand(7, 8)
        assert 10 in RankBand(9, 10)

    def test_band_maximum_is_in_band(self):
        for band in BANDS:
            assert band.hi in band

    def test_band_rendering(self):
        assert str(RankBand(9, 10)) == "9-10"
        assert str(RankBand(1, 1)) == "1"

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            RankBand(8, 7)
        with pytest.raises(ValueError):
            RankBand(0, 4)


class TestRpn:
    def test_identity_and_maximum(self):
        assert rpn(1, 1, 1) == 1
        assert rpn(10, 10, 10) == 1000

    def test_distinct_situations_can_share_a_value(self):
        assert rpn(10, 10, 6) == 600
        assert rpn(6, 10, 10) == 600

    def test_worked_product(self):
        assert rpn(8, 7, 8) == 448

    @given(
        s=st.integers(1, 10),
        o=st.integers(1, 10),
        d=st.integers(1, 10),
        bump=st.sampled_from(["s", "o", "d"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_argument(self, s, o, d, bump):
        base = rpn(s, o, d)
        assert 1 <= base <= 1000
        raised = {
            "s": (min(s + 1, 10), o, d),
            "o": (s, min(o + 1, 10), d),
            "d": (s, o, min(d + 1, 10)),
        }[bump]
        assert rpn(*raised) >= base

    @pytest.mark.parametrize("bad", [0, 11, -1, "7", 5.0, None])
    def test_out_of_scale_rejected(self, bad):
        with pytest.raises(ValueError):
            rpn(bad, 5, 5)
