"""FRL020 span-attribution: literal span() names must resolve in SPAN_QUALNAMES."""

from pathlib import Path

from repro.analysis.framework import all_checkers, explain, run_analysis

FIXTURES = Path(__file__).parent / "fixtures" / "spans"


def _violations(name):
    result = run_analysis([FIXTURES / name], force_library=True)
    return [v for v in result.violations if v.rule == "FRL020"]


class TestSpanAttribution:
    def test_unmapped_literal_and_fstring_bases_are_flagged(self):
        violations = _violations("bad_span.py")
        assert [v.line for v in violations] == [11, 14]
        assert "fit.nonexistent" in violations[0].message
        assert "score.mystery" in violations[1].message
        assert "SPAN_QUALNAMES" in violations[0].message
        assert "no function is attributed" in violations[0].message  # says *why*

    def test_mapped_parametrized_and_dynamic_names_are_clean(self):
        assert _violations("good_span.py") == []

    def test_registered_with_explain_card(self):
        assert any(c.rule == "FRL020" for c in all_checkers())
        card = explain("FRL020")
        assert "Invariant:" in card
        assert "Example violation:" in card
        assert "Fix:" in card
