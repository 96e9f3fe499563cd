"""FRL020 fixture: span names with no SPAN_QUALNAMES mapping.

Both the plain literal and the parametrized f-string carry a literal
base name that SPAN_QUALNAMES does not attribute to any function.
"""

from repro.telemetry.spans import span


def train(members):
    with span("fit.nonexistent"):  # unmapped literal
        pass
    for i, member in enumerate(members):
        with span(f"score.mystery[{i}]"):  # unmapped parametrized base
            member.fit()
