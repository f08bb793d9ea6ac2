"""The paper's six tables, graded in-process: each table's (name, ok)
verdicts, and the one lookup that rejects a table number it does not know."""

import pytest

from mosteff import tables

_DIVERGENCE = "steffensen errors non-decreasing (divergence)"
_FLOOR = "moser-steffensen converges to the double floor"

# table -> (claim name, ok) in order.  The detail strings are left out: they
# carry floats that depend on the CPU's rounding (table 4's final error).
VERDICTS = {
    1: [(_DIVERGENCE, False), (_FLOOR, True)],
    2: [
        (_DIVERGENCE, False),
        (_FLOOR, True),
        ("steffensen max solve-condition exceeds 1e2", False),
        ("moser-steffensen max mult-condition below 30", True),
    ],
    3: [
        ("both methods converge", True),
        ("moser-steffensen error below 1e-15 within 7 iterations", True),
        ("moser-steffensen COC within [1.8, 2.2]", True),
    ],
    4: [(_DIVERGENCE, False), (_FLOOR, True)],
    5: [("all three initial-inverse qualities converge", True)],
    6: [
        ("run converges", True),
        ("early plateau (error still above 1e-2 at n=5)", True),
        ("recovery is quadratic (ratio spread of final errors <= 100)", True),
    ],
}


def test_the_table_numbers_are_the_graded_ones():
    assert tables.NUMBERS == tuple(VERDICTS)


@pytest.mark.parametrize("table", sorted(VERDICTS))
def test_each_table_has_runs_and_is_graded_by_its_claims(table):
    labels = [label for label, *_ in tables.specs(table)]
    assert labels and len(set(labels)) == len(labels)
    verdicts = tables.checks(table, tables.traces(table))
    assert [(name, ok) for name, ok, _ in verdicts] == VERDICTS[table]
    assert all(isinstance(detail, str) and detail for _, _, detail in verdicts)


@pytest.mark.parametrize("table", [0, 7])
@pytest.mark.parametrize(
    "lookup",
    [tables.specs, tables.traces, lambda table: tables.checks(table, {})],
    ids=["specs", "traces", "checks"],
)
def test_an_unknown_table_is_a_value_error(lookup, table):
    with pytest.raises(ValueError, match=rf"^no table {table}; the tables are 1, 2, 3, 4, 5, 6$"):
        lookup(table)
