from sessionpi import ChanType
from sessionpi.contexts import Single, VOID
from sessionpi.table import LIN_P1, LIN_P2, UN_P1, evaluate_row, evaluate_table, expected_rows


def test_every_row_matches():
    outcomes = evaluate_table()
    assert len(outcomes) == 24
    failures = [o for o in outcomes if not o.ok]
    assert failures == [], [(o.index, o.mismatches) for o in failures]


def test_unrestricted_row_is_constant():
    row = expected_rows()[3]
    assert row.g1 == Single(UN_P1)
    assert row.c12 == row.c23 == row.c13 == row.g4 == row.nabla == Single(UN_P1)
    assert evaluate_row(row).ok


def test_partial_consumption_row():
    # g2 = <lin p1, lin p2> consumed down to g3 = <lin p1, ◦> spends <◦, lin p2>.
    row = expected_rows()[6]
    assert row.g2 == ChanType(LIN_P1, LIN_P2)
    assert row.g3 == ChanType(LIN_P1, VOID)
    assert row.c23 == ChanType(VOID, LIN_P2)
    assert evaluate_row(row).ok


def test_fully_void_row_is_constant():
    row = expected_rows()[-1]
    assert row.g1 == row.g4 == row.nabla == ChanType(VOID, VOID)
    assert evaluate_row(row).ok
