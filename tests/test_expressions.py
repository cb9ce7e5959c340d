"""The coefficient expression grammar."""

import numpy as np
import pytest

from fracorlicz.expressions import (ExpressionError, parse_expression,
                                    evaluate_expression)


def ev(text, x):
    return evaluate_expression(text, np.asarray(x, float))


def test_literals_and_variable():
    x = np.array([0.0, 0.5, 2.0])
    assert np.allclose(ev("3", x), 3.0)
    assert np.allclose(ev("2.5e-1", x), 0.25)
    assert np.array_equal(ev("x", x), x)


def test_arithmetic_precedence():
    x = np.array([2.0])
    assert ev("1 + 2 * 3", x)[0] == 7.0
    assert ev("(1 + 2) * 3", x)[0] == 9.0
    assert ev("8 / 2 / 2", x)[0] == 2.0  # left associative
    assert ev("2 - 3 - 1", x)[0] == -2.0


def test_unary_minus():
    x = np.array([1.5])
    assert ev("-x", x)[0] == -1.5
    assert ev("2 * -3", x)[0] == -6.0
    assert ev("--2", x)[0] == 2.0


def test_functions():
    x = np.array([0.0, 1.0, 4.0])
    assert np.allclose(ev("exp(x)", x), np.exp(x))
    assert np.allclose(ev("pow(x, 2)", x), x ** 2)
    assert np.allclose(ev("pow(x, -0.5)", x[1:]), x[1:] ** -0.5)
    assert np.allclose(ev("bump(1, 0.5)", x), np.exp(-(((x - 1.0) / 0.5) ** 2)))
    assert np.allclose(ev("bump(-1, 2)", x), np.exp(-(((x + 1.0) / 2.0) ** 2)))


def test_composed_expression():
    x = np.linspace(0.0, 1.0, 11)
    got = ev("1 + 0.5 * bump(0.5, 0.1) - pow(x, 3) / 4", x)
    want = 1.0 + 0.5 * np.exp(-(((x - 0.5) / 0.1) ** 2)) - x ** 3 / 4.0
    assert np.allclose(got, want)


def test_parse_errors_carry_columns():
    with pytest.raises(ExpressionError) as err:
        parse_expression("1 + $")
    assert err.value.column == 5
    with pytest.raises(ExpressionError):
        parse_expression("")
    with pytest.raises(ExpressionError):
        parse_expression("1 + ")
    with pytest.raises(ExpressionError):
        parse_expression("pow(x)")     # missing exponent
    with pytest.raises(ExpressionError):
        parse_expression("sin(x)")     # unknown name
    with pytest.raises(ExpressionError):
        parse_expression("1 2")        # trailing input
    with pytest.raises(ExpressionError):
        parse_expression("bump(x, 1)")  # bump takes constants


def test_parsed_form_reusable():
    node = parse_expression("pow(x, 2) + 1")
    x = np.array([3.0])
    assert evaluate_expression(node, x)[0] == 10.0


@pytest.mark.parametrize("text, value", [
    ("x ** 2", None), ("+2", None), ("0x10", None), ("1_0", None), ("True", None),
    ("1e3j", None), ('"a"', None), ("x#c", None), ("pow(x, 2, 3)", None),
    ("exp(x=1)", None), ("x if 1 else 2", None), ("pow(x, --2)", None),
    ("pow(x, (2))", None), ("bump((1), 2)", None), ("exp(x,)", None), ("1if x else 2", None),
    ("  1 + x", 3.0), ("1 +\n x", 3.0), ("2.", 2.0), (".5", 0.5), ("1.e-3", 1e-3),
    ("--2", 2.0),
])
def test_grammar_is_exactly_the_documented_one(text, value):
    if value is None:
        with pytest.raises(ExpressionError):
            parse_expression(text)
    else:
        assert ev(text, [2.0])[0] == value


@pytest.mark.parametrize("text, column", [
    ("  1 + $", 7), ("\n 1 + $", 7), ("  1 + )", 7), ("  1 + ", 7), ("  x ** 2", 3),
])
def test_columns_count_leading_blanks(text, column):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert err.value.column == column
