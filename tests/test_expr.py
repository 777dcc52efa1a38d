import pytest

from qfrac.expr import ExprError, compile_expr


class TestAccepted:
    def test_variables(self):
        f = compile_expr("s")
        assert f(2.0, 5.0) == 2.0
        g = compile_expr("t")
        assert g(2.0, 5.0) == 5.0

    def test_literals_and_arithmetic(self):
        f = compile_expr("2*s + t/4 - 1")
        assert f(3.0, 8.0) == 2 * 3 + 2 - 1

    def test_power_with_literal_exponent(self):
        assert compile_expr("s^2")(3.0) == 9.0
        assert compile_expr("s^-2")(2.0) == 0.25
        assert compile_expr("s^0.5")(4.0) == 2.0

    def test_named_helpers(self):
        assert compile_expr("sqr(s)")(3.0) == 9.0
        assert compile_expr("inv(s)")(4.0) == 0.25
        assert compile_expr("sqr(s) + inv(s)")(2.0) == 4.5

    def test_parentheses_and_unary_minus(self):
        assert compile_expr("-(s + 1) * 2")(1.0) == -4.0

    def test_nested_calls(self):
        assert compile_expr("inv(sqr(s))")(2.0) == 0.25


class TestRejected:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "import os",
            "s; t",
            "s ^ t",            # exponent must be a literal
            "s ^ (1 + 1)",
            "x + 1",            # unknown name
            "abs(s)",           # unknown function
            "sqr(s, t)",        # arity
            "s.real",
            "s % 2",
            "s if t else 1",
            "lambda x: x",
            "[s]",
            "'s'",
            "s // 2",
            "~s",               # operator Invert
            "not s",            # operator Not
        ],
    )
    def test_outside_grammar(self, text):
        with pytest.raises(ExprError):
            compile_expr(text)

    @pytest.mark.parametrize("text", ["float(s)", "__builtins__", "__import__"])
    def test_names_of_the_compiled_lambda_stay_rejected(self, text):
        # The compiled lambda's globals hold float; the grammar still does not.
        with pytest.raises(ExprError):
            compile_expr(text)

    def test_division_by_zero_surfaces_at_call_time(self):
        f = compile_expr("inv(s)")
        with pytest.raises(ZeroDivisionError):
            f(0.0)
