"""Guards of public functions that no config reaches through the CLI.

Each bad argument below raises its documented error class, with its
message, before any work is done.  The spectral errors that a config can
reach are covered through cli.main in test_cli.py.
"""
import pytest

from urnbound import (
    ColorCount,
    DimensionMismatch,
    IndexOrder,
    appendix_zeroth,
    decompose,
    dn_asymptotic,
    dn_exact,
    dominance_check,
    exact_distribution,
    exact_tail,
    growth_product,
    simulate,
    statistic_bound,
    validate_matrix,
    wilson_upper,
)
from urnbound._format import fmt, render_json

R2 = validate_matrix([[0.7, 0.3], [0.4, 0.6]])
S2 = decompose(R2)


@pytest.mark.parametrize("call,error,message", [
    (lambda: growth_product(0.3, -1), IndexOrder, "n=-1 must be nonnegative"),
    (lambda: dn_exact(0.3, -1), IndexOrder, "n=-1 must be nonnegative"),
    (lambda: appendix_zeroth(0.25, -1), IndexOrder,
     "n=-1 must be nonnegative"),
    (lambda: statistic_bound(S2, S2.terms(S2.alphas[0]), 0, [0.1]),
     IndexOrder, "horizon n=0 must be at least 1"),
    (lambda: dn_asymptotic(0.3, 0), IndexOrder, "n=0 must be at least 1"),
    (lambda: simulate([1, 0], R2, -1, 0), ValueError,
     "n must be nonnegative"),
    (lambda: exact_distribution([1, 0], R2, -1), ValueError,
     "n must be nonnegative"),
    (lambda: wilson_upper(0, 0), ValueError, "need at least one trial"),
    (lambda: exact_tail(exact_distribution([1, 0], R2, 3), [1, 0, 0], 0.5),
     DimensionMismatch, "atoms have 2 colors, vector 3"),
    (lambda: fmt(object()), TypeError, "unsupported scalar type"),
    (lambda: render_json(object()), TypeError,
     "unsupported type for JSON output"),
    (lambda: dominance_check([0.5], [0.1]), TypeError,
     "expected BoundReport, got <class 'float'>"),
    (lambda: ColorCount([1.0], 0), ValueError,
     "counts must be a vector of at least 2 colors"),
], ids=["growth_product", "dn_exact", "appendix_zeroth", "statistic_bound",
        "dn_asymptotic", "simulate", "exact_distribution", "wilson_upper",
        "exact_tail", "fmt", "render_json", "dominance_check", "ColorCount"])
def test_public_guards_raise_their_typed_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value).startswith(message)
