"""Guards of public functions, called directly.

Each bad argument below raises its documented error class, with its
message, before any work is done.  The spectral errors that a config can
reach are covered through cli.main in test_cli.py.  The last rows are
bad input values (a shape, an entry, a sum, a replica or trial count,
a negative n, a color out of range), whose classes also derive from
ValueError; the CLI checks the replica count itself before any bound
(test_cli.py).
"""
import pytest

from urnbound import (
    ColorCount,
    DimensionMismatch,
    IndexOrder,
    NegativeEntry,
    RowSumNotOne,
    TooFewReplicas,
    color_deviation_bound,
    decompose,
    dn_asymptotic,
    dn_exact,
    dominance_check,
    exact_distribution,
    exact_tail,
    growth_product,
    indicator_coefficients,
    simulate,
    simulate_replicas,
    statistic_bound,
    tail_estimates,
    validate_matrix,
    wilson_upper,
)
from urnbound._format import fmt, render_json
from urnbound.process import initial_counts

R2 = validate_matrix([[0.7, 0.3], [0.4, 0.6]])
S2 = decompose(R2)


# bad input values: each class also derives from ValueError
VALUE_ERRORS = [
    (lambda: validate_matrix([[0.7, 0.3, 0], [0.4, 0.6, 0]]),
     DimensionMismatch, "matrix must be square, got shape (2, 3)"),
    (lambda: validate_matrix([[1.0]]), DimensionMismatch,
     "need at least two colors"),
    (lambda: initial_counts([1.5, -0.5], R2), NegativeEntry,
     "negative count: -0.5"),
    (lambda: initial_counts([0.6, 0.5], R2), RowSumNotOne,
     "counts sum to 1.1, expected 1.0 at time 0"),
    (lambda: tail_estimates([1, 0], R2, 5, [1, 0], [0.5], 999, 0),
     TooFewReplicas, "need at least 10^3 replicas for a usable estimate"),
    (lambda: simulate([1, 0], R2, -1, 0), IndexOrder,
     "n must be nonnegative"),
    (lambda: exact_distribution([1, 0], R2, -1), IndexOrder,
     "n must be nonnegative"),
    (lambda: ColorCount([1.0], 0), DimensionMismatch,
     "counts must be a vector of at least 2 colors"),
    (lambda: wilson_upper(0, 0), TooFewReplicas, "need at least one trial"),
    (lambda: simulate_replicas([1, 0], R2, -1, 10, 0), IndexOrder,
     "n must be at least 0, got -1"),
    (lambda: simulate_replicas([1, 0], R2, 5, 0, 0), TooFewReplicas,
     "replicas must be at least 1, got 0"),
    (lambda: color_deviation_bound(S2, 2, 10, [0.1]), IndexOrder,
     "color 2 out of range for 2 colors"),
    (lambda: indicator_coefficients(S2, -1), IndexOrder,
     "color -1 out of range for 2 colors"),
]


@pytest.mark.parametrize("call,error,message", [
    (lambda: growth_product(0.3, -1), IndexOrder, "n=-1 must be nonnegative"),
    (lambda: dn_exact(0.3, -1), IndexOrder, "n=-1 must be nonnegative"),
    (lambda: statistic_bound(S2, S2.terms(S2.alphas[0]), 0, [0.1]),
     IndexOrder, "horizon n=0 must be at least 1"),
    (lambda: dn_asymptotic(0.3, 0), IndexOrder, "n=0 must be at least 1"),
    (lambda: exact_tail(exact_distribution([1, 0], R2, 3), [1, 0, 0], 0.5),
     DimensionMismatch, "atoms have 2 colors, vector 3"),
    (lambda: fmt(object()), TypeError, "unsupported scalar type"),
    (lambda: render_json(object()), TypeError,
     "unsupported type for JSON output"),
    (lambda: dominance_check([0.5], [0.1]), TypeError,
     "expected BoundReport, got <class 'float'>"),
    *VALUE_ERRORS,
], ids=["growth_product", "dn_exact", "statistic_bound", "dn_asymptotic",
        "exact_tail", "fmt", "render_json", "dominance_check",
        "non-square", "one-color", "negative-count", "count-sum",
        "few-replicas", "simulate", "exact_distribution", "ColorCount",
        "wilson_upper", "simulate_replicas-n", "simulate_replicas-replicas",
        "color_deviation_bound", "indicator_coefficients"])
def test_public_guards_raise_their_typed_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value).startswith(message)


def test_bad_input_values_are_also_value_errors():
    assert all(issubclass(error, ValueError) for _, error, _ in VALUE_ERRORS)
