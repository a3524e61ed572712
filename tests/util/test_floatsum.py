"""``add_repeated``: the rule the simulator's run charge rests on — it
returns what the literal ``+=`` loop returns, for any finite floats."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.floatsum import add_repeated

_halves = st.integers(-(1 << 54), 1 << 54).map(lambda i: i / 2)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500)
@given(st.one_of(_finite, _halves), st.one_of(_finite, _halves),
       st.integers(0, 300))
def test_add_repeated_is_the_literal_loop(total, cost, count):
    expected = total
    for _ in range(count):
        expected += cost
    assert add_repeated(total, cost, count).hex() == expected.hex()
