"""Shared hypothesis strategies."""

import math

from hypothesis import strategies as st

from nsg.scan import canonical_json
from nsg.semigroup import new_semigroup


@st.composite
def semigroups(draw, max_multiplicity=12, max_extra=4):
    m = draw(st.integers(2, max_multiplicity))
    extras = draw(st.lists(st.integers(m + 1, 3 * m), min_size=1, max_size=max_extra))
    gens = [m, *extras]
    if math.gcd(*gens) != 1:
        gens.append(m + 1)  # coprime to m, so the set always has gcd 1
    return new_semigroup(gens)


@st.composite
def semigroup_lists(draw):
    """Lists with the naturals, duplicates, type-1 rows beside higher types
    of the same multiplicity, and multiplicities that occur once."""
    single = st.one_of(
        semigroups(max_multiplicity=6),
        st.integers(2, 6).map(lambda m: new_semigroup([m, m + 1])),
        st.just(new_semigroup([1])),
    )
    xs = draw(st.lists(single, max_size=10))
    if xs:
        xs += draw(st.lists(st.sampled_from(xs), max_size=3))
    return draw(st.permutations(xs))


# both ends of the 64-bit integer range a JSON record may use, and their neighbours
INT_EDGES = (-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1)


def json_values():
    """JSON-ready values: None, bools, ints in [-2**63, 2**64), strings of
    code points below 0x7f, and lists, tuples and str-keyed dicts of them."""
    ints = st.integers(-(2**63), 2**64 - 1) | st.sampled_from(INT_EDGES)
    text = st.text(st.characters(max_codepoint=0x7E), max_size=6)
    leaves = st.none() | st.booleans() | ints | text

    def nested(inner):
        return st.lists(inner, max_size=4) | st.tuples(inner, inner) | st.dictionaries(text, inner, max_size=4)

    return st.recursive(leaves, nested, max_leaves=24)


@st.composite
def keyed_lines(draw, max_size=60):
    """Lines shaped as ``scan._keyed`` makes them: a 16-hex-digit id, a space,
    the canonical JSON of a value and a newline.  The ids come from a small
    drawn pool, so lines repeat whole ids with different JSON."""
    ids = draw(st.lists(st.text("0123456789abcdef", min_size=16, max_size=16), min_size=1, max_size=8))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), json_values()), max_size=max_size))
    return [f"{ident} {canonical_json(value)}\n" for ident, value in pairs]
