"""Catalog grammar and the norm laws of the two sums."""

import random

import pytest

from polysphere import (
    EnumerationCapError,
    GeometryError,
    Vector,
    check_cl,
    check_t_property,
)
from polysphere.catalog import (
    catalog_entries,
    hexagon_space,
    l1_space,
    l1_sum,
    linf_space,
    linf_sum,
    resolve,
)
from polysphere.sampling import random_direction
from polysphere.space import MAX_ENUM_DIM


def test_nested_sums():
    space = resolve("l1sum(linfsum(hex,l1:1),linf:1)")
    assert space == l1_sum(linf_sum(hexagon_space(), l1_space(1)), linf_space(1))
    assert space.name == "l1sum(linfsum(hex,l1:1),linf:1)"


def test_whitespace_between_tokens():
    assert resolve("  l1sum ( hex ,\tlinf:1 )  ") == resolve("l1sum(hex,linf:1)")


@pytest.mark.parametrize(
    "text,message",
    [
        ("hex hex", "trailing input at position 4"),
        ("l1sum(hex,l1:1))", "trailing input at position 15"),
        ("square", "unknown catalog name at position 0"),
        ("l1sum(hex,cube)", "unknown catalog name at position 10"),
        ("l1sum(hex l1:1)", "expected ',' at position 10"),
        ("l1:", "expected a dimension after 'l1:'"),
        ("linf:x", "expected a dimension after 'linf:'"),
    ],
)
def test_malformed_expressions(text, message):
    with pytest.raises(GeometryError, match=message):
        resolve(text)


@pytest.mark.parametrize("text", ["l1:0", "l1:7", "linf:0", "linf:7"])
def test_dimension_outside_the_range(text):
    with pytest.raises(EnumerationCapError, match="outside the supported range 1..6"):
        resolve(text)


@pytest.mark.parametrize("text,dim", [("l1sum(l1:4,l1:3)", 7), ("linfsum(linf:6,hex)", 8)])
def test_sum_above_the_enumeration_cap(text, dim):
    with pytest.raises(EnumerationCapError, match=f"dimension {dim} exceeds"):
        resolve(text)


def nested_sum(depth, head="l1sum", leaf="l1:1"):
    """A sum nested ``depth`` deep, each level adding one leaf on the left."""
    return f"{head}({leaf}," * depth + leaf + ")" * depth


@pytest.mark.parametrize("head", ["l1sum", "linfsum"])
@pytest.mark.parametrize(
    "text",
    [
        lambda head: nested_sum(6, head),
        lambda head: nested_sum(1000, head),
        lambda head: f"{head}(" * 1000,
        lambda head: f"{head}(" * 6 + "l1:1,l1:1" + ",l1:1)" * 6,
    ],
    ids=["depth-6", "depth-1000", "unclosed-1000", "left-nested-6"],
)
def test_sum_nesting_at_the_dimension_cap_is_rejected_while_parsing(text, head):
    """A sum tree of depth k has at least k + 1 leaves, so depth 6 would
    have dimension above the cap; the parser stops at the sixth nested
    sum, which a depth of 1000 would otherwise overflow the stack on."""
    text = text(head)
    position = len(head.join(text.split(head)[:MAX_ENUM_DIM]))
    with pytest.raises(EnumerationCapError) as err:
        resolve(text)
    assert str(err.value) == (
        f"sums nested 6 deep at position {position} exceed the enumeration cap of 6"
    )


def test_sum_nesting_below_the_cap_is_built():
    assert resolve(nested_sum(5)) == resolve("l1:6")


@pytest.mark.parametrize(
    "a,b", [("hex", "l1:1"), ("hex", "linf:2"), ("l1:2", "linf:1"), ("linf:2", "hex")]
)
def test_sum_norm_laws(a, b):
    """The l1sum norm is the sum of the norms, the linfsum norm their maximum."""
    sa, sb = resolve(a), resolve(b)
    l1s, linfs = l1_sum(sa, sb), linf_sum(sa, sb)
    rng = random.Random(f"{a},{b}")
    for _ in range(40):
        x, y = random_direction(rng, sa.dim), random_direction(rng, sb.dim)
        z = Vector(x.coords + y.coords)
        assert l1s.norm(z) == sa.norm(x) + sb.norm(y)
        assert linfs.norm(z) == max(sa.norm(x), sb.norm(y))


@pytest.mark.parametrize("entry", catalog_entries(), ids=lambda e: e.name)
def test_declared_verdicts_are_the_decided_ones(entry):
    space = entry.build()
    assert check_cl(space).is_cl == entry.expected_cl
    assert check_t_property(space).holds == entry.expected_t
