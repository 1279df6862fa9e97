"""Catalog grammar, the closed forms of the leaves and sums, and the norm
laws of the two sums."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysphere import (
    EnumerationCapError,
    GeometryError,
    PolyhedralSpace,
    Vector,
    check_cl,
    check_t_property,
    linalg,
)
from polysphere import space as space_module
from polysphere.catalog import (
    catalog_entries,
    hexagon_space,
    l1_space,
    l1_sum,
    linf_space,
    linf_sum,
    resolve,
)
from polysphere.space import MAX_ENUM_DIM, Functional
from samplers import random_direction
from test_space import built_spaces

F = Fraction


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
        # A superscript is a digit but not a decimal digit, which int() refuses.
        ("l1:\u00b2", "expected a dimension after 'l1:'"),
        ("l1:3\u00b2", "trailing input at position 4"),
    ],
)
def test_malformed_expressions(text, message):
    with pytest.raises(GeometryError, match=message):
        resolve(text)


@pytest.mark.parametrize("text", ["l1:0", "l1:7", "linf:0", "linf:7"])
def test_dimension_outside_the_range(text):
    with pytest.raises(EnumerationCapError, match="outside the supported range 1..6"):
        resolve(text)


@pytest.mark.parametrize("head", ["l1", "linf"])
def test_dimension_too_long_to_convert_is_outside_the_range(head):
    """int() refuses more than 4300 digits; such a dimension is reported by
    its length, while a shorter one, leading zeros and all, still converts."""
    with pytest.raises(EnumerationCapError) as err:
        resolve(f"{head}:" + "9" * 5000)
    assert str(err.value) == "dimension written with 5000 digits outside the supported range 1..6"
    assert resolve(f"{head}:0006") == resolve(f"{head}:6")


@pytest.mark.parametrize("text,dim", [("l1sum(l1:4,l1:3)", 7), ("linfsum(linf:6,hex)", 8)])
def test_sum_above_the_enumeration_cap(text, dim):
    with pytest.raises(EnumerationCapError, match=f"dimension {dim} exceeds"):
        resolve(text)


def test_sum_above_the_row_cap():
    """6 * 36 facet functionals in dimension 6: the row cap, not the
    dimension cap, refuses it."""
    with pytest.raises(EnumerationCapError) as err:
        resolve("l1sum(hex,l1sum(hex,hex))")
    assert str(err.value) == "216 rows exceed the cap of 200"


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


# The construction the closed forms replaced, kept as their reference: the
# leaves listed by hand, and each sum enumerated from its summands' padded
# or paired facet functionals.


def reference_l1_space(n):
    vrep = []
    for i in range(n):
        e = [F(0)] * n
        e[i] = F(1)
        vrep += [Vector(e), Vector([-c for c in e])]
    hrep = [Functional(signs) for signs in itertools.product((F(1), F(-1)), repeat=n)]
    return PolyhedralSpace(hrep, vrep, name=f"l1:{n}")


def reference_linf_space(n):
    hrep = []
    for i in range(n):
        e = [F(0)] * n
        e[i] = F(1)
        hrep += [Functional(e), Functional([-c for c in e])]
    vrep = [Vector(signs) for signs in itertools.product((F(1), F(-1)), repeat=n)]
    return PolyhedralSpace(hrep, vrep, name=f"linf:{n}")


def reference_hexagon_space():
    half = F(1, 2)
    hrep = [(0, 1), (0, -1), (1, half), (-1, -half), (1, -half), (-1, half)]
    vrep = [(half, 1), (-half, -1), (1, 0), (-1, 0), (half, -1), (-half, 1)]
    return PolyhedralSpace(hrep, vrep, name="hex")


def reference_linf_sum(a, b):
    zeros_a, zeros_b = (F(0),) * a.dim, (F(0),) * b.dim
    fs = [f.coeffs + zeros_b for f in a.hrep] + [zeros_a + g.coeffs for g in b.hrep]
    return PolyhedralSpace.from_functionals(fs, name=f"linfsum({a.name or '?'},{b.name or '?'})")


def reference_l1_sum(a, b):
    fs = [f.coeffs + g.coeffs for f in a.hrep for g in b.hrep]
    return PolyhedralSpace.from_functionals(fs, name=f"l1sum({a.name or '?'},{b.name or '?'})")


def outcome(build):
    """Every field the constructor fills, or the error's type and message."""
    try:
        s = build()
    except GeometryError as err:
        return type(err), str(err)
    return s.name, s.dim, s.hrep, s.vrep, s.facet_table, s.facet_scale, s.facet_index


def test_leaves_match_the_hand_listed_reference():
    assert outcome(hexagon_space) == outcome(reference_hexagon_space)
    for n in range(1, MAX_ENUM_DIM + 1):
        assert outcome(lambda: l1_space(n)) == outcome(lambda: reference_l1_space(n))
        assert outcome(lambda: linf_space(n)) == outcome(lambda: reference_linf_space(n))


LEAVES = ["hex"] + [f"{head}:{n}" for head in ("l1", "linf") for n in range(1, MAX_ENUM_DIM + 1)]
summands = st.one_of(built_spaces(), st.sampled_from(LEAVES).map(resolve))


@settings(max_examples=80, deadline=None)
@given(summands, summands)
def test_sums_match_the_enumerated_reference(a, b):
    """Both closed forms give the space double description gives, field
    for field, or the same refusal above the caps."""
    assert outcome(lambda: l1_sum(a, b)) == outcome(lambda: reference_l1_sum(a, b))
    assert outcome(lambda: linf_sum(a, b)) == outcome(lambda: reference_linf_sum(a, b))


SUMMANDS = ["hex", "l1:1", "l1:2", "l1:3", "linf:1", "linf:2", "linf:3",
            "l1sum(hex,l1:1)", "linfsum(hex,linf:1)"]
SUM_FIELDS = ("hrep", "vrep", "facet_table", "facet_scale", "facet_index",
              "_rows", "_scale", "_points", "_point_scale", "name")


def closed_form_linf_sum(a, b):
    """``linf_sum``'s closed form as plain coordinate tuples, which the
    constructor scales, sorts and multiplies out itself."""
    zeros_a, zeros_b = (F(0),) * a.dim, (F(0),) * b.dim
    hrep = [f.coeffs + zeros_b for f in a.hrep] + [zeros_a + g.coeffs for g in b.hrep]
    vrep = [v.coords + w.coords for v in a.vrep for w in b.vrep]
    return PolyhedralSpace(hrep, vrep, name=f"linfsum({a.name},{b.name})")


def closed_form_l1_sum(a, b):
    """``l1_sum``'s closed form as plain coordinate tuples."""
    zeros_a, zeros_b = (F(0),) * a.dim, (F(0),) * b.dim
    hrep = [f.coeffs + g.coeffs for f in a.hrep for g in b.hrep]
    vrep = [v.coords + zeros_b for v in a.vrep] + [zeros_a + w.coords for w in b.vrep]
    return PolyhedralSpace(hrep, vrep, name=f"l1sum({a.name},{b.name})")


@pytest.mark.parametrize("a,b", list(itertools.product(SUMMANDS, repeat=2)))
def test_sums_on_integer_rows_equal_the_constructors_closed_form(a, b):
    """The sums hand the constructor integer rows and scales made from
    their summands', and the constructor makes their table; each field
    equals what the constructor makes of the same closed form given as
    coordinate tuples."""
    a, b = resolve(a), resolve(b)
    for built, reference in ((l1_sum(a, b), closed_form_l1_sum(a, b)),
                             (linf_sum(a, b), closed_form_linf_sum(a, b))):
        for field in SUM_FIELDS:
            assert getattr(built, field) == getattr(reference, field), field


@pytest.mark.parametrize(
    "text", LEAVES + ["l1sum(linfsum(hex,linf:1),l1:2)", "linfsum(linfsum(hex,linf:1),l1:2)",
                      "linfsum(l1sum(l1:1,l1:1),linfsum(hex,l1:1))"]
)
def test_a_sum_scales_no_rows(text, monkeypatch):
    """Every catalog space is a sum on the integer rows of the two leaves
    built at import, so resolving one scales no rows and enumerates no
    ball: no ``integer_rows`` and no ``enumerate_ball_vertices`` call."""
    calls = []
    for module, name in ((linalg, "integer_rows"), (space_module, "enumerate_ball_vertices")):
        original = getattr(module, name)

        def counted(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    resolve(text)
    assert calls == []
