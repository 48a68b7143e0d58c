"""Determinants, the packed-monomial codec and rendering, and the reference
``MPoly`` arithmetic the tests build their expected values with."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cherednik_centre import (
    GenSym,
    partitions_of,
    schubert_basis,
    InhomogeneousRelation,
    NonSquare,
    ZeroPolynomial,
    determinant,
    format_poly,
    weighted_degree,
)
from cherednik_centre.polyring import (
    PackedPolys,
    Radix,
    generator_name,
    monomial_degree,
)

from reference import (
    ONE_MONO,
    add,
    coefficient_of_u,
    const,
    constant_value,
    d_du,
    det_by_laplace_memo,
    det_by_permutations,
    dumps_at_depth,
    gen,
    json_terms,
    monomial,
    monomial_product,
    mul,
    neg,
    scale,
    sub,
    term_sort_key,
    u_power,
)

F11 = GenSym(1, 1)
F12 = GenSym(1, 2)
F21 = GenSym(2, 1)
F22 = GenSym(2, 2)

_symbols = st.sampled_from([F11, F12, F21, F22])
_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(
    lambda f: f != 0
)


@st.composite
def polys(draw, max_terms=4):
    p = {}
    for _ in range(draw(st.integers(0, max_terms))):
        ue = draw(st.integers(0, 3))
        factors = {}
        for _ in range(draw(st.integers(0, 2))):
            s = draw(_symbols)
            factors[s] = factors.get(s, 0) + 1
        key = (ue, tuple(sorted(factors.items())))
        p[key] = p.get(key, Fraction(0)) + draw(_coeffs)
    return {k: c for k, c in p.items() if c}


# --- ring axioms --------------------------------------------------------------


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert add(p, q) == add(q, p)
    assert mul(p, q) == mul(q, p)
    assert add(add(p, q), r) == add(p, add(q, r))
    assert mul(mul(p, q), r) == mul(p, mul(q, r))
    assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
    assert add(p, neg(p)) == {}
    assert sub(p, q) == add(p, neg(q))
    assert mul(p, const(1)) == p
    assert mul(p, {}) == {}


@given(polys())
def test_scale_matches_constant_multiplication(p):
    assert scale(p, Fraction(3, 2)) == mul(p, const(Fraction(3, 2)))
    assert scale(p, 0) == {}


@given(polys(), polys())
def test_derivative_is_a_leibniz_map(p, q):
    assert d_du(mul(p, q)) == add(mul(d_du(p), q), mul(p, d_du(q)))
    assert d_du(add(p, q)) == add(d_du(p), d_du(q))


def test_derivative_examples():
    assert d_du(u_power(3)) == {(2, ()): Fraction(3)}
    assert d_du(gen(F12)) == {}
    assert d_du(const(7)) == {}


# --- grading ------------------------------------------------------------------


def test_weighted_degree_cases():
    assert weighted_degree(u_power(4)) == 4
    assert weighted_degree(gen(F22)) == 2
    assert weighted_degree(mul(gen(F22), u_power(3))) == 5
    assert weighted_degree(add(u_power(2), gen(F22))) == 2
    mixed = add(u_power(1), gen(F22))
    with pytest.raises(InhomogeneousRelation) as raised:
        weighted_degree(mixed)
    assert raised.value.args == (mixed,)
    with pytest.raises(ZeroPolynomial):
        weighted_degree({})


@given(polys().filter(lambda p: p), polys().filter(lambda p: p))
def test_degree_of_product_adds_for_homogeneous_inputs(p, q):
    try:
        dp, dq = weighted_degree(p), weighted_degree(q)
    except InhomogeneousRelation:
        return
    prod = mul(p, q)
    if prod:
        assert weighted_degree(prod) == dp + dq


def test_radix_places_pins():
    """``u`` and symbols of degrees 2 and 3 up to degree 6: bases 7, 4, 3,
    the ``u`` digit most significant; bases given per digit are kept."""
    radix = Radix.by_degree([F12, GenSym(1, 3)], 6)
    assert (radix.places, radix.bases) == ((12, 3, 1), (7, 4, 3))
    empty = Radix.by_degree([], 6)
    assert (empty.places, empty.bases) == ((1,), (7,))
    assert Radix([F11, F21], [3, 2, 5]).places == (10, 5, 1)


@st.composite
def _monomials_within(draw, symbols, budget):
    """A canonical monomial in ``u`` and ``symbols`` (sorted) of weighted
    degree at most ``budget``."""
    ue = draw(st.integers(0, budget))
    budget -= ue
    gens = []
    for s in symbols:
        e = draw(st.integers(0, budget // s.degree))
        budget -= e * s.degree
        if e:
            gens.append((s, e))
    return ue, tuple(gens)


def _symbols_of_weights(weights):
    return [GenSym(row, w) for row, w in enumerate(weights, start=1)]


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 9), st.data())
def test_radix_codes_add_without_carrying(weights, max_degree, data):
    """Two monomials whose weighted degrees sum to at most the bound encode
    to codes whose sum decodes to their product."""
    symbols = _symbols_of_weights(weights)
    radix = Radix.by_degree(symbols, max_degree)
    a = data.draw(_monomials_within(symbols, max_degree))
    b = data.draw(_monomials_within(symbols, max_degree - monomial_degree(a)))
    (code_a,), (code_b,) = radix.encode_poly({a: 1}), radix.encode_poly({b: 1})
    assert radix.decode(code_a + code_b) == monomial_product(a, b)


@given(st.lists(st.integers(1, 4), max_size=4), st.integers(0, 9), st.data())
def test_radix_decode_inverts_encode(weights, max_degree, data):
    """``decode(encode(m)) == m`` for canonical monomials within either
    sizing rule: weighted degree at most the bound, or each exponent below
    its digit's base."""
    symbols = _symbols_of_weights(weights)
    digits = len(symbols) + 1
    bases = data.draw(st.lists(st.integers(1, 5), min_size=digits, max_size=digits))
    exponents = [data.draw(st.integers(0, base - 1)) for base in bases]
    cases = [
        (Radix.by_degree(symbols, max_degree), data.draw(_monomials_within(symbols, max_degree))),
        (
            Radix(symbols, bases),
            (exponents[0], tuple((s, e) for s, e in zip(symbols, exponents[1:]) if e)),
        ),
    ]
    for radix, mono in cases:
        (code,) = radix.encode_poly({mono: 1})
        assert radix.decode(code) == mono


def test_coefficient_of_u():
    p = add(add(u_power(2), mul(gen(F11), u_power(1))), gen(F22))
    assert coefficient_of_u(p, 2) == const(1)
    assert coefficient_of_u(p, 1) == gen(F11)
    assert coefficient_of_u(p, 0) == gen(F22)
    assert coefficient_of_u(p, 5) == {}


def test_constant_value():
    assert constant_value(const(Fraction(3, 4))) == Fraction(3, 4)
    assert constant_value({}) == 0
    with pytest.raises(ValueError):
        constant_value(u_power(1))


# --- determinants -------------------------------------------------------------


def _assert_canonical(p):
    """The canonical ``MPoly`` invariants: ``Fraction`` coefficients, none
    zero; non-negative ``u`` exponents; generator factors strictly sorted by
    symbol, each with a positive exponent."""
    for (ue, gens), c in p.items():
        assert type(c) is Fraction and c != 0
        assert type(ue) is int and ue >= 0
        assert all(type(s) is GenSym and e > 0 for s, e in gens)
        symbols = [s for s, _ in gens]
        assert symbols == sorted(set(symbols))


def _wronski_matrix(lam):
    rows = [list(schubert_basis(lam).polys)]
    for _ in range(len(rows[0]) - 1):
        rows.append([d_du(p) for p in rows[-1]])
    return rows


@pytest.mark.parametrize("n", range(1, 9))
def test_determinant_matches_laplace_memo_on_schubert_wronskians(n):
    for lam in partitions_of(n):
        matrix = _wronski_matrix(lam)
        det = determinant(matrix)
        assert det == det_by_laplace_memo(matrix), lam
        _assert_canonical(det)


_big_symbols = st.sampled_from([F11, F12, F21, F22, GenSym(3, 1), GenSym(3, 4)])
_proper_fractions = st.builds(
    Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 7)
).filter(lambda f: f.denominator > 1)


@st.composite
def _entries(draw):
    """A polynomial of up to three terms, or zero: non-integer coefficients,
    ``u`` exponents up to 4 and generator exponents up to 3."""
    p = {}
    for _ in range(draw(st.integers(0, 3))):
        factors = {}
        for _ in range(draw(st.integers(0, 2))):
            s = draw(_big_symbols)
            factors[s] = factors.get(s, 0) + draw(st.integers(1, 3))
        mono = (draw(st.integers(0, 4)), tuple(sorted(factors.items())))
        p[mono] = p.get(mono, Fraction(0)) + draw(_proper_fractions)
    return {k: c for k, c in p.items() if c}


@given(st.integers(1, 5), st.data())
def test_determinant_matches_laplace_memo_on_sparse_fraction_matrices(n, data):
    matrix = [[data.draw(_entries()) for _ in range(n)] for _ in range(n)]
    det = determinant(matrix)
    assert det == det_by_laplace_memo(matrix)
    _assert_canonical(det)
    zero_row = data.draw(st.integers(0, n - 1))
    matrix[zero_row] = [{} for _ in range(n)]
    assert determinant(matrix) == {}


def test_determinant_of_high_exponents_does_not_carry():
    """Exponents that fill every digit of the packed monomial: the product
    of the diagonal has ``u^7 * f1,1^5`` and must not spill into the next
    digit."""
    a = monomial(3, {F11: 2}, Fraction(1, 2))
    b = monomial(4, {F11: 3}, Fraction(2, 3))
    matrix = [[a, {}], [const(5), b]]
    assert determinant(matrix) == monomial(7, {F11: 5}, Fraction(1, 3))
    _assert_canonical(determinant(matrix))


@given(st.integers(1, 4), st.data())
def test_determinant_matches_permutation_expansion(n, data):
    matrix = [[data.draw(polys(max_terms=2)) for _ in range(n)] for _ in range(n)]
    assert determinant(matrix) == det_by_permutations(matrix)


def test_determinant_edge_cases():
    assert determinant([]) == const(1)
    identity = [[const(1 if i == j else 0) for j in range(3)] for i in range(3)]
    assert determinant(identity) == const(1)
    assert determinant([[const(0), u_power(1)], [u_power(1), const(0)]]) == scale(
        u_power(2), -1
    )
    # two equal rows: every term of the last minor cancels
    row = [add(u_power(1), gen(F11)), const(3)]
    assert determinant([row, list(row)]) == {}
    with pytest.raises(NonSquare):
        determinant([[const(1), const(2)]])


def test_determinant_alternates_under_row_swap():
    m = [[u_power(1), const(2)], [gen(F11), u_power(2)]]
    swapped = [m[1], m[0]]
    assert determinant(swapped) == neg(determinant(m))


def test_generalized_vandermonde_determinant():
    """det(d^k/du^k u^{d_i}) = Π_{i<j}(d_i − d_j) · u^{Σd − n(n−1)/2};
    for the beta-set (7,5,2,1,0) the scalar is 50400."""
    degrees = (7, 5, 2, 1, 0)
    rows = [[u_power(d) for d in degrees]]
    for _ in range(len(degrees) - 1):
        rows.append([d_du(p) for p in rows[-1]])
    det = determinant(rows)
    assert det == scale(u_power(5), 50400)


# --- rendering ----------------------------------------------------------------


def test_term_sort_key_orders_by_degree_then_u():
    monos = [
        (0, ((F11, 1),)),  # degree 1
        (1, ()),  # degree 1, more u
        (0, ((F22, 1),)),  # degree 2
        (2, ()),  # degree 2, most u
    ]
    ordered = sorted(monos, key=term_sort_key)
    assert ordered == [(2, ()), (0, ((F22, 1),)), (1, ()), (0, ((F11, 1),))]


def test_format_poly_pins():
    assert format_poly({}) == "0"
    assert format_poly(const(Fraction(-3, 7))) == "-3/7"
    p = add(u_power(2), scale(mul(gen(F21), u_power(1)), -2))
    assert format_poly(p) == "u^2 - 2*f2,1*u"
    q = add(scale(gen(F12), Fraction(3, 5)), mul(gen(F11), gen(F11)))
    assert format_poly(q) == "f1,1^2 + 3/5*f1,2"
    assert format_poly(gen(F11), prefix="g") == "g1,1"


def test_format_poly_constant_one_monomials():
    assert format_poly(const(1)) == "1"
    assert format_poly(neg(u_power(1))) == "-u"
    assert const(1) == {ONE_MONO: Fraction(1)}


# Reference renderers: terms in the order of ``reference.term_sort_key``,
# every name from ``generator_name``, signs and magnitudes from ``Fraction``
# comparisons and ``abs``.  The renderers must agree with them exactly.


def _reference_format_coefficient(c):
    return str(c)


def _reference_named_terms(p, prefix="f"):
    for mono in sorted(p, key=term_sort_key):
        names = []
        for s, e in mono[1]:
            names.extend([generator_name(s, prefix)] * e)
        yield mono, names


def _reference_format_factors(mono, prefix):
    ue, gens = mono
    pieces = []
    for s, e in gens:
        name = generator_name(s, prefix)
        pieces.append(name if e == 1 else f"{name}^{e}")
    if ue:
        pieces.append("u" if ue == 1 else f"u^{ue}")
    return "*".join(pieces)


def _reference_format_poly(p, prefix="f"):
    if not p:
        return "0"
    pieces = []
    for mono in sorted(p, key=term_sort_key):
        c = p[mono]
        factors = _reference_format_factors(mono, prefix)
        if not factors:
            body = _reference_format_coefficient(abs(c))
        elif abs(c) == 1:
            body = factors
        else:
            body = f"{_reference_format_coefficient(abs(c))}*{factors}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


_render_coeffs = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1)]),
    _proper_fractions,
    st.fractions(min_value=-99, max_value=99, max_denominator=12).filter(bool),
)


@st.composite
def _render_polys(draw):
    """Up to six terms: coefficients +-1, non-integer fractions of either
    sign and integers; the constant monomial drawn often; several
    generators, exponents up to 3."""
    p = {}
    for _ in range(draw(st.integers(0, 6))):
        factors = {}
        for _ in range(draw(st.integers(0, 3))):
            s = draw(_big_symbols)
            factors[s] = factors.get(s, 0) + draw(st.integers(1, 3))
        p[(draw(st.integers(0, 3)), tuple(sorted(factors.items())))] = draw(_render_coeffs)
    return p


@given(_render_polys(), st.sampled_from(["f", "g"]))
def test_rendering_equals_the_reference(p, prefix):
    assert format_poly(p, prefix) == _reference_format_poly(p, prefix)


def test_rendering_equals_the_reference_on_signs_and_constants():
    p = {
        ONE_MONO: Fraction(-7, 3),
        (1, ()): Fraction(-1),
        (0, ((F11, 1),)): Fraction(1),
        (0, ((F12, 3), (F21, 1))): Fraction(-5, 2),
        (2, ((F22, 2),)): Fraction(4),
    }
    for prefix in ("f", "g"):
        assert format_poly(p, prefix) == _reference_format_poly(p, prefix)
        assert format_poly(p, "g") == "-5/2*g1,2^3*g2,1 + 4*g2,2^2*u^2 - u + g1,1 - 7/3"
    assert format_poly({ONE_MONO: Fraction(-1)}) == "-1"
    assert format_poly({(0, ((F11, 2),)): Fraction(-1, 2)}) == "-1/2*f1,1^2"


# The packed renderer against a reference route: decode every code to a
# canonical monomial, divide by the coefficient of the first term in
# canonical order (``_reference_monic``), then render the ``Fraction``
# polynomial with the reference renderers above.  Every symbol weighs at
# least 1, as on every codec the package builds, so a factor tuple that is a
# prefix of another's ties with it on degree only at a larger u exponent.

_PACKED_SYMBOLS = sorted([F11, F12, F21, F22, GenSym(3, 1), GenSym(3, 4), GenSym(4, 1)])
_PACKED_RADIX = Radix(_PACKED_SYMBOLS, [4] * (len(_PACKED_SYMBOLS) + 1))


def _reference_monic(p, lead=None):
    canonical = {_PACKED_RADIX.decode(code): c for code, c in p.items()}
    if lead is None and canonical:
        lead = canonical[min(canonical, key=term_sort_key)]
    return {mono: Fraction(c, lead) for mono, c in canonical.items()}


def _reference_json_terms(p, prefix):
    return [
        {"coefficient": str(p[mono]), "monomial": names + ["u"] * mono[0]}
        for mono, names in _reference_named_terms(p, prefix)
    ]


@st.composite
def _packed_polys(draw):
    """Up to eight terms, ``u`` and every exponent up to 3, int coefficients
    that a small lead divides or does not."""
    codes = draw(st.lists(st.integers(0, 4 ** (len(_PACKED_SYMBOLS) + 1) - 1), max_size=8))
    return {code: draw(st.integers(-36, 36).filter(bool)) for code in codes}


_U_F11 = _PACKED_RADIX.places[0] + _PACKED_RADIX.places[1]  # u * f1,1
_F11_F21 = _PACKED_RADIX.places[1] + _PACKED_RADIX.places[3]  # f1,1 * f2,1
_F11_F41 = _PACKED_RADIX.places[1] + _PACKED_RADIX.places[7]  # f1,1 * f4,1


@given(_packed_polys(), st.sampled_from([None, 1, -1, 2, -3, 6]), st.sampled_from(["f", "g"]))
@example({}, None, "f")  # the zero relation
@example({_U_F11: 4, _F11_F21: -6, 1: 8}, None, "g")  # positive lead 4: divides 8, not -6
@example({_U_F11: -6, _F11_F21: 3, 1: -12}, None, "f")  # negative lead -6
@example({_U_F11: 12, _F11_F21: -9, 1: 2}, -3, "g")  # lead -3 divides 12, -9, not 2
@example({_F11_F41: 5, _U_F11: 2, 1: 7, 0: -1}, None, "f")  # a factor prefix: u decides
def test_packed_rendering_equals_decode_monic_and_render(p, lead, prefix):
    packed = PackedPolys(_PACKED_RADIX, [p], None if lead is None else [lead])
    reference = _reference_monic(p, lead)
    assert packed.text(0, prefix) == _reference_format_poly(reference, prefix)
    assert json.loads(packed.json_text(0, prefix)) == _reference_json_terms(reference, prefix)
    assert list(packed) == [reference]


# ``json_text`` against ``json.dumps`` of the reference ``json_terms``, where
# the relation sits ``depth`` lists deep; the text is written there, with its
# closing bracket after the newline and indent of that depth.


@given(
    _packed_polys(),
    st.sampled_from([None, 1, -1, 2, -3, 6]),
    st.sampled_from(["f", "g"]),
    st.integers(0, 4),
)
@example({}, None, "f", 0)  # the zero relation
@example({}, 5, "g", 2)  # the zero relation, nested
@example({_PACKED_RADIX.places[0] * 2: 3, _U_F11: 6}, None, "f", 1)  # a u-only term
@example({_U_F11: -6, _F11_F21: 3, 1: -12}, None, "f", 3)  # negative lead -6
@example({_U_F11: 4, _F11_F21: -6, 1: 8}, None, "f", 1)  # lead 4 divides 8, not -6
@example({_U_F11: 12, _F11_F21: -9, 1: 2}, -3, "g", 2)  # prefix g, given lead
def test_json_text_equals_json_dumps_of_the_reference_terms(p, lead, prefix, depth):
    packed = PackedPolys(_PACKED_RADIX, [p], None if lead is None else [lead])
    pad = "\n" + "  " * depth
    expected = dumps_at_depth(json_terms(packed, 0, prefix), depth)
    assert packed.json_text(0, prefix, pad) == expected


# --- equality: code for code on one codec, decoded otherwise ------------------


def test_packed_equality_on_equal_codecs_compares_codes():
    """Equal ``symbols`` and ``bases`` and equal explicit leads compare by the
    code dicts, with nothing decoded; a codec built twice is equal."""
    twin = Radix(_PACKED_SYMBOLS, _PACKED_RADIX.bases)
    a = PackedPolys(_PACKED_RADIX, [{_U_F11: 2, 1: -3}, {}], (1, 1))
    b = PackedPolys(twin, [{1: -3, _U_F11: 2}, {}], (1, 1))
    c = PackedPolys(twin, [{_U_F11: 2, 1: -4}, {}], (1, 1))
    assert a == b and b == a
    assert a != c and c != a
    assert a._decoded is b._decoded is c._decoded is None


def test_packed_equality_falls_back_to_the_decoded_polynomials():
    """Different codecs, a plain tuple, ``leads=None`` or unequal leads are
    compared decoded, so a pair whose codes or leads differ can be equal."""
    p = {(1, ((F11, 1),)): Fraction(2), (0, ((F11, 1), (F21, 1))): Fraction(-3)}
    tight = PackedPolys.from_polys([p])
    wide_radix = Radix.by_degree(tight.radix.symbols, 5)
    wide = PackedPolys(wide_radix, wide_radix.pack([p])[0], (1,))
    assert tight.polys != wide.polys
    assert tight == wide and wide == tight
    assert tight == (p,) and (p,) == tight
    assert tight != (p, {})
    # the same codes on other symbols are other polynomials
    other = PackedPolys(Radix([F12, F22], tight.radix.bases), tight.polys, tight.leads)
    assert tight.polys == other.polys and tight != other
    # a monic view, and an explicit lead of 2, against lead 1 on one codec
    doubled = {code: 2 * c for code, c in tight.polys[0].items()}
    assert PackedPolys(tight.radix, [doubled], (2,)) == tight
    monic = {code: -c for code, c in tight.polys[0].items()}
    assert PackedPolys(tight.radix, [monic]) == PackedPolys(tight.radix, [doubled])
    assert PackedPolys(tight.radix, [doubled]) != tight
