"""Type grammar, normalization and first-order embeddings."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causkit import mll
from causkit.errors import (
    DuplicateLabel,
    EmbedMismatch,
    TypeSyntaxError,
    UnsupportedConnective,
)
from causkit.typesys import (
    Atom,
    Cap,
    Dual,
    Lolli,
    Par,
    Tensor,
    Unit,
    fo_embedding,
    intersect,
    is_first_order,
    normalize,
    parse_type,
    render_type,
)


def test_parse_atoms_and_dims():
    assert parse_type("A") == Atom("A")
    assert parse_type("A[3]") == Atom("A", 3)
    assert parse_type("A'[2]") == Atom("A'", 2)
    assert parse_type("I") == Unit()


def test_precedence_dual_tensor_par_lolli():
    # ^* binds tightest, then (x), then (+), and -o loosest / right-assoc
    assert parse_type("A (x) B^*") == Tensor((Atom("A"), Dual(Atom("B"))))
    assert parse_type("A (+) B (x) C") == Par((Atom("A"), Tensor((Atom("B"), Atom("C")))))
    assert parse_type("A -o B (+) C") == Lolli(Atom("A"), Par((Atom("B"), Atom("C"))))
    assert parse_type("A -o B -o C") == Lolli(Atom("A"), Lolli(Atom("B"), Atom("C")))
    assert parse_type("(A -o B) -o C") == Lolli(Lolli(Atom("A"), Atom("B")), Atom("C"))


def test_parse_cap():
    t = parse_type("cap(A, B, C)")
    assert t == Cap((Atom("A"), Atom("B"), Atom("C")))
    with pytest.raises(TypeSyntaxError):
        parse_type("cap(A)")


@pytest.mark.parametrize(
    "bad",
    ["", "A (x)", "(A", "A)", "A[0]", "A[x]", "A B", "-o A", "A^", "A *"],
)
def test_syntax_errors(bad):
    with pytest.raises(TypeSyntaxError):
        parse_type(bad)


def test_dimensions_are_ascii_digits():
    """A dimension is read in ASCII digits only: an Arabic-Indic three is
    no dimension, where ``\\d`` would have read it as 3."""
    with pytest.raises(TypeSyntaxError):
        parse_type("A[\u0663]")
    assert parse_type("A[03]") == Atom("A", 3)


@pytest.mark.parametrize(
    "label, dim",
    [("A B", 0), ("A B", None), ("I", 2), ("I", None), ("A", -1), ("A", 0), ("A", True), ("A", 2.0),
     ("", None), ("3A", None), ("A\u0663", None), ("A[2]", None), ("cap(", None), (None, None)],
)
def test_atom_refuses_what_does_not_render(label, dim):
    """An atom is a label the grammar reads as a name, other than the unit
    ``I``, with no dimension or an ``int`` of at least 1."""
    with pytest.raises(TypeSyntaxError):
        Atom(label, dim)


def test_render_parse_roundtrip_examples():
    for text in [
        "A[2] -o A'[2]",
        "(A -o A') (x) (B -o B')",
        "(A) -o ((A' -o B) -o B')",
        "cap(A (x) B, A (+) B)",
        "I -o (A^* (+) B)",
        "((X[2] (x) C[2]) -o (((A[2] -o A'[2]) (x) (B[2] -o B'[2])) -o C'[2]))",
    ]:
        t = parse_type(text)
        assert parse_type(render_type(t)) == t
        n = normalize(t)
        assert parse_type(render_type(n)) == n


def test_normalize_pushes_duals_to_atoms():
    n = normalize(parse_type("(A (x) B)^*"))
    assert n == Par((Dual(Atom("A")), Dual(Atom("B"))))
    n = normalize(parse_type("(A (+) B)^*"))
    assert n == Tensor((Dual(Atom("A")), Dual(Atom("B"))))
    assert normalize(parse_type("A^*^*")) == Atom("A")
    assert normalize(parse_type("I^*")) == Unit()


def test_normalize_desugars_lolli_and_flattens():
    n = normalize(parse_type("A -o B"))
    assert n == Par((Dual(Atom("A")), Atom("B")))
    n = normalize(parse_type("(A (x) B) (x) C"))
    assert n == Tensor((Atom("A"), Atom("B"), Atom("C")))
    assert normalize(parse_type("I (x) A")) == Atom("A")
    assert normalize(parse_type("A (+) I")) == Atom("A")
    assert normalize(parse_type("I (x) I")) == Unit()


def test_normalize_is_idempotent_on_examples():
    for text in ["(A -o B) -o (C (x) I)", "cap(A -o A, I -o A)", "(A (+) B)^* (x) C"]:
        n = normalize(parse_type(text))
        assert normalize(n) == n


def test_first_order_predicate():
    assert is_first_order(parse_type("A (x) B"))
    assert is_first_order(parse_type("I"))
    assert not is_first_order(normalize(parse_type("A -o B")))
    assert not is_first_order(parse_type("A^*"))


def test_embedding_of_two_step_comb_type():
    t = parse_type("(A1[2]) -o (((A1'[2]) -o (A2[3])) -o (A2'[3]))")
    emb = fo_embedding(normalize(t))
    assert emb.in_atoms == (Atom("A1", 2), Atom("A2", 3))
    assert emb.out_atoms == (Atom("A1'", 2), Atom("A2'", 3))
    ambient = emb.ambient()
    assert ambient == normalize(parse_type("(A1[2] (x) A2[3]) -o (A1'[2] (x) A2'[3])"))


def test_embedding_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        fo_embedding(normalize(parse_type("A[2] (x) A[2]")))


def test_cap_branches_must_share_ambient():
    # both branches see outputs A, B: fine
    intersect(parse_type("A[2] (x) B[2]"), parse_type("A[2] (+) B[2]"))
    with pytest.raises(EmbedMismatch):
        intersect(parse_type("A[2] (x) B[2]"), parse_type("A[2] (x) C[2]"))
    with pytest.raises(EmbedMismatch):
        # same labels, opposite roles
        intersect(parse_type("A[2] -o B[2]"), parse_type("B[2] -o A[2]"))


def test_cap_under_dual_is_rejected():
    with pytest.raises(UnsupportedConnective):
        normalize(parse_type("cap(A, B)^*"))


# -- property tests ---------------------------------------------------------------

_atoms = st.sampled_from(["A", "B", "C", "A'", "B'"]).map(Atom)
_types = st.recursive(
    _atoms | st.just(Unit()),
    lambda sub: st.one_of(
        sub.map(Dual),
        st.tuples(sub, sub).map(lambda ab: Tensor(ab)),
        st.tuples(sub, sub).map(lambda ab: Par(ab)),
        st.tuples(sub, sub).map(lambda ab: Lolli(ab[0], ab[1])),
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(t=_types)
def test_render_parse_roundtrip_property(t):
    assert parse_type(render_type(t)) == t


_labels = st.from_regex(r"[A-Za-z_][A-Za-z0-9_']{0,3}", fullmatch=True).filter(lambda l: l != "I")
_dims = st.none() | st.integers(1, 1000)
_any_types = st.recursive(
    st.builds(Atom, _labels, _dims) | st.just(Unit()),
    lambda sub: st.one_of(
        sub.map(Dual),
        st.lists(sub, min_size=2, max_size=3).map(Tensor),
        st.lists(sub, min_size=2, max_size=3).map(Par),
        st.tuples(sub, sub).map(lambda ab: Lolli(ab[0], ab[1])),
        st.lists(sub, min_size=2, max_size=3).map(Cap),
    ),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None)
@given(t=_any_types)
def test_render_parse_roundtrip_on_any_labels_and_dims_property(t):
    """Random types over random labels (``cap`` among the names they may
    take) and dimensions, with n-ary tensors, pars and caps, render to text
    that parses back to them."""
    assert parse_type(render_type(t)) == t


@settings(max_examples=300, deadline=None)
@given(label=st.text(alphabet="AIa_'0[]3 \u0663\u2168", max_size=4) | st.text(max_size=3), dim=st.none() | st.integers(-2, 12))
@example(label="A[3]", dim=None)
@example(label="I", dim=2)
@example(label="I'", dim=2)
@example(label="A\u0663", dim=None)
def test_atom_is_built_only_if_it_round_trips_property(label, dim):
    """Any label and dimension: the atom is built, and round-trips through
    ``render_type`` and through an ``mll`` atom key, exactly when the key
    rule takes the label as a whole key and the dimension is at least 1;
    otherwise it is refused."""
    if mll._ATOM_KEY.fullmatch(label) is None or "[" in label or not (dim is None or dim >= 1):
        with pytest.raises(TypeSyntaxError):
            Atom(label, dim)
        return
    atom = Atom(label, dim)
    assert parse_type(render_type(atom)) == atom
    assert mll.formula_of_type(atom).key == render_type(atom)


@settings(max_examples=150, deadline=None)
@given(t=_types)
def test_normalize_idempotent_property(t):
    n = normalize(t)
    assert normalize(n) == n
    # a normal form renders to something that parses back to itself
    assert parse_type(render_type(n)) == n


@settings(max_examples=100, deadline=None)
@given(t=_types)
def test_double_dual_is_identity_after_normalization(t):
    assert normalize(Dual(Dual(t))) == normalize(t)
