"""Sequent prover: soundness, completeness on known sequents, proof round-trips."""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest

from causkit.errors import MalformedProof, UnsupportedConnective
from causkit.mll import (
    FAtom,
    FBot,
    FOne,
    FPar,
    FTensor,
    Proof,
    _key,
    _Search,
    _splits,
    formula_of_type,
    parse_proof,
    parse_sequent,
    prove,
    provable,
    render_formula,
    render_proof,
    render_sequent,
    verify_proof,
)
from causkit.typesys import parse_type
from conftest import fuzz_proof

PROVABLE = [
    "A |- A",
    "A (x) B |- A (x) B",
    "A (x) B |- B (x) A",
    "A (x) (B (x) C) |- (A (x) B) (x) C",
    "A (x) B |- A (+) B",  # needs mix
    "I |- I",
    "|- I",
    "(A (+) B) (x) C |- A (+) (B (x) C)",  # linear distributivity
    # non-signalling embeds into one-way signalling
    "(A -o A') (x) (B -o B') |- A -o ((A' -o B) -o B')",
    # a comb with trivial ends is second-order causal
    "I -o ((A -o ((A' -o B) -o B')) -o I) |- ((A -o A') (x) (B -o B')) -o I",
    # no split balances the first tensor's left premise; the second tensor
    # has the same net count but splits
    "|- a (x) a^*, (a^* (+) a) (x) (a^* (+) a)",
]

NOT_PROVABLE = [
    "A |- B",
    "A (+) B |- A (x) B",
    "A (+) (B (x) C) |- (A (+) B) (x) C",  # distributivity does not reverse
    "A -o ((A' -o B) -o B') |- (A -o A') (x) (B -o B')",
    "((A -o A') (x) (B -o B')) -o I |- I -o ((A -o ((A' -o B) -o B')) -o I)",
    "|- A",
    "A (x) A |- A",
]


@pytest.mark.parametrize("text", PROVABLE)
def test_provable_sequents_have_verifiable_proofs(text):
    proof = prove(text)
    assert proof is not None, text
    assert verify_proof(proof)
    assert proof.sequent == parse_sequent(text)


@pytest.mark.parametrize("text", NOT_PROVABLE)
def test_unprovable_sequents(text):
    assert prove(text) is None
    assert not provable(text)


def test_parse_sequent_duals_the_left():
    seq = parse_sequent("A (x) B |- C")
    assert render_sequent(seq) == "|- A^* (+) B^*, C"
    assert parse_sequent("|- A, B") == (FAtom("A", False), FAtom("B", False))


def test_formula_of_type_bakes_dims_and_rejects_cap():
    f = formula_of_type(parse_type("A[2] -o B[3]"))
    assert f == FPar(FAtom("A[2]", True), FAtom("B[3]", False))
    with pytest.raises(UnsupportedConnective):
        formula_of_type(parse_type("cap(A, B)"))
    assert formula_of_type(parse_type("A (x) B (x) C")) == FTensor(
        FAtom("A", False), FTensor(FAtom("B", False), FAtom("C", False))
    )


def test_render_parse_proof_roundtrip():
    proof = prove("A (x) B |- A (+) B")
    text = render_proof(proof)
    back = parse_proof(text)
    assert back == proof
    assert verify_proof(back)


def test_verify_rejects_tampered_proof():
    proof = prove("A |- A")
    wrong = Proof("ax", (FAtom("A", True), FAtom("B", False)), (), None)
    with pytest.raises(MalformedProof):
        verify_proof(wrong)
    with pytest.raises(MalformedProof):
        verify_proof(Proof("par", proof.sequent, (proof,), 0))


def test_parse_proof_rejects_bad_indentation():
    text = render_proof(prove("A |- A"))
    with pytest.raises(MalformedProof):
        parse_proof("      " + text)
    with pytest.raises(MalformedProof):
        parse_proof("nonsense: |- A")


def test_proof_of_one_uses_one_rule():
    proof = prove("|- I")
    assert proof.rule == "one" and proof.sequent == (FOne(),)


def test_fuzzed_proofs_verify(rng):
    for _ in range(200):
        proof = fuzz_proof(rng)
        assert verify_proof(proof)


def test_fuzzed_proofs_roundtrip_through_text(rng):
    for _ in range(40):
        proof = fuzz_proof(rng, max_depth=4)
        if not proof.sequent:
            continue  # mix0 conclusions render to an empty line; skip
        assert parse_proof(render_proof(proof)) == proof


def test_prover_finds_fuzzed_conclusions(rng):
    """Anything with a forward proof must be found provable by search."""
    for _ in range(60):
        proof = fuzz_proof(rng, max_depth=4)
        if proof.sequent:
            assert provable(proof.sequent)


def test_fresh_atom_fuzzed_conclusions_are_proved(rng):
    """Linear conclusions (one atom per axiom) take the forced-split path."""
    for _ in range(200):
        sequent = fuzz_proof(rng, max_depth=5, fresh=True).sequent
        proof = prove(sequent)
        assert proof is not None, render_sequent(sequent)
        assert verify_proof(proof) and proof.sequent == sequent


def danos_regnier_acyclic(seq) -> bool:
    """Brute-force criterion for a unit-free sequent: some axiom linking (for
    each atom, a bijection between its positive and negative occurrences)
    gives a proof structure that no switching (one premise edge per par)
    makes cyclic."""
    edges: list[tuple[int, int]] = []
    pars: list[tuple[int, int, int]] = []
    sites: dict[str, tuple[list[int], list[int]]] = {}
    count = 0

    def node(f) -> int:
        nonlocal count
        v, count = count, count + 1
        if isinstance(f, FAtom):
            sites.setdefault(f.key, ([], []))[f.neg].append(v)
        else:
            left, right = node(f.left), node(f.right)
            if isinstance(f, FTensor):
                edges.extend([(v, left), (v, right)])
            else:
                pars.append((v, left, right))
        return v

    for f in seq:
        node(f)
    if any(len(pos) != len(neg) for pos, neg in sites.values()):
        return False

    def acyclic(links) -> bool:
        for switching in itertools.product((0, 1), repeat=len(pars)):
            parent = list(range(count))

            def find(x: int) -> int:
                while parent[x] != x:
                    x = parent[x]
                return x

            chosen = [(v, (left, right)[s]) for (v, left, right), s in zip(pars, switching)]
            for a, b in edges + links + chosen:
                ra, rb = find(a), find(b)
                if ra == rb:
                    return False
                parent[ra] = rb
        return True

    bijections = [
        [list(zip(pos, perm)) for perm in itertools.permutations(neg)] for pos, neg in sites.values()
    ]
    return any(
        acyclic([link for links in linking for link in links])
        for linking in itertools.product(*bijections)
    )


def random_sequent(rng, counts) -> tuple:
    """Atom ``xk`` occurring ``counts[k]`` times each way, shuffled into
    random binary tensor/par trees."""
    items = [FAtom(f"x{k}", neg) for k, c in enumerate(counts) for neg in (False, True) for _ in range(c)]
    items = [items[j] for j in rng.permutation(len(items))]
    seq = []
    while items:
        take = int(rng.integers(1, len(items) + 1))
        group, items = items[:take], items[take:]
        while len(group) > 1:
            j = int(rng.integers(len(group) - 1))
            cls = FTensor if rng.random() < 0.5 else FPar
            group[j : j + 2] = [cls(group[j], group[j + 1])]
        seq.append(group[0])
    return tuple(seq)


def test_prover_agrees_with_danos_regnier_oracle(rng):
    verdicts = []
    for _ in range(500):
        seq = random_sequent(rng, [1] * int(rng.integers(1, 6)))
        proof = prove(seq)
        assert (proof is not None) == danos_regnier_acyclic(seq), render_sequent(seq)
        if proof is not None:
            assert verify_proof(proof) and proof.sequent == seq
        verdicts.append(proof is not None)
    assert 100 < sum(verdicts) < 400  # both verdicts are well represented


def test_prover_agrees_with_linking_oracle_on_repeated_atoms(rng):
    """Sequents with repeated atoms take the backtracking split search; the
    oracle tries every axiom linking."""
    verdicts = []
    for _ in range(300):
        seq = random_sequent(rng, rng.integers(1, 4, size=int(rng.integers(1, 4))))
        proof = prove(seq)
        assert (proof is not None) == danos_regnier_acyclic(seq), render_sequent(seq)
        if proof is not None:
            assert verify_proof(proof) and proof.sequent == seq
        verdicts.append(proof is not None)
    assert 75 < sum(verdicts) < 225  # both verdicts are well represented


def copies_family(n: int) -> str:
    """``n`` copies of ``(Ai (x) Bi) (+) (Ai^* (x) Bi^*)``: not provable."""
    return "|- " + ", ".join(f"(A{i} (x) B{i}) (+) (A{i}^* (x) B{i}^*)" for i in range(1, n + 1))


@pytest.mark.parametrize("n", [8, 12])
def test_copies_family_refuted_within_small_budget(n):
    """Split search needed over 200k expansions at n = 8; forced splits
    need one after the pars, and exceeding the budget would raise
    CombinatorialBlowup."""
    assert prove(copies_family(n), budget=100) is None


def same_name_copies(n: int) -> str:
    """``n`` copies of ``(a (x) b) (+) (a^* (x) b^*)``, all on the same two
    atoms: not provable."""
    return "|- " + ", ".join(["(a (x) b) (+) (a^* (x) b^*)"] * n)


@pytest.mark.parametrize("n", [8, 12, 20])
def test_same_name_copies_refuted_in_few_expansions(n):
    """After the pars every formula has as many ``a`` as ``b`` (counted
    with sign) and no left factor has, so no split balances a left premise:
    the multiset search refutes the sequent without trying a premise.
    Position masks took seconds at n = 8."""
    search = _Search(100)
    assert search.prove(parse_sequent(same_name_copies(n))) is None
    assert search.expansions <= 5


def test_memo_hit_on_reordered_sequent_is_an_exchange(monkeypatch):
    """The search meets ``a, a^*`` after memoizing ``a^*, a``; the cached
    proof is reused under a mix with the empty sequent, not re-proved."""
    calls = []
    search_prove = _Search._prove
    monkeypatch.setattr(_Search, "_prove", lambda self, seq: calls.append(seq) or search_prove(self, seq))
    seq = parse_sequent("|- a (x) a^*, a^*, a")
    search = _Search(100)
    proof = search.prove(seq)
    assert proof is not None and verify_proof(proof) and proof.sequent == seq
    assert len(calls) == search.expansions  # every proof attempt is on the budget


def atom_counts(formulas) -> Counter:
    """Positive minus negative occurrences of each atom key."""
    counts: Counter = Counter()

    def walk(f) -> None:
        if isinstance(f, FAtom):
            counts[f.key] += -1 if f.neg else 1
        elif isinstance(f, (FTensor, FPar)):
            walk(f.left)
            walk(f.right)

    for f in formulas:
        walk(f)
    return counts


def test_splits_yield_each_balanced_multiset_split_once(rng):
    """Against every position mask, deduplicated by sorted names."""
    # equal net counts in different formulas: a (x) b^* and a (+) b^*, and
    # a (x) a^*, b^* (+) b and I
    pool = parse_sequent("|- a, a^*, b, b^*, a (x) b^*, a (+) b^*, a^* (+) b, a (x) a^*, b^* (+) b, I")
    found = 0
    for _ in range(150):
        rest = tuple(pool[j] for j in rng.integers(len(pool), size=int(rng.integers(0, 9))))
        factor = pool[int(rng.integers(len(pool)))]
        got = [(_key(left), _key(right)) for left, right in _splits(rest, factor)]
        want = set()
        for mask in range(1 << len(rest)):
            left = [g for j, g in enumerate(rest) if mask >> j & 1]
            if not any(atom_counts(left + [factor]).values()):
                want.add((_key(left), _key([g for j, g in enumerate(rest) if not mask >> j & 1])))
        assert len(got) == len(set(got)), render_sequent(rest)
        assert set(got) == want, render_sequent(rest)
        found += len(want)
    assert found > 150  # many cases have several balanced splits


def mutated(seq: tuple, rng, connectives_only: bool = False) -> tuple:
    """``seq`` with one node flipped: a tensor for a par or back and, unless
    ``connectives_only``, a literal's polarity or ``I`` for ``I^*`` or back."""

    def flip(f):
        if isinstance(f, (FTensor, FPar)):
            return (FPar if isinstance(f, FTensor) else FTensor)(f.left, f.right)
        if connectives_only:
            return None
        if isinstance(f, FAtom):
            return FAtom(f.key, not f.neg)
        return FBot() if isinstance(f, FOne) else FOne()

    sites = []  # (formula index, path of left/right turns)

    def walk(f, i: int, path: tuple) -> None:
        if flip(f) is not None:
            sites.append((i, path))
        if isinstance(f, (FTensor, FPar)):
            walk(f.left, i, path + (0,))
            walk(f.right, i, path + (1,))

    def rebuild(f, path: tuple):
        if not path:
            return flip(f)
        parts = [f.left, f.right]
        parts[path[0]] = rebuild(parts[path[0]], path[1:])
        return type(f)(*parts)

    for i, f in enumerate(seq):
        walk(f, i, ())
    if not sites:
        return seq
    i, path = sites[int(rng.integers(len(sites)))]
    return seq[:i] + (rebuild(seq[i], path),) + seq[i + 1 :]


def copied_sequent(rng) -> tuple:
    """Two or three copies of every formula of a random linear sequent, one
    connective of one copy swapped half the time: runs of equal formulas, so
    the search splits multisets."""
    swap = rng.random() < 0.5
    copies = 3 if swap else int(rng.integers(2, 4))
    seq = random_sequent(rng, [1] * int(rng.integers(1, 6 - copies))) * copies
    return mutated(seq, rng, connectives_only=True) if swap else seq


def test_prover_agrees_with_linking_oracle_on_copied_formulas(rng):
    verdicts = []
    for _ in range(200):
        seq = copied_sequent(rng)
        assert max(Counter(_key(seq)).values()) >= 2
        proof = prove(seq)
        assert (proof is not None) == danos_regnier_acyclic(seq), render_sequent(seq)
        if proof is not None:
            assert verify_proof(proof) and proof.sequent == seq
        verdicts.append(proof is not None)
    assert 25 < sum(verdicts) < 175  # both verdicts are well represented


def split_search_oracle(seq: tuple) -> bool:
    """Provability by the unpruned split search: the invertible rules, bare
    literals paired off, then every tensor on every position split of its
    context, memoized on sorted names.  Unlike the Danos-Regnier oracle it
    takes units."""
    memo: dict[tuple, bool] = {}

    def go(seq: tuple) -> bool:
        key = tuple(sorted(render_formula(f) for f in seq))
        if key not in memo:
            memo[key] = decide(seq)
        return memo[key]

    def decide(seq: tuple) -> bool:
        for i, f in enumerate(seq):
            rest = seq[:i] + seq[i + 1 :]
            if isinstance(f, (FBot, FOne)):
                return go(rest) if rest or isinstance(f, FBot) else True
            if isinstance(f, FPar):
                return go(rest + (f.left, f.right))
        if all(isinstance(f, FAtom) for f in seq):
            return not any(atom_counts(seq).values())
        for i, f in enumerate(seq):
            if isinstance(f, FTensor):
                rest = seq[:i] + seq[i + 1 :]
                for mask in range(1 << len(rest)):
                    left = tuple(g for j, g in enumerate(rest) if mask >> j & 1)
                    right = tuple(g for j, g in enumerate(rest) if not mask >> j & 1)
                    if go(left + (f.left,)) and go(right + (f.right,)):
                        return True
        return False

    return go(seq)


def test_prover_agrees_with_split_search_oracle(rng):
    """Fuzzed conclusions with units, about half of them mutated into near
    misses by one flipped literal, unit or connective."""
    verdicts = []
    for _ in range(1000):
        seq = fuzz_proof(rng, max_depth=4).sequent
        if rng.random() < 0.5:
            seq = mutated(seq, rng)
        proof = prove(seq)
        assert (proof is not None) == split_search_oracle(seq), render_sequent(seq)
        if proof is not None:
            assert verify_proof(proof) and proof.sequent == seq
        verdicts.append(proof is not None)
    assert 300 < sum(verdicts) < 900  # both verdicts are well represented
