"""Sequent prover: soundness, completeness on known sequents, proof round-trips."""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

from causkit import backends, checks
from causkit.core import BACKENDS, REL, Process, System
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
    dual,
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
from conftest import fuzz_proof, rand_process

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


def test_atom_dimension_is_part_of_its_name():
    """Atoms of different dimensions never link."""
    assert prove("A[2] |- A[3]") is None and not provable("A[3] -o A[2]")
    proof = prove("A[2] |- A[2]")
    assert proof is not None and verify_proof(proof)
    assert proof.sequent == (FAtom("A[2]", True), FAtom("A[2]", False))


def test_render_parse_proof_roundtrip():
    proof = prove("A (x) B |- A (+) B")
    text = render_proof(proof)
    back = parse_proof(text)
    assert back == proof
    assert verify_proof(back)


def _render_recursively(f, ctx=2):
    """The rendering by recursion on the formula, as ``render_formula`` made
    it before names were made with a stack: the oracle for ``name``."""
    if isinstance(f, (FTensor, FPar)):
        prec, op = (1, "(x)") if isinstance(f, FTensor) else (2, "(+)")
        text = f"{_render_recursively(f.left, prec - 1)} {op} {_render_recursively(f.right, prec - 1)}"
        return f"({text})" if prec > ctx else text
    return f.name


def _recursive_proof_lines(proof, depth=0):
    at = "" if proof.principal is None else f"@{proof.principal}"
    yield f"{'  ' * depth}{proof.rule}{at}: |- " + ", ".join(_render_recursively(f) for f in proof.sequent)
    for prem in proof.premises:
        yield from _recursive_proof_lines(prem, depth + 1)


def test_renderings_match_recursive_rendering(rng):
    """Names made with a stack and proofs rendered with one are the
    recursive renderings, byte for byte, on fresh fuzzed proofs, whose
    formulas have no name yet, and on chains whose inner names are made
    first."""
    for _ in range(100):
        proof = fuzz_proof(rng)
        assert render_proof(proof) == "\n".join(_recursive_proof_lines(proof))
    chain = FAtom("z")
    for k in range(30):
        chain = (FTensor if k % 3 else FPar)(FAtom(f"a{k}", k % 2 == 0), chain)
        if k % 7 == 0:
            chain.name  # made now, read from the cache by the outer formulas
    assert chain.name == _render_recursively(chain)
    assert render_formula(chain, 0) == _render_recursively(chain, 0)


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


def mutated(seq: tuple, rng, kinds: tuple = (FTensor, FPar, FAtom, FOne, FBot)) -> tuple:
    """``seq`` with one node of the ``kinds`` flipped: a tensor for a par or
    back, a literal's polarity, or ``I`` for ``I^*`` or back."""

    def flip(f):
        if not isinstance(f, kinds):
            return None
        if isinstance(f, (FTensor, FPar)):
            return (FPar if isinstance(f, FTensor) else FTensor)(f.left, f.right)
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
    return mutated(seq, rng, kinds=(FTensor, FPar)) if swap else seq


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


def test_every_expanded_sequent_balances(rng, monkeypatch):
    """The seeded sequents of the oracle tests above, near misses included:
    the root balance ``prove`` checks holds for every subsequent the search
    expands, since every rule keeps it."""
    expanded = []
    search_prove = _Search._prove
    monkeypatch.setattr(_Search, "_prove", lambda self, seq: expanded.append(seq) or search_prove(self, seq))
    for _ in range(100):
        prove(random_sequent(rng, [1] * int(rng.integers(1, 6))))
        prove(random_sequent(rng, rng.integers(1, 4, size=int(rng.integers(1, 4)))))
        prove(copied_sequent(rng))
        seq = fuzz_proof(rng, max_depth=4).sequent
        prove(mutated(seq, rng) if rng.random() < 0.5 else seq)
    assert len(expanded) > 500
    for seq in expanded:
        assert not any(atom_counts(seq).values()), render_sequent(seq)


def test_unbalanced_sequents_are_refused_before_any_search(rng, monkeypatch):
    """Fuzzed conclusions with one literal's polarity flipped, which
    unbalances its atom: refused without building a search."""

    def no_search(budget):
        raise AssertionError("a search was built for an unbalanced sequent")

    monkeypatch.setattr("causkit.mll._Search", no_search)
    refused = 0
    for _ in range(300):
        seq = fuzz_proof(rng, max_depth=4).sequent
        flipped = mutated(seq, rng, kinds=(FAtom,))
        if flipped != seq:
            assert any(atom_counts(flipped).values())
            assert prove(flipped) is None and prove(render_sequent(flipped)) is None
            refused += 1
    assert refused > 200


def test_deep_proof_verifies_with_a_stack():
    """The proof of a flat 401-atom sequent, over 1,200 nodes deep, verifies;
    tampered with, the first bad node in pre-order is named, the deepest
    leaf or, when it is bad too, an earlier first premise."""
    n = 401
    proof = prove(" (x) ".join(f"A{k}" for k in range(n)) + " |- " + " (+) ".join(f"A{k}" for k in range(n)))
    assert verify_proof(proof)
    path = [proof]  # the last premise of each node, down to the deepest leaf
    while path[-1].premises:
        path.append(path[-1].premises[-1])
    assert len(path) > 1200 and path[-1].rule == "ax"
    mix = next(i for i, node in enumerate(path) if node.rule == "mix")

    def tampered(shallow: bool) -> Proof:
        """The proof with the deepest leaf's rule, and if ``shallow`` the
        first mix's first premise's rule, changed to ``one``."""
        node = Proof("one", path[-1].sequent)
        for i in range(len(path) - 2, -1, -1):
            premises = path[i].premises[:-1] + (node,)
            if shallow and i == mix:
                premises = (Proof("one", premises[0].sequent),) + premises[1:]
            node = dataclasses.replace(path[i], premises=premises)
        return node

    for shallow, named in ((False, path[-1]), (True, path[mix].premises[0])):
        with pytest.raises(MalformedProof) as info:
            verify_proof(tampered(shallow))
        assert str(info.value) == f"one proves exactly |- I at {render_sequent(named.sequent)}"


def test_flat_literal_sequent_pairs_off_in_a_loop():
    """1,000 pairs of bare literals prove without recursion: a chain of
    mixes, each splitting the first literal and its dual off the rest, in
    the sequent's order, down to the last pair's axiom."""
    n = 1000
    seq = parse_sequent("|- " + ", ".join(f"a{k}, a{k}^*" for k in range(n)))
    proof = prove(seq)
    assert verify_proof(proof)
    node = proof
    for k in range(n - 1):
        assert node.rule == "mix" and node.sequent == seq[2 * k :]
        assert node.premises[0] == Proof("ax", seq[2 * k : 2 * k + 2])
        node = node.premises[1]
    assert node == Proof("ax", seq[-2:])


def test_net_is_counted_with_a_stack():
    """``.net`` of a 2,000-atom chain is counted without recursion and kept
    on that formula alone, none of its subformulas; flat sequents of 401 and
    990 atoms a side, whose balance ``prove`` checks first, prove (written
    one-sided)."""
    chain = parse_sequent(" (x) ".join(f"A{k}" for k in range(2000)))[0]
    assert chain.net == {f"A{k}": 1 for k in range(2000)}
    sub, below = chain.right, 0
    while isinstance(sub, FTensor):
        assert "net" not in vars(sub) and "net" not in vars(sub.left)
        sub, below = sub.right, below + 1
    assert below == 1998
    for n in (401, 990):
        side = " (+) ".join(f"A{k}" for k in range(n))
        assert verify_proof(prove(f"|- {side.replace(' (+)', '^* (+)')}^*, {side}"))


def test_two_sided_chain_is_dualled_with_a_stack():
    """``dual`` works without recursion: the two-sided sequent
    ``A0 (x) .. (x) A1999 |- A0 (+) .. (+) A1999``, whose left side is
    dualled on parsing, proves and ``verify_proof`` accepts its proof, and
    the dual of a chain of that length is the chain with tensors and pars
    exchanged and every literal flipped."""
    side = " (x) ".join(f"A{k}" for k in range(2000))
    sequent = parse_sequent(f"{side} |- {side.replace('(x)', '(+)')}")
    one_sided = f"|- {side.replace(' (x)', '^* (+)')}^*, {side.replace('(x)', '(+)')}"
    assert sequent == parse_sequent(one_sided)
    proof = prove(f"{side} |- {side.replace('(x)', '(+)')}")
    assert proof is not None and verify_proof(proof)
    assert proof.sequent == sequent
    assert dual(sequent[0]) == parse_sequent(side)[0]


def test_formulas_compare_and_hash_with_a_stack():
    """``==`` and ``hash`` on tensors and pars work without recursion: two
    equal 2,000-atom chains built apart compare equal and hash alike, and a
    chain that differs in its last atom, or only in one connective, does
    not compare equal.  Equality is structural: two trees that render alike
    are not equal."""

    def chain(last):
        f = last
        for k in range(1997, -1, -1):
            f = FTensor(FAtom(f"A{k}"), f)
        return f

    a, b = (chain(FTensor(FAtom("A1998"), FAtom("A1999"))) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != chain(FTensor(FAtom("A1998"), FAtom("B")))
    assert a != chain(FPar(FAtom("A1998"), FAtom("A1999")))
    x = FTensor(FAtom("A (x) B"), FAtom("C"))
    y = FTensor(FAtom("A"), FAtom("B (x) C"))
    assert x.name == y.name and x != y


def test_derivability_is_sound_but_not_complete(rng):
    """``A (+) B`` and ``A (x) B`` have the same members on first-order
    atoms, yet the sequent from the one to the other has no derivation:
    membership gives equal verdicts on seeded states, passing and failing."""
    assert prove("A (+) B |- A (x) B") is None
    assert prove("A (x) B |- A (+) B") is not None
    wires = (System("A", 2), System("B", 2))
    verdicts = []
    for backend in BACKENDS:
        causal = backends.random_causal(backend, wires, (), rng)
        states = [causal, rand_process(backend, wires, (), rng)]
        if backend == REL:
            states.append(Process(REL, wires, (), np.zeros_like(causal.data)))
        else:
            states.append(Process(backend, wires, (), 1.5 * causal.data))
        for state in states:
            tensor, par = (checks.check_membership(state, ty) for ty in ("A[2] (x) B[2]", "A[2] (+) B[2]"))
            assert tensor.passed == par.passed, (backend, tensor, par)
            if backend != REL:
                tensor, par = (checks.check_projector(state, ty) for ty in ("A[2] (x) B[2]", "A[2] (+) B[2]"))
                assert (tensor.passed, tensor.residual) == (par.passed, par.residual), (backend, tensor, par)
            verdicts.append(tensor.passed)
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts are represented
