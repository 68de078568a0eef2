"""Seeded benchmark inputs, each with the verdict known from its construction.

Every input is a :class:`Case`.  The program under test only ever sees the
payload: processes, type strings, posets, sequents or command lines.  The
expected verdict is fixed by how the payload was built, never by asking
causkit:

* a chain of causal channels threaded through memory wires is a comb for
  its order, and its party slots form a second-order causal process;
* a tensor of chains is consistent with any poset whose down-sets are unions
  of chain prefixes;
* mixing in a term that copies a later input into an earlier output breaks
  exactly the signalling condition between those two wires;
* mixing in a term that feeds a party's output back into its own input
  ("time travel") breaks second-order causality, because the loop of the
  identity channel is ``d`` and plugging is affine in each party channel;
* scaling a process, or emptying one input column of a relation, breaks
  normalization;
* a sequent grown bottom-up from MLL+mix rule applications is provable.

For ``rel`` a union with a causal relation stays causal, so relational
perturbations either take the cyclic term alone (second-order causality) or
start from deterministic channels, whose singleton marginals the union is
guaranteed to change (signalling checks).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from causkit import backends, core, gallery
from causkit.core import CPM, MATR, REL, Process, System
from causkit.events import Event, EventPoset
from causkit.mll import FAtom, FBot, FOne, FPar, FTensor


@dataclass(frozen=True)
class Case:
    """One benchmark input.

    ``name`` says what the input is and does not depend on the seed.  ``kind``
    selects the call the worker makes.  ``may_blow_up`` marks inputs that the
    default enumeration budget refuses today; they count in ``failed_frac``
    while they do and must give ``expect`` once they decide.
    """

    name: str
    kind: str
    payload: tuple
    expect: object
    may_blow_up: bool = False


# -- channels, chains and perturbations ---------------------------------------


def _size(systems) -> int:
    return int(np.prod([s.dim for s in systems], dtype=np.int64)) if systems else 1


def random_channel(backend: str, outs, ins, rng: np.random.Generator) -> Process:
    """A random causal process; ``rel`` channels are functions."""
    outs, ins = tuple(outs), tuple(ins)
    dout, din = _size(outs), _size(ins)
    shape = tuple(s.dim for s in outs + ins)
    if backend == MATR:
        m = rng.uniform(0.05, 1.0, size=(dout, din))
        m /= m.sum(axis=0, keepdims=True)
        return Process(MATR, outs, ins, m.reshape(shape))
    if backend == REL:
        m = np.zeros((dout, din), dtype=bool)
        m[rng.integers(dout, size=din), np.arange(din)] = True
        return Process(REL, outs, ins, m.reshape(shape))
    # cpm: rho -> tr_env(V rho V^dag) for an isometry V from a QR factorization
    denv = max(1, -(-din // dout))
    g = rng.normal(size=(dout * denv, din)) + 1j * rng.normal(size=(dout * denv, din))
    v = np.linalg.qr(g)[0][:, :din].reshape(dout, denv, din)
    choi = np.einsum("bea,ceA->bacA", v, v.conj())
    return Process(CPM, outs, ins, choi.reshape(shape + shape))


def chain(backend: str, steps, rng: np.random.Generator, mem_dim: int = 2) -> Process:
    """Random channels ``(mem, ins_k) -> (outs_k, mem)`` plugged in sequence.

    ``steps`` lists ``(ins_k, outs_k)`` as tuples of systems.  The result is a
    comb for the step order; its wires are put in the order the steps list
    them, outputs before inputs.
    """
    p = None
    last = len(steps) - 1
    for k, (ins, outs) in enumerate(steps):
        m_in = (System(f"_m{k}", mem_dim),) if k else ()
        m_out = (System(f"_m{k + 1}", mem_dim),) if k < last else ()
        step = random_channel(backend, tuple(outs) + m_out, m_in + tuple(ins), rng)
        p = step if p is None else core.plug(p, step, [(f"_m{k}", f"_m{k}")])
    return core.permute(
        p,
        [s.label for _, outs in steps for s in outs],
        [s.label for ins, _ in steps for s in ins],
    )


def signal_term(p: Process, sender: str, receiver: str) -> Process:
    """A causal process on ``p``'s wires whose output ``receiver`` copies the
    input ``sender`` (modulo its dimension); every other output is uniform and
    every other input is discarded."""
    s, r = p.wire(sender), p.wire(receiver)
    copy = np.zeros((r.dim, s.dim) * (2 if p.backend == CPM else 1))
    for x in range(s.dim):
        copy[(x % r.dim, x) * (2 if p.backend == CPM else 1)] = 1.0
    term = Process(p.backend, (r,), (s,), copy)
    other_out = tuple(w for w in p.out_wires if w.label != receiver)
    other_in = tuple(w for w in p.in_wires if w.label != sender)
    if other_out:
        term = core.tensor_par(term, backends.uniform_state(p.backend, other_out))
    if other_in:
        term = core.tensor_par(term, backends.discard(p.backend, other_in))
    return core.permute(term, [w.label for w in p.out_wires], [w.label for w in p.in_wires])


def mix(p: Process, term: Process, rng: np.random.Generator) -> Process:
    """``(1 - eps) p + eps term``, or the union for ``rel``."""
    if p.backend == REL:
        data = p.data | term.data
    else:
        eps = rng.uniform(0.1, 0.5)
        data = (1.0 - eps) * p.data + eps * term.data
    return Process(p.backend, p.out_wires, p.in_wires, data)


def denormalize(p: Process, rng: np.random.Generator) -> Process:
    """Scale by ``1 + delta``, or empty one input column of a relation."""
    if p.backend == REL:
        m = p.data.reshape(_size(p.out_wires), _size(p.in_wires)).copy()
        m[:, rng.integers(m.shape[1])] = False
        data = m.reshape(p.data.shape)
    else:
        data = p.data * (1.0 + rng.uniform(0.05, 0.3))
    return Process(p.backend, p.out_wires, p.in_wires, data)


# -- type strings ----------------------------------------------------------------


def atom(s: System) -> str:
    return f"{s.label}[{s.dim}]"


def arrow(a: str, b: str) -> str:
    return f"({a}) -o ({b})"


def comb_type(pairs) -> str:
    """``i1 -o ((o1 -o .. ) -o on)`` for events receiving ``ik`` and emitting ``ok``."""
    i1, o1 = pairs[0]
    if len(pairs) == 1:
        return arrow(i1, o1)
    shifted = [(pairs[k][1], pairs[k + 1][0]) for k in range(len(pairs) - 1)]
    return f"({i1}) -o (({comb_type(shifted)}) -o ({pairs[-1][1]}))"


def tensor_of_arrows(pairs) -> str:
    return " (x) ".join(f"({arrow(i, o)})" for i, o in pairs)


# -- soc_enum ------------------------------------------------------------------------


def _party_loop(p: Process, party: tuple[str, str], rng: np.random.Generator) -> Process:
    """Feed a party's output back into its own input."""
    to_party, from_party = party
    term = signal_term(p, from_party, to_party)
    return term if p.backend == REL else mix(p, term, rng)


def _soc_chain(backend: str, n: int, d: int, rng: np.random.Generator):
    """An ``n``-party fixed-order chain: the environment feeds party 1, carries
    party ``k``'s output to party ``k + 1`` and discards the last output."""
    a = [System(f"A{k}", d) for k in range(1, n + 1)]
    b = [System(f"A{k}'", d) for k in range(1, n + 1)]
    steps = [((), (a[0],))]
    steps += [((b[k],), (a[k + 1],)) for k in range(n - 1)]
    steps += [((b[-1],), ())]
    p = chain(backend, steps, rng)
    ty = f"({tensor_of_arrows([(atom(x), atom(y)) for x, y in zip(a, b)])}) -o I"
    parties = [(x.label, y.label) for x, y in zip(a, b)]
    return p, ty, parties


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_QZS = os.path.join(ROOT, "src", "causkit", "data", "examples", "v1", "quantum_z_switch.json")
SWITCH_PARTIES = [("A", "A'"), ("B", "B'")]
BW_PARTIES = [(f"A{k}", f"A{k}'") for k in (1, 2, 3)]


def _pairs(parties, d: int = 2):
    return [(f"{a}[{d}]", f"{b}[{d}]") for a, b in parties]


def soc_type(parties) -> str:
    """Qubit parties in a process with no global past or future."""
    return f"({tensor_of_arrows(_pairs(parties))}) -o I"


def switch_type(d: int) -> str:
    """Control bit and global past, then both parties, then the global future."""
    return f"(X[2] (x) C[{d}]) -o (({tensor_of_arrows(_pairs(SWITCH_PARTIES, d))}) -o C'[{d}])"


def soc_enum(seed: int) -> list[Case]:
    """Second-order causality decided by channel-tuple enumeration."""
    rng = np.random.default_rng([seed, 1])
    items = [
        ("quantum_z_switch", gallery.quantum_z_switch().process, switch_type(2), SWITCH_PARTIES),
        ("ocb_process", gallery.ocb_process().process, soc_type(SWITCH_PARTIES), SWITCH_PARTIES),
        ("bw_process", gallery.bw_process().process, soc_type(BW_PARTIES), BW_PARTIES),
        ("classical_switch_3", gallery.classical_switch(3).process, switch_type(3), SWITCH_PARTIES),
        ("classical_switch_2", gallery.classical_switch(2).process, switch_type(2), SWITCH_PARTIES),
    ]
    for backend, sizes in ((MATR, (2, 3, 4)), (REL, (2, 3, 4)), (CPM, (2, 3))):
        for n in sizes:
            p, ty, parties = _soc_chain(backend, n, 2, rng)
            items.append((f"chain_{backend}_{n}", p, ty, parties))

    cases = []
    for name, p, ty, parties in items:
        cases.append(Case(name, "membership", (p, ty), True))
        party = parties[int(rng.integers(len(parties)))]
        cases.append(Case(f"{name}+loop", "membership", (_party_loop(p, party, rng), ty), False))

    # The shipped reference copy, loaded from JSON.  It has no perturbed twin,
    # which keeps the number of verdicts per pass odd: the median then falls
    # inside one input's repetitions instead of between two inputs.
    cases.append(Case("quantum_z_switch_file", "membership", (core.load_process(SHIPPED_QZS), switch_type(2)), True))

    # refused by the default budget of 20,000 tuples: 65,536 and 28,561
    big = gallery.classical_switch(4).process
    cases.append(Case("classical_switch_4", "membership", (big, switch_type(4)), True, True))
    p, ty, _ = _soc_chain(CPM, 4, 2, rng)
    cases.append(Case("chain_cpm_4", "membership", (p, ty), True, True))
    return cases


# -- signalling ----------------------------------------------------------------------


def _events(n: int, d: int):
    """Events ``E{k}``: input ``X{k}``, output ``X{k}'``."""
    return [
        (Event(f"E{k}", ins=(f"X{k}",), outs=(f"X{k}'",)), System(f"X{k}", d), System(f"X{k}'", d))
        for k in range(1, n + 1)
    ]


def _poset_instance(backend: str, sizes, rng: np.random.Generator):
    """A tensor of chains and a poset whose chains match, plus one order
    relation from the first event of chain 1 to the last event of chain 2."""
    evs = _events(sum(sizes), 2)
    groups, start = [], 0
    for size in sizes:
        groups.append(evs[start : start + size])
        start += size
    p = None
    for g in groups:
        c = chain(backend, [((x,), (y,)) for _, x, y in g], rng)
        p = c if p is None else core.tensor_par(p, c)
    order = [(g[k][0].name, g[k + 1][0].name) for g in groups for k in range(len(g) - 1)]
    order.append((groups[0][0][0].name, groups[1][-1][0].name))
    poset = EventPoset([e for e, _, _ in evs], order)
    # chain 2's last input reaches chain 1's first output, which lies below it
    sender = groups[1][-1][1].label
    receiver = groups[0][0][2].label
    return p, poset, (sender, receiver)


def signalling(seed: int) -> list[Case]:
    """Small first-order verdicts: about half honest, half perturbed to fail."""
    rng = np.random.default_rng([seed, 2])
    cases = []
    for backend in (MATR, CPM, REL):
        for d in (2, 3):
            a, a_, b, b_ = System("A", d), System("A'", d), System("B", d), System("B'", 5 - d)
            prod = core.tensor_par(random_channel(backend, (a_,), (a,), rng), random_channel(backend, (b_,), (b,), rng))
            tensor = tensor_of_arrows([(atom(a), atom(a_)), (atom(b), atom(b_))])
            par = f"({arrow(atom(a), atom(a_))}) (+) ({arrow(atom(b), atom(b_))})"
            leaky = mix(prod, signal_term(prod, "A", "B'"), rng)
            cases.append(Case(f"tensor_{backend}_{d}", "membership", (prod, tensor), True))
            cases.append(Case(f"tensor_{backend}_{d}+signal", "membership", (leaky, tensor), False))
            cases.append(Case(f"par_{backend}_{d}", "membership", (leaky, par), True))
            cases.append(Case(f"par_{backend}_{d}+scaled", "membership", (denormalize(leaky, rng), par), False))

            chan = random_channel(backend, (b_,), (a, b), rng)
            ty = f"({atom(a)} (x) {atom(b)}) -o {atom(b_)}"
            cases.append(Case(f"channel_{backend}_{d}", "membership", (chan, ty), True))
            cases.append(Case(f"channel_{backend}_{d}+scaled", "membership", (denormalize(chan, rng), ty), False))

            evs = _events(2, d)
            p = chain(backend, [((x,), (y,)) for _, x, y in evs], rng)
            first, second = evs[0][0], evs[1][0]
            cases.append(Case(f"one_way_{backend}_{d}", "one_way", (p, first, second), True))
            bad = mix(p, signal_term(p, "X2", "X1'"), rng)
            cases.append(Case(f"one_way_{backend}_{d}+signal", "one_way", (bad, first, second), False))

    for backend, sizes in ((MATR, (3, 4, 5)), (REL, (3, 4, 5)), (CPM, (3, 4))):
        for n in sizes:
            evs = _events(n, 2)
            p = chain(backend, [((x,), (y,)) for _, x, y in evs], rng)
            ty = comb_type([(atom(x), atom(y)) for _, x, y in evs])
            bad = mix(p, signal_term(p, f"X{n}", "X1'"), rng)
            cases.append(Case(f"comb_{backend}_{n}", "membership", (p, ty), True))
            cases.append(Case(f"comb_{backend}_{n}+signal", "membership", (bad, ty), False))

    for backend, shapes in ((MATR, ((2, 2), (3, 2), (3, 3))), (REL, ((2, 2), (3, 2), (3, 3))), (CPM, ((2, 2),))):
        for sizes in shapes:
            n = sum(sizes)
            p, poset, (sender, receiver) = _poset_instance(backend, sizes, rng)
            bad = mix(p, signal_term(p, sender, receiver), rng)
            cases.append(Case(f"order_{backend}_{n}", "order", (p, poset), True))
            cases.append(Case(f"order_{backend}_{n}+signal", "order", (bad, poset), False))
            if n <= 5:
                cases.append(Case(f"totalise_{backend}_{n}", "totalise", (p, poset), True))
                cases.append(Case(f"totalise_{backend}_{n}+signal", "totalise", (bad, poset), False))
    return cases


# -- prover --------------------------------------------------------------------------

REFERENCE = [
    ("embed", "(A -o A') (x) (B -o B') |- A -o ((A' -o B) -o B')", True),
    ("comb_in_soc", "I -o ((A -o ((A' -o B) -o B')) -o I) |- ((A -o A') (x) (B -o B')) -o I", True),
    ("soc_in_comb", "((A -o A') (x) (B -o B')) -o I |- I -o ((A -o ((A' -o B) -o B')) -o I)", False),
]

FIXED = [
    ("A |- A", True),
    ("A (x) B |- B (x) A", True),
    ("A (x) (B (x) C) |- (A (x) B) (x) C", True),
    ("A (x) B |- A (+) B", True),
    ("I |- I", True),
    ("|- I", True),
    ("(A (+) B) (x) C |- A (+) (B (x) C)", True),
    ("(A -o B) (x) (B -o C) |- A -o C", True),
    ("A |- B", False),
    ("A (+) B |- A (x) B", False),
    ("A (+) (B (x) C) |- (A (+) B) (x) C", False),
    ("A -o ((A' -o B) -o B') |- (A -o A') (x) (B -o B')", False),
    ("|- A", False),
    ("A (x) A |- A", False),
]

FUZZ_ATOMS = ("a", "b", "c")


def fuzz_sequent(rng: np.random.Generator, depth: int) -> tuple:
    """The conclusion of a random MLL+mix derivation grown bottom-up."""

    if depth <= 0:
        roll = rng.random()
        if roll < 0.7:
            key = FUZZ_ATOMS[int(rng.integers(len(FUZZ_ATOMS)))]
            pair = (FAtom(key, True), FAtom(key, False))
            return pair[::-1] if rng.random() < 0.5 else pair
        return (FOne(),) if roll < 0.9 else ()
    roll = rng.random()
    if roll < 0.3:
        seq = fuzz_sequent(rng, depth - 1)
        if len(seq) < 2:
            return seq
        i = int(rng.integers(len(seq) - 1))
        return seq[:i] + (FPar(seq[i], seq[i + 1]),) + seq[i + 2 :]
    if roll < 0.45:
        seq = fuzz_sequent(rng, depth - 1)
        i = int(rng.integers(len(seq) + 1))
        return seq[:i] + (FBot(),) + seq[i:]
    left, right = fuzz_sequent(rng, depth - 1), fuzz_sequent(rng, depth - 2)
    if roll < 0.75 and left and right:
        ia, ib = int(rng.integers(len(left))), int(rng.integers(len(right)))
        rest = left[:ia] + left[ia + 1 :] + right[:ib] + right[ib + 1 :]
        i = int(rng.integers(len(rest) + 1))
        return rest[:i] + (FTensor(left[ia], right[ib]),) + rest[i:]
    return left + right


def copies_family(n: int) -> str:
    """``n`` copies of ``(Ai (x) Bi) (+) (Ai^* (x) Bi^*)``: not provable."""
    return "|- " + ", ".join(f"(A{i} (x) B{i}) (+) (A{i}^* (x) B{i}^*)" for i in range(1, n + 1))


def rename_atoms(seq: tuple, rng: np.random.Generator) -> tuple:
    """Rename atoms and flip their polarities by a seeded bijection, which
    leaves provability and the search the prover makes unchanged."""
    names = {key: f"{key}{int(n)}" for key, n in zip(FUZZ_ATOMS, rng.permutation(100)[: len(FUZZ_ATOMS)])}
    flip = {key: bool(rng.integers(2)) for key in FUZZ_ATOMS}

    def go(f):
        if isinstance(f, FAtom):
            return FAtom(names[f.key], f.neg != flip[f.key])
        if isinstance(f, (FTensor, FPar)):
            return type(f)(go(f.left), go(f.right))
        return f

    return tuple(go(f) for f in seq)


FUZZ_STRUCTURE_SEED = 1701


def prover(seed: int, fuzzed: int = 100) -> list[Case]:
    """Reference and fixed sequents, fuzzed conclusions, and the ROADMAP's
    unprovable family for n = 3 to 6.

    The fuzzed derivations are grown from a fixed generator, so the mix of
    sequent shapes and of prover costs does not depend on ``--seed``; the
    seed renames their atoms.
    """
    rng = np.random.default_rng([seed, 3])
    shapes = np.random.default_rng(FUZZ_STRUCTURE_SEED)
    cases = [Case(f"ref_{name}", "prove", (text,), want) for name, text, want in REFERENCE]
    cases += [Case(f"fixed_{k}", "prove", (text,), want) for k, (text, want) in enumerate(FIXED)]
    while len(cases) < len(REFERENCE) + len(FIXED) + fuzzed:
        seq = fuzz_sequent(shapes, int(shapes.integers(2, 6)))
        if seq:
            cases.append(Case(f"fuzz_{len(cases)}", "prove", (rename_atoms(seq, rng),), True))
    cases += [Case(f"copies_{n}", "prove", (copies_family(n),), False) for n in range(3, 7)]
    return cases


# -- cli ---------------------------------------------------------------------------

# run_all reports backends in this order; rel is the one backend refuting C5
AXIOM_HOLDS = [
    not (axiom == "C5" and backend == REL)
    for backend in (MATR, CPM, REL)
    for axiom in ("C1", "C2", "C3", "C4", "C5")
]


def cli(seed: int, workdir: str) -> list[Case]:
    """Command lines as the README gives them, run from the repository root.

    The payload is the argv after ``causkit``; ``expect`` is the JSON field the
    verdict is read from, or the list of per-check verdicts.  ``workdir``
    receives the seeded process files.
    """
    rng = np.random.default_rng([seed, 4])
    switch_comb = comb_type([("X[2] (x) C[2]", "A[2]"), ("A'[2]", "B[2]"), ("B'[2]", "C'[2]")])
    ocb_comb = comb_type([("I", "B[2]"), ("B'[2]", "A[2]"), ("A'[2]", "I")])

    a, a_, b, b_ = (System(n, 2) for n in ("A", "A'", "B", "B'"))
    prod = core.tensor_par(random_channel(CPM, (a_,), (a,), rng), random_channel(CPM, (b_,), (b,), rng))
    leaky = mix(prod, signal_term(prod, "A", "B'"), rng)
    files = []
    for tag, p in (("product", prod), ("leaky", leaky)):
        path = os.path.join(workdir, f"{tag}.json")
        core.dump_process(p, path)
        files.append(path)
    tensor = tensor_of_arrows([(atom(a), atom(a_)), (atom(b), atom(b_))])

    provable = [t for t, w in FIXED if w]
    unprovable = [t for t, w in FIXED if not w]
    yes = provable[int(rng.integers(len(provable)))]
    no = unprovable[int(rng.integers(len(unprovable)))]
    comb_seed = int(rng.integers(1 << 16))

    def check(name, argv, want):
        expect = [] if want else ["--expect", "fail"]
        return Case(name, "cli", (("check", *argv, *expect), "passed"), want)

    return [
        check("qzs_soc", ("example:quantum_z_switch", "--type", switch_type(2)), True),
        check("qzs_comb", ("example:quantum_z_switch", "--type", switch_comb), False),
        check("cs_soc", ("example:classical_switch", "--type", switch_type(2)), True),
        check("ocb_soc", ("example:ocb_process", "--type", soc_type(SWITCH_PARTIES)), True),
        check("ocb_comb", ("example:ocb_process", "--type", ocb_comb), False),
        check("qzs_file", (SHIPPED_QZS,), True),
        check("product", (files[0], "--type", tensor), True),
        check("leaky", (files[1], "--type", tensor), False),
        Case("prove_yes", "cli", (("prove", yes), "provable"), True),
        Case("prove_no", "cli", (("prove", no, "--expect", "fail"), "provable"), False),
        Case("examples_bw", "cli", (("examples", "bw_process"), "checks"), [True] + [False] * 6),
        Case(
            "examples_comb",
            "cli",
            (("examples", "memory_comb", "--param", "events=3", "--seed", str(comb_seed)), "checks"),
            [True],
        ),
        Case("axioms", "cli", (("axioms",), "results"), AXIOM_HOLDS),
    ]


WORKLOADS = {"soc_enum": soc_enum, "signalling": signalling, "prover": prover, "cli": cli}
