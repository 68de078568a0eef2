"""Self-test of the benchmark's instrumentation and baseline counts.

    python3 perfbench/selftest.py

Runs one traced pass over each workload's inputs, in-process, and checks:

1. while tracing, no causkit module keeps a binding to an unwrapped traced
   function, and every binding is restored afterwards;
2. every span a workload must reach is non-empty (``typesys.parse_type`` on
   ``signalling`` is reached only through the name ``checks`` imported), and
   ``mll`` spans appear only on ``prover`` and ``cli``;
3. inputs built twice from the same seed give identical counts;
4. the channel-tuple counts of the ROADMAP baseline: 169 for
   ``quantum_z_switch``, 729 for ``classical_switch(3)``, 2,197 for three
   qubit parties, with ``classical_switch(4)`` and four qubit parties counted
   as blowups.  A change that decides these without enumeration changes this
   baseline on purpose and updates the check;
5. ``core.plug`` takes a larger share of the traced pass on ``soc_enum``
   than on ``signalling``;
6. the metric names in ``run.py`` match ``BENCHMARK.json``.

Exit status 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import worker  # noqa: E402
from spans import TRACED, Tracer  # noqa: E402

EXPECTED_SPANS = {
    "soc_enum": [
        "core.plug",
        "backends.is_causal",
        "backends.causal_channel_family",
        "checks.check_membership",
        "checks.check_soc",
        "typesys.parse_type",
        "typesys.normalize",
    ],
    "signalling": [
        "core.plug",
        "core.tensor_par",
        "core.discard_outputs",
        "core.permute",
        "core.distance",
        "core.maxabs",
        "backends.is_causal",
        "backends.discard",
        "backends.uniform_state",
        "backends._scale",
        "checks.check_membership",
        "checks.check_nonsignalling",
        "checks.check_comb",
        "checks.check_order_consistency",
        "checks.check_via_totalisations",
        "checks.check_one_way",
        "typesys.parse_type",
        "typesys.normalize",
        "typesys.fo_embedding",
        "events.check_partition",
        "events.down_closed_subsets",
        "events.linear_extensions",
    ],
    "prover": ["mll.prove", "mll.parse_sequent", "mll.verify_proof", "typesys.parse_type"],
    "cli": [
        "cli.main",
        "core.load_process",
        "core.plug",
        "gallery.build",
        "checks.check_membership",
        "checks.check_soc",
        "mll.prove",
        "axioms.C5",
    ],
}
MLL_ALLOWED = ("prover", "cli")
BASELINE_TUPLES = {"quantum_z_switch": 169, "classical_switch_3": 729, "chain_cpm_3": 2197}
BASELINE_BLOWUPS = ["chain_cpm_4", "classical_switch_4"]


def traced_pass(workload: str, seed: int, problems: list[str]) -> dict:
    cases, sequents, workdir = worker.build(workload, seed)
    try:
        worker.run_pass(cases, sequents, True)  # warm-up
        tracer = Tracer()
        originals = {(owner, attr): getattr(owner, attr) for owner, attr in TRACED}
        tracer.install()
        try:
            stale = [
                f"{module.__name__}.{binding}"
                for name, module in sys.modules.items()
                if name.startswith("causkit")
                for binding, value in vars(module).items()
                if any(value is orig for orig in originals.values())
            ]
            if stale:
                problems.append(f"{workload}: unwrapped bindings while tracing: {stale}")
            start = time.perf_counter()
            results = worker.run_pass(cases, sequents, True, tracer)
            wall = time.perf_counter() - start
        finally:
            tracer.uninstall()
        if any(getattr(owner, attr) is not orig for (owner, attr), orig in originals.items()):
            problems.append(f"{workload}: uninstall did not restore every traced function")
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    bad = [c.name for c, (status, _) in zip(cases, results) if status not in ("ok", "blowup")]
    if bad:
        problems.append(f"{workload}: verdicts not as constructed: {bad}")
    agg = tracer.aggregate(0, len(tracer.spans))
    agg["counts"] = dict(tracer.counts)
    agg["wall"] = wall
    agg["names"] = [c.name for c in cases]
    return agg


def main() -> int:
    problems: list[str] = []
    seed = 20261017
    seen = {}
    for workload in run.WORKLOADS:
        first = traced_pass(workload, seed, problems)
        second = traced_pass(workload, seed, problems)
        seen[workload] = first
        empty = [name for name in EXPECTED_SPANS[workload] if not first["calls"].get(name)]
        if empty:
            problems.append(f"{workload}: expected spans are empty: {empty}")
        mll_spans = [name for name in first["calls"] if name.startswith("mll.")]
        if mll_spans and workload not in MLL_ALLOWED:
            problems.append(f"{workload}: unexpected mll spans {mll_spans}")
        for key in ("calls", "counts", "tuples_by_verdict", "blowups_by_verdict", "core.plug.bytes"):
            if first[key] != second[key]:
                problems.append(f"{workload}: {key} differ between two builds from seed {seed}")
        print(f"{workload}: {sum(first['calls'].values())} spans, {len(first['calls'])} span names")

    soc = seen["soc_enum"]
    tuples = {soc["names"][v]: n for v, n in soc["tuples_by_verdict"].items()}
    for name, want in BASELINE_TUPLES.items():
        if tuples.get(name) != want:
            problems.append(f"soc_enum: {name} enumerated {tuples.get(name)} tuples, baseline {want}")
    blowups = sorted(soc["names"][v] for v in soc["blowups_by_verdict"])
    if blowups != BASELINE_BLOWUPS:
        problems.append(f"soc_enum: blowups {blowups}, baseline {BASELINE_BLOWUPS}")

    share = {w: seen[w]["self"].get("core.plug", 0.0) / seen[w]["wall"] for w in ("soc_enum", "signalling")}
    print(f"core.plug self share: soc_enum {share['soc_enum']:.1%}, signalling {share['signalling']:.1%}")
    if not share["soc_enum"] > share["signalling"]:
        problems.append("core.plug is not a larger share on soc_enum than on signalling")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if [m["name"] for m in spec["end_to_end"]] != list(run.END_TO_END) or [
        m["name"] for m in spec["per_layer"]
    ] != list(run.PER_LAYER):
        problems.append("metric names in run.py and BENCHMARK.json differ")
    units = {**run.END_TO_END, **{k: v[0] for k, v in run.PER_LAYER.items()}}
    if any(units[m["name"]] != m["unit"] for m in spec["end_to_end"] + spec["per_layer"]):
        problems.append("metric units in run.py and BENCHMARK.json differ")

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
