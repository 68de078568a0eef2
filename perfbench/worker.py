"""Run one workload in a fresh interpreter and print its measurements.

    python3 perfbench/worker.py --workload soc_enum --seed 1 --seconds 20 --mode timed

``--mode setup`` builds the inputs and reports the time from the
interpreter's first statement to that point.  ``--mode timed`` adds an
untimed warm-up pass, then a closed loop with one caller: the next verdict is
requested only after the previous one returned, pass after pass over the
inputs, until ``--seconds`` have gone by, timing a reference kernel between
verdicts (see :class:`Reference`).  ``--mode traced`` alternates
untraced and traced passes for ``--seconds``; there the ``cli`` workload calls
``causkit.cli.main`` in-process instead of starting subprocesses.  ``src``
must be importable (``run.py`` puts it on ``PYTHONPATH``).  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("soc_enum", "signalling", "prover", "cli")
CLI_TIMEOUT_S = 60


class Reference:
    """Samples of a fixed reference kernel, taken between verdicts at most
    every ``every_s``.  The kernel does not call causkit, so its time tracks
    only how fast the machine runs that kind of work while the verdicts are
    timed.  ``kind`` picks the kind of work the workload's time is made of:

    ``interpreter``: small ``einsum`` calls and dict work, mostly Python
    overhead, as in type dispatch, the independence checks and the prover;

    ``contraction``: ``einsum`` contractions of complex qubit tensors with
    sublist subscripts, as in ``plug`` during channel-tuple enumeration.
    """

    def __init__(self, kind: str, every_s: float = 0.05):
        import numpy as np

        self.kernel = {"interpreter": self._interpreter, "contraction": self._contraction}[kind]
        self.every_s = every_s
        self.samples: list[float] = []
        self.last = -every_s
        self.a = np.linspace(0.0, 1.0, 512).reshape(8, 8, 8)
        self.b = np.linspace(1.0, 2.0, 64).reshape(8, 8)
        self.w = (np.linspace(0.0, 1.0, 4096) + 0.5j).reshape((2,) * 12)
        self.v = (np.linspace(1.0, 2.0, 256) - 0.5j).reshape((2,) * 8)

    def _interpreter(self) -> None:
        import numpy as np

        total = 0.0
        for i in range(200):
            x = np.einsum("ijk,kl->ijl", self.a, self.b)
            labels = {f"w{j}": j for j in range(16)}
            total += float(x[i % 8, 0, 0]) + sum(v for k, v in labels.items() if k.endswith("1"))

    def _contraction(self) -> None:
        import numpy as np

        for _ in range(5):
            np.einsum(self.w, list(range(12)), self.v, list(range(10, 18)), list(range(10)) + list(range(12, 18)))

    def sample(self) -> None:
        gc.disable()  # a collection would time the benchmark's heap, not the machine
        try:
            start = time.perf_counter()
            self.kernel()
            self.last = time.perf_counter()
            self.samples.append(self.last - start)
        finally:
            gc.enable()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= self.every_s:
            self.sample()


# soc_enum's time is mostly einsum contractions; the others' is mostly Python
REFERENCE_KIND = {
    "soc_enum": "contraction",
    "signalling": "interpreter",
    "prover": "interpreter",
    "cli": "interpreter",
}


class NoVerdict(Exception):
    """The program gave no verdict: exit code 2 from the CLI."""


def run_cli(argv, in_process: bool) -> tuple[int, str]:
    if not in_process:
        proc = subprocess.run(
            [sys.executable, "-m", "causkit.cli", *argv],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout
    from causkit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def decide(case, in_process: bool):
    """Ask causkit for the verdict on one input; returns ``(verdict, proof)``.

    Functions are looked up on their modules at call time, so a traced pass
    goes through the wrappers.
    """
    from causkit import checks, mll

    kind, payload = case.kind, case.payload
    if kind == "membership":
        return checks.check_membership(*payload).passed, None
    if kind == "one_way":
        return checks.check_one_way(*payload).passed, None
    if kind == "order":
        return checks.check_order_consistency(*payload).passed, None
    if kind == "totalise":
        return checks.check_via_totalisations(*payload).passed, None
    if kind == "prove":
        proof = mll.prove(payload[0])
        return proof is not None, proof
    argv, field = payload
    code, out = run_cli(argv, in_process)
    if code == 2:
        raise NoVerdict(f"exit code 2 from {argv}")
    doc = json.loads(out)
    if field == "checks":
        verdict = [row["passed"] for row in doc["checks"]]
    elif field == "results":
        verdict = [row["holds"] for row in doc["results"]]
    else:
        verdict = doc[field]
    # exit code 0 says the verdict matched --expect; anything else is wrong
    return (verdict if code == 0 else ("exit", code)), None


def attempt(case, sequent, in_process: bool) -> tuple[str, float]:
    """One verdict: ``(status, seconds)``, status ok, wrong, blowup or failed.

    Only the call into causkit is timed; a proof found is re-checked with
    ``verify_proof`` afterwards, outside the timed span.
    """
    from causkit import mll
    from causkit.errors import CauskitError, CombinatorialBlowup

    start = time.perf_counter()
    try:
        verdict, proof = decide(case, in_process)
    except CombinatorialBlowup:
        return ("blowup" if case.may_blow_up else "failed"), time.perf_counter() - start
    except (CauskitError, NoVerdict, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError):
        return "failed", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if verdict != case.expect:
        return "wrong", elapsed
    if proof is not None and not (mll.verify_proof(proof) and proof.sequent == sequent):
        return "wrong", elapsed
    return "ok", elapsed


def build(workload: str, seed: int):
    """Import causkit and build the workload's inputs."""
    import inputs
    from causkit import mll

    workdir = None
    if workload == "cli":
        workdir = os.path.join(OUT, f"cli-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        cases = inputs.cli(seed, os.path.relpath(workdir, ROOT))
    else:
        cases = inputs.WORKLOADS[workload](seed)
    sequents = [
        (mll.parse_sequent(c.payload[0]) if isinstance(c.payload[0], str) else c.payload[0])
        if c.kind == "prove"
        else None
        for c in cases
    ]
    return cases, sequents, workdir


def run_pass(cases, sequents, in_process=False, tracer=None, reference=None):
    results = []
    for i, (case, seq) in enumerate(zip(cases, sequents)):
        if tracer is not None:
            tracer.verdict = i
        if reference is not None:
            reference.maybe_sample()
        results.append(attempt(case, seq, in_process))
    return results


def tally(results, cases) -> dict:
    """Summary of ``(status, seconds)`` pairs from whole passes over ``cases``."""
    names = [cases[i % len(cases)].name for i in range(len(results))]
    by_case: dict[str, list[float]] = {}
    for name, (status, t) in zip(names, results):
        if status in ("ok", "wrong"):
            by_case.setdefault(name, []).append(t)
    return {
        "case_median_ms": {n: 1e3 * statistics.median(ts) for n, ts in by_case.items()},
        "times": [t for s, t in results if s in ("ok", "wrong")],
        "count": {k: sum(s == k for s, _ in results) for k in ("ok", "wrong", "blowup", "failed")},
        "wrong_cases": sorted({n for n, (s, _) in zip(names, results) if s == "wrong"}),
        "failed_cases": sorted({n for n, (s, _) in zip(names, results) if s == "failed"}),
    }


def timed(cases, sequents, seconds: float, workload: str) -> dict:
    # Warm-up, so lazy set-up is not timed.  Each CLI call is a fresh
    # interpreter, so one call warms what can be warmed: the file cache.
    run_pass(cases[:1] if workload == "cli" else cases, sequents)
    results, reference = [], Reference(REFERENCE_KIND[workload])
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        results.extend(run_pass(cases, sequents, reference=reference))
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        **tally(results, cases),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "reference_s": reference.samples,
        "reference_kind": REFERENCE_KIND[workload],
    }


def traced(cases, sequents, seconds: float, workload: str, seed: int) -> dict:
    from spans import Tracer

    import_s = []
    if workload == "cli":
        for _ in range(3):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import causkit.cli"], cwd=ROOT, check=True, timeout=CLI_TIMEOUT_S)
            import_s.append(time.perf_counter() - t)
    tracer = Tracer()
    run_pass(cases, sequents, True)  # warm-up
    results, plain, layers, passes = [], [], [], []
    start = time.perf_counter()
    while len(layers) < 2 or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        results.extend(run_pass(cases, sequents, True))
        plain.append(time.perf_counter() - t)
        first = len(tracer.spans)
        tracer.counts.clear()
        tracer.install()
        try:
            t = time.perf_counter()
            results.extend(run_pass(cases, sequents, True, tracer))
            wall = time.perf_counter() - t
        finally:
            tracer.uninstall()
        passes.append((first, len(tracer.spans)))
        layers.append({**tracer.aggregate(*passes[-1]), "counts": dict(tracer.counts), "wall": wall})
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(
        os.path.join(OUT, f"trace-{workload}.jsonl"),
        {"workload": workload, "seed": seed, "pass": 1, "cases": [c.name for c in cases]},
        *passes[0],
    )
    names = [c.name for c in cases]
    for layer in layers:
        layer["tuples_by_case"] = {names[v]: n for v, n in layer.pop("tuples_by_verdict").items()}
        layer["blowups_by_case"] = sorted(names[v] for v in layer.pop("blowups_by_verdict"))
    return {**tally(results, cases), "layers": layers, "untraced_s": plain, "import_s": import_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = ap.parse_args(argv)

    cases, sequents, workdir = build(args.workload, args.seed)
    out = {
        "setup_s": time.perf_counter() - T0,
        "cases": len(cases),
        "expected_blowups": sum(c.may_blow_up for c in cases),
    }
    try:
        if args.mode == "timed":
            out.update(timed(cases, sequents, args.seconds, args.workload))
        elif args.mode == "traced":
            out.update(traced(cases, sequents, args.seconds, args.workload, args.seed))
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
