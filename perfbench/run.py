"""Layered verdict benchmark for causkit.

    python3 perfbench/run.py --workload soc_enum --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads: ``soc_enum``, ``signalling``,
``prover`` and ``cli`` (see ``perfbench/README.md``).  With ``--trace 0`` the
end-to-end metrics are measured: the workload's set-up in several fresh
interpreters, then one more interpreter that warms up and runs the closed
loop.  With ``--trace 1`` a separate interpreter runs traced passes and the
per-layer metrics are reported.  Every verdict is compared with the answer
known from how its input was built.  Metrics are printed one per line with
their units, then a JSON report line, then the result line the harness reads.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("soc_enum", "signalling", "prover", "cli")
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 150
# How long each reference kernel in worker.py takes at nominal speed: about
# its time on a 2-core 2.1 GHz Xeon guest with Python 3.11 and numpy 2.4 when
# the host is not loaded.  Timings are reported at nominal speed, so drift in
# how fast a shared host runs the benchmark cancels out.
REFERENCE_NOMINAL_S = {"interpreter": 0.0025, "contraction": 0.0042}

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _spans(table: str, name: str):
    """Sum over one traced pass of ``table`` (calls, self or total time) for
    the span ``name``, or for every span under it when it ends with a dot."""

    def read(layer: dict):
        return sum(v for k, v in layer[table].items() if k == name or (name.endswith(".") and k.startswith(name)))

    return read


def _field(key: str, table: str | None = None):
    return (lambda layer: layer[table].get(key, 0)) if table else (lambda layer: layer[key])


# per-layer metric: (unit, how it is read from one traced pass)
PER_LAYER = {
    "core.plug.calls": ("count", _spans("calls", "core.plug")),
    "core.plug.self_s": ("s", _spans("self", "core.plug")),
    "core.plug.bytes": ("B", _field("core.plug.bytes")),
    "core.plug.self_frac": ("ratio", lambda layer: _spans("self", "core.plug")(layer) / layer["wall"]),
    "core.Process.constructed": ("count", _field("core.Process.constructed", "counts")),
    "core.tensor_par.self_s": ("s", _spans("self", "core.tensor_par")),
    "core.discard_outputs.self_s": ("s", _spans("self", "core.discard_outputs")),
    "core.permute.self_s": ("s", _spans("self", "core.permute")),
    "core.distance.self_s": ("s", _spans("self", "core.distance")),
    "core.maxabs.self_s": ("s", _spans("self", "core.maxabs")),
    "core.load_process.s": ("s", _spans("total", "core.load_process")),
    "backends.discard.self_s": ("s", _spans("self", "backends.discard")),
    "backends.uniform_state.self_s": ("s", _spans("self", "backends.uniform_state")),
    "backends._scale.self_s": ("s", _spans("self", "backends._scale")),
    "backends.is_causal.calls": ("count", _spans("calls", "backends.is_causal")),
    "backends.is_causal.self_s": ("s", _spans("self", "backends.is_causal")),
    "backends.causal_channel_family.self_s": ("s", _spans("self", "backends.causal_channel_family")),
    "checks.check_soc.self_s": ("s", _spans("self", "checks.check_soc")),
    "checks.check_soc.tuples": ("count", _field("checks.check_soc.tuples")),
    "checks.blowups": ("count", _field("checks.blowups")),
    "checks.check_membership.self_s": ("s", _spans("self", "checks.check_membership")),
    "checks.check_nonsignalling.self_s": ("s", _spans("self", "checks.check_nonsignalling")),
    "checks.check_comb.self_s": ("s", _spans("self", "checks.check_comb")),
    "checks.check_order_consistency.self_s": ("s", _spans("self", "checks.check_order_consistency")),
    "checks.check_via_totalisations.self_s": ("s", _spans("self", "checks.check_via_totalisations")),
    "checks.check_one_way.self_s": ("s", _spans("self", "checks.check_one_way")),
    "typesys.parse_type.self_s": ("s", _spans("self", "typesys.parse_type")),
    "typesys.normalize.calls": ("count", _spans("calls", "typesys.normalize")),
    "typesys.normalize.self_s": ("s", _spans("self", "typesys.normalize")),
    "typesys.fo_embedding.self_s": ("s", _spans("self", "typesys.fo_embedding")),
    "events.down_closed_subsets.count": ("count", _field("events.down_closed_subsets.count", "counts")),
    "events.linear_extensions.count": ("count", _field("events.linear_extensions.count", "counts")),
    "events.self_s": ("s", _spans("self", "events.")),
    "mll.prove.calls": ("count", _spans("calls", "mll.prove")),
    "mll.prove.self_s": ("s", _spans("self", "mll.prove")),
    "mll.parse_sequent.self_s": ("s", _spans("self", "mll.parse_sequent")),
    "mll.verify_proof.self_s": ("s", _spans("self", "mll.verify_proof")),
    "gallery.build.s": ("s", _spans("total", "gallery.build")),
    "axioms.run_axiom.self_s": ("s", _spans("self", "axioms.")),
    "axioms.C5.s": ("s", _spans("total", "axioms.C5")),
    "cli.main_s": ("s", _spans("total", "cli.main")),
    "cli.import_s": ("s", _field("import_s")),
    "traced_pass_s": ("s", _field("wall")),
    "trace_overhead_frac": ("ratio", _field("overhead")),
}


def worker(args: list[str]) -> dict:
    """Run ``worker.py`` in a fresh interpreter and return its JSON line."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed_of(run: dict) -> float:
    """Nominal over median time of the reference kernel in the loop's interpreter."""
    return REFERENCE_NOMINAL_S[run["reference_kind"]] / statistics.median(run["reference_s"])


def end_to_end(common: list[str]) -> tuple[dict, dict, bool]:
    runs = [worker([*common, "--mode", "setup"]) for _ in range(SETUP_RUNS)]
    res = worker([*common, "--mode", "timed"])
    runs.append(res)
    # Verdict times are scaled by the loop interpreter's speed: how long the
    # reference kernel took there against REFERENCE_NOMINAL_S.
    speed = speed_of(res)
    times, count = res["times"], res["count"]
    attempted = sum(count.values())
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "verdicts_per_s": len(times) / sum(times),
        "verdict_p50_ms": 1e3 * statistics.median(times),
        "verdict_p90_ms": 1e3 * percentile(times, 90),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {
        "setup_s": raw["setup_s"],
        "verdicts_per_s": raw["verdicts_per_s"] / speed,
        "verdict_p50_ms": raw["verdict_p50_ms"] * speed,
        "verdict_p90_ms": raw["verdict_p90_ms"] * speed,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    report = {
        "raw": raw,
        "speed": speed,
        "reference_samples": len(res["reference_s"]),
        "attempted": attempted,
        "verdicts": len(times),
        "passes": attempted // res["cases"],
        "wrong_verdicts": count["wrong"],
        "failed_frac": (count["blowup"] + count["failed"]) / attempted,
        "failed_frac_base": attempted,
        "blowups": count["blowup"],
        "expected_blowup_share": res["expected_blowups"] / res["cases"],
        "unexpected_failures": count["failed"],
        "p90_samples": len(times),
        "p90_samples_beyond": sum(t > metrics["verdict_p90_ms"] / 1e3 for t in times),
        "setup_s_samples": [r["setup_s"] for r in runs],
        "case_median_ms": res["case_median_ms"],
        "wrong_cases": res["wrong_cases"],
        "failed_cases": res["failed_cases"],
    }
    ok = count["wrong"] == 0 and count["failed"] == 0
    return metrics, report, ok


def per_layer(common: list[str]) -> tuple[dict, dict, bool]:
    res = worker([*common, "--mode", "traced"])
    layers = res["layers"]
    overhead = statistics.median(layer["wall"] for layer in layers) / statistics.median(res["untraced_s"]) - 1.0
    import_s = statistics.median(res["import_s"]) if res["import_s"] else 0.0
    for layer in layers:
        layer.update(overhead=overhead, import_s=import_s)
    metrics, counts_repeat = {}, True
    for name, (unit, read) in PER_LAYER.items():
        values = [read(layer) for layer in layers]
        # counts come from the first traced pass, times are medians
        metrics[name] = values[0] if unit == "count" else statistics.median(values)
        counts_repeat = counts_repeat and (unit != "count" or len(set(values)) == 1)
    count = res["count"]
    report = {
        "attempted": sum(count.values()),
        "traced_passes": len(layers),
        "counts_repeat": counts_repeat,
        "wrong_verdicts": count["wrong"],
        "unexpected_failures": count["failed"],
        "tuples_by_case": layers[0]["tuples_by_case"],
        "blowups_by_case": layers[0]["blowups_by_case"],
        "spans_seen": sorted(layers[0]["calls"]),
        "wrong_cases": res["wrong_cases"],
        "failed_cases": res["failed_cases"],
    }
    ok = count["wrong"] == 0 and count["failed"] == 0
    return metrics, report, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "causkit", "__init__.py")):
        print(f"no causkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        metrics, report, ok = per_layer(common)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics, report, ok = end_to_end(common)
        units = END_TO_END
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        **report,
    }
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"wrong_verdicts = {report['wrong_verdicts']} count")
        print(f"failed_frac = {report['failed_frac']:.6g} ratio (of {report['failed_frac_base']} attempted)")
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": report["attempted"],
                "failed": report["unexpected_failures"],
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
